"""Finite weighted directed graphs with node measure and edge conductance.

A graph file stores each undirected adjacency once; in memory both
orientations are materialized with identical rho and gamma, so the
orientation-symmetry invariant holds by construction.  Node order is the
file order and is the canonical index order for every vector and matrix
built on the graph.
"""

from __future__ import annotations

import json
import numbers
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from operator import itemgetter

import numpy as np


class GraphFormatError(ValueError):
    """A graph document violates the file format or a structural invariant."""


_TOP_KEYS = {"nodes", "adjacencies"}


@dataclass(frozen=True)
class WeightedGraph:
    """Immutable weighted directed graph.

    Attributes
    ----------
    nodes : tuple of str
        Node identifiers in canonical order.
    mu, kappa : ndarray
        Positive node measure and potential coefficient, canonical order.
    edge_src, edge_dst : ndarray of int
        Directed edges as index pairs; closed under orientation reversal.
    rho, gamma : ndarray
        Positive edge weight and conductance, aligned with the edge arrays.
    """

    nodes: tuple[str, ...]
    mu: np.ndarray
    kappa: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray
    rho: np.ndarray
    gamma: np.ndarray
    _templates: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)   # reports' node-table texts

    def __post_init__(self):
        for arr in (self.mu, self.kappa, self.edge_src, self.edge_dst,
                    self.rho, self.gamma):
            arr.setflags(write=False)

    @classmethod
    def undirected(cls, nodes, mu, kappa, a, b, rho, gamma) -> WeightedGraph:
        """Each adjacency ``(a[k], b[k])`` in both orientations, consecutively,
        each with weights ``rho[k]`` and ``gamma[k]``."""
        return cls(tuple(nodes), mu, kappa, np.column_stack((a, b)).ravel(),
                   np.column_stack((b, a)).ravel(), np.repeat(rho, 2),
                   np.repeat(gamma, 2))

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        """Number of directed edges (twice the adjacency count)."""
        return len(self.edge_src)

    def node_index(self, node_id: str) -> int:
        try:
            return self.nodes.index(node_id)  # _index costs more for one id
        except ValueError:
            raise GraphFormatError(f"unknown node id: {node_id!r}") from None

    @cached_property
    def _index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.nodes)}

    @property
    def mu_total(self) -> float:
        return float(self.mu.sum())


def _finite(x) -> bool:
    """A finite real number, not a bool (nor an int beyond float range)."""
    return (isinstance(x, numbers.Real) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def _floats(col) -> np.ndarray:
    """``col`` as floats, with nan where an entry is not a finite number."""
    if set(map(type, col)) <= {float}:   # all JSON floats: numpy checks them
        return np.array(col, dtype=float)
    return np.array([float(x) if _finite(x) else np.nan for x in col])


def _weight(name: str, x: np.ndarray) -> tuple:
    return f"non-positive or non-finite {name}", ~(np.isfinite(x) & (x > 0))


def _columns(recs, k: int, kind: str) -> tuple:
    recs = list(recs)
    if set(map(len, recs)) - {k}:
        raise GraphFormatError(f"every {kind} record must have {k} fields")
    return list(zip(*recs)) or [()] * k, recs.__getitem__


def _raise_first(record, checks: list) -> None:
    """Raise for the first record failing a ``(fault, mask)`` check."""
    bad = np.array([mask for _, mask in checks], dtype=bool)
    if bad.any():
        i = np.flatnonzero(bad.any(axis=0))[0]
        fault = checks[np.flatnonzero(bad[:, i])[0]][0]   # in check order
        raise GraphFormatError(f"{fault} in record {record(i)!r}")


def from_data(nodes, adjacencies) -> WeightedGraph:
    """Build a graph from ``(id, mu, kappa)`` and ``(a, b, rho, gamma)`` records.

    Each undirected adjacency must appear exactly once; both orientations
    are materialized.  Raises :class:`GraphFormatError` on an empty node
    list, duplicate ids, self-loops, non-positive or non-finite weights or
    unknown node references, naming the first offending record.
    """
    return _from_columns(_columns(nodes, 3, "node"),
                         _columns(adjacencies, 4, "adjacency"))


def _from_columns(nodes: tuple, adjacencies: tuple) -> WeightedGraph:
    """:func:`from_data` on ``(columns, record)`` pairs (``record(i)``: record
    ``i`` for an error)."""
    (ids, mu, kappa), node_rec = nodes
    ids, mu, kappa = list(map(str, ids)), _floats(mu), _floats(kappa)
    n = len(ids)
    index = dict(zip(ids, range(n)))
    dup = np.zeros(n, dtype=bool)
    if len(index) < n:   # flag each record after an id's first
        first = dict(zip(ids[::-1], range(n - 1, -1, -1)))
        dup = np.fromiter(map(first.get, ids), np.intp, n) != np.arange(n)
    _raise_first(node_rec, [("duplicate node id", dup),
                            _weight("measure", mu), _weight("kappa", kappa)])
    if not n:
        raise GraphFormatError("graph has no nodes")

    (a, b, rho, gamma), adj_rec = adjacencies
    m = len(a)
    ia, ib = (np.fromiter(map(index.get, c, repeat(-1)), np.intp, m)
              for c in (a, b))
    unknown = (ia < 0) | (ib < 0)
    loop = ia == ib   # where an end is unknown (-1), compare the ids instead
    loop[unknown] = [a[i] == b[i] for i in np.flatnonzero(unknown).tolist()]
    # one key per unordered index pair; an unknown node (-1) makes it negative
    key = np.minimum(ia, ib) * n + np.maximum(ia, ib)
    dup = np.ones(m, dtype=bool)
    dup[np.unique(key, return_index=True)[1]] = False
    rho, gamma = _floats(rho), _floats(gamma)
    _raise_first(adj_rec, [
        ("self-loop", loop), ("reference to unknown node", unknown),
        ("duplicate adjacency", dup), _weight("rho", rho),
        _weight("gamma", gamma)])
    return WeightedGraph.undirected(ids, mu, kappa, ia, ib, rho, gamma)


def _record_columns(recs: list, keys: tuple, kind: str) -> tuple:
    """The columns of record objects, one per key, and ``record(i)``: record
    ``i`` as a tuple in ``keys`` order.  Each record must have exactly
    ``keys``, and its ids (all keys but the two weights) must be strings."""
    try:   # a record with every key and no other has exactly ``keys``
        cols = (all(map(isinstance, recs, repeat(dict)))
                and [list(map(itemgetter(k), recs)) for k in keys])
    except KeyError:
        cols = None
    if (not cols or set(map(len, recs)) - {len(keys)}
            or not all(all(map(isinstance, c, repeat(str)))
                       for c in cols[:-2])):
        for rec in recs:
            if (not isinstance(rec, dict) or set(rec) != set(keys)
                    or not all(isinstance(rec[k], str) for k in keys[:-2])):
                raise GraphFormatError(f"malformed {kind} record {rec!r}")
    return cols, lambda i: tuple(c[i] for c in cols)


def _read_json(path: str):
    """The JSON document in the UTF-8 file at ``path``."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def load_graph(document) -> WeightedGraph:
    """Parse a graph from a JSON document (a dict, or a UTF-8 file path)."""
    if isinstance(document, str):
        document = _read_json(document)
    if not isinstance(document, dict):
        raise GraphFormatError("graph document must be a JSON object")
    extra = set(document) - _TOP_KEYS
    if extra:
        raise GraphFormatError(f"unknown keys in graph document: {sorted(extra)}")
    if "nodes" not in document:
        raise GraphFormatError("graph document missing 'nodes'")
    if not all(isinstance(document.get(k, []), list) for k in _TOP_KEYS):
        raise GraphFormatError("graph 'nodes' and 'adjacencies' must be lists")
    nodes = _record_columns(document["nodes"], ("id", "mu", "kappa"), "node")
    adjacencies = _record_columns(document.get("adjacencies", []),
                                  ("a", "b", "rho", "gamma"), "adjacency")
    return _from_columns(nodes, adjacencies)


def _check_nodes(g: WeightedGraph, phi) -> np.ndarray:
    """``phi`` as a float vector with one entry per node of ``g``."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (g.num_nodes,):
        raise GraphFormatError(f"node function shape {phi.shape} does not "
                               f"match graph with {g.num_nodes} nodes")
    return phi


def node_function(g: WeightedGraph, values) -> np.ndarray:
    """Coerce ``values`` (mapping or array) to a vector in canonical node order.

    A mapping must assign a value to every node and nothing else; every
    value of a mapping or list must be a finite number.
    """
    if isinstance(values, Mapping):
        table = values
        try:   # every node found among as many keys: the support is exact
            values = list(map(table.__getitem__, g.nodes))
        except KeyError:
            pass
        if values is table or len(table) != g.num_nodes:
            missing = set(g.nodes) - set(table)
            extra = set(table) - set(g.nodes)
            raise GraphFormatError(
                f"node function support mismatch: missing={sorted(missing)}, "
                f"extra={sorted(extra)}")
    if isinstance(values, (list, tuple)):
        values = _floats(values)
    arr = _check_nodes(g, values)
    if not np.all(np.isfinite(arr)):
        raise GraphFormatError("node function values must be finite numbers")
    return arr


class NodeTable(Mapping):
    """Read-only ``{node id: value}`` view of a node vector, the inverse of
    :func:`node_function`; reports render it straight from the array."""

    def __init__(self, g: WeightedGraph, phi):
        self.graph, self.values = g, np.asarray(phi, dtype=float)

    def __getitem__(self, node_id) -> float:
        return float(self.values[self.graph._index[node_id]])

    def __iter__(self):
        return iter(self.graph.nodes)

    def __len__(self) -> int:
        return self.graph.num_nodes


def degrees(g: WeightedGraph) -> np.ndarray:
    """Rho-weighted degree of every node, in node order: out and in alike,
    since each adjacency comes in both orientations with one rho."""
    return np.bincount(g.edge_src, g.rho, g.num_nodes)


def distances_from(g: WeightedGraph, center: str) -> np.ndarray:
    """Shortest-path rho-distance from ``center`` to every node (inf if none)."""
    from scipy.sparse import coo_matrix, csgraph   # lazy: no command needs it
    rho = coo_matrix((g.rho, (g.edge_src, g.edge_dst)),
                     shape=(g.num_nodes, g.num_nodes))
    return csgraph.dijkstra(rho.tocsr(), indices=g.node_index(center))


def ball(g: WeightedGraph, center: str, r: float) -> set[str]:
    """Open ball ``{w : dist_rho(center, w) < r}`` (strict inequality)."""
    if not r > 0:   # also NaN
        raise ValueError("ball radius must be positive")
    d = distances_from(g, center)
    return {g.nodes[i] for i in np.flatnonzero(d < r)}


def volume(g: WeightedGraph) -> float:
    """Sum of rho over all directed edges (both orientations)."""
    return float(g.rho.sum())
