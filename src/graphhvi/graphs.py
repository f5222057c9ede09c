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
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra


class GraphFormatError(ValueError):
    """A graph document violates the file format or a structural invariant."""


_NODE_KEYS = {"id", "mu", "kappa"}
_ADJ_KEYS = {"a", "b", "rho", "gamma"}
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

    def __post_init__(self):
        for arr in (self.mu, self.kappa, self.edge_src, self.edge_dst,
                    self.rho, self.gamma):
            arr.setflags(write=False)
        object.__setattr__(self, "_index",
                           {v: i for i, v in enumerate(self.nodes)})

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        """Number of directed edges (twice the adjacency count)."""
        return len(self.edge_src)

    def node_index(self, node_id: str) -> int:
        try:
            return self._index[node_id]
        except KeyError:
            raise GraphFormatError(f"unknown node id: {node_id!r}") from None

    @property
    def mu_total(self) -> float:
        return float(self.mu.sum())


def _real(x) -> bool:
    """A real number that is not a bool (JSON ``true`` is not a number)."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _finite(x) -> bool:
    """A finite real number that is not a bool."""
    return _real(x) and abs(x) <= sys.float_info.max


def _weight(x, name: str, rec) -> float:
    """A weight as a float, if it is a finite positive number (not a bool)."""
    if _real(x) and 0 < x <= sys.float_info.max:
        return float(x)
    raise GraphFormatError(f"non-positive or non-finite {name} in record "
                           f"{rec!r}")


def from_data(nodes, adjacencies) -> WeightedGraph:
    """Build a graph from ``(id, mu, kappa)`` and ``(a, b, rho, gamma)`` records.

    Each undirected adjacency must appear exactly once; both orientations
    are materialized.  Raises :class:`GraphFormatError` on an empty node
    list, duplicate ids, self-loops, non-positive or non-finite weights or
    unknown node references.
    """
    ids, mu, kappa = [], [], []
    seen = set()
    for rec in nodes:
        vid, m, k = rec
        if vid in seen:
            raise GraphFormatError(f"duplicate node id in record {rec!r}")
        seen.add(vid)
        ids.append(str(vid))
        mu.append(_weight(m, "measure", rec))
        kappa.append(_weight(k, "kappa", rec))
    if not ids:
        raise GraphFormatError("graph has no nodes")
    index = {v: i for i, v in enumerate(ids)}

    src, dst, rho, gamma = [], [], [], []
    seen_adj = set()
    for rec in adjacencies:
        a, b, r, g = rec
        if a == b:
            raise GraphFormatError(f"self-loop in record {rec!r}")
        if a not in index or b not in index:
            raise GraphFormatError(f"reference to unknown node in record {rec!r}")
        key = (min(a, b), max(a, b))
        if key in seen_adj:
            raise GraphFormatError(f"duplicate adjacency in record {rec!r}")
        seen_adj.add(key)
        r, g = _weight(r, "rho", rec), _weight(g, "gamma", rec)
        ia, ib = index[a], index[b]
        src += [ia, ib]
        dst += [ib, ia]
        rho += [r, r]
        gamma += [g, g]

    return WeightedGraph(
        nodes=tuple(ids),
        mu=np.asarray(mu, dtype=float),
        kappa=np.asarray(kappa, dtype=float),
        edge_src=np.asarray(src, dtype=np.intp),
        edge_dst=np.asarray(dst, dtype=np.intp),
        rho=np.asarray(rho, dtype=float),
        gamma=np.asarray(gamma, dtype=float),
    )


def load_graph(document) -> WeightedGraph:
    """Parse a graph from a JSON document (dict, JSON string, or file path)."""
    if isinstance(document, str):
        text = document.lstrip()
        if text.startswith("{"):
            document = json.loads(document)
        else:
            with open(document) as fh:
                document = json.load(fh)
    if not isinstance(document, dict):
        raise GraphFormatError("graph document must be a JSON object")
    extra = set(document) - _TOP_KEYS
    if extra:
        raise GraphFormatError(f"unknown keys in graph document: {sorted(extra)}")
    if "nodes" not in document:
        raise GraphFormatError("graph document missing 'nodes'")
    if not all(isinstance(document.get(k, []), list) for k in _TOP_KEYS):
        raise GraphFormatError("graph 'nodes' and 'adjacencies' must be lists")

    nodes = []
    for rec in document["nodes"]:
        if (not isinstance(rec, dict) or set(rec) != _NODE_KEYS
                or not isinstance(rec["id"], str)):
            raise GraphFormatError(f"malformed node record {rec!r}")
        nodes.append((rec["id"], rec["mu"], rec["kappa"]))
    adjacencies = []
    for rec in document.get("adjacencies", []):
        if (not isinstance(rec, dict) or set(rec) != _ADJ_KEYS
                or not isinstance(rec["a"], str)
                or not isinstance(rec["b"], str)):
            raise GraphFormatError(f"malformed adjacency record {rec!r}")
        adjacencies.append((rec["a"], rec["b"], rec["rho"], rec["gamma"]))
    return from_data(nodes, adjacencies)


def node_function(g: WeightedGraph, values) -> np.ndarray:
    """Coerce ``values`` (mapping or array) to a vector in canonical node order.

    A mapping must assign a value to every node and nothing else; every
    value of a mapping or list must be a finite number.
    """
    if isinstance(values, dict):
        missing = set(g.nodes) - set(values)
        extra = set(values) - set(g.nodes)
        if missing or extra:
            raise GraphFormatError(
                f"node function support mismatch: missing={sorted(missing)}, "
                f"extra={sorted(extra)}")
        values = [values[v] for v in g.nodes]
    if isinstance(values, (list, tuple)) and not all(map(_real, values)):
        raise GraphFormatError("node function values must be numbers")
    arr = np.asarray(values, dtype=float)
    if arr.shape != (g.num_nodes,):
        raise GraphFormatError(
            f"node function has shape {arr.shape}, expected ({g.num_nodes},)")
    if not np.all(np.isfinite(arr)):
        raise GraphFormatError("node function values must be finite")
    return arr


def node_table(g: WeightedGraph, phi: np.ndarray) -> dict[str, float]:
    """Inverse of :func:`node_function`: vector to ``{node id: value}``."""
    return {v: float(phi[i]) for i, v in enumerate(g.nodes)}


@dataclass(frozen=True)
class DegreeRecord:
    deg_out: float
    deg_in: float
    deg: float


def degrees(g: WeightedGraph) -> dict[str, DegreeRecord]:
    """Rho-weighted out/in/total degree of every node."""
    out = np.zeros(g.num_nodes)
    inn = np.zeros(g.num_nodes)
    np.add.at(out, g.edge_src, g.rho)
    np.add.at(inn, g.edge_dst, g.rho)
    return {v: DegreeRecord(float(out[i]), float(inn[i]), float(out[i] + inn[i]))
            for i, v in enumerate(g.nodes)}


def _rho_matrix(g: WeightedGraph):
    return coo_matrix((g.rho, (g.edge_src, g.edge_dst)),
                      shape=(g.num_nodes, g.num_nodes)).tocsr()


def distances_from(g: WeightedGraph, center: str) -> np.ndarray:
    """Shortest-path rho-distance from ``center`` to every node (inf if none)."""
    i = g.node_index(center)
    if g.num_edges == 0:
        d = np.full(g.num_nodes, np.inf)
        d[i] = 0.0
        return d
    return dijkstra(_rho_matrix(g), indices=i)


def rho_distance(g: WeightedGraph, v: str, w: str) -> float:
    """Shortest-path distance under rho; 0 for ``v == w``, inf if disconnected."""
    j = g.node_index(w)
    return float(distances_from(g, v)[j])


def ball(g: WeightedGraph, center: str, r: float) -> set[str]:
    """Open ball ``{w : dist_rho(center, w) < r}`` (strict inequality)."""
    if r <= 0:
        raise ValueError("ball radius must be positive")
    d = distances_from(g, center)
    return {g.nodes[i] for i in np.flatnonzero(d < r)}


def volume(g: WeightedGraph) -> float:
    """Sum of rho over all directed edges (both orientations)."""
    return float(g.rho.sum())
