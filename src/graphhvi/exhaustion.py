"""Galerkin-style exhaustion: solve on growing ball truncations of a
parametrically infinite graph and monitor increments and tail masses.

Three generator families ship (path, binary-tree, lattice-2d); weight laws
are closed-form functions of combinatorial depth, drawn from a fixed
formula catalog.  Truncation deletes edges leaving the ball and extends
node functions by zero, the discrete Dirichlet condition.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .calculus import _weighted_lp, sobolev_norms
# unused here; stays importable as graphhvi.exhaustion.embedding_diagnostics
from .calculus import embedding_diagnostics  # noqa: F401
from .graphs import GraphFormatError, WeightedGraph, _finite
from .solvers import EllipticProblem, SolveReport, SolverOptions, solve_elliptic
from .superpotential import Superpotential


def _constant(params, depth):
    return float(params["value"])


def _geometric(params, depth):
    return float(params["value"]) * float(params["ratio"]) ** depth


def _power(params, depth):
    return float(params["value"]) * (1.0 + depth) ** float(params["exponent"])


def _root_only(params, depth):
    return float(params["value"]) if depth == 0 else 0.0


# formula id -> (its parameters, its value at a depth)
FORMULAS = {
    "constant": (("value",), _constant),
    "geometric-in-depth": (("value", "ratio"), _geometric),
    "power-in-depth": (("value", "exponent"), _power),
    "root-only": (("value",), _root_only),   # load laws only, not weights
}


@dataclass(frozen=True)
class WeightLaw:
    """Closed-form value as a function of combinatorial depth; ``params``
    are exactly the formula's parameters, each a finite number."""

    formula: str
    params: dict

    def __post_init__(self):
        if not isinstance(self.formula, str) or self.formula not in FORMULAS:
            raise ValueError(f"unknown formula id: {self.formula!r}")
        names = FORMULAS[self.formula][0]
        if not isinstance(self.params, dict) or set(self.params) != set(names):
            raise ValueError(f"formula {self.formula!r} takes exactly the "
                             f"parameters {list(names)}, not {self.params!r}")
        for name, value in self.params.items():
            if not _finite(value):
                raise ValueError(f"{self.formula} parameter {name!r} must be "
                                 f"a finite number, not {value!r}")

    def __call__(self, depth: int) -> float:
        try:
            return FORMULAS[self.formula][1](self.params, depth)
        except OverflowError:
            raise ValueError(f"{self.formula} law overflows at depth "
                             f"{depth}") from None

    @staticmethod
    def from_document(doc: dict) -> "WeightLaw":
        if not isinstance(doc, dict) or "formula" not in doc:
            raise ValueError(f"malformed weight law: {doc!r}")
        params = {k: v for k, v in doc.items() if k != "formula"}
        return WeightLaw(doc["formula"], params)


_KINDS = ("path", "binary-tree", "lattice-2d")
_WEIGHTS = ("mu", "rho", "gamma", "kappa")


@dataclass(frozen=True)
class GraphGenerator:
    """Parametric infinite graph with depth-dependent weight laws.

    ``mu`` and ``kappa`` are evaluated at node depth; ``rho`` and ``gamma``
    at edge depth, defined as the smaller endpoint depth.
    """

    kind: str
    mu: WeightLaw
    rho: WeightLaw
    gamma: WeightLaw
    kappa: WeightLaw

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown generator kind: {self.kind!r}")
        for name in _WEIGHTS:
            _depth_weights(self, name, 4)


def _depth_weights(gen: GraphGenerator, name: str, n: int) -> np.ndarray:
    """Weight law ``name`` at depths 0 .. n - 1, each finite and positive."""
    values = [getattr(gen, name)(d) for d in range(n)]
    for d, x in enumerate(values):
        if not 0 < x <= sys.float_info.max:
            raise GraphFormatError(f"non-positive or non-finite {name} at "
                                   f"depth {d}: {x!r}")
    return np.array(values)


_MAX_NODES = 100_000
# the number of nodes at depth d >= 1 of each kind's layout
_LEVEL_SIZE = {"path": lambda d: 1, "binary-tree": lambda d: 2 ** d,
               "lattice-2d": lambda d: 4 * d}


def _layout(kind: str, depth: int) -> tuple:
    """The ball of depths 0 .. ``depth``: node ids ordered by depth, then by
    id, the depth of each node, and the adjacencies as (shallower, deeper)
    index arrays, ordered by the shallower end, then by child slot."""
    d = np.arange(depth + 1, dtype=np.intp)
    if kind == "path":
        return list(map(str, range(depth + 1))), d, d[:-1], d[1:]
    if kind == "binary-tree":
        # heap layout: a level's ids sorted are its codes in binary order,
        # and node i has children 2i + 1 and 2i + 2
        ids = ["r"]
        for k in range(depth):
            ids += [u + c for u in ids[2 ** k - 1:] for c in "01"]
        b = np.arange(1, len(ids), dtype=np.intp)
        return ids, np.repeat(d, 2 ** d), (b - 1) // 2, b
    # lattice-2d: the diamond |x| + |y| <= depth
    c = np.arange(-depth, depth + 1)
    inside = np.abs(c)[:, None] + np.abs(c) <= depth
    x, y = (v[inside] for v in np.meshgrid(c, c))
    # the ids "x,y" sort as the pairs (str(x), str(y)), since "," sorts
    # below every digit: order by depth, then by those texts' ranks
    names, w = list(map(str, c.tolist())), len(c)
    rank = np.empty(w, dtype=np.intp)
    rank[sorted(range(w), key=names.__getitem__)] = np.arange(w)
    order = np.argsort(((np.abs(x) + np.abs(y)) * w + rank[x + depth]) * w
                       + rank[y + depth])
    x, y = x[order], y[order]
    names = np.array(names, dtype=object)
    ids = list(map(",".join, zip(names[x + depth].tolist(),
                                 names[y + depth].tolist())))
    node_depth = np.abs(x) + np.abs(y)
    grid = np.empty((2 * depth + 1, 2 * depth + 1), dtype=np.intp)
    grid[x, y] = np.arange(len(x))    # negative coordinates from the end
    # the child slots of the nodes above depth: (x+1, y) if x >= 0,
    # (x-1, y) if x <= 0, (x, y+1) if y >= 0 and (x, y-1) if y <= 0
    m = np.searchsorted(node_depth, depth)
    x, y = x[:m, None], y[:m, None]
    has = np.hstack((x >= 0, x <= 0, y >= 0, y <= 0))
    b = grid[(x + [1, -1, 0, 0])[has], (y + [0, 0, 1, -1])[has]]
    return ids, node_depth, np.nonzero(has)[0], b


def _balls(gen: GraphGenerator, radii) -> tuple[list, np.ndarray, np.ndarray]:
    """The truncations at the increasing ``radii``, sliced from one layout
    of the largest, and each node's depth and rho-distance in the largest."""
    # Every edge joins depth d to depth d + 1, so a depth-d node lies at
    # rho-distance rho(0) + ... + rho(d - 1): each ball is whole levels.
    depth, count, dist, cuts = 0, 1, gen.rho(0), []
    for r in radii:
        while dist < r and count <= _MAX_NODES:
            depth += 1
            count += _LEVEL_SIZE[gen.kind](depth)
            dist += gen.rho(depth)
        cuts.append(depth)
    if count > _MAX_NODES:
        raise ValueError(f"ball exceeds max_nodes={_MAX_NODES}; "
                         "radius too large for this rho law")
    ids, node_depth, a, b = _layout(gen.kind, depth)
    mu, kappa = (_depth_weights(gen, w, depth + 1)[node_depth]
                 for w in ("mu", "kappa"))
    edge_depth = node_depth[a]
    rho, gamma = (_depth_weights(gen, w, depth) for w in ("rho", "gamma"))
    node_dist = np.concatenate(([0.0], np.cumsum(rho)))[node_depth]
    rho, gamma = rho[edge_depth], gamma[edge_depth]
    # a smaller ball is a prefix of the largest: its first k nodes and the
    # 2m directed edges of its first m adjacencies
    g = WeightedGraph.undirected(ids, mu, kappa, a, b, rho, gamma)
    balls = [WeightedGraph(g.nodes[:k], g.mu[:k], g.kappa[:k],
                           g.edge_src[:2 * m], g.edge_dst[:2 * m],
                           g.rho[:2 * m], g.gamma[:2 * m])
             for k, m in zip(np.searchsorted(node_depth, cuts, side="right"),
                             np.searchsorted(edge_depth, cuts))]
    return balls, node_depth, node_dist


def truncate(gen: GraphGenerator, r: float) -> WeightedGraph:
    """Induced subgraph on the open rho-ball of radius ``r`` at the root.

    Nodes are ordered by depth, then by id: the root comes first, and the
    nodes of a smaller ball are a prefix of those of a larger one.  Edges
    leaving the ball are deleted (Dirichlet truncation).  Raises if the
    ball exceeds ``_MAX_NODES`` (possible for summable rho laws) or a
    weight in it is not finite and positive.
    """
    if not r > 0:   # also NaN
        raise ValueError("radius must be positive")
    return _balls(gen, [r])[0][0]


@dataclass
class ExhaustionReport:
    radii: list[float]
    solutions: list[SolveReport]
    graphs: list[WeightedGraph]
    increments: list[float]      # len(radii) - 1
    tail_masses: list[float]
    converged: bool


def _study_levels(radii, eps: float) -> list[float]:
    """``radii`` as floats, once they and ``eps`` pass exhaust's checks."""
    radii = [float(r) for r in radii]
    # 0 < radii[0] < radii[1] < ... < inf, which NaN fails
    if not radii or not all(a < b for a, b in zip([0.0, *radii],
                                                  [*radii, math.inf])):
        raise ValueError("radii must be nonempty, positive, finite and "
                         f"strictly increasing: {radii}")
    if not (_finite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite: {eps}")
    return radii


def exhaust(gen: GraphGenerator, sp: Superpotential, f_law: WeightLaw,
            radii, eps: float) -> ExhaustionReport:
    """Solve on nested ball truncations, warm-started by zero extension.

    ``increments[i]`` is the W-Hilbert norm, on the level-i node set, of the
    difference between consecutive solutions.  ``tail_masses[i]`` is the
    embedding tail of solution i outside the previous radius (radius/2 at
    level 0).  Converged when the last increment and tail are below ``eps``.
    """
    radii = _study_levels(radii, eps)
    graphs, node_depth, dist = _balls(gen, radii)
    f_depth = [f_law(d) for d in range(node_depth[-1] + 1)]
    for d, x in enumerate(f_depth):
        if not math.isfinite(x):
            raise ValueError(f"non-finite f at depth {d}: {x!r}")
    f = np.array(f_depth)[node_depth]

    reports: list[SolveReport] = []
    increments: list[float] = []
    tails: list[float] = []
    prev_phi = np.zeros(0)
    for i, (r, g) in enumerate(zip(radii, graphs)):
        m = len(prev_phi)   # the previous level's nodes come first
        warm = np.concatenate([prev_phi, np.zeros(g.num_nodes - m)])
        rep = solve_elliptic(EllipticProblem(g, sp, f[:g.num_nodes]),
                             SolverOptions(initial=warm))
        if i:
            diff = rep.phi[:m] - prev_phi
            increments.append(sobolev_norms(graphs[i - 1], diff).w_hilbert)
        reports.append(rep)
        out = dist[:g.num_nodes] >= (radii[i - 1] if i else r / 2.0)
        tails.append(_weighted_lp(rep.phi[out], g.mu[out], 2.0))
        if not rep.converged:
            break
        prev_phi = rep.phi
    k = len(reports)
    converged = (k > 1 and reports[-1].converged and increments[-1] < eps
                 and tails[-1] < eps)
    return ExhaustionReport(radii[:k], reports, graphs[:k], increments, tails,
                            converged)


def generator_from_document(doc: dict) -> tuple[GraphGenerator, WeightLaw]:
    """Parse ``{"kind": ..., "weights": {mu, rho, gamma, kappa}, "f": ...}``."""
    if not isinstance(doc, dict):
        raise ValueError("generator document must be an object")
    allowed = {"kind", "weights", "f", "superpotential"}
    extra = set(doc) - allowed
    if extra:
        raise ValueError(f"unknown keys in generator document: {sorted(extra)}")
    weights = doc.get("weights")
    if not isinstance(weights, dict) or set(weights) != set(_WEIGHTS):
        raise ValueError("generator 'weights' must define mu, rho, gamma, kappa")
    gen = GraphGenerator(kind=doc.get("kind", ""), **{
        w: WeightLaw.from_document(weights[w]) for w in _WEIGHTS})
    if "f" not in doc:
        raise ValueError("generator document missing 'f' law")
    return gen, WeightLaw.from_document(doc["f"])
