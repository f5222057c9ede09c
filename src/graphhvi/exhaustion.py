"""Galerkin-style exhaustion: solve on growing ball truncations of a
parametrically infinite graph and monitor increments and tail masses.

Three generator families ship (path, binary-tree, lattice-2d); weight laws
are closed-form functions of combinatorial depth, drawn from a fixed
formula catalog.  Truncation deletes edges leaving the ball and extends
node functions by zero, the discrete Dirichlet condition.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .calculus import embedding_diagnostics, sobolev_norms
from .graphs import WeightedGraph, from_data
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


FORMULAS = {
    "constant": _constant,
    "geometric-in-depth": _geometric,
    "power-in-depth": _power,
    "root-only": _root_only,   # load laws only; not valid as a weight law
}


@dataclass(frozen=True)
class WeightLaw:
    """Closed-form value as a function of combinatorial depth."""

    formula: str
    params: dict

    def __call__(self, depth: int) -> float:
        try:
            fn = FORMULAS[self.formula]
        except KeyError:
            raise ValueError(f"unknown formula id: {self.formula!r}") from None
        return fn(self.params, depth)

    @staticmethod
    def from_document(doc: dict) -> "WeightLaw":
        if not isinstance(doc, dict) or "formula" not in doc:
            raise ValueError(f"malformed weight law: {doc!r}")
        params = {k: v for k, v in doc.items() if k != "formula"}
        return WeightLaw(doc["formula"], params)


_KINDS = ("path", "binary-tree", "lattice-2d")


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
        for name in ("mu", "rho", "gamma", "kappa"):
            law = getattr(self, name)
            for d in range(4):
                if law(d) <= 0:
                    raise ValueError(f"weight law {name} not positive at "
                                     f"depth {d}")

    @property
    def root(self) -> tuple:
        return {"path": (0,), "binary-tree": ("",), "lattice-2d": (0, 0)}[self.kind]

    def depth(self, node: tuple) -> int:
        if self.kind == "path":
            return node[0]
        if self.kind == "binary-tree":
            return len(node[0])
        return abs(node[0]) + abs(node[1])

    def node_id(self, node: tuple) -> str:
        if self.kind == "path":
            return str(node[0])
        if self.kind == "binary-tree":
            return "r" + node[0]
        return f"{node[0]},{node[1]}"

    def neighbors(self, node: tuple):
        if self.kind == "path":
            (d,) = node
            if d > 0:
                yield (d - 1,)
            yield (d + 1,)
        elif self.kind == "binary-tree":
            (word,) = node
            if word:
                yield (word[:-1],)
            yield (word + "0",)
            yield (word + "1",)
        else:
            x, y = node
            yield (x + 1, y)
            yield (x - 1, y)
            yield (x, y + 1)
            yield (x, y - 1)

    def edge_depth(self, u: tuple, v: tuple) -> int:
        return min(self.depth(u), self.depth(v))


def truncate(gen: GraphGenerator, r: float,
             max_nodes: int = 100_000) -> WeightedGraph:
    """Induced subgraph on the open rho-ball of radius ``r`` at the root.

    Edges leaving the ball are deleted (Dirichlet truncation).  Raises if
    the ball exceeds ``max_nodes`` (possible for summable rho laws).
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    root = gen.root
    dist = {root: 0.0}
    heap = [(0.0, root)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done or d > dist[u]:
            continue
        done.add(u)
        if len(done) > max_nodes:
            raise ValueError(f"ball exceeds max_nodes={max_nodes}; "
                             "radius too large for this rho law")
        for v in gen.neighbors(u):
            nd = d + gen.rho(gen.edge_depth(u, v))
            if nd < r and nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    members = sorted(done, key=lambda u: (dist[u], gen.node_id(u)))
    node_recs = [(gen.node_id(u), gen.mu(gen.depth(u)),
                  gen.kappa(gen.depth(u))) for u in members]
    inside = set(members)
    adj, seen = [], set()
    for u in members:
        for v in gen.neighbors(u):
            if v in inside:
                key = frozenset((u, v))
                if key not in seen:
                    seen.add(key)
                    ed = gen.edge_depth(u, v)
                    adj.append((gen.node_id(u), gen.node_id(v),
                                gen.rho(ed), gen.gamma(ed)))
    return from_data(node_recs, adj)


def load_vector(gen: GraphGenerator, g: WeightedGraph,
                f_law: WeightLaw) -> np.ndarray:
    """Evaluate a load law on a truncation, by node depth."""
    return np.array([f_law(gen.depth(_parse_id(gen, v))) for v in g.nodes])


def _parse_id(gen: GraphGenerator, vid: str) -> tuple:
    if gen.kind == "path":
        return (int(vid),)
    if gen.kind == "binary-tree":
        return (vid[1:],)
    x, y = vid.split(",")
    return (int(x), int(y))


@dataclass
class ExhaustionReport:
    radii: list[float]
    solutions: list[SolveReport]
    graphs: list[WeightedGraph]
    increments: list[float]      # len(radii) - 1
    tail_masses: list[float]
    converged: bool


def exhaust(gen: GraphGenerator, sp: Superpotential, f_law: WeightLaw,
            radii, eps: float,
            options: SolverOptions | None = None,
            max_nodes: int = 100_000) -> ExhaustionReport:
    """Solve on nested ball truncations, warm-started by zero extension.

    ``increments[i]`` is the W-Hilbert norm, on the level-i node set, of the
    difference between consecutive solutions.  ``tail_masses[i]`` is the
    embedding tail of solution i outside the previous radius (radius/2 at
    level 0).  Converged when the last increment and tail are below ``eps``.
    """
    radii = [float(r) for r in radii]
    if any(b <= a for a, b in zip(radii, radii[1:])) or not radii:
        raise ValueError("radii must be nonempty and strictly increasing")
    if eps <= 0:
        raise ValueError("eps must be positive")
    opts = options or SolverOptions()
    root_id = gen.node_id(gen.root)

    graphs: list[WeightedGraph] = []
    reports: list[SolveReport] = []
    increments: list[float] = []
    tails: list[float] = []
    prev_g: WeightedGraph | None = None
    prev_phi: np.ndarray | None = None
    for i, r in enumerate(radii):
        g = truncate(gen, r, max_nodes=max_nodes)
        f = load_vector(gen, g, f_law)
        warm = np.zeros(g.num_nodes)
        if prev_g is not None:  # positions of the previous level's nodes
            prev_at = [g.node_index(v) for v in prev_g.nodes]
            warm[prev_at] = prev_phi
        level_opts = dataclasses.replace(opts, initial=warm,
                                         with_certificates=False)
        rep = solve_elliptic(EllipticProblem(g, sp, f), level_opts)
        graphs.append(g)
        reports.append(rep)
        if prev_g is not None:
            diff = rep.phi[prev_at] - prev_phi
            increments.append(sobolev_norms(prev_g, diff).w_hilbert)
        tail_r = radii[i - 1] if i > 0 else r / 2.0
        tails.append(embedding_diagnostics(g, root_id, tail_r,
                                           rep.phi).tail_mass)
        if not rep.converged:
            return ExhaustionReport(radii[:i + 1], reports, graphs,
                                    increments, tails, converged=False)
        prev_g, prev_phi = g, rep.phi
    converged = (len(increments) >= 1 and increments[-1] < eps
                 and tails[-1] < eps)
    return ExhaustionReport(radii, reports, graphs, increments, tails,
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
    if not isinstance(weights, dict) or set(weights) != {"mu", "rho",
                                                         "gamma", "kappa"}:
        raise ValueError("generator 'weights' must define mu, rho, gamma, kappa")
    gen = GraphGenerator(
        kind=doc.get("kind", ""),
        mu=WeightLaw.from_document(weights["mu"]),
        rho=WeightLaw.from_document(weights["rho"]),
        gamma=WeightLaw.from_document(weights["gamma"]),
        kappa=WeightLaw.from_document(weights["kappa"]),
    )
    if "f" not in doc:
        raise ValueError("generator document missing 'f' law")
    return gen, WeightLaw.from_document(doc["f"])
