"""Workload inputs for the benchmark.

Every input is built here, without graphhvi: graph, problem and generator
JSON files for the CLI, and the same data as arrays for the output check in
``oracle.py``.  Each workload takes the run's seed but gives byte-identical
files for every seed (see the note above ``elliptic_lattice``).  Random
draws use ``random.Random`` seeded with a string, whose stream does not
depend on the numpy version or on hash randomization.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

import numpy as np

from oracle import Density, Graph

TOL = 1e-8   # the CLI default tolerance, written explicitly into problems

ABS = Density((0.0,), ((-1.0,), (1.0,)))
# two down-jumps (at -0.5 and 0) and one up-jump (at 0.5)
NONCONVEX3 = Density((-0.5, 0.0, 0.5),
                     ((-0.5, 0.1), (-1.0, 0.1), (1.0, 0.1), (0.3, 0.1)))
DENSITIES = {"abs": ABS, "nonconvex3": NONCONVEX3}


@dataclass
class Op:
    """One CLI command and what its report must satisfy."""

    label: str
    argv: list[str]
    kind: str                 # "elliptic", "parabolic" or "exhaust"
    graph: Graph
    density: Density
    f: np.ndarray
    extra: dict = field(default_factory=dict)

    def argv_in(self, root: str) -> list[str]:
        """The argv with its file arguments placed under ``root``."""
        return [os.path.join(root, a) if flag in _FILE_FLAGS else a
                for flag, a in zip([""] + self.argv, self.argv)]


_FILE_FLAGS = ("--problem", "--generator", "--out")


@dataclass
class Workload:
    ops: list[Op]             # one pass of the closed loop, in order
    files: dict[str, bytes]   # relative path -> content
    warmup: list[Op]          # tiny ops that fill lazy imports before timing


# ---------------------------------------------------------------------------
# graphs


def lattice(R: int, kappa: float, gamma_ratio: float | None = None) -> Graph:
    """Open l1-ball ``|x| + |y| < R`` of Z^2; unit mu and rho.

    ``gamma`` is 1, or ``gamma_ratio ** depth`` of the shallower endpoint.
    """
    pts = [(x, y) for x in range(-R + 1, R) for y in range(-R + 1, R)
           if abs(x) + abs(y) < R]
    pts.sort(key=lambda p: (abs(p[0]) + abs(p[1]), p))
    index = {p: i for i, p in enumerate(pts)}
    depth = [abs(x) + abs(y) for x, y in pts]
    a, b = [], []
    for (x, y), i in index.items():
        for q in ((x + 1, y), (x, y + 1)):
            j = index.get(q)
            if j is not None:
                a.append(i)
                b.append(j)
    return _graph([f"{x},{y}" for x, y in pts], depth, a, b, kappa,
                  gamma_ratio)


def binary_tree(R: int, kappa: float) -> Graph:
    """Binary words of length < R; the root is ``r``."""
    words = [""]
    for _ in range(R - 1):
        words += [w + c for w in words if len(w) == len(words[-1])
                  for c in "01"]
    index = {w: i for i, w in enumerate(words)}
    a = [index[w[:-1]] for w in words[1:]]
    b = [index[w] for w in words[1:]]
    return _graph(["r" + w for w in words], [len(w) for w in words], a, b,
                  kappa)


def path(n: int, kappa: float, gamma_ratio: float | None = None) -> Graph:
    return _graph([str(i) for i in range(n)], list(range(n)),
                  list(range(n - 1)), list(range(1, n)), kappa, gamma_ratio)


def _graph(ids, depth, a, b, kappa, gamma_ratio=None) -> Graph:
    depth = np.asarray(depth, dtype=float)
    a = np.asarray(a, dtype=np.intp)
    b = np.asarray(b, dtype=np.intp)
    if gamma_ratio is None:
        gamma = np.ones(len(a))
    else:
        gamma = gamma_ratio ** np.minimum(depth[a], depth[b])
    n = len(ids)
    return Graph(ids=list(ids), depth=depth, mu=np.ones(n),
                 kappa=np.full(n, float(kappa)), a=a, b=b, rho=np.ones(len(a)),
                 gamma=gamma)


def graph_document(g: Graph) -> dict:
    return {
        "nodes": [{"id": v, "mu": float(m), "kappa": float(k)}
                  for v, m, k in zip(g.ids, g.mu, g.kappa)],
        "adjacencies": [{"a": g.ids[i], "b": g.ids[j], "rho": float(r),
                         "gamma": float(w)}
                        for i, j, r, w in zip(g.a, g.b, g.rho, g.gamma)],
    }


def density_document(d: Density) -> dict:
    return {"breakpoints": list(d.breakpoints),
            "pieces": [list(c) for c in d.pieces]}


def _dump(doc) -> bytes:
    return (json.dumps(doc, separators=(",", ":")) + "\n").encode()


def _table(g: Graph, values: np.ndarray) -> dict:
    return {v: float(x) for v, x in zip(g.ids, values)}


def _problem(graph_file: str, g: Graph, d: Density, f: np.ndarray,
             parabolic: dict | None = None) -> bytes:
    doc = {"graph": graph_file, "superpotential": density_document(d),
           "f": _table(g, f), "solver": {"tol": TOL}}
    if parabolic is not None:
        doc["parabolic"] = parabolic
    return _dump(doc)


def _rng(*tags) -> random.Random:
    return random.Random(":".join(str(t) for t in tags))


def _grid(lo: float, hi: float, m: int, at: float = 0.5) -> list[float]:
    """One point at fraction ``at`` of each of ``m`` equal slices of
    [lo, hi]."""
    return [lo + (hi - lo) * (j + at) / m for j in range(m)]


# ---------------------------------------------------------------------------
# workloads


def _elliptic_op(label, problem_file, g, d, f, out_file) -> Op:
    return Op(label, ["solve-elliptic", "--problem", problem_file,
                      "--out", out_file], "elliptic", g, d, f)


def _warmup_elliptic(files: dict) -> list[Op]:
    g = path(5, 2.0)
    files["warm/graph.json"] = _dump(graph_document(g))
    ops = []
    for name, d in DENSITIES.items():
        f = np.linspace(-2.0, 2.0, 5)
        files[f"warm/{name}.json"] = _problem("graph.json", g, d, f)
        ops.append(_elliptic_op(f"warm-{name}", f"warm/{name}.json", g, d, f,
                                "warm/out.json"))
    return ops


# 40 loads per graph rather than 20, so that the tail percentile (ten
# operations beyond it) lies above p90.
SWEEP_LOADS = 40
# The loads are the draw of seed 7, the seed of the ROADMAP item 1 baseline.
SWEEP_DRAW = 7


def sweep_small(seed: int) -> Workload:
    """``abs``, kappa 2, loads uniform in [-2, 2]: ``SWEEP_LOADS`` loads on
    each of a 113-node lattice, a 255-node binary tree and a 40-node path
    with geometric gamma.

    The loads are one fixed draw: the seed does not change them (see the
    note above ``elliptic_lattice``).
    """
    files: dict[str, bytes] = {}
    graphs = {"lattice": lattice(8, 2.0), "tree": binary_tree(8, 2.0),
              "path": path(40, 2.0, gamma_ratio=0.8)}
    ops = []
    for name, g in graphs.items():
        files[f"{name}.json"] = _dump(graph_document(g))
    for k in range(SWEEP_LOADS):
        for name, g in graphs.items():
            rng = _rng(SWEEP_DRAW, "sweep-small", name, k)
            f = np.array([rng.uniform(-2.0, 2.0) for _ in g.ids])
            pf = f"{name}-{k:02d}.json"
            files[pf] = _problem(f"{name}.json", g, ABS, f)
            ops.append(_elliptic_op(pf[:-5], pf, g, ABS, f, "out.json"))
    return Workload(ops, files, _warmup_elliptic(files))


def _depth_load(g: Graph, a: float) -> np.ndarray:
    return a * (1.0 + g.depth) ** -0.5


# Solve time is chaotic in the load: moving the lattice amplitude ``a`` by
# 0.1% can nearly double it.  Amplitudes drawn per seed added 15-30% of
# run-to-run spread on top of the machine's own drift, and per-seed
# sweep-small loads made its tail time (an order statistic with ten
# operations beyond it) spread by 20-30%.  So every workload uses fixed
# inputs, here a grid over [2.5, 4], and the seed does not change them.


def elliptic_lattice(seed: int) -> Workload:
    """4513-node lattice, kappa 1e-3; ``abs`` and ``nonconvex3`` alternate,
    load ``a (1 + depth)^(-1/2)`` with ``a`` on a grid in [2.5, 4] (abs at
    2.625, 3.125, 3.625; nonconvex3 at 2.875, 3.375, 3.875)."""
    files: dict[str, bytes] = {}
    g = lattice(48, 1e-3)
    files["graph.json"] = _dump(graph_document(g))
    amps = {"abs": _grid(2.5, 4.0, 3, 0.25),
            "nonconvex3": _grid(2.5, 4.0, 3, 0.75)}
    ops = []
    for k in range(3):
        for name, d in DENSITIES.items():
            f = _depth_load(g, amps[name][k])
            pf = f"{name}-{k}.json"
            files[pf] = _problem("graph.json", g, d, f)
            ops.append(_elliptic_op(pf[:-5], pf, g, d, f, "out.json"))
    return Workload(ops, files, _warmup_elliptic(files))


PARABOLIC_T, PARABOLIC_STEPS = 1.0, 16


def _parabolic_op(label, problem_file, g, d, f, out_file) -> Op:
    return Op(label, ["solve-parabolic", "--problem", problem_file,
                      "--out", out_file], "parabolic", g, d, f,
              {"T": PARABOLIC_T, "steps": PARABOLIC_STEPS})


def parabolic_lattice(seed: int) -> Workload:
    """The 4513-node lattice with kappa 2 and ``nonconvex3``; implicit Euler
    with T 1, 16 steps and phi0 0; ``a`` on a grid in [2.5, 4]."""
    files: dict[str, bytes] = {}
    g = lattice(48, 2.0)
    files["graph.json"] = _dump(graph_document(g))
    section = {"T": PARABOLIC_T, "steps": PARABOLIC_STEPS,
               "phi0": _table(g, np.zeros(len(g.ids)))}
    ops = []
    for k, a in enumerate(_grid(2.5, 4.0, 4)):
        f = _depth_load(g, a)
        pf = f"nonconvex3-{k}.json"
        files[pf] = _problem("graph.json", g, NONCONVEX3, f, section)
        ops.append(_parabolic_op(pf[:-5], pf, g, NONCONVEX3, f, "out.json"))
    wg = path(5, 2.0)
    files["warm/graph.json"] = _dump(graph_document(wg))
    wf = np.linspace(-2.0, 2.0, 5)
    files["warm/problem.json"] = _problem(
        "graph.json", wg, NONCONVEX3, wf,
        {"T": PARABOLIC_T, "steps": PARABOLIC_STEPS,
         "phi0": _table(wg, np.zeros(5))})
    warm = [_parabolic_op("warm", "warm/problem.json", wg, NONCONVEX3, wf,
                          "warm/out.json")]
    return Workload(ops, files, warm)


EXHAUST_RADII = (4, 8, 16, 32, 64, 100)
EXHAUST_LOAD = 200.0


def _generator_document() -> dict:
    one = {"formula": "constant", "value": 1.0}
    return {"kind": "lattice-2d",
            "weights": {"mu": one, "rho": one, "gamma": one, "kappa": one},
            "f": {"formula": "root-only", "value": EXHAUST_LOAD},
            "superpotential": density_document(ABS)}


def _exhaust_op(label, gen_file, radii, out_file) -> Op:
    g = lattice(radii[-1], 1.0)
    f = np.where(g.depth == 0, EXHAUST_LOAD, 0.0)
    return Op(label, ["exhaust", "--generator", gen_file, "--radii",
                      ",".join(str(r) for r in radii), "--out", out_file],
              "exhaust", g, ABS, f,
              {"level_sizes": [2 * r * r - 2 * r + 1 for r in radii]})


def exhaust_lattice(seed: int) -> Workload:
    """``exhaust`` on the unit-weight lattice generator, kappa 1, load
    ``root-only`` 200 and ``abs``, radii 4 to 100 (25 to 19,801 nodes).

    The inputs are fixed: the seed does not change them.
    """
    files = {"generator.json": _dump(_generator_document()),
             "warm/generator.json": _dump(_generator_document())}
    ops = [_exhaust_op("exhaust", "generator.json", EXHAUST_RADII,
                       "out.json")]
    warm = [_exhaust_op("warm", "warm/generator.json", (2, 3),
                        "warm/out.json")]
    return Workload(ops, files, warm)


WORKLOADS = {
    "sweep-small": sweep_small,
    "elliptic-lattice": elliptic_lattice,
    "parabolic-lattice": parabolic_lattice,
    "exhaust-lattice": exhaust_lattice,
}


def write_files(workload: Workload, root: str) -> None:
    """Write the inputs under ``root``; op paths are relative to it."""
    for rel, data in sorted(workload.files.items()):
        path_ = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path_), exist_ok=True)
        with open(path_, "wb") as fh:
            fh.write(data)
