"""Acceptance gate: eleven oracle-backed criteria with pinned tolerances.

Each criterion prints one pass/fail line.  Criteria 4 through 8 register
every solver output they produce; criterion 11 replays all of them through
the weak-form verifier.  The brute-force oracle of criterion 6 is a
multiresolution grid search: a coarse sweep is refined down to the 1e-3
grid, pruning only cells that a Lipschitz bound certifies cannot contain
a zero of the residual.
"""

import dataclasses
import itertools
import time

import numpy as np
import pytest

import graphhvi as gh
from graphhvi.operators import assemble, bilinear_form, coercivity_gap, \
    constants
from graphhvi.solvers import (EllipticProblem, ParabolicProblem,
                              SolverOptions, certify, energy, hvi_residual,
                              solve_elliptic, solve_parabolic,
                              sum_directional_bound, sum_functional)
from graphhvi.superpotential import PiecewiseDensity, build
from graphhvi.exhaustion import GraphGenerator, WeightLaw, exhaust, truncate

from conftest import (abs_density, make_random_graph, quad_density,
                      ramp_jump_density, zero_density)

# every elliptic solve produced by criteria 4-8, replayed by criterion 11
_REGISTRY: list[tuple] = []


def _conclude(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _corpus(count=50, max_nodes=200, seed=101):
    rng = np.random.default_rng(seed)
    return [make_random_graph(rng, max_nodes=max_nodes) for _ in range(count)]


# ---------------------------------------------------------------------------
# criteria 1-2: operator identities on a random corpus


def test_criterion_01_summation_by_parts():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for g in _corpus():
        opr = assemble(g)
        for _ in range(20):
            phi = rng.uniform(-1, 1, g.num_nodes)
            psi = rng.uniform(-1, 1, g.num_nodes)
            lhs = gh.inner_product_nodes(g, gh.apply(opr, phi), psi)
            rhs = bilinear_form(opr, phi, psi)
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    elapsed = time.perf_counter() - start
    _conclude(1, "summation by parts on 50 random graphs",
              worst <= 1e-12 and elapsed < 5.0,
              f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_coercivity():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for g in _corpus():
        opr = assemble(g)
        m = constants(g).m_coercive
        for _ in range(20):
            phi = rng.uniform(-1, 1, g.num_nodes)
            worst = min(worst, coercivity_gap(opr, phi, m))
    elapsed = time.perf_counter() - start
    _conclude(2, "data-derived coercivity bound",
              worst >= -1e-12 and elapsed < 5.0,
              f"worst gap {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: difference quotients vs the generalized directional bound


def test_criterion_03_aubin_clarke():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    lam = 1e-6
    graphs = [make_random_graph(rng, max_nodes=5, weight_lo=0.2,
                                weight_hi=1.0) for _ in range(5)]
    worst = -np.inf
    for sp in (abs_density(), quad_density(1.0), ramp_jump_density()):
        for g in graphs:
            for _ in range(200):
                phi = rng.uniform(-2, 2, g.num_nodes)
                psi = rng.uniform(-0.1, 0.1, g.num_nodes)
                quot = (sum_functional(g, sp, phi + lam * psi)
                        - sum_functional(g, sp, phi)) / lam
                bound = sum_directional_bound(g, sp, phi, psi)
                worst = max(worst, quot - bound)
    elapsed = time.perf_counter() - start
    _conclude(3, "difference quotients below the directional bound",
              worst <= 1e-7 and elapsed < 10.0,
              f"worst excess {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: soft-threshold closed form on edgeless graphs


def test_criterion_04_soft_threshold():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    sp = abs_density()
    worst = 0.0
    for n in (10, 200, 1000):
        mu = rng.uniform(0.5, 2.0, n)
        kappa = rng.uniform(0.5, 2.0, n)
        g = gh.from_data([(f"v{i}", mu[i], kappa[i]) for i in range(n)], [])
        f = rng.uniform(-3, 3, n)
        near = np.abs(np.abs(f) - 1.0) < 0.05  # keep away from the kink
        f[near] = np.sign(f[near]) * 1.5
        rep = solve_elliptic(EllipticProblem(g, sp, f))
        oracle = np.sign(f) * np.maximum(np.abs(f) - 1.0, 0.0) * mu / kappa
        worst = max(worst, float(np.max(np.abs(rep.phi - oracle))))
        assert rep.converged
        _REGISTRY.append((g, sp, f, rep.phi))
    elapsed = time.perf_counter() - start
    _conclude(4, "soft-threshold shrinkage oracle",
              worst <= 1e-10 and elapsed < 2.0,
              f"worst node err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 5: quadratic density reduces to one linear equation


def test_criterion_05_linear_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(10):
        g = make_random_graph(rng, max_nodes=100)
        c = float(rng.uniform(0.2, 1.5))
        f = rng.uniform(-2, 2, g.num_nodes)
        rep = solve_elliptic(EllipticProblem(g, quad_density(c), f))
        # (K + C + c M) phi = M f, solved densely from the edge arrays
        direct = np.linalg.solve(_dense_operator(g) + np.diag(c * g.mu),
                                 g.mu * f)
        rel = (gh.w_hilbert_norm(g, rep.phi - direct)
               / max(gh.w_hilbert_norm(g, direct), 1e-300))
        worst = max(worst, rel)
        assert rep.converged
        _REGISTRY.append((g, quad_density(c), f, rep.phi))
    elapsed = time.perf_counter() - start
    _conclude(5, "quadratic case matches the direct solve",
              worst <= 1e-10 and elapsed < 5.0,
              f"worst W rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 6: brute-force grid existence witness


def _dense_operator(g):
    A = np.diag(g.kappa.astype(float))
    for s, d, c in zip(g.edge_src, g.edge_dst, g.gamma):
        A[s, s] += c
        A[s, d] -= c
    return A


def _batch_max_residual(A, mu, sp, f, pts):
    out = np.empty(len(pts))
    for k in range(0, len(pts), 200_000):
        chunk = pts[k:k + 200_000]
        target = f[None, :] - (chunk @ A.T) / mu[None, :]
        lo, hi = sp.interval(chunk)
        r = np.maximum(np.maximum(lo - target, target - hi), 0.0)
        out[k:k + 200_000] = r.max(axis=1)
    return out


def _snap_closure(pts, bps, h, n):
    """Add copies of points with coordinates near a breakpoint snapped onto
    it, closed under snapping several coordinates at once."""
    frontier = pts
    collected = [pts]
    for _ in range(n):
        extra = []
        for b in bps:
            for i in range(n):
                mask = np.abs(frontier[:, i] - b) <= h
                if mask.any():
                    cp = frontier[mask].copy()
                    cp[:, i] = b
                    extra.append(cp)
        if not extra:
            break
        frontier = np.unique(np.round(np.concatenate(extra), 9), axis=0)
        collected.append(frontier)
    return np.unique(np.round(np.concatenate(collected), 9), axis=0)


_GRID_LEVELS = (0.5, 0.1, 0.02, 0.004, 0.001)


def _grid_witness(g, sp, f, box=5.0):
    """Smallest inclusion residual reachable by the step-1e-3 grid search.

    Pruning keeps every cell whose center residual is below 1.5*lip*h,
    where lip bounds the residual's sensitivity to a sup-norm move of the
    state along a fixed smoothness sheet; jump sheets are covered by the
    snapped breakpoint copies.
    """
    A = _dense_operator(g)
    mu, n = g.mu, g.num_nodes
    lip = (float(np.max(np.abs(A).sum(axis=1) / mu))
           + sp.derivative_bound(box + 1.0))
    bp = sp.density.breakpoints
    bps = bp[(bp > -box) & (bp < box)]
    h0 = _GRID_LEVELS[0]
    axis = np.unique(np.concatenate(
        [np.arange(-box, box + h0 / 2, h0), bps]))
    pts = np.stack(np.meshgrid(*([axis] * n), indexing="ij"),
                   axis=-1).reshape(-1, n)
    for level, h in enumerate(_GRID_LEVELS):
        res = _batch_max_residual(A, mu, sp, f, pts)
        if level == len(_GRID_LEVELS) - 1:
            return float(res.min())
        keep = res <= 1.5 * lip * h
        surv = pts[keep]
        assert 0 < len(surv) <= 400_000, "grid pruning budget exceeded"
        h_new = _GRID_LEVELS[level + 1]
        offs = np.arange(-h / 2, h / 2 + h_new / 2, h_new)
        grid = np.stack(np.meshgrid(*([offs] * n), indexing="ij"),
                        axis=-1).reshape(-1, n)
        pts = (surv[:, None, :] + grid[None, :, :]).reshape(-1, n)
        pts = np.unique(np.round(pts, 9), axis=0)
        pts = pts[np.all(np.abs(pts) <= box, axis=1)]
        pts = _snap_closure(pts, bps, h, n)
    raise AssertionError("unreachable")


def _nonconvex_instances(rng, count=10):
    """Tiny graphs with gentle piecewise-linear nonconvex densities."""
    out = []
    for k in range(count):
        n = 1 + k % 3
        ids = [f"v{i}" for i in range(n)]
        nodes = [(v, 1.0, 1.0) for v in ids]
        adj = [(ids[i], ids[i + 1], 1.0, 0.04) for i in range(n - 1)]
        g = gh.from_data(nodes, adj)
        b = float(rng.uniform(-1.0, 1.0))
        s = float(rng.uniform(0.0, 0.1))
        a = float(rng.uniform(-0.1, 0.1))
        if k % 2 == 0:  # downward jump
            delta = float(rng.uniform(0.1, 0.25))
            sp = build(PiecewiseDensity((b,), ([a + delta, s], [a, s])))
        else:           # continuous tent: increasing then decreasing
            left = np.array([a, 0.1])
            right = np.array([a + 0.2 * b, -0.1])
            sp = build(PiecewiseDensity((b,), (left, right)))
        f = rng.uniform(-1.0, 1.0, n)
        out.append((g, sp, f))
    return out


def test_criterion_06_brute_force_existence():
    start = time.perf_counter()
    rng = np.random.default_rng(6)
    opts = SolverOptions(tol=1e-11)
    worst_solver = 0.0
    worst_witness = 0.0
    for g, sp, f in _nonconvex_instances(rng):
        rep = solve_elliptic(EllipticProblem(g, sp, f), opts)
        assert rep.converged
        solver_res = float(np.max(gh.verify_inclusion(g, sp, rep.phi, f)))
        witness = _grid_witness(g, sp, f)
        worst_solver = max(worst_solver, solver_res)
        worst_witness = max(worst_witness, witness)
        _REGISTRY.append((g, sp, f, rep.phi))
    elapsed = time.perf_counter() - start
    _conclude(6, "grid search witnesses existence",
              worst_solver <= 2e-3 and worst_witness <= 2e-3
              and elapsed < 60.0,
              f"solver {worst_solver:.2e}, grid witness "
              f"{worst_witness:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 7: certified uniqueness means one attractor


def _certified_instances(rng, count=10):
    out = []
    k = 0
    while len(out) < count:
        k += 1
        n = 2 + k % 4
        ids = [f"v{i}" for i in range(n)]
        nodes = [(v, w := float(rng.uniform(0.5, 2.0)), w) for v in ids]
        adj = []
        for i in range(1, n):
            r = float(rng.uniform(0.5, 2.0))
            adj.append((ids[int(rng.integers(0, i))], ids[i], r, r))
        g = gh.from_data(nodes, adj)
        if k % 2 == 0:  # upward jump plus drift: convex, small growth
            b = float(rng.uniform(-0.5, 0.5))
            a = float(rng.uniform(-0.1, 0.1))
            delta = float(rng.uniform(0.05, 0.2))
            sp = build(PiecewiseDensity((b,), ([a, 0.1], [a + delta, 0.1])))
        else:           # smooth gently nonconvex quadratic density
            q = float(rng.uniform(-0.02, -0.005))
            sp = build(PiecewiseDensity((), ([0.0, 0.1, q],)))
        f = rng.uniform(-1.0, 1.0, n)
        problem = EllipticProblem(g, sp, f)
        exists, unique, _ = (c.satisfied for c in certify(problem))
        if exists and unique:
            out.append(problem)
    return out


def test_criterion_07_uniqueness():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for problem in _certified_instances(rng):
        g = problem.graph
        solutions = []
        for _ in range(10):
            opts = SolverOptions(tol=1e-11,
                                 initial=rng.uniform(-5, 5, g.num_nodes))
            rep = solve_elliptic(problem, opts)
            assert rep.converged
            solutions.append(rep.phi)
            _REGISTRY.append((g, problem.sp, problem.f, rep.phi))
        for a, b in itertools.combinations(solutions, 2):
            worst = max(worst, gh.w_hilbert_norm(g, a - b))
    elapsed = time.perf_counter() - start
    _conclude(7, "certified instances have a single attractor",
              worst <= 1e-6 and elapsed < 30.0,
              f"worst pairwise W gap {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 8: implicit Euler is first order


def test_criterion_08_parabolic_order():
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    g = make_random_graph(rng, max_nodes=10, min_nodes=10,
                          weight_lo=0.5, weight_hi=1.5)
    sp = quad_density(0.8)
    f = rng.uniform(-1, 1, g.num_nodes)
    phi0 = rng.uniform(-1, 1, g.num_nodes)
    T = 1.0

    def run(steps, register):
        problem = ParabolicProblem(graph=g, sp=sp, f=f, phi0=phi0,
                                   T=T, steps=steps)
        res = solve_parabolic(problem)
        assert res.converged
        if register:
            tau = T / steps
            g_eff = dataclasses.replace(g, kappa=g.kappa + g.mu / tau)
            for k in range(1, steps + 1):
                f_eff = f + res.states[k - 1] / tau
                _REGISTRY.append((g_eff, sp, f_eff, res.states[k]))
        return res.states[-1]

    reference = run(1024, register=False)  # oracle trajectory
    errors = [gh.w_hilbert_norm(g, run(m, register=True) - reference)
              for m in (16, 32, 64)]
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    elapsed = time.perf_counter() - start
    _conclude(8, "implicit Euler halves the error per refinement",
              all(1.8 <= r <= 2.2 for r in ratios) and elapsed < 10.0,
              f"ratios {ratios[0]:.3f}, {ratios[1]:.3f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 9: energy dissipation for convex densities


def test_criterion_09_parabolic_dissipation():
    start = time.perf_counter()
    rng = np.random.default_rng(9)
    worst = 0.0
    for k in range(10):
        g = make_random_graph(rng, max_nodes=12)
        sp = abs_density(0.3) if k % 2 == 0 else quad_density(
            float(rng.uniform(0.2, 1.0)))
        f = rng.uniform(-1, 1, g.num_nodes)
        phi0 = rng.uniform(-1, 1, g.num_nodes)
        res = solve_parabolic(ParabolicProblem(graph=g, sp=sp, f=f,
                                               phi0=phi0, T=1.0, steps=20))
        assert res.converged
        energies = [energy(g, sp, f, state) for state in res.states]
        worst = max(worst, max(b - a for a, b in zip(energies,
                                                     energies[1:])))
    elapsed = time.perf_counter() - start
    _conclude(9, "energy decreases along implicit Euler",
              worst <= 1e-10 and elapsed < 10.0,
              f"worst energy increase {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 10: exhaustion on the geometric path


def test_criterion_10_exhaustion():
    start = time.perf_counter()
    const = WeightLaw("constant", {"value": 1.0})
    gen = GraphGenerator(kind="path",
                         mu=WeightLaw("geometric-in-depth",
                                      {"value": 1.0, "ratio": 0.5}),
                         rho=const, gamma=const, kappa=const)
    sp = zero_density()
    f_law = WeightLaw("root-only", {"value": 1.0})
    radii = [2, 4, 8, 16, 32]
    rep = exhaust(gen, sp, f_law, radii, 1e-6)
    final_increment = rep.increments[-1]

    # linear case: the exhaustion limit agrees with a dense direct solve of
    # (K + C) phi = M f on the largest truncation
    g = rep.graphs[-1]
    f = np.zeros(g.num_nodes)
    f[g.node_index("0")] = 1.0
    direct = np.linalg.solve(_dense_operator(g), g.mu * f)
    gap = gh.w_hilbert_norm(g, rep.solutions[-1].phi - direct)
    elapsed = time.perf_counter() - start
    _conclude(10, "exhaustion increments vanish and match the direct solve",
              rep.converged and final_increment < 1e-6
              and gap <= final_increment and elapsed < 20.0,
              f"increment {final_increment:.2e}, direct gap {gap:.2e}, "
              f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 11: every solver output passes the weak-form verifier


def test_criterion_11_verifier_consistency():
    start = time.perf_counter()
    assert _REGISTRY, "criteria 4-8 must run before criterion 11"
    rng = np.random.default_rng(11)
    worst = np.inf
    for g, sp, f, phi in _REGISTRY:
        tests = rng.uniform(-3, 3, (1000, g.num_nodes))
        vals = hvi_residual(g, sp, phi, f, tests)
        worst = min(worst, min(vals))
    elapsed = time.perf_counter() - start
    _conclude(11, "weak-form residual nonnegative for all solver outputs",
              worst >= -1e-9 and elapsed < 20.0,
              f"{len(_REGISTRY)} outputs, worst value {worst:.2e}, "
              f"{elapsed:.1f}s")
