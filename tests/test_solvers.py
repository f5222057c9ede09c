"""Elliptic and parabolic inclusion solvers against closed-form oracles."""

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

import graphhvi as gh
import graphhvi.solvers
from graphhvi.calculus import lp_norm_nodes
from graphhvi.exhaustion import GraphGenerator, WeightLaw, truncate
from graphhvi.operators import AssembledOperator, apply, assemble
from graphhvi.solvers import (EllipticProblem, ParabolicProblem,
                              SolverOptions, certify, energy, hvi_residual,
                              solve_elliptic, solve_parabolic,
                              sum_directional_bound, sum_functional,
                              verify_inclusion)
from graphhvi.operators import EXACT_TOL
from graphhvi.solvers import _measure, _solve
from graphhvi.superpotential import PiecewiseDensity, build

from conftest import (abs_density, clarke_interval, down_jump_density,
                      make_random_graph, quad_density, zero_density)


def single_node(mu=1.0, kappa=1.0):
    return gh.from_data([("v", mu, kappa)], [])


# two down-jumps (at -0.5 and 0) and one up-jump (at 0.5)
NONCONVEX3 = ((-0.5, 0.0, 0.5), ([-0.5, 0.1], [-1.0, 0.1], [1.0, 0.1],
                                 [0.3, 0.1]))
ABS = ((0.0,), ([-1.0], [1.0]))


def density(spec):
    return build(PiecewiseDensity(spec[0], tuple(map(np.array, spec[1]))))


def oracle_residual(g, spec, phi, f):
    """mu-weighted l2 distance of ``f - L phi`` to the interval spanned by
    the one-sided limits of the density, from the raw edge arrays."""
    lphi = g.kappa * phi
    np.add.at(lphi, g.edge_src, g.gamma * (phi[g.edge_src] - phi[g.edge_dst]))
    target = f - lphi / g.mu
    bps, pieces = spec
    limits = [np.array([np.polyval(pieces[i][::-1], x) for i, x in
                        zip(np.searchsorted(bps, phi, side=side), phi)])
              for side in ("left", "right")]
    lo, hi = np.minimum(*limits), np.maximum(*limits)
    r = np.maximum(np.maximum(lo - target, target - hi), 0.0)
    return math.sqrt(float(np.sum(g.mu * r * r)))


class TestFunctionals:
    def test_sum_functional_hand_value(self):
        g = gh.from_data([("a", 2.0, 1.0), ("b", 0.5, 1.0)], [])
        sp = abs_density()
        # 2*|3| + 0.5*|-4|
        assert sum_functional(g, sp, np.array([3.0, -4.0])) == 8.0

    def test_sum_directional_bound(self):
        g = gh.from_data([("a", 2.0, 1.0)], [])
        sp = abs_density()
        assert sum_directional_bound(g, sp, np.array([0.0]),
                                     np.array([-3.0])) == 6.0

    def test_energy_quadratic_hand_value(self):
        g = single_node(mu=2.0, kappa=3.0)
        sp = quad_density(1.0)
        phi = np.array([2.0])
        f = np.array([1.0])
        # 1/2*kappa*phi^2 + mu*phi^2/2 - mu*f*phi = 6 + 4 - 4
        assert energy(g, sp, f, phi) == pytest.approx(6.0)


class TestEllipticLinear:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            g = make_random_graph(rng, max_nodes=40)
            c = float(rng.uniform(0.1, 2.0))
            f = rng.uniform(-2, 2, g.num_nodes)
            rep = solve_elliptic(EllipticProblem(g, quad_density(c), f))
            assert rep.converged
            # dense route: (K + C + c M) phi = M f
            n = g.num_nodes
            A = np.diag(g.kappa + c * g.mu)
            for s, d, cond in zip(g.edge_src, g.edge_dst, g.gamma):
                A[s, s] += cond
                A[s, d] -= cond
            oracle = np.linalg.solve(A, g.mu * f)
            np.testing.assert_allclose(rep.phi, oracle, rtol=1e-9,
                                       atol=1e-11)

    def test_zero_density_two_nodes(self):
        g = gh.from_data([("a", 1, 1), ("b", 1, 1)], [("a", "b", 1, 1)])
        rep = solve_elliptic(EllipticProblem(g, zero_density(),
                                             np.array([3.0, -1.0])))
        np.testing.assert_allclose(rep.phi, [5.0 / 3.0, 1.0 / 3.0],
                                   atol=1e-12)


class TestEllipticNonsmooth:
    def test_soft_threshold_single_node(self):
        sp = abs_density()
        for f, phi_star, xi_star in [(0.5, 0.0, 0.5), (2.0, 1.0, 1.0),
                                     (-2.0, -1.0, -1.0), (1.0, 0.0, 1.0)]:
            rep = solve_elliptic(EllipticProblem(single_node(), sp,
                                                 np.array([f])))
            assert rep.converged
            assert rep.phi[0] == pytest.approx(phi_star, abs=1e-10)
            assert rep.xi[0] == pytest.approx(xi_star, abs=1e-10)

    def test_solution_pinned_at_jump(self):
        # the unique solution sits exactly at the breakpoint: for f = 2,
        # f - phi must land in the filled interval [0.2, 1.5] at phi = 1
        sp = build(PiecewiseDensity((1.0,), ([0.2], [1.5])))
        rep = solve_elliptic(EllipticProblem(single_node(), sp,
                                             np.array([2.0])))
        assert rep.converged
        assert rep.phi[0] == pytest.approx(1.0, abs=1e-10)
        assert rep.xi[0] == pytest.approx(1.0, abs=1e-10)

    def test_nonconvex_jump_on_graph(self):
        g = gh.from_data(
            [("a", 1.0, 1.0), ("b", 1.0, 1.0), ("c", 1.0, 1.0)],
            [("a", "b", 1.0, 0.1), ("b", "c", 1.0, 0.1)],
        )
        sp = down_jump_density(b=0.4, left=0.2, right=-0.1, slope=0.05)
        f = np.array([1.0, 0.3, -0.8])
        opts = SolverOptions(tol=1e-10)
        rep = solve_elliptic(EllipticProblem(g, sp, f), opts)
        assert rep.converged
        assert np.max(verify_inclusion(g, sp, rep.phi, f)) <= 1e-9
        # xi is an admissible selection reproducing the strong equation
        resid = gh.apply(gh.assemble(g), rep.phi) + rep.xi - f
        np.testing.assert_allclose(resid, 0.0, atol=1e-9)

    def test_report_residual_consistency(self):
        g = make_random_graph(np.random.default_rng(2), max_nodes=15)
        f = np.random.default_rng(3).uniform(-1, 1, g.num_nodes)
        rep = solve_elliptic(EllipticProblem(g, abs_density(0.2), f))
        assert rep.residual_norm == pytest.approx(
            gh.lp_norm_nodes(g, rep.inclusion_residual, 2.0))

    def test_nonconvergence_reports_best_iterate(self):
        opts = SolverOptions(max_inner=0)
        rep = solve_elliptic(EllipticProblem(single_node(), quad_density(),
                                             np.array([5.0])), opts)
        assert not rep.converged
        assert rep.residual_norm > opts.tol


class TestActiveSet:
    def test_release_right_at_down_jump(self):
        # phi = 0 is the only solution: it lies to the right of the pin at
        # -0.5, where the required subgradient -0.4 exceeds the interval
        # [-1.05, -0.55] of the down-jump
        sp = density(NONCONVEX3)
        for start in (-2.0, -0.5, -0.2, 0.0, 0.3, 0.5, 2.0):
            rep = solve_elliptic(EllipticProblem(single_node(), sp,
                                                 np.array([-0.9])),
                                 SolverOptions(initial=np.array([start])))
            assert rep.converged
            assert rep.phi[0] == 0.0

    def test_trace_reasons(self):
        problem = EllipticProblem(single_node(), quad_density(),
                                  np.array([5.0]))
        rep = solve_elliptic(problem)
        assert rep.iterations[-1]["reason"] == "tol-reached"
        assert [t["inner_steps"] for t in rep.iterations] == [0, 1]
        assert rep.iterations[0]["active"] == 0
        rep = solve_elliptic(problem, SolverOptions(max_inner=0))
        assert rep.iterations[-1]["reason"] == "max-iter"
        huge = build(PiecewiseDensity((), (np.array([0.0, 0.0, 1.0]),)))
        with np.errstate(over="ignore", invalid="ignore"):
            rep = solve_elliptic(EllipticProblem(single_node(), huge,
                                                 np.array([1.0])),
                                 SolverOptions(initial=np.array([1e200])))
        assert rep.iterations[-1]["reason"] == "non-finite"
        assert not rep.converged
        assert all("reason" not in t for t in rep.iterations[:-1])

    def test_linear_solve_breakdown_cycles(self):
        # conductances 1e300: p @ Ap underflows to 0 in the first CG step,
        # so the solve makes no progress and the loop reports a cycle
        one = WeightLaw("constant", {"value": 1.0})
        huge = WeightLaw("geometric-in-depth", {"value": 1e300, "ratio": 10.0})
        g = truncate(GraphGenerator("path", one, one, huge, one), 2)
        rep = solve_elliptic(EllipticProblem(g, abs_density(),
                                             np.full(2, 5.0)))
        assert not rep.converged
        assert rep.iterations[-1]["reason"] == "cycled"

    def test_zero_newton_diagonal_cycles_without_warning(self):
        # j' = -t: kappa + mu beta' = 0 divides CG's preconditioner by zero;
        # the Levenberg fallback takes over, and as phi - phi = 1 has no
        # solution the loop cycles
        sp = build(PiecewiseDensity((), (np.array([0.0, -1.0]),)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = solve_elliptic(EllipticProblem(single_node(), sp,
                                                 np.array([1.0])))
        assert not rep.converged
        assert rep.iterations[-1]["reason"] == "cycled"


class TestInexactNewton:
    """Inner CG tolerance 0.01 on the first step and
    ``min(0.1, min(rn / rn0, 1) ** 2)`` on later ones, continued to 1e-13
    within the step once no node would change state after it."""

    @staticmethod
    def lattice_problem(spec, c=1.0):
        """The bench's 481-node lattice, kappa 1e-3, load
        ``3 (1 + depth)^(-1/2)``; mu, kappa and gamma times ``c``."""
        one = WeightLaw("constant", {"value": 1.0})
        g = truncate(GraphGenerator("lattice-2d", one, one, one,
                                    WeightLaw("constant", {"value": 1e-3})),
                     16)
        assert g.num_nodes == 481
        depth = np.array([sum(abs(int(t)) for t in v.split(","))
                          for v in g.nodes], dtype=float)
        g = dataclasses.replace(g, mu=c * g.mu, kappa=c * g.kappa,
                                gamma=c * g.gamma)
        return EllipticProblem(g, density(spec), 3.0 * (1.0 + depth) ** -0.5)

    @pytest.mark.parametrize("spec", [ABS, NONCONVEX3],
                             ids=["abs", "nonconvex3"])
    def test_units_do_not_change_the_solve(self, spec):
        # the weights times 4**10 leave L unchanged and scale the
        # mu-weighted residual norm by exactly 2**10, and so the tolerance
        runs = [solve_elliptic(self.lattice_problem(spec, c),
                               SolverOptions(tol=t))
                for c, t in ((1.0, 1e-8), (4.0 ** 10, 1e-8 * 2.0 ** 10))]
        steps = [[(t["inner_steps"], t["linear_iters"], t["backtracks"],
                   t["active"]) for t in rep.iterations] for rep in runs]
        assert len(steps[0]) > 2
        assert steps[0] == steps[1]
        assert runs[0].phi.tobytes() == runs[1].phi.tobytes()

    def test_linear_iters_count_one_continued_solve(self, monkeypatch):
        calls = []

        def counting(*args):
            out = pcg(*args)
            calls.append(out[2])
            return out

        pcg = graphhvi.solvers._pcg
        monkeypatch.setattr(graphhvi.solvers, "_pcg", counting)
        rep = solve_elliptic(self.lattice_problem(ABS))
        assert rep.converged
        trace = rep.iterations
        assert [t["inner_steps"] for t in trace] == [0] + [1] * len(trace[1:])
        assert len(calls) == len(trace) - 1   # one CG run per step
        assert [t["linear_iters"] for t in trace[1:]] == calls
        # a restarted exact continuation took 430 iterations here
        assert sum(calls) < 430

    @pytest.mark.parametrize("spec, most", [(ABS, 150), (NONCONVEX3, 180)],
                             ids=["abs", "nonconvex3"])
    def test_only_the_finishing_step_runs_exact(self, monkeypatch, spec,
                                                most):
        # continuing whenever the free nodes stayed in their pieces ran
        # every abs step (301 iterations) and nonconvex3 steps 3, 13 and 14
        # (279) to 1e-13, though pinned nodes were released after them
        calls = []

        def recording(A, d, rhs, tol, max_iter, accept=None):
            out = pcg(A, d, rhs, tol, max_iter, accept)
            calls.append((tol, out[1], out[2]))
            return out

        pcg = graphhvi.solvers._pcg
        monkeypatch.setattr(graphhvi.solvers, "_pcg", recording)
        rep = solve_elliptic(self.lattice_problem(spec))
        assert rep.converged
        assert all(rel <= tol for tol, rel, _ in calls)
        # a run that stops at its loose tolerance ends above EXACT_TOL
        exact = [rel <= EXACT_TOL < tol for tol, rel, _ in calls]
        assert exact == [False] * (len(calls) - 1) + [True]
        assert sum(iters for *_, iters in calls) <= most


class TestNonmonotoneSearch:
    """Trials against the largest residual norm of the last ``WINDOW``
    iterates; a repeated state is a cycle only after ``WINDOW`` steps with
    no new best.  ``WINDOW = 1`` is the monotone search."""

    def test_window_one_is_the_monotone_search(self, monkeypatch):
        monkeypatch.setattr(graphhvi.solvers, "WINDOW", 1)
        rep, calls = TestStateResidual.recorded(
            monkeypatch, TestInexactNewton.lattice_problem(NONCONVEX3))
        assert rep.converged
        assert len(rep.iterations) - 1 == 16 and len(calls) == 63
        assert [t["backtracks"] for t in rep.iterations] == [
            0, 2, 10, 0, 2, 2, 2, 2, 2, 10, 1, 1, 1, 10, 0, 1, 0]

    def test_fewer_residual_evaluations(self, monkeypatch):
        # the monotone search makes 63 here: three steps backtrack ten
        # times, find no descent and take the full step anyway
        rep, calls = TestStateResidual.recorded(
            monkeypatch, TestInexactNewton.lattice_problem(NONCONVEX3))
        assert rep.converged and len(calls) <= 40

    def test_revisited_state_is_not_a_cycle(self):
        # draw (1005, 104): a nonmonotone step returns to an earlier state
        # at the same residual; the monotone cycle test stopped there
        rng = np.random.default_rng(1005)
        for i in range(105):
            g, bps, pieces, f = TestEnumerationOracle.draw(rng,
                                                           mild=i % 2 == 1)
        sp = build(PiecewiseDensity(bps, tuple(pieces)))
        rep = solve_elliptic(EllipticProblem(g, sp, f))
        [x] = enumerate_solutions(g, bps, pieces, f)
        assert rep.converged
        assert np.allclose(rep.phi, x, rtol=0, atol=1e-6)


def bitwise_equal(a, b) -> bool:
    """Equal bytes as float64 arrays; so NaN equals the same NaN."""
    return (np.asarray(a, dtype=float).tobytes()
            == np.asarray(b, dtype=float).tobytes())


class TestStateResidual:
    """The residual at a trial point reads each node's interval from its
    state; it must equal the per-piece ``P.polyval`` reference of
    ``conftest.clarke_interval`` byte for byte, NaN included."""

    @staticmethod
    def reference(opr, sp, phi, f):
        target = f - apply(opr, phi)
        lo, hi = clarke_interval(sp.density, phi)
        resid = np.maximum(np.maximum(lo - target, target - hi), 0.0)
        return lp_norm_nodes(opr.graph, resid), target, lo, hi, resid

    def check(self, opr, sp, phi, s, f):
        got = _measure(opr, sp.density, phi, f, s)
        for a, b in zip(got, self.reference(opr, sp, phi, f)):
            assert bitwise_equal(a, b)

    @staticmethod
    def recorded(monkeypatch, problem):
        """The solve's report and the ``(phi, s)`` of every residual."""
        calls = []

        def recording(opr, density, phi, f, s):
            calls.append((opr, phi.copy(), s.copy(), f))
            return _measure(opr, density, phi, f, s)

        monkeypatch.setattr(graphhvi.solvers, "_measure", recording)
        with np.errstate(over="ignore", invalid="ignore"):
            rep = solve_elliptic(problem)
        return rep, calls

    def test_every_trial_of_a_nonconvex_solve(self, monkeypatch):
        base = TestInexactNewton.lattice_problem(NONCONVEX3)
        calls = []
        for scale in (1.0, 0.9, 1.1):   # 29, 40 and 32 trials
            problem = dataclasses.replace(base, f=scale * base.f)
            rep, more = self.recorded(monkeypatch, problem)
            assert rep.converged
            calls += more
        assert len(calls) > 50
        for opr, phi, s, f in calls:
            assert np.array_equal(s, base.sp.density.state(phi))
            self.check(opr, base.sp, phi, s, f)

    def test_on_breakpoints(self):
        problem = TestInexactNewton.lattice_problem(NONCONVEX3)
        sp, g = problem.sp, problem.graph
        bp = sp.density.breakpoints
        rng = np.random.default_rng(3)
        values = np.concatenate((bp, [-0.0, -0.7, -0.2, 0.2, 0.9]))
        opr = assemble(g)
        for _ in range(5):
            phi = rng.choice(values, g.num_nodes)
            s = sp.density.state(phi)
            assert 0 < np.sum(s % 2) < g.num_nodes
            self.check(opr, sp, phi, s, problem.f)
            assert bitwise_equal(verify_inclusion(g, sp, phi, problem.f),
                                 self.reference(opr, sp, phi, problem.f)[-1])

    def test_signed_zero_on_a_breakpoint(self):
        # phi = -0.0 on the breakpoint 0.0: the left limit there is
        # -0.0 + 1.0 * 0.0 = 0.0, though the left piece at -0.0 is -0.0
        sp = build(PiecewiseDensity((0.0,), ([-0.0, 1.0], [1.0, 1.0])))
        phi = np.array([-0.0])
        lo = _measure(assemble(single_node()), sp.density, phi,
                      np.array([0.5]), sp.density.state(phi))[2]
        assert bitwise_equal(lo, [0.0])
        assert bitwise_equal(sp.interval(phi)[0], lo)

    @pytest.mark.parametrize("load", [1e300, -1e300])
    def test_step_overflowing_on_an_unbounded_piece(self, monkeypatch, load):
        # kappa 1e-300 and a constant piece: the released node's step is
        # load / kappa, which overflows; the trial then lies at +-inf in
        # the state one past the outermost breakpoint
        problem = EllipticProblem(single_node(kappa=1e-300), abs_density(),
                                  np.array([load]))
        rep, calls = self.recorded(monkeypatch, problem)
        opr, phi, s, f = calls[-1]
        assert phi[0] == load * math.inf and s[0] == (3 if load > 0 else -1)
        with np.errstate(invalid="ignore"):   # inf * 0 in the polynomials
            for opr, phi, s, f in calls:
                self.check(opr, problem.sp, phi, s, f)
            want = self.reference(opr, problem.sp, phi, f)[0]
        last = rep.iterations[-1]
        assert last["reason"] == "non-finite" and not rep.converged
        assert bitwise_equal(last["residual_norm"], want)


def _sweep_graphs():
    one = WeightLaw("constant", {"value": 1.0})
    two = WeightLaw("constant", {"value": 2.0})
    geo = WeightLaw("geometric-in-depth", {"value": 1.0, "ratio": 0.8})
    return {"lattice": truncate(GraphGenerator("lattice-2d", one, one, one,
                                               two), 8),
            "tree": truncate(GraphGenerator("binary-tree", one, one, one,
                                            two), 8),
            "path": truncate(GraphGenerator("path", one, one, geo, two), 40)}


class TestConvexSweep:
    """The ROADMAP item 1 sweep: ``|t|``, kappa 2, mu = rho = 1, loads
    uniform in [-2, 2] (seed 7).  The problems are convex and uniquely
    solvable; continuation with an active-set polish failed on 3 of the 60
    abs loads (lattice draws 2 and 11, tree draw 5) and on every nonconvex3
    case below."""

    TOL = 1e-8

    def check(self, g, spec, f):
        rep = solve_elliptic(EllipticProblem(g, density(spec), f),
                             SolverOptions(tol=self.TOL))
        assert rep.converged
        assert oracle_residual(g, spec, rep.phi, f) <= self.TOL * 1.001

    @pytest.mark.parametrize("name", ["lattice", "tree", "path"])
    def test_abs_loads(self, name):
        g = _sweep_graphs()[name]
        rng = np.random.default_rng(7)
        for _ in range(20):
            self.check(g, ABS, rng.uniform(-2.0, 2.0, g.num_nodes))

    @pytest.mark.parametrize("kappa, draws", [(2.0, (2, 16)),
                                              (1e-3, (2, 4, 6))])
    def test_nonconvex3_lattice(self, kappa, draws):
        one = WeightLaw("constant", {"value": 1.0})
        g = truncate(GraphGenerator("lattice-2d", one, one, one,
                                    WeightLaw("constant", {"value": kappa})),
                     8)
        rng = np.random.default_rng(7)
        loads = [rng.uniform(-2.0, 2.0, g.num_nodes) for _ in range(20)]
        for k in draws:
            self.check(g, NONCONVEX3, loads[k])


class TestVerifier:
    def test_hvi_nonnegative_at_solution(self):
        g = single_node()
        sp = abs_density()
        f = np.array([0.5])
        rep = solve_elliptic(EllipticProblem(g, sp, f))
        rng = np.random.default_rng(4)
        tests = [rng.uniform(-3, 3, 1) for _ in range(200)]
        vals = hvi_residual(g, sp, rep.phi, f, tests)
        assert min(vals) >= -1e-12

    def test_hvi_negative_away_from_solution(self):
        g = single_node()
        sp = abs_density()
        f = np.array([0.5])
        wrong = np.array([2.0])
        # testing against the true solution direction exposes the defect
        vals = hvi_residual(g, sp, wrong, f, [np.array([0.0])])
        assert vals[0] < 0.0
        with pytest.raises(ValueError, match=r"test set shape \(1, 2\)"):
            hvi_residual(g, sp, wrong, f, np.zeros((1, 2)))

    def test_verify_inclusion_flags_wrong_candidate(self):
        g = single_node()
        resid = verify_inclusion(g, abs_density(), np.array([2.0]),
                                 np.array([0.5]))
        assert resid[0] > 1.0


class TestCertificates:
    def test_small_convex_density_certified(self):
        problem = EllipticProblem(single_node(), quad_density(0.1),
                                  np.array([0.5]))
        existence, uniqueness, nonexistence = certify(problem)
        assert existence.kind == "existence"
        assert existence.satisfied
        assert uniqueness.kind == "uniqueness"
        assert uniqueness.satisfied
        assert (uniqueness.lhs, uniqueness.rhs) == (0.0, 1.0)  # m, k_lo
        assert nonexistence.kind == "nonexistence"
        assert not nonexistence.satisfied
        # the box is the solution 0.5 / 1.1
        assert existence.lhs == pytest.approx(0.5 / 1.1)
        assert existence.rhs == pytest.approx(0.5 / 1.1)

    def test_large_nonconvex_density_not_certified(self):
        sp = build(PiecewiseDensity((), ([0.0, -2.0],)))
        existence, uniqueness, nonexistence = certify(
            EllipticProblem(single_node(), sp, np.array([0.5])))
        assert not existence.satisfied
        assert not uniqueness.satisfied
        assert not nonexistence.satisfied
        assert (existence.lhs, existence.rhs) == (-math.inf, math.inf)
        assert existence.note == ("node v: k t + lo(t) <= f somewhere past "
                                  "every t")

    def test_three_solutions_in_a_box_with_a_down_jump(self):
        # one node, kappa / mu = 1, f = 0: beta is 0.2 below 0.3 and -0.45
        # above, so -0.2, 0.3 and 0.45 all solve; an a priori range that
        # missed the down-jump at 0.3 called this problem unique
        g = single_node(mu=100.0, kappa=100.0)
        sp = build(PiecewiseDensity((0.3,), ([0.2], [-0.45])))
        problem = EllipticProblem(g, sp, np.zeros(1))
        existence, uniqueness, nonexistence = certify(problem)
        assert existence.satisfied and not nonexistence.satisfied
        assert (existence.lhs, existence.rhs) == (-0.2, 0.45)
        assert not uniqueness.satisfied
        assert uniqueness.lhs == math.inf
        assert uniqueness.note == "down-jump at 0.3 in the box"
        for x in (-0.2, 0.3, 0.45):
            resid = verify_inclusion(g, sp, np.array([x]), np.zeros(1))
            assert resid[0] <= 1e-15, x

    def test_two_solutions_past_any_bounded_range(self):
        # one node, kappa / mu = 1, beta = 0.1 t - 0.01 t^2, f = 0.5:
        # t + beta(t) = 0.5 at 0.456 and at 109.54; the box is unbounded
        # above, so neither a solution nor uniqueness is certified
        g = single_node()
        sp = build(PiecewiseDensity((), ([0.0, 0.1, -0.01],)))
        problem = EllipticProblem(g, sp, np.array([0.5]))
        existence, uniqueness, nonexistence = certify(problem)
        assert existence.lhs == pytest.approx(0.45643942682)
        assert existence.rhs == math.inf
        assert not (existence.satisfied or uniqueness.satisfied
                    or nonexistence.satisfied)
        roots = sorted(np.roots([-0.01, 1.1, -0.5]))
        assert roots == pytest.approx([0.45643942682, 109.54356057318])
        for x in roots:
            resid = verify_inclusion(g, sp, np.array([x]), np.array([0.5]))
            assert resid[0] <= 1e-12, x

    def test_empty_box_means_no_solution(self):
        # t + t^2 = -1 has no real root: no node can hold the maximum
        sp = build(PiecewiseDensity((), ([0.0, 0.0, 1.0],)))
        existence, uniqueness, nonexistence = certify(
            EllipticProblem(single_node(), sp, np.array([-1.0])))
        assert nonexistence.satisfied
        assert not (existence.satisfied or uniqueness.satisfied)
        assert existence.rhs == -math.inf
        assert math.isnan(uniqueness.lhs)


def enumerate_solutions(g, bps, pieces, f, tol=1e-9):
    """Every solution of the inclusion for the piecewise-linear density with
    breakpoints ``bps`` and pieces ``a + b t`` (rows ``(a, b)``), without the
    solver: each node is either free on piece p (``xi = a_p + b_p phi``) or
    pinned at breakpoint k (``phi = bps[k]``, ``xi`` in the jump interval),
    so each of the ``(2k + 1)^n`` assignments is one linear system.  Its
    solution counts when it is consistent with the assignment."""
    k, n = len(bps), g.num_nodes
    a, b = pieces[:, 0], pieces[:, 1]
    ends = np.concatenate(([-np.inf], bps, [np.inf]))
    limits = np.stack((a[:-1] + b[:-1] * bps, a[1:] + b[1:] * bps))
    lo, hi = limits.min(axis=0), limits.max(axis=0)
    L = np.diag(g.kappa)  # dense K + C
    np.add.at(L, (g.edge_src, g.edge_src), g.gamma)
    np.add.at(L, (g.edge_src, g.edge_dst), -g.gamma)
    states = np.array(list(itertools.product(range(2 * k + 1), repeat=n)))
    pinned, p = states % 2 == 1, states // 2  # p: piece, or breakpoint
    at = np.minimum(p, k - 1)
    eye = np.eye(n)
    A = np.where(pinned[:, :, None], eye, L + eye * (g.mu * b[p])[:, :, None])
    rhs = np.where(pinned, bps[at], g.mu * (f - a[p]))
    ok = np.linalg.cond(A) < 1e10  # a singular system is a degenerate draw
    pinned, p, at = pinned[ok], p[ok], at[ok]
    phi = np.linalg.solve(A[ok], rhs[ok][..., None])[..., 0]
    xi = f - phi @ L.T / g.mu
    consistent = np.where(
        pinned, (xi >= lo[at] - tol) & (xi <= hi[at] + tol),
        (phi >= ends[p] - tol) & (phi <= ends[p + 1] + tol))
    found = []
    for x in phi[consistent.all(axis=1)]:
        if not any(np.allclose(x, y, rtol=0, atol=1e-7) for y in found):
            found.append(x)
    return found


class TestEnumerationOracle:
    """Solver and uniqueness certificate against every solution of small
    piecewise-linear problems, listed by :func:`enumerate_solutions`."""

    @staticmethod
    def draw(rng, mild):
        """2 to 4 nodes, 1 or 2 breakpoints, independent pieces (jumps of
        either sign).  The mild draw (kappa in [1, 3], slopes in
        [-0.05, 0.3]) is often certified; the wide one often has several
        solutions or none."""
        w = (1.0, 3.0) if mild else (0.2, 2.0)
        g = make_random_graph(rng, max_nodes=4, weight_lo=w[0],
                              weight_hi=w[1])
        k = int(rng.integers(1, 3))
        bps = np.sort(rng.uniform(-1.0, 1.0, k))
        a_max, b_lo, b_hi, f_max = ((0.3, -0.05, 0.3, 1.0) if mild
                                    else (1.0, -0.5, 1.0, 3.0))
        pieces = np.column_stack((rng.uniform(-a_max, a_max, k + 1),
                                  rng.uniform(b_lo, b_hi, k + 1)))
        return g, bps, pieces, rng.uniform(-f_max, f_max, g.num_nodes)

    def test_solver_and_certificate(self):
        rng = np.random.default_rng(9)
        counts = {"certified": 0, "several": 0, "monotone": 0}
        for i in range(300):
            g, bps, pieces, f = self.draw(rng, mild=i % 2 == 1)
            sp = build(PiecewiseDensity(bps, tuple(pieces)))
            problem = EllipticProblem(g, sp, f)
            rep = solve_elliptic(problem)
            found = enumerate_solutions(g, bps, pieces, f)
            if rep.converged:
                assert any(np.allclose(rep.phi, x, rtol=0, atol=1e-6)
                           for x in found)
            if len(found) == 1 and i != 264:
                # draw 264 ends cycled: its one solution lies across a
                # down-jump that the one-step state transitions cannot cross
                assert rep.converged, i
            left, right = sp.density.one_sided(bps)
            if np.all(pieces[:, 1] >= 0) and np.all(right >= left):
                # nondecreasing density, kappa > 0: one solution, found
                counts["monotone"] += 1
                assert rep.converged and len(found) == 1
            exists, unique, none = (c.satisfied for c in certify(problem))
            if unique:
                counts["certified"] += 1
                assert len(found) == 1
            assert not exists or found
            assert not none or not found
            counts["several"] += len(found) > 1
        assert min(counts.values()) >= 20, counts


    def test_units_leave_the_solve_and_the_certificates(self):
        # mu, kappa and gamma times 2^e leave L = M^-1 (K + C), and so the
        # problem, as it is, and rho enters neither: the solve's bytes and
        # steps and every certificate (verdict, box and note) stay, and the
        # mu-weighted residual norm scales by 2^(e/2) exactly
        for seed in (9, 1001):
            rng = np.random.default_rng(seed)
            for i in range(50):
                g, bps, pieces, f = self.draw(rng, mild=i % 2 == 1)
                sp = build(PiecewiseDensity(bps, tuple(pieces)))
                rep = solve_elliptic(EllipticProblem(g, sp, f))
                certs = repr(certify(EllipticProblem(g, sp, f)))
                for e in (-20, -6, 6, 20):
                    s = 2.0 ** e
                    for scaled, norm in (
                            (dataclasses.replace(g, mu=g.mu * s,
                                                 kappa=g.kappa * s,
                                                 gamma=g.gamma * s),
                             rep.residual_norm * 2.0 ** (e / 2)),
                            (dataclasses.replace(g, rho=g.rho * s),
                             rep.residual_norm)):
                        problem = EllipticProblem(scaled, sp, f)
                        got = solve_elliptic(problem)
                        case = (seed, i, e)
                        assert got.phi.tobytes() == rep.phi.tobytes(), case
                        assert got.converged == rep.converged, case
                        assert (len(got.iterations)
                                == len(rep.iterations)), case
                        assert got.residual_norm == norm, case
                        assert repr(certify(problem)) == certs, case


class TestParabolic:
    def test_single_node_linear_recursion(self):
        c, f, T, steps = 0.7, 0.3, 1.0, 16
        tau = T / steps
        problem = ParabolicProblem(graph=single_node(), sp=quad_density(c),
                                   f=np.array([f]), phi0=np.array([1.0]),
                                   T=T, steps=steps)
        res = solve_parabolic(problem)
        assert res.converged
        phi = 1.0
        for k in range(1, steps + 1):
            phi = (f + phi / tau) / (1.0 / tau + 1.0 + c)
            assert res.states[k, 0] == pytest.approx(phi, abs=1e-10)

    @pytest.mark.parametrize("steps", [np.uint8(255), np.int8(127)],
                             ids=["uint8", "int8"])
    def test_narrow_integer_steps(self, steps):
        # steps + 1 computed in the given type wraps around to 0 in uint8
        # and overflows in int8
        problem = ParabolicProblem(graph=single_node(), sp=quad_density(),
                                   f=np.array([0.5]), phi0=np.zeros(1),
                                   T=1.0, steps=steps)
        res = solve_parabolic(problem)
        assert res.converged
        assert res.states.shape == (int(steps) + 1, 1)
        assert type(problem.steps) is int and problem.steps == int(steps)

    def test_f_table_and_schedule(self):
        g = single_node()
        steps = 4
        f_table = np.arange(steps, dtype=float).reshape(steps, 1)
        sched = gh.SuperpotentialSchedule((0.5, 1.0),
                                          (quad_density(1.0),
                                           quad_density(2.0)))
        problem = ParabolicProblem(graph=g, sp=sched, f=f_table,
                                   phi0=np.zeros(1), T=1.0, steps=steps)
        res = solve_parabolic(problem)
        assert res.converged
        assert res.states.shape == (steps + 1, 1)
        assert len(res.reports) == steps

    def test_validation(self):
        g = single_node()
        for T in (0.0, math.nan, math.inf, True, "1", 10**400):
            with pytest.raises(ValueError, match="T > 0"):
                ParabolicProblem(graph=g, sp=quad_density(), f=np.zeros(1),
                                 phi0=np.zeros(1), T=T, steps=4)
        # an integer T is taken as the float it rounds to
        big = [solve_parabolic(ParabolicProblem(
            graph=g, sp=quad_density(), f=np.ones(1), phi0=np.ones(1),
            T=T, steps=4)) for T in (10**300, 1e300)]
        assert big[0].times.tobytes() == big[1].times.tobytes()
        assert big[0].states.tobytes() == big[1].states.tobytes()
        with pytest.raises(ValueError, match="f table"):
            ParabolicProblem(graph=g, sp=quad_density(),
                             f=np.zeros((3, 2)), phi0=np.zeros(1),
                             T=1.0, steps=4)
        # T / steps = 2.5e-321, so mu / tau overflows
        with pytest.raises(ValueError, match="not finite"):
            ParabolicProblem(graph=g, sp=quad_density(), f=np.zeros(1),
                             phi0=np.zeros(1), T=1e-320, steps=4)
        ParabolicProblem(graph=g, sp=quad_density(), f=np.zeros(1),
                         phi0=np.zeros(1), T=1e-300, steps=4)
        # a non-integer steps escaped from numpy as a TypeError
        for steps in (2.5, 3.0, np.float64(3.0), True, np.True_):
            with pytest.raises(ValueError, match="steps must be an integer"):
                ParabolicProblem(graph=g, sp=quad_density(), f=np.zeros(1),
                                 phi0=np.zeros(1), T=1.0, steps=steps)
        for steps in (3, np.int64(3), np.int32(3), np.uint8(3)):
            res = solve_parabolic(ParabolicProblem(
                graph=g, sp=quad_density(), f=np.zeros(1), phi0=np.ones(1),
                T=1.0, steps=steps))
            assert res.converged and res.states.shape == (4, 1)
        # the trajectory of 10**17 steps cannot be allocated
        with pytest.raises(ValueError, match="steps"):
            solve_parabolic(ParabolicProblem(
                graph=g, sp=quad_density(), f=np.zeros(1), phi0=np.zeros(1),
                T=1.0, steps=10**17))

    def test_abort_keeps_partial_trajectory(self):
        problem = ParabolicProblem(graph=single_node(), sp=quad_density(),
                                   f=np.array([5.0]), phi0=np.zeros(1),
                                   T=1.0, steps=8)
        res = solve_parabolic(problem, SolverOptions(max_inner=0))
        assert not res.converged
        assert len(res.times) == 2
        assert res.states.shape == (2, 1)
        assert len(res.reports) == 1

    def test_overflowing_search_stops_non_finite(self):
        # the full-step fallback raises the window's reference until the
        # residual overflows; the forcing term must not overflow before
        # the loop stops
        g = gh.from_data([("a", 1.0, 1.0), ("b", 15.0, 1.0)],
                         [("a", "b", 1.0, 1.0)])
        sp = build(PiecewiseDensity((0.0, 1.0), (np.array([0.0, 0.0, 1.0]),
                                                 np.zeros(1), np.zeros(1))))
        problem = ParabolicProblem(graph=g, sp=sp, f=np.array([0.0, -5.0]),
                                   phi0=np.array([0.0, 1.0]), T=1.0, steps=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = solve_parabolic(problem)
        assert not res.converged
        assert res.reports[-1].iterations[-1]["reason"] == "non-finite"

    def test_assembles_once(self, monkeypatch):
        calls = []
        real = graphhvi.solvers.assemble
        monkeypatch.setattr(graphhvi.solvers, "assemble",
                            lambda g: calls.append(g) or real(g))
        g = make_random_graph(np.random.default_rng(30), max_nodes=20)
        problem = ParabolicProblem(graph=g, sp=abs_density(),
                                   f=np.ones(g.num_nodes),
                                   phi0=np.zeros(g.num_nodes), T=1.0, steps=8)
        res = solve_parabolic(problem)
        assert res.converged and len(res.reports) == 8
        assert len(calls) == 1
        # the constants of the operator it assembled, kappa + mu / tau
        assert res.constants == gh.constants(calls[0])


def stepped_reference(problem, opts):
    """Implicit Euler by hand: one public elliptic solve per step on the
    graph with ``kappa + mu / tau``, warm-started at the previous state."""
    g = problem.graph
    tau = problem.T / problem.steps
    g_eff = dataclasses.replace(g, kappa=g.kappa + g.mu / tau)
    times = np.linspace(0.0, problem.T, problem.steps + 1)
    states, reports = [problem.phi0], []
    for k in range(1, problem.steps + 1):
        prev = states[-1]
        rep = solve_elliptic(
            EllipticProblem(g_eff, problem.sp_at(times[k]),
                            problem.f[k - 1] + prev / tau),
            dataclasses.replace(opts, initial=prev))
        reports.append(rep)
        states.append(rep.phi)
        if not rep.converged:
            break
    return times[:len(states)], np.array(states), reports


class TestParabolicReference:
    """``solve_parabolic`` is bit-identical to stepping ``solve_elliptic``."""

    @pytest.mark.parametrize("case", ["convex", "nonconvex", "f-table",
                                      "partial"])
    def test_bit_identical(self, case):
        rng = np.random.default_rng(31)
        g = make_random_graph(rng, max_nodes=25, min_nodes=10)
        n, steps = g.num_nodes, 6
        f = rng.uniform(-2.0, 2.0, n)
        sp, opts = density(ABS), SolverOptions()
        if case == "nonconvex":
            sp = density(NONCONVEX3)
        elif case == "f-table":
            f = rng.uniform(-2.0, 2.0, (steps, n))
            sp = gh.SuperpotentialSchedule((0.5, 1.0), (density(ABS),
                                                        density(NONCONVEX3)))
        elif case == "partial":
            opts = SolverOptions(max_inner=0)
        problem = ParabolicProblem(graph=g, sp=sp, f=f,
                                   phi0=rng.uniform(-1.0, 1.0, n),
                                   T=1.0, steps=steps)
        res = solve_parabolic(problem, opts)
        times, states, reports = stepped_reference(problem, opts)
        assert res.converged == (case != "partial")
        assert res.times.tobytes() == times.tobytes()
        assert res.states.tobytes() == states.tobytes()
        assert ([r.residual_norm for r in res.reports]
                == [r.residual_norm for r in reports])
        assert ([r.iterations for r in res.reports]
                == [r.iterations for r in reports])


class TestFreeBlockMemo:
    """``AssembledOperator.block`` keeps the block of the last free set
    asked for; a solve must not depend on what it held before."""

    @staticmethod
    def record_blocks(monkeypatch):
        """``(solve, free)`` for each free set asked of ``block``, ``solve``
        counting the ``_solve`` calls so far."""
        calls, solves = [], []
        block, solve = AssembledOperator.block, graphhvi.solvers._solve

        def recording_block(self, free):
            calls.append((len(solves), free.copy()))
            return block(self, free)

        def recording_solve(*args):
            solves.append(None)
            return solve(*args)

        monkeypatch.setattr(AssembledOperator, "block", recording_block)
        monkeypatch.setattr(graphhvi.solvers, "_solve", recording_solve)
        return calls

    def test_parabolic_matches_a_cleared_memo(self, monkeypatch):
        rng = np.random.default_rng(3)
        g = make_random_graph(rng, max_nodes=25, min_nodes=10)
        n, steps = g.num_nodes, 6
        problem = ParabolicProblem(graph=g, sp=density(ABS),
                                   f=rng.uniform(-2.0, 2.0, n),
                                   phi0=rng.uniform(-1.0, 1.0, n),
                                   T=1.0, steps=steps)
        calls = self.record_blocks(monkeypatch)
        res = solve_parabolic(problem)
        monkeypatch.undo()
        assert res.converged and len(res.reports) == steps
        # a step's first free set repeats the last one of a step before
        assert any(k < m and np.array_equal(a, b)
                   for (k, a), (m, b) in zip(calls, calls[1:]))
        # the same steps, with the memo cleared before each
        tau = problem.T / steps
        opr = assemble(dataclasses.replace(g, kappa=g.kappa + g.mu / tau))
        states, norms = [problem.phi0], []
        for k in range(steps):
            opr._block[:] = None, None
            rep = _solve(opr, problem.sp, problem.f[k] + states[-1] / tau,
                         states[-1].copy(), SolverOptions())
            states.append(rep.phi)
            norms.append(rep.residual_norm)
        assert res.states.tobytes() == np.array(states).tobytes()
        assert [r.residual_norm for r in res.reports] == norms

    def test_elliptic_free_set_changes(self, monkeypatch):
        rng = np.random.default_rng(27)
        g = make_random_graph(rng, max_nodes=12, min_nodes=4)
        n = g.num_nodes
        f = rng.uniform(-3.0, 3.0, n)
        calls = self.record_blocks(monkeypatch)
        opr = assemble(g)
        rep = _solve(opr, density(ABS), f, np.zeros(n), SolverOptions())
        monkeypatch.undo()
        assert rep.converged
        # two consecutive free sets of one size and different members
        frees = [free for _, free in calls]
        assert any(len(a) == len(b) and not np.array_equal(a, b)
                   for a, b in zip(frees, frees[1:]))
        # the same solve, the block sliced afresh on every step
        monkeypatch.setattr(AssembledOperator, "block",
                            lambda self, free: self.stiffness[free][:, free])
        ref = _solve(assemble(g), density(ABS), f, np.zeros(n),
                     SolverOptions())
        assert rep.phi.tobytes() == ref.phi.tobytes()
        assert rep.iterations == ref.iterations
        # the memo holds one block: the last free set's
        last, block = opr._block
        assert np.array_equal(last, frees[-1])
        assert block.shape == (len(last),) * 2
        assert (block != opr.stiffness[last][:, last]).nnz == 0


class TestOptions:
    def test_validation(self):
        for tol in (0.0, math.nan, math.inf, True, np.True_, "1e-8", None,
                    10**400):
            with pytest.raises(ValueError, match="tol"):
                SolverOptions(tol=tol)
        for max_inner in (-1, 1.5, True, np.True_, np.float64(5.0),
                          np.int64(-1)):
            with pytest.raises(ValueError, match="max_inner"):
                SolverOptions(max_inner=max_inner)
        # any integer but a bool, kept as a Python int
        for max_inner in (5, np.int64(5), np.int32(5), np.uint8(5)):
            opts = SolverOptions(max_inner=max_inner)
            assert opts.max_inner == 5 and type(opts.max_inner) is int


class TestNonFiniteData:
    def test_problems_refuse_non_finite_nodes(self):
        # a NaN load was certified unique with the box [0, 0] and then
        # solved to "non-finite"; a NaN phi0 or f table row was stepped
        g = gh.from_data([("a", 1.0, 1.0), ("b", 1.0, 1.0)],
                         [("a", "b", 1.0, 1.0)])
        sp, zero = abs_density(), np.zeros(2)
        for bad in (math.nan, math.inf, -math.inf):
            vec = np.array([bad, 0.0])
            with pytest.raises(ValueError, match="finite"):
                certify(EllipticProblem(g, sp, vec))
            with pytest.raises(ValueError, match="finite"):
                solve_elliptic(EllipticProblem(g, sp, zero),
                               SolverOptions(initial=vec))
            for f, phi0 in ((vec, zero), (zero, vec),
                            (np.array([zero, vec]), zero)):
                with pytest.raises(ValueError, match="finite"):
                    ParabolicProblem(graph=g, sp=sp, f=f, phi0=phi0, T=1.0,
                                     steps=2)
