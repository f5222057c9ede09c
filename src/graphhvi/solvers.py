"""Elliptic and parabolic inclusion solvers with residual certification.

The elliptic path solves ``(K + C) phi + M xi = M f`` with
``xi(v) in dj(phi(v))`` by a primal-dual active-set (semismooth Newton)
method on the exact inclusion: nodes are either pinned at a breakpoint of
the density, with ``xi`` free in the jump interval, or free on one
polynomial piece, where the density is linearised; each step solves the
linearisation on the free nodes by CG, loosely far from the solution.

The parabolic path is implicit Euler: every time step is the elliptic
problem with ``kappa + mu/tau`` and load ``f + phi_prev/tau``, solved by the
same core on an operator assembled once per trajectory; the operator keeps
the free nodes' block of ``K`` while the free set repeats across steps.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from collections import deque
from dataclasses import dataclass

import numpy as np

from .calculus import inner_product_nodes, lp_norm_nodes
# sobolev_norms is not used here: the elliptic report calls it as
# solvers.sobolev_norms, the name the benchmark's calculus.norms span wraps
from .calculus import sobolev_norms  # noqa: F401
from .graphs import WeightedGraph, _check_nodes, _finite
from .operators import (EXACT_TOL, AssembledOperator, OperatorConstants,
                        _pcg, apply, assemble, bilinear_form, constants)
# mollify is not used here; it stays importable as graphhvi.solvers.mollify
from .superpotential import (PiecewiseDensity, Superpotential,  # noqa
                             SuperpotentialSchedule, growth_certificate,
                             mollify, relaxed_monotonicity_constant)


@dataclass(frozen=True)
class EllipticProblem:
    graph: WeightedGraph
    sp: Superpotential
    f: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "f", _check_nodes(self.graph, self.f))


@dataclass(frozen=True)
class ParabolicProblem:
    """Implicit-Euler time grid with per-interval loads and superpotentials.

    ``f`` is either one vector (time-constant) or a ``(steps, n)`` table of
    values on each interval, evaluated at the right endpoint.
    """

    graph: WeightedGraph
    sp: Superpotential | SuperpotentialSchedule
    f: np.ndarray
    phi0: np.ndarray
    T: float
    steps: int

    def __post_init__(self):
        if (isinstance(self.steps, bool)
                or not isinstance(self.steps, numbers.Integral)):
            raise ValueError(f"steps must be an integer, not {self.steps!r}")
        object.__setattr__(self, "steps", int(self.steps))  # numpy ints wrap
        if not (_finite(self.T) and self.T > 0 and self.steps > 0):
            raise ValueError("need finite T > 0 and steps > 0")
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(self, "phi0", _check_nodes(self.graph, self.phi0))
        f = np.asarray(self.f, dtype=float)
        n = self.graph.num_nodes
        if (self.steps + 1) * n * 8 > np.iinfo(np.intp).max:  # float bytes
            raise ValueError("steps is too large: the trajectory exceeds "
                             "numpy's maximum array size")
        if f.shape == (n,):
            f = np.broadcast_to(f, (self.steps, n))
        elif f.shape != (self.steps, n):
            raise ValueError(f"f table must have shape ({self.steps}, {n}):"
                             " one f_table row per step")
        object.__setattr__(self, "f", f)
        tau = self.T / self.steps   # as solve_parabolic computes it
        with np.errstate(over="ignore", divide="ignore"):
            step_kappa = self.graph.kappa + self.graph.mu / tau
        if not np.all(np.isfinite(step_kappa)):
            raise ValueError(f"time step T / steps = {tau!r} is too small: "
                             "kappa + mu * steps / T is not finite")

    def sp_at(self, t: float) -> Superpotential:
        if isinstance(self.sp, SuperpotentialSchedule):
            return self.sp.at(t)
        return self.sp


@dataclass(frozen=True)
class Certificate:
    kind: str        # "existence-smallness" or "uniqueness"
    satisfied: bool
    lhs: float
    rhs: float
    note: str


@dataclass
class SolveReport:
    phi: np.ndarray
    xi: np.ndarray
    inclusion_residual: np.ndarray
    residual_norm: float
    converged: bool
    iterations: list[dict]


@dataclass
class ParabolicResult:
    times: np.ndarray
    states: np.ndarray          # (steps + 1, n), row 0 is phi0
    reports: list[SolveReport]  # one per completed time step
    converged: bool
    constants: OperatorConstants  # of the graph with kappa + mu/tau


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-8
    max_inner: int = 200          # cap on active-set steps
    initial: np.ndarray | None = None

    def __post_init__(self):
        if not (_finite(self.tol) and self.tol > 0):
            raise ValueError("tol must be positive and finite")
        object.__setattr__(self, "tol", float(self.tol))
        if (isinstance(self.max_inner, bool)
                or not isinstance(self.max_inner, numbers.Integral)
                or self.max_inner < 0):
            raise ValueError("max_inner must be a non-negative integer")
        object.__setattr__(self, "max_inner", int(self.max_inner))


def sum_functional(g: WeightedGraph, sp: Superpotential,
                   phi: np.ndarray) -> float:
    """J(phi) = sum_v mu(v) j(phi(v))."""
    return float(np.sum(g.mu * sp.value(_check_nodes(g, phi))))


def sum_directional_bound(g: WeightedGraph, sp: Superpotential,
                          phi: np.ndarray, psi: np.ndarray) -> float:
    """sum_v mu(v) j°(phi(v); psi(v)), the nodewise upper bound for J°."""
    return float(np.sum(g.mu * sp.directional(_check_nodes(g, phi),
                                              _check_nodes(g, psi))))


def verify_inclusion(g: WeightedGraph, sp: Superpotential, phi: np.ndarray,
                     f: np.ndarray) -> np.ndarray:
    """Pointwise inclusion residual; zero everywhere certifies a weak solution."""
    phi = _check_nodes(g, phi)
    return _measure(assemble(g), sp.density, phi, _check_nodes(g, f))[-1]


def hvi_residual(g: WeightedGraph, sp: Superpotential, phi: np.ndarray,
                 f: np.ndarray, test_set) -> list[float]:
    """For each test psi: ``<L phi - f, psi - phi>_mu + sum mu j°(phi; psi - phi)``.

    ``test_set`` is an ``(m, n)`` array or an iterable of node vectors.  A
    weak solution makes every value nonnegative (up to tolerance).
    """
    phi = _check_nodes(g, phi)
    defect = apply(assemble(g), phi) - _check_nodes(g, f)
    if not isinstance(test_set, np.ndarray):
        test_set = list(test_set) or np.empty((0, g.num_nodes))
    psi = np.asarray(test_set, dtype=float)
    if psi.ndim != 2 or psi.shape[1] != g.num_nodes:
        raise ValueError(f"test set shape {psi.shape} does not match graph "
                         f"with {g.num_nodes} nodes")
    d = psi - phi
    return (d @ (g.mu * defect) + sp.directional(phi, d) @ g.mu).tolist()


def energy(g: WeightedGraph, sp: Superpotential, f: np.ndarray,
           phi: np.ndarray) -> float:
    """``1/2 <L phi, phi>_mu + J(phi) - <f, phi>_mu``."""
    opr = assemble(g)
    return (0.5 * bilinear_form(opr, phi, phi) + sum_functional(g, sp, phi)
            - inner_product_nodes(g, f, phi))


def default_certificate_range(g: WeightedGraph, f: np.ndarray,
                              c: OperatorConstants) -> float:
    """A priori sup-norm bound on the solution, from ||f|| and coercivity;
    ``inf`` where ``m_coercive`` underflowed to 0."""
    if c.m_coercive == 0.0:
        return math.inf
    fn = lp_norm_nodes(g, f, 2.0)
    return float((1.0 + 2.0 * fn / c.m_coercive) / math.sqrt(g.mu.min()))


def certify(problem: EllipticProblem) -> list[Certificate]:
    """Existence-smallness and uniqueness certificates.

    The comparison margin is ``m_coercive / 2`` with the data-derived
    coercivity constant; the uniqueness side uses the exact
    relaxed-monotonicity constant on [-r, r].
    """
    g, sp = problem.graph, problem.sp
    c = constants(g)
    r = default_certificate_range(g, problem.f, c)
    margin = 0.5 * c.m_coercive
    # a huge or infinite range r overflows polynomial values and puts inf
    # and NaN on the candidate grid: the constants come out inf or NaN,
    # reported (np.maximum keeps the NaN that max() would drop), not warned
    with np.errstate(over="ignore", invalid="ignore"):
        gc = growth_certificate(sp, r)
        rmc = relaxed_monotonicity_constant(sp, r)
        uniq_lhs = float(np.maximum(rmc, gc.alpha_j))
    scope = "global" if gc.global_bound else f"range [-{r:g}, {r:g}] only"
    existence = Certificate(
        kind="existence-smallness",
        satisfied=gc.alpha_j < margin,
        lhs=gc.alpha_j, rhs=margin,
        note=f"growth constant ({scope}) vs margin m_coercive/2",
    )
    uniqueness = Certificate(
        kind="uniqueness",
        satisfied=uniq_lhs < margin,
        lhs=uniq_lhs, rhs=margin,
        note=("max(relaxed-monotonicity constant, growth constant) "
              "vs margin m_coercive/2"),
    )
    return [existence, uniqueness]


# ---------------------------------------------------------------------------
# active-set semismooth Newton

# the nonmonotone line search's memory in iterates (see _solve); 1 makes
# both the search and the cycle test monotone
WINDOW = 10


def _measure(opr: AssembledOperator, density: PiecewiseDensity,
             phi: np.ndarray, f: np.ndarray, s: np.ndarray | None = None):
    """Residual norm, required subgradient ``f - L phi``, its interval at
    ``phi`` in states ``s`` (``PiecewiseDensity.interval``) and the pointwise
    inclusion residual, the distance of ``f - L phi`` to the interval."""
    target = f - apply(opr, phi)
    lo, hi = density.interval(phi, s)
    resid = np.maximum(np.maximum(lo - target, target - hi), 0.0)
    return lp_norm_nodes(opr.graph, resid), target, lo, hi, resid


# a step may overflow, or a zero Newton diagonal divide CG's preconditioner
# by zero; the run is then not finite, so a float warning would only repeat
# what the Levenberg fallback and the trace handle
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _solve(opr: AssembledOperator, sp: Superpotential, f: np.ndarray,
           phi: np.ndarray, opts: SolverOptions) -> SolveReport:
    """Primal-dual active-set (semismooth Newton) loop on the exact inclusion.

    Node v is in state ``s[v]``: even ``2p`` is free on piece p, where
    ``xi = beta_p(phi)`` is linearised; odd ``2k + 1`` is pinned at
    breakpoint k with ``xi`` free in the jump interval.  Every transition
    moves one step along this order: a free node crossing a breakpoint is
    pinned at the first one it crosses, and a pinned node whose required
    ``xi`` lies above (below) its interval is released to the right
    (left).  Each step solves the linearisation on the free nodes by one
    CG run to a loose tolerance (Eisenstat and Walker): 0.01 on the first
    step, ``max(min(0.1, min(rn / rn0, 1) ** 2), EXACT_TOL)`` on later ones
    (``rn0``: the starting residual norm).  The first step keeps 0.01: at
    0.1, solves that take two steps took a third.  On meeting it, the run
    continues to ``EXACT_TOL`` only if the step it has reached would finish
    the solve, with no node changing state after it: every free node stays
    inside its piece, and every node still pinned has its required
    ``f - L(phi + dx)`` inside its interval.  Where ``kappa + mu beta'`` is
    not positive, a run that misses ``max(eta, 1e-10)`` or steps to a
    non-finite point is repeated with ``kappa`` there (a Levenberg shift).
    A nonmonotone line search (Grippo, Lampariello and Lucidi) takes the
    first ``alpha`` of 1, 1/2, ..., 2**-10 whose residual norm is at most
    ``(1 - 1e-4 alpha)`` times the largest of the last ``WINDOW`` iterates',
    else the full step.  A state repeating at no smaller residual ends the
    loop ``cycled`` once ``WINDOW`` steps have passed without a new best.
    A trial point's residual reads its intervals from its states, so states
    are located only at the starting ``phi``.  Reports the best iterate;
    the last trace entry names the reason the loop stopped.
    """
    density = sp.density
    # piece p lies between ends[p] and ends[p + 1]
    ends = np.concatenate(([-np.inf], density.breakpoints, [np.inf]))
    K, kappa, mu = opr.stiffness, opr.graph.kappa, opr.graph.mu
    n, s = len(phi), density.state(phi)
    m = _measure(opr, density, phi, f, s)
    best, seen, trace, rn0 = (phi, *m), {}, [], m[0]
    recent = deque(maxlen=WINDOW)
    steps = solves = iters = backtracks = best_step = 0
    while True:
        rn, target, lo, hi, _ = m
        trace.append({"stage": "active-set", "inner_steps": solves,
                      "linear_iters": iters, "backtracks": backtracks,
                      "residual_norm": rn, "active": int(np.sum(s % 2))})
        if not math.isfinite(rn):
            reason = "non-finite"
            break
        if rn < best[1]:
            best, best_step = (phi, *m), steps
        if rn <= opts.tol:
            reason = "tol-reached"
            break
        key = s.tobytes()
        if seen.get(key, math.inf) > rn:
            seen[key] = rn
        elif steps - best_step >= WINDOW:
            reason = "cycled"
            break
        if steps >= opts.max_inner:
            reason = "max-iter"
            break
        steps += 1
        pinned = s % 2 == 1
        s[pinned & (target > hi)] += 1
        s[pinned & (target < lo)] -= 1
        free = np.flatnonzero(s % 2 == 0)
        piece = s[free] // 2
        x = phi[free]
        r = mu[free] * (density.value(x, piece) - target[free])
        diag = kappa[free] + mu[free] * density.derivative(x, piece)
        Kf = K if len(free) == n else opr.block(free)
        left, right = ends[piece], ends[piece + 1]

        def finishing(dx):
            """Whether no node would change state after the step ``dx``."""
            step = x + dx
            if not np.all((step > left) & (step < right)):
                return False
            trial = phi.copy()
            trial[free] = step
            t = f - apply(opr, trial)
            # a node still pinned kept its state, and so its interval
            return np.all((t >= lo) & (t <= hi) | (s % 2 == 0))

        # clamped before squaring: a Python float square can overflow
        eta = max(min(0.1 if steps > 1 else 0.01, min(rn / rn0, 1.0) ** 2),
                  EXACT_TOL)
        accept = None if eta <= EXACT_TOL else finishing
        cap = 4 * len(free) + 200
        dx, rel, iters = _pcg(Kf, diag, -r, eta, cap, accept)
        solved = rel <= max(eta, 1e-10) and np.all(np.isfinite(dx))
        if not (solved or np.all(diag > 0)):
            diag = np.where(diag > 0, diag, kappa[free])  # Levenberg shift
            dx, _, more = _pcg(Kf, diag, -r, eta, cap, accept)
            iters += more

        def move(alpha):
            step = x + alpha * dx
            trial, ts = phi.copy(), s.copy()
            trial[free] = np.clip(step, left, right)
            ts[free] += (step >= right).astype(int) - (step <= left)
            return trial, ts, _measure(opr, density, trial, f, ts)

        recent.append(rn)
        ref = max(recent)
        solves, backtracks, alpha = 1, 0, 1.0
        full = trial = move(alpha)
        while trial[2][0] > (1.0 - 1e-4 * alpha) * ref and alpha > 2.0 ** -10:
            alpha *= 0.5
            backtracks += 1
            trial = move(alpha)
        if not trial[2][0] < ref:  # none below ref: take the full step
            trial = full
        phi, s, m = trial
    trace[-1]["reason"] = reason
    phi, rn, target, lo, hi, resid = best
    return SolveReport(
        phi=phi, xi=np.clip(target, lo, hi), inclusion_residual=resid,
        residual_norm=rn, converged=rn <= opts.tol, iterations=trace)


def solve_elliptic(problem: EllipticProblem,
                   options: SolverOptions | None = None) -> SolveReport:
    """Solve the elliptic inclusion.

    Returns the best iterate with ``converged=False`` when the inclusion
    residual norm cannot be pushed below ``options.tol``; the last trace
    entry names the reason the loop stopped.
    """
    opts = options or SolverOptions()
    g = problem.graph
    phi = (np.zeros(g.num_nodes) if opts.initial is None
           else _check_nodes(g, opts.initial).copy())
    return _solve(assemble(g), problem.sp, problem.f, phi, opts)


def solve_parabolic(problem: ParabolicProblem,
                    options: SolverOptions | None = None) -> ParabolicResult:
    """Implicit Euler for the parabolic inclusion.

    The operator with ``kappa + mu/tau`` is assembled once; each step solves
    it with load ``f_k + phi_prev/tau``, warm-started at the previous state.
    A non-convergent step aborts with the partial trajectory.
    """
    opts = options or SolverOptions()
    g = problem.graph
    try:
        times = np.linspace(0.0, problem.T, problem.steps + 1)
        states = np.empty((problem.steps + 1, g.num_nodes))
    except MemoryError:
        raise ValueError(f"steps = {problem.steps} is too large: the "
                         "trajectory does not fit in memory") from None
    tau = problem.T / problem.steps
    g_eff = dataclasses.replace(g, kappa=g.kappa + g.mu / tau)
    opr, c = assemble(g_eff), constants(g_eff)
    states[0] = problem.phi0
    reports: list[SolveReport] = []
    for k in range(1, problem.steps + 1):
        f_eff = problem.f[k - 1] + states[k - 1] / tau
        rep = _solve(opr, problem.sp_at(times[k]), f_eff,
                     states[k - 1].copy(), opts)
        reports.append(rep)
        states[k] = rep.phi
        if not rep.converged:   # the partial trajectory, up to this step
            break
    return ParabolicResult(times=times[:k + 1], states=states[:k + 1],
                           reports=reports, converged=rep.converged,
                           constants=c)
