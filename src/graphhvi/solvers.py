"""Elliptic and parabolic inclusion solvers with residual certification.

The elliptic path solves ``(K + C) phi + M xi = M f`` with
``xi(v) in dj(phi(v))`` by continuation: each jump of the density is
replaced by a linear ramp of shrinking width h, the smooth system is
solved by damped Newton (with a Levenberg shift and a Picard fallback),
and a final active-set polish pins nodes sitting at jump breakpoints so
the exact inclusion residual reaches the requested tolerance.

The parabolic path is implicit Euler: every time step is the elliptic
problem with ``kappa + mu/tau`` and load ``f + phi_prev/tau``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .calculus import (SobolevNormReport, _check_nodes, inner_product_nodes,
                       lp_norm_nodes, sobolev_norms)
from .graphs import WeightedGraph
from .operators import (AssembledOperator, OperatorConstants, _pcg, apply,
                        assemble, bilinear_form, constants)
from .superpotential import (Superpotential, SuperpotentialSchedule,
                             growth_certificate, mollify,
                             relaxed_monotonicity_estimate)


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
        if not (0 < self.T < math.inf and self.steps > 0):
            raise ValueError("need finite T > 0 and steps > 0")
        object.__setattr__(self, "phi0", _check_nodes(self.graph, self.phi0))
        f = np.asarray(self.f, dtype=float)
        n = self.graph.num_nodes
        if f.shape == (n,):
            f = np.broadcast_to(f, (self.steps, n))
        elif f.shape != (self.steps, n):
            raise ValueError(f"f table must have shape ({self.steps}, {n})")
        object.__setattr__(self, "f", f)

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
    certificates: list[Certificate]
    norms: SobolevNormReport
    constants: OperatorConstants


@dataclass
class ParabolicResult:
    times: np.ndarray
    states: np.ndarray          # (steps + 1, n), row 0 is phi0
    reports: list[SolveReport]  # one per completed time step
    converged: bool


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-8
    h_schedule: tuple[float, ...] = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    max_inner: int = 200
    max_polish: int = 30
    strategy: str = "newton"      # "newton" (with fallback) or "picard"
    initial: np.ndarray | None = None
    with_certificates: bool = True
    certificate_range: float | None = None

    def __post_init__(self):
        if not self.tol > 0:  # also rejects NaN
            raise ValueError("tol must be positive")
        hs = tuple(float(h) for h in self.h_schedule)
        if any(b >= a for a, b in zip(hs, hs[1:])):
            raise ValueError("h_schedule must be strictly decreasing")
        object.__setattr__(self, "h_schedule", hs)


def sum_functional(g: WeightedGraph, sp: Superpotential,
                   phi: np.ndarray) -> float:
    """J(phi) = sum_v mu(v) j(phi(v))."""
    return float(np.sum(g.mu * sp.value(_check_nodes(g, phi))))


def sum_directional_bound(g: WeightedGraph, sp: Superpotential,
                          phi: np.ndarray, psi: np.ndarray) -> float:
    """sum_v mu(v) j°(phi(v); psi(v)), the nodewise upper bound for J°."""
    return float(np.sum(g.mu * sp.directional(_check_nodes(g, phi),
                                              _check_nodes(g, psi))))


def inclusion_residual(opr: AssembledOperator, sp: Superpotential,
                       phi: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Per-node distance of ``f - L phi`` to the subdifferential interval."""
    target = f - apply(opr, phi)
    lo, hi = sp.interval(phi)
    return np.maximum(np.maximum(lo - target, target - hi), 0.0)


def verify_inclusion(g: WeightedGraph, sp: Superpotential, phi: np.ndarray,
                     f: np.ndarray) -> np.ndarray:
    """Pointwise inclusion residual; zero everywhere certifies a weak solution."""
    return inclusion_residual(assemble(g), sp, _check_nodes(g, phi),
                              _check_nodes(g, f))


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
    lo, hi = sp.interval(phi)
    return (d @ (g.mu * defect) + np.maximum(lo * d, hi * d) @ g.mu).tolist()


def energy(g: WeightedGraph, sp: Superpotential, f: np.ndarray,
           phi: np.ndarray) -> float:
    """``1/2 <L phi, phi>_mu + J(phi) - <f, phi>_mu``."""
    opr = assemble(g)
    return (0.5 * bilinear_form(opr, phi, phi) + sum_functional(g, sp, phi)
            - inner_product_nodes(g, f, phi))


def default_certificate_range(g: WeightedGraph, f: np.ndarray) -> float:
    """A priori sup-norm bound on the solution, from ||f|| and coercivity."""
    c = constants(g)
    fn = lp_norm_nodes(g, f, 2.0)
    return float((1.0 + 2.0 * fn / c.m_coercive) / math.sqrt(g.mu.min()))


def certify(problem: EllipticProblem, r: float | None = None,
            samples: int = 200) -> list[Certificate]:
    """Existence-smallness and uniqueness certificates (both advisory).

    The comparison margin is ``m_coercive / 2`` with the data-derived
    coercivity constant; the uniqueness side uses the lattice lower
    estimate of the relaxed-monotonicity constant on [-r, r].
    """
    g, sp = problem.graph, problem.sp
    if r is None:
        r = default_certificate_range(g, problem.f)
    c = constants(g)
    margin = 0.5 * c.m_coercive
    gc = growth_certificate(sp, r)
    a_j0 = relaxed_monotonicity_estimate(sp, r, samples)
    scope = "global" if gc.global_bound else f"range [-{r:g}, {r:g}] only"
    existence = Certificate(
        kind="existence-smallness",
        satisfied=gc.alpha_j < margin,
        lhs=gc.alpha_j, rhs=margin,
        note=f"growth constant ({scope}) vs margin m_coercive/2",
    )
    uniq_lhs = max(a_j0, gc.alpha_j)
    uniqueness = Certificate(
        kind="uniqueness",
        satisfied=uniq_lhs < margin,
        lhs=uniq_lhs, rhs=margin,
        note=("max(relaxed-monotonicity lattice estimate, growth constant) "
              "vs margin m_coercive/2; the estimate is a lower bound"),
    )
    return [existence, uniqueness]


# ---------------------------------------------------------------------------
# smooth inner solver


def _smooth_solve(K, kappa, mu, sp, f, phi0, max_inner, strategy="newton",
                  rtol=1e-13):
    """Damped Newton (with Levenberg shift and Picard fallback) for
    ``K phi + kappa phi + mu beta(phi) = mu f`` with a continuous density."""
    beta = sp.density.value
    beta_prime = sp.density.derivative
    mf = mu * f
    target = rtol * (1.0 + math.sqrt(mf @ mf))

    def res(p):
        return K @ p + kappa * p + mu * beta(p) - mf

    phi = phi0.astype(float, copy=True)
    r = res(phi)
    rn = math.sqrt(r @ r)
    pcg_iters = 4 * len(phi) + 200
    kdiag = K.diagonal()
    floor = 1e-12 * max(float(kappa.max()), 1.0)
    it = 0
    while rn > target and it < max_inner:
        stalled = strategy == "picard"
        if not stalled:
            dshift = mu * beta_prime(phi)
            dmin = float(np.min(kappa + dshift))
            sigma = max(0.0, float(np.max((floor - kappa - dshift) / mu))) \
                if dmin < floor else 0.0
            diag = kappa + dshift + sigma * mu
            d, _, _ = _pcg(lambda v: K @ v + diag * v, kdiag + diag,
                           -r, None, 1e-13, pcg_iters)
            alpha, accepted = 1.0, False
            while alpha > 2.0 ** -30:
                trial = phi + alpha * d
                rt = res(trial)
                rtn = math.sqrt(rt @ rt)
                if rtn <= (1.0 - 1e-4 * alpha) * rn:
                    phi, r, rn = trial, rt, rtn
                    accepted = True
                    break
                alpha *= 0.5
            it += 1
            stalled = not accepted
        if stalled:
            # Picard splitting: contraction whenever the density Lipschitz
            # bound stays below the coercivity margin
            reach = float(np.max(np.abs(phi), initial=0.0)) \
                + float(np.max(np.abs(f), initial=0.0)) + 1.0
            sig = min(max(sp.derivative_bound(reach), 1e-3), 1e8)
            diag = kappa + sig * mu
            for _ in range(10):
                rhs = mu * (f - beta(phi) + sig * phi)
                phi, _, _ = _pcg(lambda v: K @ v + diag * v, kdiag + diag,
                                 rhs, phi, 1e-13, pcg_iters)
                it += 1
                if it >= max_inner:
                    break
            r = res(phi)
            rn = math.sqrt(r @ r)
    return phi, it, rn <= target


def _clip_ramp(h: float, sp: Superpotential) -> float:
    gap = sp.density.min_breakpoint_gap()
    if math.isinf(gap):
        return h
    return min(h, 0.49 * gap)


def _polish(opr: AssembledOperator, sp: Superpotential, f: np.ndarray,
            phi: np.ndarray, opts: SolverOptions,
            trace: list[dict]) -> np.ndarray:
    """Active-set refinement: pin nodes at jump breakpoints, re-solve the
    smooth system on the free nodes, release pins whose required subgradient
    leaves the interval."""
    g = opr.graph
    jumps = sp.density.jumps()
    if not jumps:
        return phi
    K, kappa, mu = opr.stiffness, opr.kappa, opr.mu
    jump_b, jleft, jright = np.array(jumps).T
    h_floor = _clip_ramp(opts.h_schedule[-1], sp)
    sp_floor = mollify(sp, h_floor)  # equals sp outside the tiny ramps
    snap = max(4.0 * h_floor, 1e-6)

    best_phi = phi.copy()
    best_rn = lp_norm_nodes(g, inclusion_residual(opr, sp, phi, f))
    for _ in range(opts.max_polish):
        gaps = np.abs(phi[:, None] - jump_b[None, :])
        nearest = np.argmin(gaps, axis=1)
        dist = gaps[np.arange(len(phi)), nearest]
        resid = inclusion_residual(opr, sp, phi, f)
        node_tol = opts.tol / max(math.sqrt(g.mu_total), 1.0)
        active = (dist <= snap) | ((resid > node_tol)
                                   & (dist <= 0.05 * (1.0 + np.abs(phi))))
        phi_new = phi.copy()
        phi_new[active] = jump_b[nearest[active]]
        free = ~active
        inner = 0
        if free.any():
            Kfree = K[free]
            Ksub = Kfree[:, free]
            coupling = (Kfree[:, active] @ phi_new[active]) / mu[free]
            sub, inner, _ = _smooth_solve(Ksub, kappa[free], mu[free],
                                          sp_floor, f[free] - coupling,
                                          phi[free], opts.max_inner,
                                          opts.strategy)
            phi_new[free] = sub
        resid_new = inclusion_residual(opr, sp, phi_new, f)
        rn = lp_norm_nodes(g, resid_new)
        trace.append({"stage": "polish", "h": h_floor, "inner_steps": inner,
                      "residual_norm": rn, "active": int(active.sum())})
        if rn < best_rn:
            best_phi, best_rn = phi_new.copy(), rn
        if rn <= opts.tol:
            return phi_new
        # release pinned nodes whose required subgradient left the interval
        target = f - apply(opr, phi_new)
        viol = active & (resid_new > node_tol)
        if viol.any():
            idx = nearest[viol]
            going_up = target[viol] > np.maximum(jleft[idx], jright[idx])
            larger_right = jright[idx] >= jleft[idx]
            side = np.where(going_up == larger_right, 1.0, -1.0)
            phi_new[viol] = jump_b[idx] + side * max(8.0 * snap, 1e-5)
        elif np.array_equal(phi_new, phi):
            break
        phi = phi_new
    return best_phi


def solve_elliptic(problem: EllipticProblem,
                   options: SolverOptions | None = None) -> SolveReport:
    """Solve the elliptic inclusion and certify the result.

    Returns the best iterate with ``converged=False`` when the inclusion
    residual norm cannot be pushed below ``options.tol``.
    """
    opts = options or SolverOptions()
    g, sp, f = problem.graph, problem.sp, problem.f
    opr = assemble(g)
    phi = (np.zeros(g.num_nodes) if opts.initial is None
           else _check_nodes(g, opts.initial))
    trace: list[dict] = []
    jumps = sp.density.jumps()

    if not jumps:
        phi, inner, _ = _smooth_solve(opr.stiffness, opr.kappa, opr.mu, sp,
                                      f, phi, opts.max_inner, opts.strategy)
        rn = lp_norm_nodes(g, inclusion_residual(opr, sp, phi, f))
        trace.append({"stage": "smooth", "h": 0.0, "inner_steps": inner,
                      "residual_norm": rn})
    else:
        seen = set()
        rn = math.inf
        for h in opts.h_schedule:
            hh = _clip_ramp(h, sp)
            if hh in seen:
                continue
            seen.add(hh)
            sph = mollify(sp, hh)
            phi, inner, _ = _smooth_solve(opr.stiffness, opr.kappa, opr.mu,
                                          sph, f, phi, opts.max_inner,
                                          opts.strategy)
            rn = lp_norm_nodes(g, inclusion_residual(opr, sp, phi, f))
            trace.append({"stage": "continuation", "h": hh,
                          "inner_steps": inner, "residual_norm": rn})
            if rn <= opts.tol:
                break
        if rn > opts.tol:
            phi = _polish(opr, sp, f, phi, opts, trace)

    resid = inclusion_residual(opr, sp, phi, f)
    rn = lp_norm_nodes(g, resid)
    target = f - apply(opr, phi)
    lo, hi = sp.interval(phi)
    xi = np.clip(target, lo, hi)
    certificates = (certify(problem, opts.certificate_range)
                    if opts.with_certificates else [])
    return SolveReport(
        phi=phi, xi=xi, inclusion_residual=resid, residual_norm=rn,
        converged=rn <= opts.tol, iterations=trace,
        certificates=certificates, norms=sobolev_norms(g, phi),
        constants=constants(g),
    )


def solve_parabolic(problem: ParabolicProblem,
                    options: SolverOptions | None = None) -> ParabolicResult:
    """Implicit Euler for the parabolic inclusion.

    Each step reuses the elliptic solver with ``kappa + mu/tau`` and load
    ``f_k + phi_prev/tau``, warm-started at the previous state.  A
    non-convergent step aborts with the partial trajectory.
    """
    opts = options or SolverOptions()
    g = problem.graph
    tau = problem.T / problem.steps
    g_eff = dataclasses.replace(g, kappa=g.kappa + g.mu / tau)
    times = np.linspace(0.0, problem.T, problem.steps + 1)
    states = np.empty((problem.steps + 1, g.num_nodes))
    states[0] = problem.phi0
    reports: list[SolveReport] = []
    for k in range(1, problem.steps + 1):
        sp_k = problem.sp_at(times[k])
        f_eff = problem.f[k - 1] + states[k - 1] / tau
        step_opts = dataclasses.replace(opts, initial=states[k - 1],
                                        with_certificates=False)
        rep = solve_elliptic(EllipticProblem(g_eff, sp_k, f_eff), step_opts)
        reports.append(rep)
        states[k] = rep.phi
        if not rep.converged:
            return ParabolicResult(times=times[:k + 1],
                                   states=states[:k + 1],
                                   reports=reports, converged=False)
    return ParabolicResult(times=times, states=states, reports=reports,
                           converged=True)
