"""Sparse assembly of the graph operator, its constants, and the inner solver.

The operator acts pointwise as
``(L phi)(v) = (1/mu(v)) sum_w gamma(v,w) (phi(v) - phi(w)) + (kappa(v)/mu(v)) phi(v)``;
algebraically ``M^-1 (K + C) phi`` with K the conductance stiffness matrix,
C = diag(kappa) and M = diag(mu).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .calculus import _check_nodes, difference, lp_norm_edges, lp_norm_nodes
from .graphs import WeightedGraph

if TYPE_CHECKING:   # annotations only; assemble imports scipy when it runs
    from scipy import sparse

EXACT_TOL = 1e-13   # where a linear solve that finishes a nonsmooth one stops


@dataclass(frozen=True)
class AssembledOperator:
    graph: WeightedGraph
    stiffness: sparse.csr_matrix   # K, symmetric PSD, zero row sums


@dataclass(frozen=True)
class OperatorConstants:
    """Data-derived ratio extrema; on edgeless graphs the gamma/rho extrema
    are vacuous and reported as (inf, 0)."""

    m_gamma_lo: float
    m_gamma_hi: float
    m_kappa_lo: float
    m_kappa_hi: float
    m_coercive: float
    m_bounded: float


def assemble(g: WeightedGraph) -> AssembledOperator:
    """Sparse K, C, M in canonical node order."""
    from scipy import sparse   # lazy: import graphhvi loads only numpy
    n = g.num_nodes
    diag = np.bincount(g.edge_src, g.gamma, n)   # added up in edge order
    v = np.flatnonzero(diag)    # one entry per node that has an edge
    rows = np.concatenate([v, g.edge_src])
    cols = np.concatenate([v, g.edge_dst])
    vals = np.concatenate([diag[v], -g.gamma])
    K = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    return AssembledOperator(graph=g, stiffness=K)


def apply(opr: AssembledOperator, phi: np.ndarray) -> np.ndarray:
    """Pointwise operator value ``M^-1 (K + C) phi``."""
    g, phi = opr.graph, _check_nodes(opr.graph, phi)
    return (opr.stiffness @ phi + g.kappa * phi) / g.mu


def bilinear_form(opr: AssembledOperator, phi: np.ndarray,
                  psi: np.ndarray) -> float:
    """Summation-by-parts form, evaluated directly from the edge sums:
    ``1/2 sum_e gamma (dphi)(dpsi) + sum_v kappa phi psi``."""
    g = opr.graph
    dphi = difference(g, phi)
    dpsi = difference(g, psi)
    return float(0.5 * np.sum(g.gamma * dphi * dpsi)
                 + np.sum(g.kappa * phi * psi))


def constants(g: WeightedGraph) -> OperatorConstants:
    # weights are finite and positive, so a ratio can only overflow, and
    # then inf is its correctly rounded value
    with np.errstate(over="ignore"):
        ratios = g.gamma / g.rho
        kr = g.kappa / g.mu
    g_lo = float(ratios.min(initial=math.inf))
    g_hi = float(ratios.max(initial=0.0))
    k_lo, k_hi = float(kr.min()), float(kr.max())
    return OperatorConstants(
        m_gamma_lo=g_lo, m_gamma_hi=g_hi,
        m_kappa_lo=k_lo, m_kappa_hi=k_hi,
        m_coercive=min(g_lo, k_lo),
        m_bounded=max(g_hi, k_hi),
    )


def _pcg(A: sparse.csr_matrix, d: np.ndarray, rhs: np.ndarray, tol: float,
         max_iter: int, accept=None) -> tuple[np.ndarray, float, int]:
    """Conjugate gradients on ``A + diag(d)`` from zero, preconditioned by
    its diagonal; deterministic.  Stops at
    ``||(A + diag(d)) x - rhs|| <= tol * ||rhs||``, run on ``rhs`` divided
    by a power of two (exact) so that no dot product overflows or underflows.

    ``accept`` is asked once, on meeting ``tol``, whether to go on: if
    ``accept(x)`` holds, the same run continues to ``EXACT_TOL``, with the
    same float operations (and so the same bytes) as one run to it.
    ``max_iter`` caps the iterations of the whole run.
    """
    s = math.ldexp(1.0, math.frexp(np.abs(rhs).max(initial=0.0))[1] - 1)
    r = rhs / s   # our own copy, updated in place
    nb = nr = math.sqrt(r @ r)  # what np.linalg.norm computes for 1-d input
    if nb == 0.0:
        return np.zeros_like(r), 0.0, 0
    x = np.zeros_like(r)
    inv_d = 1.0 / (A.diagonal() + d)
    p = z = inv_d * r
    rz = float(r @ z)
    stop = tol * nb
    it = 0
    while it < max_iter:
        if not nr > stop:
            if accept is None or not accept(x * s):
                break
            stop, accept = EXACT_TOL * nb, None
            if not nr > stop:
                break
        if it:  # the next direction
            z = inv_d * r
            rz_new = float(r @ z)
            p = z + (rz_new / rz) * p
            rz = rz_new
        Ap = A @ p + d * p
        pAp = float(p @ Ap)
        if not pAp > 0.0:  # breakdown: p @ Ap underflows or A is not SPD
            break
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        nr = math.sqrt(r @ r)
        it += 1
    return x * s, nr / nb, it


def coercivity_gap(opr: AssembledOperator, phi: np.ndarray,
                   m_coercive: float) -> float:
    """``<L phi, phi>_mu - m_coercive (1/2 ||dphi||^2 + ||phi||^2)``;
    nonnegative (up to rounding) by the data-derived coercivity bound."""
    g = opr.graph
    lhs = bilinear_form(opr, phi, phi)
    rhs = m_coercive * (0.5 * lp_norm_edges(g, difference(g, phi)) ** 2
                        + lp_norm_nodes(g, phi) ** 2)
    return lhs - rhs
