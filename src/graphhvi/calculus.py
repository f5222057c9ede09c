"""Discrete calculus: difference operator, weighted norms, embedding diagnostics.

The infinity norms follow the weighted convention ``sup |phi(v)| mu(v)``
(weight inside the sup), which differs from the common unweighted sup;
see the README note on norm conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import WeightedGraph, _check_nodes, distances_from


def _check_edges(g: WeightedGraph, psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (g.num_edges,):
        raise ValueError(f"edge function shape {psi.shape} does not match "
                         f"graph with {g.num_edges} directed edges")
    return psi


def difference(g: WeightedGraph, phi: np.ndarray) -> np.ndarray:
    """Edge function ``phi(dst) - phi(src)`` on each directed edge."""
    phi = _check_nodes(g, phi)
    return phi[g.edge_dst] - phi[g.edge_src]


def _weighted_lp(values: np.ndarray, weights: np.ndarray, p: float) -> float:
    if not p >= 1:   # also NaN
        raise ValueError("p must be >= 1 (or inf)")
    a = np.abs(values)
    s = math.ldexp(1.0, math.frexp(a.max(initial=0.0))[1] - 1)
    a /= s  # exact (a power of two), and now every entry is below 2
    if math.isinf(p):
        return s * float(np.max(a * weights, initial=0.0))
    a **= p
    return s * float((a @ weights) ** (1.0 / p))


def lp_norm_nodes(g: WeightedGraph, phi: np.ndarray, p: float = 2.0) -> float:
    """``(sum |phi|^p mu)^(1/p)``; for p=inf, ``sup |phi(v)| mu(v)``."""
    return _weighted_lp(_check_nodes(g, phi), g.mu, p)


def lp_norm_edges(g: WeightedGraph, psi: np.ndarray, p: float = 2.0) -> float:
    """``(sum |psi|^p rho)^(1/p)`` over all directed edges."""
    return _weighted_lp(_check_edges(g, psi), g.rho, p)


def inner_product_nodes(g: WeightedGraph, phi: np.ndarray, psi: np.ndarray) -> float:
    """mu-weighted l2 inner product on nodes."""
    return float(np.sum(g.mu * _check_nodes(g, phi) * _check_nodes(g, psi)))


@dataclass(frozen=True)
class SobolevNormReport:
    """First-order Sobolev norms of one node function.

    ``w_sum`` is the sum-form norm ``l2_node + l2_edge``; ``w_hilbert`` is
    the norm induced by the p=2 inner product,
    ``sqrt(l2_node**2 + l2_edge**2)``.  Solver mathematics uses the Hilbert
    form; both are reported.
    """

    l2_node: float
    l2_edge: float
    w_sum: float
    w_hilbert: float


def sobolev_norms(g: WeightedGraph, phi: np.ndarray) -> SobolevNormReport:
    ln = lp_norm_nodes(g, phi, 2.0)
    le = lp_norm_edges(g, difference(g, phi), 2.0)
    return SobolevNormReport(
        l2_node=ln,
        l2_edge=le,
        w_sum=ln + le,
        w_hilbert=math.hypot(ln, le),
    )


def w_hilbert_norm(g: WeightedGraph, phi: np.ndarray) -> float:
    return sobolev_norms(g, phi).w_hilbert


@dataclass(frozen=True)
class EmbeddingDiagnostics:
    ball_size: int
    tail_mass: float


def embedding_diagnostics(g: WeightedGraph, center: str, r: float,
                          phi: np.ndarray) -> EmbeddingDiagnostics:
    """Mass of ``phi`` outside the open rho-ball of radius ``r`` at ``center``.

    ``tail_mass`` is ``(sum_{w outside ball} |phi(w)|^2 mu(w))^(1/2)``.
    """
    phi = _check_nodes(g, phi)
    if not r > 0:   # also NaN
        raise ValueError("radius must be positive")
    inside = distances_from(g, center) < r
    mass = _weighted_lp(phi[~inside], g.mu[~inside], 2.0)
    return EmbeddingDiagnostics(ball_size=int(inside.sum()), tail_mass=mass)
