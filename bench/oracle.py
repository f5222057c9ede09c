"""Output check that does not trust the solver.

The inclusion ``L phi + dj(phi) ∋ f`` is re-checked from the benchmark's own
copy of the inputs: ``L phi`` from the graph arrays with scipy, and the
interval ``dj(phi)`` from the density's one-sided limits.  Nothing here
imports graphhvi.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

# Relative slack on the tolerance: the program and this check sum
# ``L phi`` in different orders, which moves the residual by ~1e-14.
SLACK = 1e-3


@dataclass(frozen=True)
class Density:
    """Piecewise polynomial: ``pieces[i]`` (ascending coefficients) lies
    between ``breakpoints[i-1]`` and ``breakpoints[i]``."""

    breakpoints: tuple
    pieces: tuple

    def _eval(self, x: np.ndarray, idx: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        for i, coef in enumerate(self.pieces):
            mask = idx == i
            xs = x[mask]
            acc = np.zeros_like(xs)
            for c in reversed(coef):
                acc = acc * xs + c
            out[mask] = acc
        return out

    def interval(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``[lo, hi]`` spanned by the left and right limits at each x."""
        bp = np.asarray(self.breakpoints, dtype=float)
        left = self._eval(x, np.searchsorted(bp, x, side="left"))
        right = self._eval(x, np.searchsorted(bp, x, side="right"))
        return np.minimum(left, right), np.maximum(left, right)


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected adjacencies ``(a[e], b[e])``, each stored once."""

    ids: list
    depth: np.ndarray
    mu: np.ndarray
    kappa: np.ndarray
    a: np.ndarray
    b: np.ndarray
    rho: np.ndarray
    gamma: np.ndarray

    @cached_property
    def stiffness(self) -> sparse.csr_matrix:
        """Weighted graph Laplacian ``K`` (zero row sums)."""
        n = len(self.ids)
        w = sparse.coo_matrix((self.gamma, (self.a, self.b)), shape=(n, n))
        w = (w + w.T).tocsr()
        return (sparse.diags(np.asarray(w.sum(axis=1)).ravel()) - w).tocsr()

    def vector(self, table: dict) -> np.ndarray:
        """Node map from a report, in this graph's order."""
        if set(table) != set(self.ids):
            raise ValueError("report node set differs from the input graph")
        return np.array([float(table[v]) for v in self.ids])


def residual_norm(g: Graph, d: Density, phi: np.ndarray, f: np.ndarray,
                  shift: np.ndarray | float = 0.0) -> float:
    """mu-weighted l2 norm of the nodewise distance from ``f - L phi`` to
    ``dj(phi)``, where ``L = M^-1 (K + diag(kappa + shift))``."""
    lphi = (g.stiffness @ phi + (g.kappa + shift) * phi) / g.mu
    target = f - lphi
    lo, hi = d.interval(phi)
    r = np.maximum(np.maximum(lo - target, target - hi), 0.0)
    norm = float(np.sqrt(np.sum(g.mu * r * r)))
    return norm if math.isfinite(norm) else math.inf


@dataclass
class Verdict:
    ok: bool          # exit 0 and every residual within tolerance
    honest: bool      # the exit code agrees with the residuals
    residual: float   # largest residual norm checked
    note: str = ""


def check(op, exit_code: int, report_path: str, tol: float) -> Verdict:
    """Check one operation's report against its inputs.

    An operation that is not ``ok`` counts in ``failed_frac``.  ``honest``
    is false when the program claims success (exit 0) that the residuals
    refute, exits with an input error, or writes a report that is missing
    or does not match the inputs.
    """
    if exit_code not in (0, 1):
        return Verdict(False, False, math.inf, f"exit code {exit_code}")
    try:
        with open(report_path) as fh:
            doc = json.load(fh)
        residuals = _residuals(op, doc)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return Verdict(False, False, math.inf, f"unreadable report: {exc}")
    worst = max(residuals)
    solved = worst <= tol * (1.0 + SLACK)
    claimed = exit_code == 0
    return Verdict(solved and claimed, solved or not claimed, worst)


def _residuals(op, doc: dict) -> list[float]:
    g, d, f = op.graph, op.density, op.f
    if op.kind == "elliptic":
        return [residual_norm(g, d, g.vector(doc["solution"]), f)]
    if op.kind == "parabolic":
        tau = op.extra["T"] / op.extra["steps"]
        states = [g.vector(s) for s in doc["states"]]
        out = [residual_norm(g, d, cur, f + prev / tau, g.mu / tau)
               for prev, cur in zip(states, states[1:])]
        if len(states) != op.extra["steps"] + 1:
            out.append(math.inf)   # the trajectory stopped early
        return out
    if op.kind == "exhaust":
        sizes, want = doc["level_sizes"], op.extra["level_sizes"]
        if sizes != want[:len(sizes)]:
            raise ValueError(f"level sizes {sizes} != {want}")
        if len(sizes) < len(want):
            return [math.inf]      # the study stopped at a failed level
        return [residual_norm(g, d, g.vector(doc["final_solution"]), f)]
    raise ValueError(f"unknown operation kind {op.kind!r}")
