"""Piecewise-polynomial densities and their filled-in interval subdifferentials.

A density beta is a finite list of polynomial pieces separated by
breakpoints.  Its antiderivative j (with j(0) = 0) is locally Lipschitz,
and the multivalued map t -> [min, max] of the one-sided limits of beta
is exactly the Clarke subdifferential of j for this class, because
one-sided limits of polynomials always exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import zip_longest

import numpy as np

from .graphs import _finite

_GRID = 129       # lattice points on [-r, r] among the extremum candidates


def _table(polys) -> np.ndarray:
    """Coefficient k of polynomial i at ``[k, i]``, zero-padded."""
    return np.array(list(zip_longest(*polys, fillvalue=0.0)))


def _trim(c: np.ndarray) -> np.ndarray:
    """``c`` without trailing zeros (one kept), as numpy.polynomial trims."""
    n = len(c)
    while n > 1 and c[n - 1] == 0:
        n -= 1
    return c[:n]


def _der(c: np.ndarray) -> np.ndarray:
    """The bits of ``P.polyder``: the products ``j * c[j]``, or ``c[:1] * 0``
    for a constant."""
    return c[:1] * 0 if len(c) == 1 else np.arange(1.0, len(c)) * c[1:]


def _antider(c: np.ndarray) -> np.ndarray:
    """The bits of ``P.polyint``: ``[0]`` for a zero constant, else
    ``c[j] / (j + 1)`` after ``c[0] * 0 + (0 - p(0))``, +0 for finite c."""
    if len(c) == 1 and c[0] == 0:
        return np.zeros(1)
    return np.concatenate(([0.0], c / np.arange(1.0, len(c) + 1)))


def _horner(table: np.ndarray, idx: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Polynomial ``idx`` of ``table`` at ``x``, bit-identical to ``P.polyval``
    on its unpadded coefficients: the same ``c[-1] + x*0``, then
    ``c[k] + acc*x``, and over padding the accumulator stays +0 (or NaN)."""
    acc = table[-1][idx] + x * 0
    for k in range(len(table) - 2, -1, -1):
        acc = table[k][idx] + acc * x
    return np.asarray(acc)


@dataclass(frozen=True)
class PiecewiseDensity:
    """Density with pieces[i] on (breakpoints[i-1], breakpoints[i]).

    Coefficients are ascending-degree.  Piece 0 extends to -inf, the last
    piece to +inf.
    """

    breakpoints: np.ndarray
    pieces: tuple[np.ndarray, ...]

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        object.__setattr__(self, "breakpoints", bp)
        if bp.ndim != 1:
            raise ValueError("breakpoints must be a 1-d sequence")
        if len(bp) > 1 and not np.all(np.diff(bp) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        pieces = tuple(np.atleast_1d(np.asarray(c, dtype=float))
                       for c in self.pieces)
        if any(len(c) == 0 for c in pieces):
            raise ValueError("empty coefficient list")
        if len(pieces) != len(bp) + 1:
            raise ValueError("need len(breakpoints) + 1 pieces")
        if not np.all(np.isfinite(np.concatenate((bp, *pieces)))):
            raise ValueError("breakpoints and coefficients must be finite")
        object.__setattr__(self, "pieces", pieces)
        bp.setflags(write=False)

    @cached_property
    def _beta(self) -> np.ndarray:
        return _table(self.pieces)

    @cached_property
    def _beta_prime(self) -> np.ndarray:
        return _table([_der(c) for c in self.pieces])

    @cached_property
    def _pinned(self) -> tuple[np.ndarray, np.ndarray]:
        """Entry ``k + 1``: the interval ``(lo, hi)`` at breakpoint k; first
        and last: at -inf and +inf, where an overflowing solver step ends."""
        ends = np.concatenate(([-np.inf], self.breakpoints, [np.inf]))
        with np.errstate(invalid="ignore"):   # inf * 0 at the infinite ends
            left, right = self._limits(ends)
        return np.minimum(left, right), np.maximum(left, right)

    def _limits(self, x: np.ndarray, table=None) -> np.ndarray:
        """Left and right limits of beta (or of the pieces of ``table``)
        stacked as a ``(2, *x.shape)`` array."""
        bp = self.breakpoints
        idx = np.array((np.searchsorted(bp, x, side="left"),
                        np.searchsorted(bp, x, side="right")))
        return _horner(self._beta if table is None else table, idx, x)

    def _piece(self, x, piece) -> tuple[np.ndarray, np.ndarray]:
        x = np.asarray(x, dtype=float)
        if piece is None:
            piece = np.searchsorted(self.breakpoints, x, side="right")
        return x, piece

    def value(self, x, piece=None) -> np.ndarray:
        """Right-continuous evaluation (breakpoints take the right piece),
        or the polynomial of piece index ``piece`` (an array like ``x``)."""
        x, piece = self._piece(x, piece)
        return _horner(self._beta, piece, x)

    def derivative(self, x, piece=None) -> np.ndarray:
        """Right-continuous derivative of the density, or of piece ``piece``."""
        x, piece = self._piece(x, piece)
        return _horner(self._beta_prime, piece, x)

    def state(self, x) -> np.ndarray:
        """``2p`` inside piece p, ``2k + 1`` at breakpoint k."""
        x, bp = np.asarray(x, dtype=float), self.breakpoints
        return (np.searchsorted(bp, x, side="left")
                + np.searchsorted(bp, x, side="right"))

    def interval(self, x, s=None) -> tuple[np.ndarray, np.ndarray]:
        """Clarke interval ``(lo, hi)`` at ``x`` in states ``s`` (default
        ``state(x)``); at breakpoint k, its limits taken at the breakpoint."""
        x = np.asarray(x, dtype=float)
        if s is None:
            s = self.state(x)
        lo_at, hi_at = self._pinned
        pinned, row = (s & 1).astype(bool), (s + 1) >> 1
        value = _horner(self._beta, s >> 1, x)   # >> 1 and & 1: // 2 and % 2
        return (np.where(pinned, lo_at[row], value),
                np.where(pinned, hi_at[row], value))

    def one_sided(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Left and right limits at each point (equal off breakpoints)."""
        lim = self._limits(np.asarray(x, dtype=float))
        return lim[0, ...], lim[1, ...]  # "..." keeps 0-d results arrays

    def jumps(self) -> list[tuple[float, float, float]]:
        """Breakpoints where the one-sided limits differ, with their limits."""
        left, right = self._limits(self.breakpoints).tolist()
        return [(b, lo, hi) for b, lo, hi
                in zip(self.breakpoints.tolist(), left, right) if lo != hi]

    def min_breakpoint_gap(self) -> float:
        if len(self.breakpoints) < 2:
            return math.inf
        return float(np.min(np.diff(self.breakpoints)))


@dataclass(frozen=True)
class GrowthCertificate:
    """Certified constant alpha with max(|dj(s)|) <= alpha*(1+|s|) on [-r, r].

    ``global_bound`` is true when both unbounded pieces are (at most)
    linear and the bound extends analytically to the whole line; the
    reported alpha then covers all of R.
    """

    alpha_j: float
    r: float
    global_bound: bool


@dataclass(frozen=True)
class Superpotential:
    """Density together with its exact piecewise-polynomial antiderivative."""

    density: PiecewiseDensity
    antiderivative: tuple[np.ndarray, ...]

    @cached_property
    def _j(self) -> np.ndarray:
        return _table(self.antiderivative)

    def value(self, x) -> np.ndarray:
        """j(x); continuous with j(0) = 0."""
        x, piece = self.density._piece(x, None)
        return _horner(self._j, piece, x)

    def interval(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Filled-in subdifferential as (lo, hi) arrays."""
        return self.density.interval(x)

    def directional(self, s, d) -> np.ndarray:
        """Generalized directional derivative max(lo*d, hi*d), elementwise."""
        lo, hi = self.interval(s)
        d = np.asarray(d, dtype=float)
        return np.maximum(lo * d, hi * d)

    def derivative_bound(self, r: float) -> float:
        """sup over [-r, r] of |beta'|, one-sided limits at breakpoints."""
        left, right = _derivative_limits(self.density, r)
        return float(np.max(np.maximum(np.abs(left), np.abs(right)),
                            initial=0.0))


def build(density: PiecewiseDensity) -> Superpotential:
    """Antidifferentiate a density with continuity constants and j(0) = 0."""
    bp = density.breakpoints
    prim = [_antider(c) for c in density.pieces]
    k = len(bp)
    consts = [0.0] * (k + 1)
    i0 = int(np.searchsorted(bp, 0.0, side="right"))
    # piece i0 at 0, piece i at bp[i], piece i + 1 at bp[i]
    at0, *ends = _horner(_table(prim), np.r_[i0, 0:k, 1:k + 1],
                         np.r_[0.0, bp, bp]).tolist()
    own, nxt = ends[:k], ends[k:]
    consts[i0] = -at0
    for i in range(i0, k):  # rightward continuity at bp[i]
        consts[i + 1] = own[i] + consts[i] - nxt[i]
    for i in range(i0 - 1, -1, -1):  # leftward continuity at bp[i]
        consts[i] = nxt[i] + consts[i + 1] - own[i]
    for c, c0 in zip(prim, consts):
        c[0] += c0
    return Superpotential(density=density, antiderivative=tuple(prim))


def _real_roots(coef: np.ndarray, a: float, b: float) -> np.ndarray:
    if len(coef) == 1:  # a constant: no root, and nothing to divide
        return coef[:0]
    # drop leading coefficients that are 0 or so tiny the companion overflows
    with np.errstate(all="ignore"):
        while len(coef) > 1 and not np.all(np.isfinite(coef[:-1] / coef[-1])):
            coef = coef[:-1]
    if len(coef) > 2:
        from numpy.polynomial import polynomial as P   # lazy, as in assemble
        roots = P.polyroots(coef)
        roots = roots[np.abs(roots.imag) < 1e-10].real
    else:  # none for a constant, -c0 / c1 for a line
        roots = np.array([-coef[0] / coef[1]] if len(coef) == 2 else [])
    return roots[(roots > a) & (roots < b)]


def _pieces_within(bp: np.ndarray, pieces, r: float):
    """Each piece's coefficients with its nonempty part ``(a, b)`` of [-r, r]."""
    bounds = [-r, *np.clip(bp, -r, r).tolist(), r]
    for c, a, b in zip(pieces, bounds[:-1], bounds[1:]):
        if a < b:
            yield c, a, b


def _candidates(bp: np.ndarray, pieces, r: float) -> list[np.ndarray]:
    """Extremum candidates on [-r, r] of the polynomials ``pieces`` between
    ``bp``: a grid, the breakpoints and each piece's critical points."""
    cand = [np.linspace(-r, r, _GRID), bp[(bp >= -r) & (bp <= r)]]
    for c, a, b in _pieces_within(bp, pieces, r):
        cand.append(_real_roots(_der(c), a, b))
    return cand


def _derivative_limits(density: PiecewiseDensity, r: float) -> np.ndarray:
    """One-sided limits of beta' at its extremum candidates on [-r, r] (the
    table's zero padding adds trailing zeros, which ``_real_roots`` drops)."""
    table = density._beta_prime
    pts = np.unique(np.concatenate(_candidates(density.breakpoints, table.T,
                                               r)))
    return density._limits(pts, table)


def _ratio_numerator(c: np.ndarray, s: float) -> np.ndarray:
    """``(1 + s t) p' - s p`` (s = +-1) with the bits of numpy.polynomial's
    sub (add) of mul([1, s], p') and c, whose lengths are equal."""
    q = _trim(np.convolve([1.0, s], _trim(_der(c))))
    return _trim(q - s * _trim(c))


def _growth_ratio_max(sp: Superpotential, r: float) -> float:
    """max over [-r, r] of max(|lo|, |hi|) / (1 + |t|)."""
    density = sp.density
    cand = _candidates(density.breakpoints, density.pieces, r) + [np.zeros(1)]
    # critical points of p(s)/(1 +/- s) on each signed segment of each piece
    for c, a, b in _pieces_within(density.breakpoints, density.pieces, r):
        if b > 0:  # d/ds p/(1+s) = 0  <=>  (1+s) p' - p = 0
            cand.append(_real_roots(_ratio_numerator(c, 1.0), max(a, 0.0), b))
        if a < 0:  # d/ds p/(1-s) = 0  <=>  (1-s) p' + p = 0
            cand.append(_real_roots(_ratio_numerator(c, -1.0), a,
                                    min(b, 0.0)))
    pts = np.unique(np.concatenate(cand))
    lo, hi = sp.interval(pts)
    ratio = np.maximum(np.abs(lo), np.abs(hi)) / (1.0 + np.abs(pts))
    return float(np.max(ratio, initial=0.0))


def growth_certificate(sp: Superpotential, r: float) -> GrowthCertificate:
    """Smallest lattice-certified alpha with |dj(s)| <= alpha*(1+|s|) on [-r, r].

    If both unbounded pieces are linear the tail ratios are monotone, so a
    global alpha is exact; it is then reported with ``global_bound=True``.
    """
    if r <= 0:
        raise ValueError("certification range must be positive")
    density = sp.density
    bp = density.breakpoints
    tails_linear = (len(_trim(density.pieces[0])) <= 2
                    and len(_trim(density.pieces[-1])) <= 2)
    if not tails_linear:
        return GrowthCertificate(alpha_j=_growth_ratio_max(sp, r), r=r,
                                 global_bound=False)
    # cover all breakpoints, then add the exact tail suprema (monotone tails)
    big = max(r, float(np.max(np.abs(bp), initial=0.0)), 1.0)
    alpha = _growth_ratio_max(sp, big)
    for c in (density.pieces[0], density.pieces[-1]):
        if len(c) > 1:
            alpha = max(alpha, abs(float(c[1])))
    return GrowthCertificate(alpha_j=alpha, r=r, global_bound=True)


def relaxed_monotonicity_constant(sp: Superpotential, r: float) -> float:
    """Smallest m >= 0 with ``(xi - eta)(s - t) >= -m |s - t|^2`` for all
    s, t in [-r, r], xi in dj(s) and eta in dj(t).

    +inf if a downward jump (left limit above right limit) lies in
    [-r, r]; otherwise ``max(0, -min beta')`` over [-r, r], with one-sided
    limits at breakpoints, or NaN where that minimum is NaN (r = inf).
    """
    if r <= 0:
        raise ValueError("range must be positive")
    if any(-r <= b <= r and lo > hi for b, lo, hi in sp.density.jumps()):
        return math.inf
    left, right = _derivative_limits(sp.density, r)
    m = -float(np.min(np.minimum(left, right)))
    return m if math.isnan(m) else max(0.0, m)   # max() would drop a NaN


def mollify(sp: Superpotential, h: float) -> Superpotential:
    """Replace each jump at b by the linear ramp through the one-sided
    limits at b-h and b+h; smooth pieces are untouched outside the ramps."""
    if h <= 0:
        raise ValueError("ramp width must be positive")
    density = sp.density
    gap = density.min_breakpoint_gap()
    if 2.0 * h >= gap:
        raise ValueError(f"ramp width {h} too large for breakpoint gap {gap}")
    bp = density.breakpoints
    lefts, rights = density._limits(bp).tolist()
    if lefts == rights:  # no jumps
        return sp
    new_bp: list[float] = []
    new_pieces: list[np.ndarray] = [density.pieces[0]]
    for i, (b, left, right) in enumerate(zip(bp.tolist(), lefts, rights)):
        if left == right:
            new_bp.append(b)
        else:
            slope = (right - left) / (2.0 * h)
            mid = 0.5 * (left + right)
            ramp = np.array([mid - slope * b, slope])
            new_bp.extend([b - h, b + h])
            new_pieces.append(ramp)
        new_pieces.append(density.pieces[i + 1])
    return build(PiecewiseDensity(np.asarray(new_bp), tuple(new_pieces)))


@dataclass(frozen=True)
class SuperpotentialSchedule:
    """Step schedule: superpotential i applies for t <= entries[i].until."""

    untils: tuple[float, ...]
    sps: tuple[Superpotential, ...]

    def __post_init__(self):
        if len(self.untils) != len(self.sps) or not self.sps:
            raise ValueError("schedule needs matching, nonempty lists")
        if not all(map(_finite, self.untils)):
            raise ValueError("malformed schedule: each 'until' must be a "
                             f"finite number, not {self.untils!r}")
        object.__setattr__(self, "untils", tuple(map(float, self.untils)))
        if any(b <= a for a, b in zip(self.untils, self.untils[1:])):
            raise ValueError("schedule 'until' times must increase")

    def at(self, t: float) -> Superpotential:
        for until, sp in zip(self.untils, self.sps):
            if t <= until:
                return sp
        return self.sps[-1]


def from_document(doc: dict) -> Superpotential:
    """Parse ``{"breakpoints": [...], "pieces": [[c0, c1, ...], ...]}``."""
    if not isinstance(doc, dict) or set(doc) != {"breakpoints", "pieces"}:
        raise ValueError(f"malformed superpotential document: {doc!r}")
    bp, pieces = doc["breakpoints"], doc["pieces"]
    if not (isinstance(pieces, list)
            and all(isinstance(c, list) and all(map(_finite, c))
                    for c in [bp, *pieces])):
        raise ValueError("superpotential breakpoints and pieces must be "
                         f"lists of finite numbers: {doc!r}")
    return build(PiecewiseDensity(np.asarray(bp, dtype=float),
                                  tuple(np.asarray(c, dtype=float)
                                        for c in pieces)))


def schedule_from_document(entries: list) -> SuperpotentialSchedule:
    """Parse a schedule file: list of ``{"until": t, "density": {...}}``."""
    if not isinstance(entries, list):
        raise ValueError("a schedule must be a list of entries")
    untils, sps = [], []
    for rec in entries:
        if not isinstance(rec, dict) or set(rec) != {"until", "density"}:
            raise ValueError(f"malformed schedule entry: {rec!r}")
        untils.append(rec["until"])
        sps.append(from_document(rec["density"]))
    return SuperpotentialSchedule(tuple(untils), tuple(sps))
