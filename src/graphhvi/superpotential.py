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


def _table(polys) -> np.ndarray:
    """Coefficient k of polynomial i at ``[k, i]``, zero-padded."""
    return np.array(list(zip_longest(*polys, fillvalue=0.0)))


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
        left, right = _derivative_limits(self.density, -r, r)
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


def _roots(coef: np.ndarray) -> np.ndarray:
    """Companion roots, and inf for each leading coefficient it overflows on."""
    n = len(coef)
    while len(coef) > 1 and not np.all(np.isfinite(coef[:-1] / coef[-1])):
        coef = coef[:-1]
    from numpy.polynomial import polynomial as P   # lazy, as in assemble
    return np.r_[P.polyroots(coef), np.full(n - len(coef), np.inf)]


@np.errstate(all="ignore")   # the overflow test, and 1 / 0
def _real_roots(coef: np.ndarray, a: float, b: float) -> np.ndarray:
    """Real roots in (a, b).  The companion rounds relative to the largest
    root, so from degree 2 up, roots below 1e-8 of it (and up to 1e-7, so
    that none is lost) are inverses of the reversed polynomial's."""
    roots = _roots(coef)
    cut = 1e-8 * np.abs(roots[np.isfinite(roots)]).max(initial=0.0)
    small = 1 / _roots(coef[::-1]) if len(coef) > 2 else roots[:0]
    roots = np.r_[roots[np.abs(roots) >= cut], small[np.abs(small) < 10 * cut]]
    roots = roots[np.abs(roots.imag) < 1e-10].real
    return roots[(roots > a) & (roots < b)]


def _derivative_limits(density: PiecewiseDensity, a: float,
                       b: float) -> np.ndarray:
    """One-sided limits of beta' at its extremum candidates on [a, b]: the
    finite ends (and 0, so that a whole line has one), the breakpoints and
    each piece's critical points (the table's zero padding adds trailing
    zeros, which ``_real_roots`` drops)."""
    bp, table = density.breakpoints, density._beta_prime
    ends = np.clip([a, b, 0.0], a, b)
    cand = [ends[np.isfinite(ends)], bp[(bp >= a) & (bp <= b)]]
    bounds = np.clip(np.concatenate(([-np.inf], bp, [np.inf])), a, b)
    for c, lo, hi in zip(table.T, bounds[:-1], bounds[1:]):
        if lo < hi and len(c) > 2:   # a constant beta'' has no root
            cand.append(_real_roots(_der(c), lo, hi))
    return density._limits(np.unique(np.concatenate(cand)), table)


@np.errstate(over="ignore", invalid="ignore")   # beta' at a far candidate
def relaxed_monotonicity_constant(sp: Superpotential, a: float,
                                  b: float) -> float:
    """Smallest m >= 0 with ``(xi - eta)(s - t) >= -m |s - t|^2`` for all
    s, t in [a, b], xi in dj(s) and eta in dj(t); either end may be infinite.

    0 on a single point.  +inf if a downward jump (left limit above right
    limit) lies in [a, b], or if beta' falls to -inf towards an infinite end
    (its piece's leading term decides); otherwise ``max(0, -min beta')``
    over [a, b], with one-sided limits at breakpoints, or NaN where that
    minimum is NaN (a candidate so large that beta' overflows).
    """
    if not a <= b:
        raise ValueError(f"range [{a}, {b}] must be nonempty")
    if a == b:
        return 0.0
    density = sp.density
    if any(a <= x <= b and lo > hi for x, lo, hi in density.jumps()):
        return math.inf
    table = density._beta_prime
    for end, c in ((a, table[:, 0]), (b, table[:, -1])):
        deg = int(max(np.flatnonzero(c), default=0))
        if math.isinf(end) and deg and c[deg] * np.sign(end) ** deg < 0:
            return math.inf
    left, right = _derivative_limits(density, a, b)
    m = -float(np.min(np.minimum(left, right)))
    return m if math.isnan(m) else max(0.0, m)   # max() would drop a NaN


def _sup_below(bp: np.ndarray, table: np.ndarray, lo_bp: np.ndarray,
               k: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Per node, ``sup{t : k t + lo(t) <= f}`` (-inf for no t) for the
    density with breakpoints ``bp``, coefficient ``j`` of piece ``p`` at
    ``table[j, p]`` (at least two rows) and lower limits ``lo_bp`` at the
    breakpoints.  It is +inf unless ``k t + beta(t) - f`` ends positive on
    the last piece, by its leading coefficient; else it is the largest
    breakpoint in the set or root of ``k t + beta_p(t) - f`` on piece p,
    because the set is closed and a piece leaves it only at a root."""
    ends = np.concatenate(([-np.inf], bp, [np.inf]))
    # coefficients 0 and 1 of k t + beta_p(t) - f at node v: h0[p, v], h1[p, v]
    h0, h1 = table[0][:, None] - f, table[1][:, None] + k
    higher = np.flatnonzero(table[2:, -1])
    lead = (np.full(len(f), table[2 + higher[-1], -1]) if len(higher) else
            np.where(h1[-1] != 0, h1[-1], h0[-1]))
    best = np.max(np.where(k * bp[:, None] + lo_bp[:, None] <= f,
                           bp[:, None], -np.inf), axis=0, initial=-np.inf)
    # a root that rounding puts just past an end of its piece is taken at
    # that end, and one that overflows to -inf at -fmax: either can only
    # widen the box, where dropping it could empty the box
    slack = 1e-9 * (1.0 + np.abs(ends))
    lo_w, hi_w = ends[:-1] - slack[:-1], ends[1:] + slack[1:]
    left, right = np.maximum(ends[:-1], -np.finfo(float).max), ends[1:]
    if len(table) == 2:   # lines: one root each, in closed form
        t = np.divide(-h0, h1, out=np.full(h0.shape, np.nan), where=h1 != 0)
        inside = (t >= lo_w[:, None]) & (t <= hi_w[:, None])
        t = np.clip(t, left[:, None], right[:, None])
        best = np.maximum(best, np.max(np.where(inside, t, -np.inf), axis=0))
    else:   # the companion matrices, once per distinct (k, f)
        _, first, inv = np.unique(np.column_stack((k, f)), axis=0,
                                  return_index=True, return_inverse=True)
        top = [max(np.clip(_real_roots(np.r_[h0[p, v], h1[p, v], c[2:]],
                                       lo_w[p], hi_w[p]), left[p], right[p])
                   .max(initial=-np.inf) for p, c in enumerate(table.T))
               for v in first]
        best = np.maximum(best, np.array(top)[inv.reshape(-1)])
    return np.where(lead > 0, best, np.inf)


@np.errstate(over="ignore", invalid="ignore")   # huge k, f or roots
def solution_box(density: PiecewiseDensity, k: np.ndarray,
                 f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per node v, ``inf{t : k_v t + hi(t) >= f_v}`` and
    ``sup{t : k_v t + lo(t) <= f_v}`` for the Clarke interval ``(lo, hi)``;
    the first is the second for the reflected density ``-beta(-t)`` and
    load ``-f``, negated."""
    table = density._beta
    if len(table) < 2:
        table = np.vstack((table, np.zeros_like(table)))
    lo_at, hi_at = density._pinned
    bp = density.breakpoints
    reflect = -(-1.0) ** np.arange(len(table))[:, None]   # (-1)^(j+1)
    return (-_sup_below(-bp[::-1], reflect * table[:, ::-1],
                        -hi_at[-2:0:-1], k, -f),
            _sup_below(bp, table, lo_at[1:-1], k, f))


def mollify(sp: Superpotential, h: float) -> Superpotential:
    """Replace each jump at b by the linear ramp through the one-sided
    limits at b-h and b+h; smooth pieces are untouched outside the ramps."""
    if h <= 0:
        raise ValueError("ramp width must be positive")
    density = sp.density
    bp = density.breakpoints
    gap = np.diff(bp).min(initial=math.inf)
    if 2.0 * h >= gap:
        raise ValueError(f"ramp width {h} too large for breakpoint gap {gap}")
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
