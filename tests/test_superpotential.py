"""Piecewise densities, antiderivatives, intervals, and certificates."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.polynomial import polynomial as P
from numpy.polynomial import polyutils as pu

from graphhvi.superpotential import (PiecewiseDensity, SuperpotentialSchedule,
                                     _antider, _der, _ratio_numerator,
                                     _real_roots, _trim, build, from_document,
                                     growth_certificate, mollify,
                                     relaxed_monotonicity_constant,
                                     schedule_from_document)

from conftest import (abs_density, clarke_interval, down_jump_density,
                      per_piece, quad_density)


class TestPiecewiseDensity:
    def test_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            PiecewiseDensity((1.0, 0.0), ([0.0], [0.0], [0.0]))
        with pytest.raises(ValueError, match="pieces"):
            PiecewiseDensity((0.0,), ([0.0],))
        with pytest.raises(ValueError, match="empty"):
            PiecewiseDensity((0.0,), ([], [0.0]))
        with pytest.raises(ValueError, match="finite"):
            PiecewiseDensity((0.0,), ([math.nan], [0.0]))
        with pytest.raises(ValueError, match="finite"):
            PiecewiseDensity((math.inf,), ([0.0], [0.0]))
        with pytest.raises(ValueError, match="1-d"):
            PiecewiseDensity(((0.0, 1.0),), ([0.0], [0.0]))

    def test_right_continuous_value(self):
        d = abs_density().density
        assert d.value(0.0) == 1.0
        assert d.value(-1e-12) == -1.0

    def test_one_sided_and_jumps(self):
        d = down_jump_density(b=0.5, left=0.3, right=0.0, slope=0.1).density
        left, right = d.one_sided(np.array([0.5]))
        assert left[0] == pytest.approx(0.35)
        assert right[0] == pytest.approx(0.05)
        assert d.jumps() == [(0.5, pytest.approx(0.35), pytest.approx(0.05))]

    def test_min_breakpoint_gap(self):
        d = PiecewiseDensity((0.0, 0.25, 1.0),
                             ([0.0], [1.0], [2.0], [3.0]))
        assert d.min_breakpoint_gap() == pytest.approx(0.25)
        assert abs_density().density.min_breakpoint_gap() == math.inf


def _identical(a, b):
    return (isinstance(a, np.ndarray) and a.shape == b.shape
            and a.dtype == b.dtype and a.tobytes() == b.tobytes())


_coef = st.one_of(st.floats(-10, 10), st.sampled_from([0.0, -0.0, 1.0]))


@st.composite
def densities_and_points(draw):
    bp = sorted(set(draw(st.lists(st.floats(-5, 5), max_size=4))))
    pieces = [draw(st.lists(_coef, min_size=1, max_size=4))
              for _ in range(len(bp) + 1)]
    pts = draw(st.lists(st.floats(-20, 20), max_size=30))
    extra = [0.0, -0.0, math.inf, -math.inf, math.nan]
    return (PiecewiseDensity(tuple(bp), tuple(pieces)),
            np.array(pts + bp + extra))


class TestTableEvaluator:
    @settings(deadline=None, max_examples=300)
    @given(densities_and_points())
    # -0.0 on the breakpoint 0.0: the left limit there is -0.0 + 1.0 * 0.0
    # = 0.0, though the left piece's value at -0.0 is -0.0
    @example((PiecewiseDensity((0.0,), ([-0.0, 1.0], [1.0, 1.0])),
              np.array([-0.0, 0.0])))
    @np.errstate(invalid="ignore")  # inf * 0 on both sides
    def test_bit_identical_to_per_piece(self, case):
        d, x = case
        bp, pieces = d.breakpoints, d.pieces
        assert _identical(d.value(x), per_piece(pieces, bp, x, "right"))
        assert _identical(d.derivative(x),
                          per_piece(pieces, bp, x, "right", order=1))
        left, right = d.one_sided(x)
        assert _identical(left, per_piece(pieces, bp, x, "left"))
        assert _identical(right, per_piece(pieces, bp, x, "right"))
        sp = build(d)
        assert _identical(sp.value(x),
                          per_piece(sp.antiderivative, bp, x, "right"))
        for got, want in zip(sp.interval(x), clarke_interval(d, x)):
            assert _identical(got, want)
        jumps = [(b, lo, hi) for b, lo, hi
                 in zip(bp, per_piece(pieces, bp, bp, "left"),
                        per_piece(pieces, bp, bp, "right")) if lo != hi]
        assert d.jumps() == jumps

    @pytest.mark.parametrize("x", [np.float64(0.25), -1.5,
                                   np.linspace(-2, 2, 12).reshape(3, 4)])
    def test_shape_kept(self, x):
        sp = down_jump_density()
        d, bp = sp.density, sp.density.breakpoints
        ref = per_piece(d.pieces, bp, x, "right")
        assert _identical(d.value(x), ref)
        assert _identical(d.derivative(x),
                          per_piece(d.pieces, bp, x, "right", order=1))
        assert _identical(d.one_sided(x)[0], per_piece(d.pieces, bp, x,
                                                        "left"))
        assert _identical(sp.interval(x)[1], clarke_interval(d, x)[1])
        assert _identical(sp.value(x),
                          per_piece(sp.antiderivative, bp, x, "right"))


class TestAntiderivative:
    def test_quadratic(self):
        sp = quad_density(1.0)
        np.testing.assert_allclose(sp.value(np.array([2.0, -3.0, 0.0])),
                                   [2.0, 4.5, 0.0])

    def test_absolute_value(self):
        sp = abs_density()
        np.testing.assert_allclose(sp.value(np.array([2.0, -3.0, 0.0])),
                                   [2.0, 3.0, 0.0])

    def test_jump_density_hand_values(self):
        sp = down_jump_density(b=0.5, left=0.3, right=0.0, slope=0.1)
        # left branch: 0.3 t + 0.05 t^2; right branch continues continuously
        assert sp.value(np.array([0.5]))[0] == pytest.approx(0.1625)
        assert sp.value(np.array([1.0]))[0] == pytest.approx(0.2)
        assert sp.value(np.array([-1.0]))[0] == pytest.approx(-0.25)

    def test_continuity_at_breakpoints(self):
        sp = down_jump_density()
        b = sp.density.breakpoints[0]
        eps = 1e-9
        lv = sp.value(np.array([b - eps]))[0]
        rv = sp.value(np.array([b + eps]))[0]
        assert lv == pytest.approx(rv, abs=1e-8)

    def test_j_zero_at_origin_with_negative_breakpoints(self):
        sp = build(PiecewiseDensity((-1.0, 1.0), ([2.0], [0.5], [-1.0])))
        assert sp.value(np.array([0.0]))[0] == 0.0
        # antiderivative of 0.5 around 0
        assert sp.value(np.array([0.5]))[0] == pytest.approx(0.25)


class TestSubdifferential:
    def test_filled_interval(self):
        sp = abs_density()
        lo, hi = sp.interval(np.array([0.0, 2.0]))
        assert lo.tolist() == [-1.0, 1.0]
        assert hi.tolist() == [1.0, 1.0]

    def test_down_jump_orientation(self):
        lo, hi = down_jump_density().interval(0.5)
        assert lo == pytest.approx(0.05)
        assert hi == pytest.approx(0.35)

    def test_directional_hand_values(self):
        sp = abs_density()
        vals = sp.directional(np.array([0.0, 0.0, -1.0]),
                              np.array([-2.0, 3.0, 1.0]))
        assert vals.tolist() == [2.0, 3.0, -1.0]

    @given(s=st.floats(-3, 3), d=st.floats(-3, 3),
           lam=st.floats(0.01, 10.0))
    def test_positive_homogeneity(self, s, d, lam):
        sp = down_jump_density()
        lhs = sp.directional(s, lam * d)
        assert lhs == pytest.approx(lam * sp.directional(s, d), abs=1e-12)

    @given(s=st.floats(-3, 3), d1=st.floats(-3, 3), d2=st.floats(-3, 3))
    def test_subadditivity_in_direction(self, s, d1, d2):
        sp = down_jump_density()
        lhs = sp.directional(s, d1 + d2)
        assert lhs <= sp.directional(s, d1) + sp.directional(s, d2) + 1e-12

    def test_bounds(self):
        assert quad_density(0.7).derivative_bound(5.0) == pytest.approx(0.7)


class TestGrowthCertificate:
    def test_absolute_value_alpha_one(self):
        gc = growth_certificate(abs_density(), 3.0)
        assert gc.alpha_j == pytest.approx(1.0)
        assert gc.global_bound

    def test_linear_density_alpha_is_slope(self):
        gc = growth_certificate(quad_density(2.0), 1.0)
        assert gc.alpha_j == pytest.approx(2.0)
        assert gc.global_bound

    def test_certificate_dominates_dense_scan(self):
        sp = down_jump_density(b=0.5, left=0.4, right=-0.2, slope=0.3)
        r = 4.0
        gc = growth_certificate(sp, r)
        grid = np.linspace(-r, r, 40001)
        lo, hi = sp.interval(grid)
        ratio = np.maximum(np.abs(lo), np.abs(hi)) / (1.0 + np.abs(grid))
        assert np.max(ratio) <= gc.alpha_j + 1e-9
        # the lattice maximum is nearly attained
        assert np.max(ratio) >= gc.alpha_j - 1e-3

    def test_cubic_tails_not_global(self):
        sp = build(PiecewiseDensity((), ([0.0, 0.0, 0.0, 1.0],)))
        gc = growth_certificate(sp, 2.0)
        assert not gc.global_bound
        assert gc.alpha_j == pytest.approx(8.0 / 3.0)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            growth_certificate(abs_density(), 0.0)

    def test_subnormal_leading_coefficient(self):
        # the companion matrix of (1 + s) p' - p on the right piece overflows
        sp = build(PiecewiseDensity((0.0,), ([0.0],
                                             [0.0, 1.0, 2.2250738585e-313])))
        gc = growth_certificate(sp, 2.0)
        assert gc.alpha_j == pytest.approx(2.0 / 3.0)


def _lattice_estimate(sp, r):
    """Reference: the largest ``(j°(s; t-s) + j°(t; s-t)) / |t-s|^2`` over
    pairs of a lattice on [-r, r] (200 points plus the breakpoints and
    their 1e-6 and 1e-3 offsets), floored at 0; a lower estimate of the
    relaxed-monotonicity constant.  Also returns a bound on its round-off:
    each quotient divides a sum of products ``beta * d`` by ``d^2``, so its
    absolute error is a few ``eps * max |beta| / |d|``, plus a few
    subnormal units over ``d^2`` where the products are subnormal."""
    bp = sp.density.breakpoints
    pts = [np.linspace(-r, r, 200)]
    for off in (0.0, 1e-6, 1e-3):
        pts += [bp + off, bp - off]
    lat = np.unique(np.clip(np.concatenate(pts), -r, r))
    d = lat[None, :] - lat[:, None]
    ratio = sp.directional(lat[:, None], d) + sp.directional(lat[None, :], -d)
    mask = np.abs(d) > 1e-12
    est = max(0.0, float(np.max(ratio[mask] / d[mask] ** 2, initial=0.0)))
    beta = np.max(np.abs(sp.interval(lat)))
    d_min = np.min(np.abs(d[mask]))
    err = 4 * (np.finfo(float).eps * beta / d_min
               + np.finfo(float).smallest_subnormal / d_min ** 2)
    return est, float(err)


@st.composite
def lattice_cases(draw):
    """Densities of degree 0 to 3 with 0 to 3 breakpoints (independent
    pieces, so jumps of either sign) and a range r in [0.3, 5]."""
    bp = sorted(set(draw(st.lists(st.floats(-4, 4), max_size=3))))
    pieces = [draw(st.lists(st.floats(-3, 3), min_size=1, max_size=4))
              for _ in range(len(bp) + 1)]
    sp = build(PiecewiseDensity(tuple(bp), tuple(pieces)))
    return sp, draw(st.floats(0.3, 5.0))


class TestRelaxedMonotonicity:
    def test_convex_densities_are_zero(self):
        assert relaxed_monotonicity_constant(abs_density(), 3.0) == 0.0
        assert relaxed_monotonicity_constant(quad_density(1.0), 3.0) == 0.0

    def test_decreasing_linear_density(self):
        # beta(t) = -t: the pair ratio (j°(s;t-s)+j°(t;s-t))/|t-s|^2 is
        # identically 1, so the estimate is exactly 1
        sp = build(PiecewiseDensity((), ([0.0, -1.0],)))
        assert relaxed_monotonicity_constant(sp, 2.0) == pytest.approx(1.0)

    def test_down_jump_blows_up(self):
        # a downward jump makes the true constant infinite
        est = relaxed_monotonicity_constant(down_jump_density(), 2.0)
        assert est > 1e4

    def test_validation(self):
        with pytest.raises(ValueError):
            relaxed_monotonicity_constant(abs_density(), -1.0)

    def test_closed_forms(self):
        minus_t = build(PiecewiseDensity((), ([0.0, -1.0],)))
        assert relaxed_monotonicity_constant(minus_t, 2.0) == 1.0
        assert relaxed_monotonicity_constant(abs_density(), 2.0) == 0.0
        assert relaxed_monotonicity_constant(quad_density(1.0), 2.0) == 0.0
        jump = down_jump_density(b=0.5, slope=0.1)
        assert relaxed_monotonicity_constant(jump, 2.0) == math.inf
        assert relaxed_monotonicity_constant(jump, 0.5) == math.inf
        assert relaxed_monotonicity_constant(jump, 0.4) == 0.0
        # beta = t^2 - t, down by 0.25 past 0.5: beta' = 2t - 1 is least
        # at -r
        sp = build(PiecewiseDensity((0.5,), ([0.0, -1.0, 1.0],
                                             [-0.25, -1.0, 1.0])))
        assert relaxed_monotonicity_constant(sp, 0.4) == pytest.approx(1.8)
        assert relaxed_monotonicity_constant(sp, 1.0) == math.inf

    @np.errstate(invalid="ignore")   # the r = inf candidate grid
    def test_unchecked_range_is_nan(self):
        # at r = inf the candidate grid holds NaN, so no minimum of beta'
        # is known: NaN, not the 0.0 that max(0.0, nan) gives
        minus_t = build(PiecewiseDensity((), ([0.0, -1.0],)))
        abs_t = build(PiecewiseDensity((0.0,), ([0.0, -1.0], [0.0, 1.0])))
        t = build(PiecewiseDensity((), ([0.0, 1.0],)))
        for sp in minus_t, abs_t, t:
            assert math.isnan(relaxed_monotonicity_constant(sp, math.inf))
        assert relaxed_monotonicity_constant(minus_t, 2.0) == 1.0
        assert relaxed_monotonicity_constant(minus_t, 1e300) == 1.0

    @settings(deadline=None, max_examples=200)
    @given(lattice_cases())
    # exact 1e-5; round-off in the 1e-6-wide quotients puts the lattice at
    # 1.0000071e-5
    @example((build(PiecewiseDensity((0.0,), ([0.0], [1.0, -1e-5]))), 1.0))
    # exact 2.225e-311; the 1e-6-wide quotients are a few subnormal units
    # over 1e-12, so the lattice reads 2.470e-311
    @example((build(PiecewiseDensity((0.0,), ([0.0],
                                              [0.0, -2.225073858507e-311]))),
              1.0))
    def test_at_least_lattice_estimate(self, case):
        sp, r = case
        exact = relaxed_monotonicity_constant(sp, r)
        est, err = _lattice_estimate(sp, r)
        assert exact >= est * (1.0 - 1e-6) - err


# ---------------------------------------------------------------------------
# Reference: the certificates and antiderivatives as computed through
# numpy.polynomial before the coefficient-table helpers replaced it.


def _ref_antiderivatives(density):
    bp = density.breakpoints
    prim = [P.polyint(c) for c in density.pieces]
    k = len(bp)
    consts = [0.0] * (k + 1)
    i0 = int(np.searchsorted(bp, 0.0, side="right"))
    consts[i0] = -float(P.polyval(0.0, prim[i0]))
    for i in range(i0, k):
        consts[i + 1] = (float(P.polyval(bp[i], prim[i])) + consts[i]
                         - float(P.polyval(bp[i], prim[i + 1])))
    for i in range(i0 - 1, -1, -1):
        consts[i] = (float(P.polyval(bp[i], prim[i + 1])) + consts[i + 1]
                     - float(P.polyval(bp[i], prim[i])))
    anti = []
    for c, c0 in zip(prim, consts):
        c = c.copy()
        c[0] += c0
        anti.append(c)
    return anti


def _ref_real_roots(coef, a, b):
    coef = np.atleast_1d(coef)
    with np.errstate(all="ignore"):
        while len(coef) > 1 and not np.all(np.isfinite(coef[:-1] / coef[-1])):
            coef = coef[:-1]
    roots = P.polyroots(coef)
    roots = roots[np.abs(roots.imag) < 1e-10].real
    return roots[(roots > a) & (roots < b)]


def _ref_pieces_within(density, r):
    bp = density.breakpoints
    bounds = np.concatenate(([-r], np.clip(bp, -r, r), [r]))
    for c, a, b in zip(density.pieces, bounds[:-1], bounds[1:]):
        if a < b:
            yield c, a, b


def _ref_extremum_candidates(density, r):
    bp = density.breakpoints
    cand = [np.linspace(-r, r, 129), bp[(bp >= -r) & (bp <= r)]]
    for c, a, b in _ref_pieces_within(density, r):
        cand.append(_ref_real_roots(P.polyder(c), a, b))
    return np.unique(np.concatenate(cand))


def _ref_derivative_one_sided(density, r):
    deriv = PiecewiseDensity(density.breakpoints,
                             tuple(P.polyder(c) for c in density.pieces))
    return deriv.one_sided(_ref_extremum_candidates(deriv, r))


def _ref_growth_ratio_max(sp, r):
    cand = [_ref_extremum_candidates(sp.density, r), np.asarray([0.0])]
    for c, a, b in _ref_pieces_within(sp.density, r):
        dc = P.polyder(c)
        if b > 0:
            q = P.polysub(P.polymul(np.array([1.0, 1.0]), dc), c)
            cand.append(_ref_real_roots(q, max(a, 0.0), b))
        if a < 0:
            q = P.polyadd(P.polymul(np.array([1.0, -1.0]), dc), c)
            cand.append(_ref_real_roots(q, a, min(b, 0.0)))
    pts = np.unique(np.concatenate(cand))
    lo, hi = sp.interval(pts)
    ratio = np.maximum(np.abs(lo), np.abs(hi)) / (1.0 + np.abs(pts))
    return float(np.max(ratio, initial=0.0))


def _ref_growth_certificate(sp, r):
    """``(alpha_j, global_bound)``."""
    density = sp.density

    def eff_degree(c):
        c = np.trim_zeros(np.atleast_1d(c), "b")
        return max(len(c) - 1, 0)

    if not (eff_degree(density.pieces[0]) <= 1
            and eff_degree(density.pieces[-1]) <= 1):
        return _ref_growth_ratio_max(sp, r), False
    big = max(r, float(np.max(np.abs(density.breakpoints), initial=0.0)), 1.0)
    alpha = _ref_growth_ratio_max(sp, big)
    for c in (density.pieces[0], density.pieces[-1]):
        if len(c) > 1:
            alpha = max(alpha, abs(float(c[1])))
    return alpha, True


def _ref_relaxed_monotonicity_constant(sp, r):
    if any(-r <= b <= r and lo > hi for b, lo, hi in sp.density.jumps()):
        return math.inf
    left, right = _ref_derivative_one_sided(sp.density, r)
    m = -float(np.min(np.minimum(left, right)))
    return m if math.isnan(m) else max(0.0, m)


def _ref_derivative_bound(sp, r):
    left, right = _ref_derivative_one_sided(sp.density, r)
    return float(np.max(np.maximum(np.abs(left), np.abs(right)), initial=0.0))


def _same_float(a, b):
    """The same bits, or both NaN."""
    return (np.float64(a).tobytes() == np.float64(b).tobytes()
            or (math.isnan(a) and math.isnan(b)))


_SUBNORMAL = 2.2250738585e-313
# finite coefficients with signed zeros, subnormals and wide magnitudes
_wide = st.one_of(st.floats(-1e6, 1e6, allow_subnormal=True),
                  st.sampled_from([0.0, -0.0, 1.0, -1.0, _SUBNORMAL,
                                   -_SUBNORMAL, 5e-324, 1e300, -1e300]))


@st.composite
def coefficients(draw):
    """Degrees 0 to 4, sometimes with trailing zeros or a subnormal leading
    coefficient."""
    c = draw(st.lists(_wide, min_size=1, max_size=5))
    tail = draw(st.sampled_from(["", "zeros", "subnormal"]))
    if tail == "zeros":
        c += draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=1,
                           max_size=2))
    elif tail == "subnormal" and len(c) > 1:
        c[-1] = draw(st.sampled_from([_SUBNORMAL, -_SUBNORMAL, 5e-324]))
    return np.array(c)


@st.composite
def certificate_cases(draw):
    """Densities with 0 to 3 breakpoints and 1 to 4 coefficients a piece,
    and a range r from 0.01 to 1e150 or inf."""
    bp = sorted(set(draw(st.lists(st.floats(-5, 5), max_size=3))))
    pieces = [draw(st.lists(_wide, min_size=1, max_size=4))
              for _ in range(len(bp) + 1)]
    r = draw(st.one_of(st.floats(0.01, 100.0),
                       st.sampled_from([0.01, 1.0, 1e3, 1e150, math.inf])))
    return PiecewiseDensity(tuple(bp), tuple(pieces)), r


class TestCoefficientArithmetic:
    """The coefficient helpers and everything built on them keep the bits
    of the numpy.polynomial calls they replaced."""

    @settings(deadline=None, max_examples=300)
    @given(coefficients())
    @example(np.array([-0.0]))
    @example(np.array([3.0, -0.0, 0.0]))
    @example(np.array([1.0, 2.0, _SUBNORMAL]))
    @example(np.array([0.0, 0.0]))
    @np.errstate(over="ignore", invalid="ignore")  # 1e300 squared, inf - inf
    def test_helpers_match_numpy_polynomial(self, c):
        assert _identical(_trim(c), pu.trimseq(c))
        assert _identical(_der(c), P.polyder(c))
        assert _identical(_antider(c), P.polyint(c))
        dc = P.polyder(c)
        assert _identical(_ratio_numerator(c, 1.0),
                          P.polysub(P.polymul(np.array([1.0, 1.0]), dc), c))
        assert _identical(_ratio_numerator(c, -1.0),
                          P.polyadd(P.polymul(np.array([1.0, -1.0]), dc), c))
        if len(c) == 2 and c[1] != 0:   # a linear root, without the companion
            assert _identical(_real_roots(c, -math.inf, math.inf),
                              _ref_real_roots(c, -math.inf, math.inf))

    @settings(deadline=None, max_examples=300)
    @given(certificate_cases())
    @example((PiecewiseDensity((0.0,), ([-1.0], [1.0])), math.inf))
    @example((PiecewiseDensity((0.0,), ([0.0], [0.0, 1.0, _SUBNORMAL])), 2.0))
    @example((PiecewiseDensity((0.5,), ([0.0, -1.0, 1.0],
                                       [-0.25, -1.0, 1.0])), 1e150))
    @np.errstate(over="ignore", invalid="ignore")  # r = inf, huge pieces
    def test_certificates_and_antiderivatives_match_reference(self, case):
        density, r = case
        sp = build(density)
        for got, ref in zip(sp.antiderivative, _ref_antiderivatives(density),
                            strict=True):
            assert _identical(got, ref)
        gc = growth_certificate(sp, r)
        alpha, global_bound = _ref_growth_certificate(sp, r)
        assert _same_float(gc.alpha_j, alpha)
        assert gc.global_bound is global_bound
        assert _same_float(relaxed_monotonicity_constant(sp, r),
                           _ref_relaxed_monotonicity_constant(sp, r))
        assert _same_float(sp.derivative_bound(r),
                           _ref_derivative_bound(sp, r))


class TestMollify:
    def test_abs_ramp(self):
        sp = abs_density()
        h = 0.25
        mol = mollify(sp, h)
        assert mol.density.jumps() == []
        xs = np.array([-0.5, -0.25, -0.125, 0.0, 0.125, 0.25, 0.5])
        np.testing.assert_allclose(mol.density.value(xs),
                                   [-1.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.0])

    def test_untouched_outside_ramps(self):
        sp = down_jump_density()
        mol = mollify(sp, 1e-3)
        xs = np.array([-2.0, 0.0, 0.4, 0.6, 3.0])
        np.testing.assert_allclose(mol.density.value(xs),
                                   sp.density.value(xs))
        # a breakpoint without a jump is kept, next to a ramped one
        sp = build(PiecewiseDensity((-1.0, 0.0), ([1.0, 1.0], [0.0], [1.0])))
        mol = mollify(sp, 0.25)
        assert mol.density.breakpoints.tolist() == [-1.0, -0.25, 0.25]
        xs = np.array([-2.0, -1.0, -0.5, 0.3, 3.0])
        np.testing.assert_allclose(mol.density.value(xs),
                                   sp.density.value(xs))

    def test_no_jumps_identity(self):
        sp = quad_density()
        assert mollify(sp, 0.1) is sp

    def test_ramp_width_vs_gap(self):
        d = build(PiecewiseDensity((0.0, 0.1), ([-1.0], [0.0], [1.0])))
        with pytest.raises(ValueError, match="too large"):
            mollify(d, 0.05)
        with pytest.raises(ValueError):
            mollify(d, 0.0)


class TestDocuments:
    def test_from_document(self):
        sp = from_document({"breakpoints": [0.0], "pieces": [[-1.0], [1.0]]})
        assert sp.value(np.array([-2.0]))[0] == 2.0

    def test_from_document_strict_keys(self):
        with pytest.raises(ValueError, match="malformed"):
            from_document({"breakpoints": [], "pieces": [[0.0]], "x": 1})

    def test_schedule(self):
        sched = schedule_from_document([
            {"until": 0.5, "density": {"breakpoints": [], "pieces": [[1.0]]}},
            {"until": 1.0, "density": {"breakpoints": [], "pieces": [[2.0]]}},
        ])
        assert sched.at(0.2).density.value(0.0) == 1.0
        assert sched.at(0.5).density.value(0.0) == 1.0   # inclusive boundary
        assert sched.at(0.7).density.value(0.0) == 2.0
        assert sched.at(9.9).density.value(0.0) == 2.0   # clamps to the last

    def test_schedule_validation(self):
        with pytest.raises(ValueError, match="malformed schedule"):
            schedule_from_document([{"until": 1.0}])
        with pytest.raises(ValueError, match="nonempty"):
            schedule_from_document([])
        for until in (math.nan, math.inf, -math.inf, 10 ** 400, True):
            with pytest.raises(ValueError, match="malformed schedule"):
                schedule_from_document([{"until": until, "density": {
                    "breakpoints": [], "pieces": [[1.0]]}}])
        with pytest.raises(ValueError, match="malformed schedule"):
            SuperpotentialSchedule((math.nan, 1.0),
                                   (quad_density(), quad_density()))
        with pytest.raises(ValueError, match="increase"):
            schedule_from_document([
                {"until": 1.0, "density": {"breakpoints": [],
                                           "pieces": [[1.0]]}},
                {"until": 0.5, "density": {"breakpoints": [],
                                           "pieces": [[2.0]]}},
            ])
