"""Piecewise densities, antiderivatives, intervals, and certificates."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.polynomial import polynomial as P

from graphhvi.superpotential import (PiecewiseDensity, build, from_document,
                                     growth_certificate, mollify,
                                     relaxed_monotonicity_constant,
                                     schedule_from_document)

from conftest import abs_density, down_jump_density, quad_density


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


def _per_piece(pieces, bp, x, side, order=0):
    """Reference: ``P.polyval`` on each piece under a mask (the evaluator
    the coefficient tables replaced)."""
    x = np.asarray(x, dtype=float)
    idx = np.searchsorted(bp, x, side=side)
    out = np.empty(x.shape)
    for i, c in enumerate(pieces):
        mask = idx == i
        if mask.any():
            cc = P.polyder(c, order) if order else c
            out[mask] = P.polyval(x[mask], cc)
    return out


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
    @np.errstate(invalid="ignore")  # inf * 0 on both sides
    def test_bit_identical_to_per_piece(self, case):
        d, x = case
        bp, pieces = d.breakpoints, d.pieces
        assert _identical(d.value(x), _per_piece(pieces, bp, x, "right"))
        assert _identical(d.derivative(x),
                          _per_piece(pieces, bp, x, "right", order=1))
        left, right = d.one_sided(x)
        assert _identical(left, _per_piece(pieces, bp, x, "left"))
        assert _identical(right, _per_piece(pieces, bp, x, "right"))
        sp = build(d)
        assert _identical(sp.value(x),
                          _per_piece(sp.antiderivative, bp, x, "right"))
        jumps = [(b, lo, hi) for b, lo, hi
                 in zip(bp, _per_piece(pieces, bp, bp, "left"),
                        _per_piece(pieces, bp, bp, "right")) if lo != hi]
        assert d.jumps() == jumps

    @pytest.mark.parametrize("x", [np.float64(0.25), -1.5,
                                   np.linspace(-2, 2, 12).reshape(3, 4)])
    def test_shape_kept(self, x):
        sp = down_jump_density()
        d, bp = sp.density, sp.density.breakpoints
        ref = _per_piece(d.pieces, bp, x, "right")
        assert _identical(d.value(x), ref)
        assert _identical(d.derivative(x),
                          _per_piece(d.pieces, bp, x, "right", order=1))
        assert _identical(d.one_sided(x)[0], _per_piece(d.pieces, bp, x,
                                                        "left"))
        assert _identical(sp.value(x),
                          _per_piece(sp.antiderivative, bp, x, "right"))


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
        with pytest.raises(ValueError, match="increase"):
            schedule_from_document([
                {"until": 1.0, "density": {"breakpoints": [],
                                           "pieces": [[1.0]]}},
                {"until": 0.5, "density": {"breakpoints": [],
                                           "pieces": [[2.0]]}},
            ])
