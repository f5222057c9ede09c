"""Difference operator, weighted norms, and embedding diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import graphhvi as gh

from conftest import make_random_graph


def two_node(mu=(2.0, 0.5), kappa=(1.0, 1.0), rho=2.0, gamma=1.0):
    return gh.from_data(
        [("a", mu[0], kappa[0]), ("b", mu[1], kappa[1])],
        [("a", "b", rho, gamma)],
    )


class TestDifference:
    def test_single_edge_orientations(self):
        g = two_node()
        d = gh.difference(g, np.array([1.0, 4.0]))
        # from_data appends the two orientations consecutively
        np.testing.assert_allclose(sorted(d), [-3.0, 3.0])

    def test_antisymmetric_pairs(self):
        g = make_random_graph(np.random.default_rng(1), max_nodes=30)
        phi = np.random.default_rng(2).normal(size=g.num_nodes)
        d = gh.difference(g, phi)
        np.testing.assert_allclose(d[0::2], -d[1::2])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            gh.difference(two_node(), np.zeros(3))
        with pytest.raises(ValueError, match="with 2 directed edges"):
            gh.lp_norm_edges(two_node(), np.zeros(3))


class TestNorms:
    def test_l2_nodes_hand_value(self):
        g = two_node(mu=(2.0, 0.5))
        phi = np.array([3.0, -4.0])
        assert gh.lp_norm_nodes(g, phi, 2.0) == pytest.approx(math.sqrt(26.0))

    def test_l1_and_weighted_sup(self):
        g = two_node(mu=(2.0, 0.5))
        phi = np.array([3.0, -4.0])
        assert gh.lp_norm_nodes(g, phi, 1.0) == pytest.approx(8.0)
        # weight sits inside the sup: max(3*2, 4*0.5)
        assert gh.lp_norm_nodes(g, phi, np.inf) == pytest.approx(6.0)

    def test_l2_edges_hand_value(self):
        g = two_node(rho=2.0)
        d = gh.difference(g, np.array([0.0, 3.0]))
        assert gh.lp_norm_edges(g, d, 2.0) == pytest.approx(6.0)

    def test_p_below_one_rejected(self):
        for p in (0.5, math.nan):
            with pytest.raises(ValueError, match="p must be"):
                gh.lp_norm_nodes(two_node(), np.ones(2), p)
            with pytest.raises(ValueError, match="p must be"):
                gh.lp_norm_edges(two_node(), np.ones(2), p)

    def test_edgeless_edge_norm_is_zero(self):
        g = gh.from_data([("a", 1, 1)], [])
        assert gh.lp_norm_edges(g, np.zeros(0), 2.0) == 0.0

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
    def test_no_overflow_near_the_largest_float(self, p):
        # |v| ** p overflows before the root is taken, unscaled
        g = two_node(mu=(1.0, 1.0))
        phi = np.array([1e300, 1e301])
        with np.errstate(all="raise"):
            norm = gh.lp_norm_nodes(g, phi, p)
        want = {1.0: 1.1e301, 2.0: math.sqrt(1.01) * 1e301,
                3.0: 1.001 ** (1 / 3) * 1e301, math.inf: 1e301}[p]
        assert norm == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
    def test_no_underflow_to_zero(self, p):
        # (1e-200) ** 2 underflows to 0, unscaled
        g = two_node(mu=(1.0, 1.0))
        with np.errstate(all="raise"):
            norm = gh.lp_norm_nodes(g, np.array([1e-200, 0.0]), p)
        assert norm == pytest.approx(1e-200, rel=1e-14)

    def test_tail_mass_near_the_largest_float(self):
        g = gh.from_data([("a", 1, 1), ("b", 1, 1), ("c", 1, 1)],
                         [("a", "b", 1.0, 1.0), ("b", "c", 1.0, 1.0)])
        with np.errstate(all="raise"):
            diag = gh.embedding_diagnostics(g, "a", 0.5,
                                            np.array([0.0, 3e300, 4e300]))
        assert diag.tail_mass == pytest.approx(5e300, rel=1e-14)

    @given(c=st.floats(-10, 10), p=st.sampled_from([1.0, 2.0, math.inf]),
           seed=st.integers(0, 50))
    def test_homogeneity(self, c, p, seed):
        g = two_node()
        phi = np.random.default_rng(seed).normal(size=2)
        lhs = gh.lp_norm_nodes(g, c * phi, p)
        assert lhs == pytest.approx(abs(c) * gh.lp_norm_nodes(g, phi, p))

    @given(p=st.sampled_from([1.0, 2.0, math.inf]), seed=st.integers(0, 50))
    def test_triangle_inequality(self, p, seed):
        g = make_random_graph(np.random.default_rng(seed), max_nodes=20)
        rng = np.random.default_rng(seed + 1000)
        phi = rng.normal(size=g.num_nodes)
        psi = rng.normal(size=g.num_nodes)
        lhs = gh.lp_norm_nodes(g, phi + psi, p)
        rhs = gh.lp_norm_nodes(g, phi, p) + gh.lp_norm_nodes(g, psi, p)
        assert lhs <= rhs * (1 + 1e-12)


class TestSobolevNorms:
    def test_report_consistency(self):
        g = make_random_graph(np.random.default_rng(3), max_nodes=25)
        phi = np.random.default_rng(4).normal(size=g.num_nodes)
        rep = gh.sobolev_norms(g, phi)
        assert rep.l2_node == pytest.approx(gh.lp_norm_nodes(g, phi, 2.0))
        assert rep.l2_edge == pytest.approx(
            gh.lp_norm_edges(g, gh.difference(g, phi), 2.0))
        assert rep.w_sum == pytest.approx(rep.l2_node + rep.l2_edge)
        assert rep.w_hilbert == pytest.approx(
            math.hypot(rep.l2_node, rep.l2_edge))
        # the two W-norms are equivalent with explicit constants
        assert rep.w_hilbert <= rep.w_sum <= math.sqrt(2) * rep.w_hilbert


class TestEmbeddingDiagnostics:
    def test_tail_mass(self):
        g = gh.from_data(
            [("a", 1, 1), ("b", 1, 1), ("c", 4.0, 1)],
            [("a", "b", 1.0, 1.0), ("b", "c", 1.0, 1.0)],
        )
        diag = gh.embedding_diagnostics(g, "a", 1.5, np.array([1.0, 1.0, 3.0]))
        assert diag.ball_size == 2
        # tail holds only c: sqrt(3^2 * 4)
        assert diag.tail_mass == pytest.approx(6.0)

    def test_invalid_radius(self):
        g = gh.from_data([("a", 1, 1)], [])
        with pytest.raises(ValueError):
            gh.embedding_diagnostics(g, "a", 0.0, np.zeros(1))

    def test_nan_radius_rejected(self):
        g = gh.from_data([("a", 1, 1)], [])
        with pytest.raises(ValueError, match="positive"):
            gh.embedding_diagnostics(g, "a", math.nan, np.ones(1))
