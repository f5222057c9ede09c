"""Operator assembly, constants, bilinear identity, and the CG solver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

import graphhvi as gh
from graphhvi.operators import (_pcg, assemble, bilinear_form,
                                coercivity_gap, constants)

from conftest import make_random_graph


def dense_system(g):
    """Independent dense route: K + C as an explicit matrix."""
    n = g.num_nodes
    A = np.zeros((n, n))
    for s, d, c in zip(g.edge_src, g.edge_dst, g.gamma):
        A[s, s] += c
        A[s, d] -= c
    A += np.diag(g.kappa)
    return A


def duplicate_coo_stiffness(g):
    """K as one diagonal COO entry per directed edge, summed by scipy."""
    n = g.num_nodes
    rows = np.concatenate([g.edge_src, g.edge_src])
    cols = np.concatenate([g.edge_src, g.edge_dst])
    vals = np.concatenate([g.gamma, -g.gamma])
    return sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


class TestAssembly:
    @settings(deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_duplicate_coo(self, seed):
        g = make_random_graph(np.random.default_rng(seed), weight_lo=1e-3,
                              weight_hi=1e3)
        K, ref = assemble(g).stiffness, duplicate_coo_stiffness(g)
        assert K.has_canonical_format
        for name in ("indptr", "indices"):
            np.testing.assert_array_equal(getattr(K, name), getattr(ref, name))
        assert K.indptr.dtype == ref.indptr.dtype
        # the diagonal adds up each node's edges in edge order
        diag = np.zeros(g.num_nodes)
        for s, c in zip(g.edge_src, g.gamma):
            diag[s] += c
        assert K.diagonal().tobytes() == diag.tobytes()
        # scipy's duplicate sum keeps that order only in a row of at most
        # 16 entries (8 edges): its sort may reorder a longer row
        deg = np.bincount(g.edge_src, minlength=g.num_nodes)
        row = np.repeat(np.arange(g.num_nodes), np.diff(K.indptr))
        same = (deg[row] <= 8) | (K.indices != row)
        assert K.data[same].tobytes() == ref.data[same].tobytes()
        np.testing.assert_allclose(K.data, ref.data, rtol=1e-14)

    def test_stiffness_row_sums_zero(self):
        g = make_random_graph(np.random.default_rng(5), max_nodes=50)
        K = assemble(g).stiffness.toarray()
        np.testing.assert_allclose(K.sum(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(K, K.T)

    def test_apply_matches_pointwise_formula(self):
        g = gh.from_data(
            [("a", 2.0, 1.0), ("b", 1.0, 3.0), ("c", 0.5, 0.5)],
            [("a", "b", 1.0, 2.0), ("b", "c", 1.0, 0.5)],
        )
        phi = np.array([1.0, -1.0, 2.0])
        opr = assemble(g)
        # hand evaluation of (L phi)(v) at each node
        la = (2.0 * (1.0 - (-1.0)) + 1.0 * 1.0) / 2.0
        lb = (2.0 * (-1.0 - 1.0) + 0.5 * (-1.0 - 2.0) + 3.0 * (-1.0)) / 1.0
        lc = (0.5 * (2.0 - (-1.0)) + 0.5 * 2.0) / 0.5
        np.testing.assert_allclose(gh.apply(opr, phi), [la, lb, lc])

    def test_edgeless(self):
        g = gh.from_data([("a", 2.0, 3.0)], [])
        opr = assemble(g)
        np.testing.assert_allclose(gh.apply(opr, np.array([4.0])), [6.0])


class TestConstants:
    def test_hand_values(self):
        g = gh.from_data(
            [("a", 2.0, 1.0), ("b", 1.0, 3.0)],
            [("a", "b", 4.0, 2.0)],
        )
        c = constants(g)
        assert c.m_gamma_lo == pytest.approx(0.5)
        assert c.m_gamma_hi == pytest.approx(0.5)
        assert c.m_kappa_lo == pytest.approx(0.5)
        assert c.m_kappa_hi == pytest.approx(3.0)
        assert c.m_coercive == pytest.approx(0.5)
        assert c.m_bounded == pytest.approx(3.0)

    def test_edgeless_ratios_vacuous(self):
        c = constants(gh.from_data([("a", 2.0, 3.0)], []))
        assert c.m_gamma_lo == math.inf
        assert c.m_gamma_hi == 0.0
        assert c.m_coercive == pytest.approx(1.5)


class TestBilinearForm:
    @settings(deadline=None)
    @given(seed=st.integers(0, 30))
    def test_summation_by_parts(self, seed):
        g = make_random_graph(np.random.default_rng(seed), max_nodes=40)
        rng = np.random.default_rng(seed + 500)
        phi = rng.uniform(-1, 1, g.num_nodes)
        psi = rng.uniform(-1, 1, g.num_nodes)
        opr = assemble(g)
        lhs = gh.inner_product_nodes(g, gh.apply(opr, phi), psi)
        rhs = bilinear_form(opr, phi, psi)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_symmetry_and_positivity(self):
        g = make_random_graph(np.random.default_rng(7), max_nodes=40)
        rng = np.random.default_rng(8)
        phi = rng.normal(size=g.num_nodes)
        psi = rng.normal(size=g.num_nodes)
        opr = assemble(g)
        assert bilinear_form(opr, phi, psi) == pytest.approx(
            bilinear_form(opr, psi, phi))
        assert bilinear_form(opr, phi, phi) > 0.0

    def test_coercivity_gap_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            g = make_random_graph(rng, max_nodes=60)
            opr = assemble(g)
            m = constants(g).m_coercive
            phi = rng.uniform(-1, 1, g.num_nodes)
            assert coercivity_gap(opr, phi, m) >= -1e-12

    def test_coercivity_gap_tight_for_constant_ratios(self):
        # gamma = m rho and kappa = m mu make the bound an identity
        g = gh.from_data(
            [("a", 2.0, 1.0), ("b", 4.0, 2.0)],
            [("a", "b", 3.0, 1.5)],
        )
        opr = assemble(g)
        phi = np.array([1.3, -0.4])
        assert coercivity_gap(opr, phi, 0.5) == pytest.approx(0.0, abs=1e-14)


def zero_start_pcg(A, d, rhs, tol, max_iter):
    """The CG loop as it ran before warm starts and right-hand-side scaling:
    from zero, on ``rhs`` as given."""
    nb = math.sqrt(rhs @ rhs)
    if nb == 0.0:
        return np.zeros_like(rhs), 0.0, 0
    x = np.zeros_like(rhs)
    r = rhs - (A @ x + d * x)
    inv_d = 1.0 / (A.diagonal() + d)
    z = inv_d * r
    p = z.copy()
    rz = float(r @ z)
    nr = math.sqrt(r @ r)
    stop = tol * nb
    it = 0
    while nr > stop and it < max_iter:
        Ap = A @ p + d * p
        pAp = float(p @ Ap)
        if not pAp > 0.0:
            break
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        nr = math.sqrt(r @ r)
        it += 1
        if nr > stop:
            z = inv_d * r
            rz_new = float(r @ z)
            p = z + (rz_new / rz) * p
            rz = rz_new
    return x, nr / nb, it


class TestPCG:
    """``_pcg`` from zero, alone and continued past its first tolerance."""

    @staticmethod
    def system(seed, max_nodes=80):
        rng = np.random.default_rng(seed)
        g = make_random_graph(rng, max_nodes=max_nodes)
        d = g.kappa + rng.uniform(0.0, 1e-3, g.num_nodes)
        return assemble(g).stiffness, d, rng.normal(size=g.num_nodes) * 7.3

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            g = make_random_graph(rng, max_nodes=80)
            shift = rng.uniform(0.0, 2.0, g.num_nodes)
            rhs = rng.normal(size=g.num_nodes)
            x, rel, _ = _pcg(assemble(g).stiffness, g.kappa + shift, rhs,
                             1e-12, 10000)
            assert rel <= 1e-12
            oracle = np.linalg.solve(dense_system(g) + np.diag(shift), rhs)
            np.testing.assert_allclose(x, oracle, rtol=1e-9, atol=1e-11)

    def test_zero_rhs(self):
        A, d, _ = self.system(11, max_nodes=10)
        x, rel, it = _pcg(A, d, np.zeros(len(d)), 1e-12, 10000)
        assert x.tobytes() == np.zeros(len(d)).tobytes()
        assert (rel, it) == (0.0, 0)

    def test_zero_start_matches_the_plain_loop_bytewise(self):
        for seed in range(20):
            A, d, rhs = self.system(seed)
            for tol in (1e-2, 1e-13):
                x, rel, it = _pcg(A, d, rhs, tol, 500)
                ox, orel, oit = zero_start_pcg(A, d, rhs, tol, 500)
                assert x.tobytes() == ox.tobytes()
                assert (rel, it) == (orel, oit)

    def test_continued_run_matches_one_run_bytewise(self):
        for seed in range(20):
            A, d, rhs = self.system(seed)
            seen = []

            def accept(x):
                seen.append(x.copy())
                return True

            loose = _pcg(A, d, rhs, 1e-2, 500)
            out = _pcg(A, d, rhs, 1e-2, 500, accept)
            one = _pcg(A, d, rhs, 1e-13, 500)
            assert 1e-13 < loose[1] <= 1e-2 and one[1] <= 1e-13
            assert len(seen) == 1   # asked once, at the loose solution
            assert seen[0].tobytes() == loose[0].tobytes()
            assert out[0].tobytes() == one[0].tobytes()
            assert out[1:] == one[1:]

    def test_declined_continuation_stops_at_the_first_tolerance(self):
        for seed in range(5):
            A, d, rhs = self.system(seed, max_nodes=200)
            seen = []
            loose = _pcg(A, d, rhs, 1e-2, 1000)
            out = _pcg(A, d, rhs, 1e-2, 1000,
                       lambda x: seen.append(x) or False)
            assert len(seen) == 1
            assert out[0].tobytes() == loose[0].tobytes()
            assert out[1:] == loose[1:]
            # a run the cap stops before the first tolerance is not asked
            capped = _pcg(A, d, rhs, 1e-2, 1, seen.append)
            assert len(seen) == 1 and capped[1] > 1e-2 and capped[2] == 1

    def test_extreme_right_hand_sides(self):
        # ||rhs||^2 overflows (1e301) or underflows (1e-200) unscaled
        A = sparse.csr_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        for scale in (1e301, 1e-200):
            rhs = np.array([1.0, 2.0]) * scale
            with np.errstate(all="raise"):
                x, rel, it = _pcg(A, np.ones(2), rhs, 1e-13, 50)
            assert rel <= 1e-13 and it > 0
            np.testing.assert_allclose(A @ x + x, rhs, rtol=1e-12)
