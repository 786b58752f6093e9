import math

import numpy as np
import pytest

from wishart_roots.distribution import EvalConfig, WishartParams, pdf_quadrature, cdf_quadrature
from wishart_roots.h_integrals import HIndex, h_eval
from wishart_roots.hgm import (
    HgmState,
    PfaffianSystem,
    basis_value,
    cdf_hgm,
    eval_extraction,
    extraction_vector,
    extraction_vector_dx,
    hgm_integrate,
    initial_state,
    lam_block,
    m2_paper_products_extraction,
    pdf_hgm,
    printed_m2_table,
    trajectory,
    x_block,
)
from wishart_roots.ratfunc import RatFunc

CFG = EvalConfig()


def eval_mat(mat, x, lam):
    return np.array([[c.eval([x, lam]) for c in row] for row in mat])


class TestBlocks:
    @pytest.mark.parametrize("N", [2, 3, 5])
    @pytest.mark.parametrize("pt", [(2.0, 1.0), (0.7, 0.4), (4.0, 2.5)])
    def test_x_block_matches_derivatives(self, N, pt):
        x, lam = pt
        h = 1e-6
        blk = eval_mat(x_block(N), x, lam)
        vals = np.array([basis_value(N, a, x, lam) for a in range(3)])
        analytic = blk @ vals
        for a in range(3):
            fd = (basis_value(N, a, x + h, lam) - basis_value(N, a, x - h, lam)) / (2 * h)
            assert analytic[a] == pytest.approx(fd, rel=2e-5, abs=1e-10)

    @pytest.mark.parametrize("N", [2, 3, 5])
    @pytest.mark.parametrize("pt", [(2.0, 1.0), (1.5, 0.6)])
    def test_lam_block_matches_derivatives(self, N, pt):
        x, lam = pt
        h = 1e-6
        blk = eval_mat(lam_block(N), x, lam)
        vals = np.array([basis_value(N, a, x, lam) for a in range(3)])
        analytic = blk @ vals
        for a in range(3):
            fd = (basis_value(N, a, x, lam + h) - basis_value(N, a, x, lam - h)) / (2 * h)
            assert analytic[a] == pytest.approx(fd, rel=2e-5, abs=1e-10)

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_integrability(self, N):
        xb, lb = x_block(N), lam_block(N)
        for (x, lam) in [(1.3, 0.9), (2.5, 2.0), (0.6, 3.1)]:
            Ax = eval_mat(xb, x, lam)
            Al = eval_mat(lb, x, lam)
            dAl_dx = np.array([[c.diff(0).eval([x, lam]) for c in row] for row in lb])
            dAx_dl = np.array([[c.diff(1).eval([x, lam]) for c in row] for row in xb])
            lhs = dAl_dx + Al @ Ax
            rhs = dAx_dl + Ax @ Al
            assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_lam_zero_limit_of_b2_derivative(self):
        # (N/lam)(b1 - b2) stays finite as lam -> 0 because b1 - b2 = O(lam)
        N, x = 3, 2.0
        vals = [
            N / lam * (basis_value(N, 1, x, lam) - basis_value(N, 2, x, lam))
            for lam in (1e-3, 5e-4)
        ]
        extrapolated = 2 * vals[1] - vals[0]
        assert abs(extrapolated) < math.inf
        assert vals[0] == pytest.approx(vals[1], rel=1e-2)


def symbolic_rhs(N, m, x, state, lambdas):
    """Reference: the Kronecker-sum action with every block entry evaluated
    from its RatFunc."""
    t = state.reshape((3,) * m)
    out = np.zeros_like(t)
    for slot in range(m):
        blk = eval_mat(x_block(N), x, lambdas[slot])
        acted = np.tensordot(blk, np.moveaxis(t, slot, 0), axes=(1, 0))
        out += np.moveaxis(acted, 0, slot)
    return out.reshape(-1)


class TestSystem:
    def test_requires_n_above_m(self):
        with pytest.raises(ValueError):
            PfaffianSystem(2, 2)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("N", [2, 3, 5])
    def test_lowered_rhs_matches_symbolic(self, m, N):
        sys = PfaffianSystem(N + m - 1, m)
        rng = np.random.default_rng(1000 * m + N)
        for lambdas in [(0.0,) * m, (3.0, 1.5, 0.0)[:m], (7.25, 2.0, 0.5)[:m]]:
            for x in (0.1, 1.7, 40.0, 150.0):
                state = rng.standard_normal(3 ** m)
                ref = symbolic_rhs(N, m, x, state, lambdas)
                got = sys.rhs(x, state, lambdas)
                # float64 rounding of a few products and sums per entry
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_initial_state_matches_quadrature(self):
        p = WishartParams(4, 1, (1.0,))
        st = initial_state(p, 0.5, CFG)
        N = 4
        for a in range(3):
            direct = basis_value(N, a, 0.5, 1.0)
            assert st.values[a] == pytest.approx(direct, rel=1e-12)
        # H component against the quadrature oracle
        ref = h_eval(HIndex(N - 1, 0, N), 0.5, 1.0, method="quad")
        assert st.values[0] == pytest.approx(ref, rel=1e-9)

    def test_initial_state_at_zero_noncentrality(self):
        from wishart_roots.special_fn import incomplete_gamma

        p = WishartParams(3, 1, (0.0,))
        st = initial_state(p, 0.5, CFG)
        N = 3
        assert st.values[0] == pytest.approx(incomplete_gamma(N, 0.5), rel=1e-12)
        assert st.values[1] == pytest.approx(0.5 ** N * math.exp(-0.5), rel=1e-12)

    def test_zero_length_integration(self):
        p = WishartParams(4, 2, (2.0, 1.0))
        sys = PfaffianSystem(4, 2)
        st = initial_state(p, 0.5, CFG)
        out = hgm_integrate(sys, st, 0.5, p.lambdas, CFG)
        assert np.array_equal(out.values, st.values)

    def test_m1_component_against_direct(self):
        # integrate (n, lam) = (4, 1) from 0.5 to 5: b1 must match closed form
        from wishart_roots.special_fn import hpg01

        p = WishartParams(4, 1, (1.0,))
        sys = PfaffianSystem(4, 1)
        st = initial_state(p, 0.5, CFG)
        out = hgm_integrate(sys, st, 5.0, p.lambdas, CFG)
        direct = 5.0 ** 4 * math.exp(-5.0) * hpg01(4, 5.0 * 1.0)
        assert out.values[1] == pytest.approx(direct, rel=1e-8)

    def test_reversibility_under_tolerance(self):
        cfg = EvalConfig(hgm_rtol=1e-12, hgm_atol=1e-16)
        p = WishartParams(4, 2, (2.0, 1.0))
        sys = PfaffianSystem(4, 2)
        st = initial_state(p, 0.5, cfg)
        fwd = hgm_integrate(sys, st, 2.0, p.lambdas, cfg)
        back = hgm_integrate(sys, fwd, 0.5, p.lambdas, cfg)
        rel = np.abs(back.values - st.values) / np.abs(st.values)
        assert np.max(rel) < 1e-9


class TestExtraction:
    def test_m1_form(self):
        from wishart_roots.ratfunc import MPoly

        p = WishartParams(4, 1, (1.0,))
        ev = extraction_vector(p, what="R")
        assert set(ev) == {(1,)}
        # R_{n,1} = x^{n-1} e^{-x} hpg01(n; x lam) = b1 / x
        inv_x = RatFunc(MPoly.const(2, 1), MPoly.var(2, 0))
        assert ev[(1,)] == inv_x

    def test_double_H_term_absent(self):
        p = WishartParams(4, 2, (2.0, 1.0))
        assert (0, 0) not in extraction_vector(p, what="R")
        # ... but present for the plain determinant
        assert (0, 0) in extraction_vector(p, what="F")

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_printed_m2_tables_exact(self, n):
        got_r, got_dx = m2_paper_products_extraction(n)
        exp_r, exp_dx = printed_m2_table(n)
        assert all(a == b for a, b in zip(got_r, exp_r))
        assert all(a == b for a, b in zip(got_dx, exp_dx))

    def test_dx_vector_matches_finite_differences(self):
        p = WishartParams(4, 2, (2.0, 1.0))
        sys = PfaffianSystem(4, 2)
        coeffs = extraction_vector(p, what="R")
        dx_coeffs = extraction_vector_dx(p, coeffs)
        st = initial_state(p, 0.9, CFG)
        h = 1e-5
        up = hgm_integrate(sys, st, 0.9 + h, p.lambdas, CFG)
        dn = hgm_integrate(sys, st, 0.9 - h, p.lambdas, CFG)
        fd = (eval_extraction(coeffs, up, p.lambdas, 2) - eval_extraction(coeffs, dn, p.lambdas, 2)) / (2 * h)
        analytic = eval_extraction(dx_coeffs, st, p.lambdas, 2)
        assert analytic == pytest.approx(fd, rel=1e-7)


class TestDistributionValues:
    @pytest.mark.parametrize("n,m,lams", [(4, 2, (2.0, 1.0)), (5, 3, (3.0, 2.0, 1.0)),
                                          (3, 2, (1.5, 0.5))])
    def test_pdf_matches_quadrature(self, n, m, lams):
        p = WishartParams(n, m, lams)
        for x in (0.5, 2.0, 6.0, 12.0, 20.0):
            a = pdf_quadrature(p, x, CFG)
            assert pdf_hgm(p, x, CFG) == pytest.approx(a, rel=1e-6)

    def test_cdf_matches_quadrature(self):
        p = WishartParams(4, 2, (2.0, 1.0))
        for x in (2.0, 8.0):
            assert cdf_hgm(p, x, CFG) == pytest.approx(cdf_quadrature(p, x, CFG), rel=1e-7)

    def test_trajectory_consistency(self):
        p = WishartParams(4, 2, (2.0, 1.0))
        rows = trajectory(p, [1.0, 2.0, 4.0, 6.0], CFG)
        assert [r[0] for r in rows] == [1.0, 2.0, 4.0, 6.0]
        for x, values, R, psi in rows:
            assert psi == pytest.approx(pdf_quadrature(p, x, CFG), rel=1e-6)

    def test_confluent_and_zero_lambda_rejected(self):
        with pytest.raises(ValueError):
            pdf_hgm(WishartParams(4, 2, (1.0, 1.0)), 2.0, CFG)
        with pytest.raises(ValueError):
            pdf_hgm(WishartParams(4, 2, (1.0, 0.0)), 2.0, CFG)

    def test_n_equal_m_rejected(self):
        with pytest.raises(ValueError):
            pdf_hgm(WishartParams(2, 2, (2.0, 1.0)), 2.0, CFG)
