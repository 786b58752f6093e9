import functools
import math
import subprocess
import sys

import numpy as np
import pytest

from wishart_roots.distribution import EvalConfig, WishartParams, cdf_quadrature, pdf_quadrature
from wishart_roots.h_integrals import HIndex, h_eval
from wishart_roots.hgm import (
    X0,
    PfaffianSystem,
    cdf_hgm,
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
from wishart_roots.special_fn import hpg01

CFG = EvalConfig()


def basis_value(N, a, x, lam):
    """The per-eigenvalue basis: b0 = H^{N-1}_N(x, lam) and b1, b2 =
    x^N e^{-x} hpg01(N; x lam), x^N e^{-x} hpg01(N+1; x lam)."""
    if a == 0:
        return h_eval(HIndex(N - 1, 0, N), x, lam)
    nu = N if a == 1 else N + 1
    return math.exp(N * math.log(x) - x) * hpg01(nu, x * lam) if x > 0 else 0.0


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


def block(N, x, lam):
    """Reference: x_block(N) evaluated from its RatFuncs (the state is in
    its basis), returned with the magnitudes that bound its rounding, each
    entry's sum of |terms| over its denominator."""
    def magnitude(rf):
        num = sum(abs(float(c)) * x ** i * lam ** e for (i, e), c in rf.num.terms.items())
        return num / abs(rf.den.eval([x, lam]))

    return eval_mat(x_block(N), x, lam), np.array([[magnitude(c) for c in row] for row in x_block(N)])


class TestSystem:
    def test_requires_n_above_m(self):
        with pytest.raises(ValueError):
            PfaffianSystem(2, 2)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("N", [2, 3, 5])
    def test_lowered_rhs_matches_symbolic(self, m, N):
        # prefix k against x_block(N) on (F_m, b1, b2), with the Leibniz
        # rule of a block linear in lam:
        # (G w)[lam_1..lam_k] = G(lam_k) w[lam_1..lam_k] + G' w[lam_1..lam_{k-1}];
        # F_j' is x^{m-j} times F_m'
        sys = PfaffianSystem(N + m - 1, m)
        rng = np.random.default_rng(1000 * m + N)
        for lambdas in [(0.0,) * m, (0.0, 1.5, 3.0)[:m], (0.5, 2.0, 7.25)[:m], (2.0,) * m]:
            for x in (0.1, 1.7, 40.0, 150.0):
                state = rng.standard_normal(m * (m + 2))
                got = sys.rhs(x, state, lambdas)
                assert got.shape == (m * (m + 2),)
                got, w = got.reshape(m, m + 2), state.reshape(m, m + 2)
                dG = block(N, x, 1.0)[0] - block(N, x, 0.0)[0]
                prev = np.zeros(3)
                for k, lam in enumerate(lambdas):
                    wk = w[k, m - 1:]
                    G, mag = block(N, x, lam)
                    expect = G @ wk + dG @ prev
                    # float64 rounding of a few products and sums per entry
                    err = np.abs(got[k, m:] - expect[1:])
                    assert np.all(err <= 1e-13 * (mag @ np.abs(wk) + np.abs(dG) @ np.abs(prev))[1:])
                    assert got[k, :m] == pytest.approx(
                        [x ** (m - j) * expect[0] for j in range(1, m + 1)], rel=1e-13, abs=0)
                    prev = wk

    @pytest.mark.parametrize("n,m,lams", [(4, 2, (2.0, 1.0)), (5, 3, (3.0, 2.0, 2.0)),
                                          (8, 4, (4.69, 4.39, 4.09, 0.59))])
    def test_rhs_matches_series_start_differences(self, n, m, lams):
        # below X0 the state is summed from the series at each abscissa, so
        # its central differences must match the right-hand side
        p = WishartParams(n, m, lams)
        sys = PfaffianSystem(n, m)
        for x in (0.3, 1.0, X0 - 0.3):
            h = 1e-5 * x
            fd = (initial_state(p, x + h, CFG).values - initial_state(p, x - h, CFG).values) / (2 * h)
            got = sys.rhs(x, initial_state(p, x, CFG).values, sorted(lams))
            assert got == pytest.approx(fd, rel=1e-7, abs=0)

    def test_initial_state_matches_quadrature(self, h_quad):
        p = WishartParams(4, 1, (1.0,))
        st = initial_state(p, 0.5, CFG)
        N = 4
        assert st.values.shape == (3,)
        for a in (0, 1, 2):
            assert st.values[a] == pytest.approx(basis_value(N, a, 0.5, 1.0), rel=1e-12)
        # H component against the quadrature oracle
        assert st.values[0] == pytest.approx(h_quad(HIndex(N - 1, 0, N), 0.5, 1.0), rel=1e-9)

    def test_initial_state_stacks_slots(self):
        # prefix k holds the divided differences over the k smallest
        # eigenvalues of (H^{n-1}_N .. H^{n-m}_N, s hpg01(N; x y), s hpg01(N+1; x y)),
        # s = x^N e^{-x}
        p = WishartParams(5, 3, (3.0, 2.0, 1.0))
        st = initial_state(p, 0.5, CFG)
        assert st.values.shape == (15,)
        s = 0.5 ** 3 * math.exp(-0.5)

        def f(lam):
            return np.array([h_eval(HIndex(5 - j, 0, 3), 0.5, lam) for j in (1, 2, 3)]
                            + [s * hpg01(3, 0.5 * lam), s * hpg01(4, 0.5 * lam)])

        f1, f2, f3 = f(1.0), f(2.0), f(3.0)
        expect = [f1, f2 - f1, ((f3 - f2) - (f2 - f1)) / 2]
        assert st.values.reshape(3, 5) == pytest.approx(np.array(expect), rel=1e-9, abs=0)

    def test_initial_state_at_zero_noncentrality(self):
        from wishart_roots.special_fn import incomplete_gamma

        p = WishartParams(3, 1, (0.0,))
        st = initial_state(p, 0.5, CFG)
        N = 3
        assert st.values[0] == pytest.approx(incomplete_gamma(N, 0.5), rel=1e-12)
        assert st.values[1:] == pytest.approx([0.5 ** N * math.exp(-0.5)] * 2, rel=1e-15)

    def test_zero_length_integration(self):
        p = WishartParams(4, 2, (2.0, 1.0))
        sys = PfaffianSystem(4, 2)
        st = initial_state(p, 0.5, CFG)
        out = hgm_integrate(sys, st, 0.5, p.lambdas, CFG)
        assert np.array_equal(out.values, st.values)

    def test_m1_component_against_direct(self):
        # march (n, lam) = (4, 1) from 0.5 to 5: every component must
        # match its closed form
        p = WishartParams(4, 1, (1.0,))
        sys = PfaffianSystem(4, 1)
        st = initial_state(p, 0.5, CFG)
        out = hgm_integrate(sys, st, 5.0, p.lambdas, CFG)
        assert out.values == pytest.approx([basis_value(4, a, 5.0, 1.0) for a in range(3)], rel=1e-12)

    def test_reversibility_under_tolerance(self):
        p = WishartParams(4, 2, (2.0, 1.0))
        sys = PfaffianSystem(4, 2)
        st = initial_state(p, 0.5, CFG)
        fwd = hgm_integrate(sys, st, 2.0, p.lambdas, CFG)
        back = hgm_integrate(sys, fwd, 0.5, p.lambdas, CFG)
        rel = np.abs(back.values - st.values) / np.abs(st.values)
        assert np.max(rel) < 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matrices_are_polynomial_of_degree(self, m):
        # x y' = M(x) y with M of degree max(1, m-1); rhs is M(x) y / x
        sys = PfaffianSystem(m + 2, m)
        lams = [0.5 * k for k in range(m)]
        mats = sys.matrices(lams)
        assert mats.shape == (max(1, m - 1) + 1, m * (m + 2), m * (m + 2))
        y = np.arange(1.0, m * (m + 2) + 1)
        x = 1.7
        assert sys.rhs(x, y, lams) == pytest.approx(sum(x ** i * M for i, M in enumerate(mats)) @ y / x)


def eval_extraction(coeffs, x, values, lambdas):
    """sum_alpha c_alpha(x, lam) prod_i b_{alpha_i}(lam_i) over the tensor
    basis values that trajectory returns (C-order over {0,1,2}^m)."""
    t = values.reshape((3,) * len(lambdas))
    return sum(c.eval([x, *lambdas]) * t[alpha] for alpha, c in coeffs.items())


class TestExtraction:
    def test_m1_form(self):
        from wishart_roots.ratfunc import MPoly

        p = WishartParams(4, 1, (1.0,))
        ev = extraction_vector_dx(p, extraction_vector(p))
        assert set(ev) == {(1,)}
        # R_{n,1} = x^{n-1} e^{-x} hpg01(n; x lam) = b1 / x
        inv_x = RatFunc(MPoly.const(2, 1), MPoly.var(2, 0))
        assert ev[(1,)] == inv_x

    def test_double_H_term_absent(self):
        p = WishartParams(4, 2, (2.0, 1.0))
        assert (0, 0) not in extraction_vector_dx(p, extraction_vector(p))
        # ... but present for the plain determinant
        assert (0, 0) in extraction_vector(p)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_printed_m2_tables_exact(self, n):
        got_r, got_dx = m2_paper_products_extraction(n)
        exp_r, exp_dx = printed_m2_table(n)
        assert all(a == b for a, b in zip(got_r, exp_r))
        assert all(a == b for a, b in zip(got_dx, exp_dx))

    def test_dx_vector_matches_finite_differences(self):
        p = WishartParams(4, 2, (2.0, 1.0))
        coeffs = extraction_vector_dx(p, extraction_vector(p))
        dx_coeffs = extraction_vector_dx(p, coeffs)
        h = 1e-5
        dn, mid, up = trajectory(p, [0.9 - h, 0.9, 0.9 + h], CFG)
        fd = (eval_extraction(coeffs, up[0], up[1], p.lambdas)
              - eval_extraction(coeffs, dn[0], dn[1], p.lambdas)) / (2 * h)
        analytic = eval_extraction(dx_coeffs, mid[0], mid[1], p.lambdas)
        assert analytic == pytest.approx(fd, rel=1e-7)

    @pytest.mark.parametrize("what", ["R", "F"])
    @pytest.mark.parametrize("n,m,lams", [(4, 2, (2.0, 1.0)), (5, 3, (3.0, 2.0, 1.0))])
    def test_determinant_matches_symbolic_extraction(self, what, n, m, lams):
        # the float determinants against the multilinear extraction over the
        # tensor products of the returned basis values: R from the march, and
        # det(E) from the entries E_ij = H^{n-j}_N(x, lam_i) themselves
        p = WishartParams(n, m, lams)
        coeffs = extraction_vector(p)
        if what == "R":
            coeffs = extraction_vector_dx(p, coeffs)
        for x, values, R, _ in trajectory(p, [2.0, 6.0, 12.0], CFG):
            E = [[h_eval(HIndex(n - j, 0, n - m + 1), x, lam) for j in range(1, m + 1)] for lam in lams]
            value = R if what == "R" else np.linalg.det(E)
            assert value == pytest.approx(eval_extraction(coeffs, x, values, p.lambdas), rel=1e-7)


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

    @pytest.mark.parametrize("n,m,lams,expect", [(4, 2, "400,300", 0.0079856418),
                                                 (3, 1, "400", 0.0058289451)])
    def test_large_noncentrality_is_served(self, n, m, lams, expect):
        # the gauged state stays in float range up to sum lam ~ 700
        out = subprocess.run(
            [sys.executable, "-m", "wishart_roots.cli", "pdf", "--n", str(n), "--m", str(m),
             "--lambda", lams, "--x", "440", "--method", "hgm"], capture_output=True, text=True)
        assert out.returncode == 0 and out.stderr == ""
        value = float(out.stdout.splitlines()[1].split(",")[1])
        p = WishartParams(n, m, [float(v) for v in lams.split(",")])
        assert value == pytest.approx(pdf_quadrature(p, 440.0, CFG), rel=1e-10, abs=0)
        assert value == pytest.approx(expect, rel=1e-8)

    @pytest.mark.parametrize("n,m,lams,x", [(4, 2, (200.0, 100.0), 230.0),
                                            (5, 3, (300.0, 200.0, 100.0), 330.0),
                                            (6, 4, (100.0, 80.0, 60.0, 40.0), 130.0)])
    def test_large_noncentrality_matches_quadrature(self, n, m, lams, x):
        p = WishartParams(n, m, lams)
        assert pdf_hgm(p, x, CFG) == pytest.approx(pdf_quadrature(p, x, CFG), rel=1e-10, abs=0)

    def test_repeated_lambda_matches_quadrature(self):
        for n, m, lams in [(4, 2, (1.0, 1.0)), (5, 3, (2.0, 2.0, 2.0))]:
            p = WishartParams(n, m, lams)
            for x in (0.5, 3.0, 20.0):
                assert pdf_hgm(p, x, CFG) == pytest.approx(pdf_quadrature(p, x, CFG), rel=1e-8, abs=0)
                assert cdf_hgm(p, x, CFG) == pytest.approx(cdf_quadrature(p, x, CFG), rel=1e-8, abs=0)
            # det(E) over the plain rows is the Vandermonde times the divided one
            assert [row[2] for row in trajectory(p, [0.5, 3.0], CFG)] == [0.0, 0.0]

    @pytest.mark.parametrize("route,ref", [(pdf_hgm, pdf_quadrature), (cdf_hgm, cdf_quadrature)],
                             ids=["R", "F"])
    def test_m4_small_x_matches_quadrature(self, route, ref):
        # three close eigenvalues at m = 4: plain rows divided by the Vandermonde cancel here
        p = WishartParams(8, 4, (4.69, 4.39, 4.09, 0.59))
        xs = [0.3, 1.0, 3.0]
        assert route(p, xs, CFG) == pytest.approx(ref(p, xs, CFG), rel=1e-8, abs=0)

    @pytest.mark.parametrize("n,m,lams", [(4, 2, (2.0, 0.0)), (5, 3, (3.0, 1.5, 0.0)),
                                          (3, 1, (0.0,))])
    def test_zero_lambda_matches_quadrature(self, n, m, lams):
        p = WishartParams(n, m, lams)
        for x in (0.5, 2.0, 10.0, 50.0, 150.0):
            assert pdf_hgm(p, x, CFG) == pytest.approx(pdf_quadrature(p, x, CFG), rel=1e-8, abs=0)
            assert cdf_hgm(p, x, CFG) == pytest.approx(cdf_quadrature(p, x, CFG), rel=1e-8, abs=0)

    @pytest.mark.parametrize("n,m,lams,x_min", [(4, 2, (2.0, 1.0), 0.5),
                                                (5, 3, (1.2, 0.7, 0.2), 0.5),
                                                (5, 3, (3.0, 2.0, 1.0), 0.5),
                                                (6, 4, (4.0, 3.0, 2.0, 1.0), 10.0)])
    def test_trajectory_tail_matches_quadrature(self, n, m, lams, x_min):
        # the density falls to ~1e-49 at x = 150; the gauged state keeps it
        # to the relative tolerance all the way
        p = WishartParams(n, m, lams)
        xs = list(np.linspace(x_min, 150.0, 40))
        for x, _, _, psi in trajectory(p, xs, CFG):
            assert psi == pytest.approx(pdf_quadrature(p, x, CFG), rel=1e-8, abs=0)

    @pytest.mark.parametrize("lams", [(3.0, 2.0, 1.0), (1.2, 0.7, 0.2)])
    def test_small_x_matches_quadrature(self, lams):
        # abscissas up to X0 come from the series start, the rest integrate
        p = WishartParams(5, 3, lams)
        for x, _, _, psi in trajectory(p, list(np.linspace(0.5, 3.0, 11)), CFG):
            assert psi == pytest.approx(pdf_quadrature(p, x, CFG), rel=1e-8, abs=0)

    def test_basis_values_are_tensor_products(self):
        p = WishartParams(5, 3, (3.0, 2.0, 1.0))
        (x, values, _, _), = trajectory(p, [4.0], CFG)
        per_slot = [[basis_value(3, a, x, lam) for a in range(3)] for lam in p.lambdas]
        assert values == pytest.approx(functools.reduce(np.kron, per_slot), rel=1e-8, abs=0)

    def test_n_equal_m_rejected(self):
        with pytest.raises(ValueError):
            pdf_hgm(WishartParams(2, 2, (2.0, 1.0)), 2.0, CFG)
