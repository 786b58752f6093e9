import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from wishart_roots.distribution import (
    EvalConfig,
    Jet,
    NumericFailure,
    WishartParams,
    cdf,
    cdf_quadrature,
    cdf_series,
    conjecture_front_factor,
    eq35_value,
    g_function,
    g_jet,
    jet_0f1,
    jet_y,
    p_residual,
    pdf,
    pdf_conjecture,
    pdf_m2_closed,
    pdf_quadrature,
    pdf_series,
    q_residual,
    tail_weighted,
    y_solution,
    y_solution_jet,
)
from wishart_roots.special_fn import hpg01, incomplete_gamma, marcum_q

CFG = EvalConfig()


class TestParams:
    def test_sorted_descending(self):
        p = WishartParams(4, 2, (1.0, 3.0))
        assert p.lambdas == (3.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            WishartParams(2, 3, (1, 1, 1))
        with pytest.raises(ValueError):
            WishartParams(3, 2, (1.0,))
        with pytest.raises(ValueError):
            WishartParams(3, 2, (1.0, -0.5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_input_is_refused(self, bad):
        from wishart_roots.hgm import trajectory

        with pytest.raises(ValueError):
            WishartParams(4, 2, (bad, 1.0))
        p = WishartParams(4, 2, (2.0, 1.0))
        for method in ("quadrature", "series", "conjecture", "hgm"):
            with pytest.raises(ValueError):
                pdf(p, bad, EvalConfig(method=method))
        with pytest.raises(ValueError):
            trajectory(p, [1.0, bad])


class TestCdf:
    def test_zero_at_origin(self):
        assert cdf(WishartParams(4, 2, (2, 1)), 0.0, CFG) == 0.0

    def test_central_m1_gamma(self):
        # lam = 0, n = 2: F = gamma(2, x)/1! = 1 - (1+x) e^{-x}
        p = WishartParams(2, 1, (0.0,))
        for x in (0.5, 2.0, 6.0):
            expect = 1 - (1 + x) * math.exp(-x)
            assert cdf(p, x, CFG) == pytest.approx(expect, rel=1e-12)

    def test_marcum_pin(self):
        # frozen: 1 - Q_2(1, 3) from quadrature of the defining integral
        p = WishartParams(2, 1, (1.0,))
        assert cdf(p, 3.0, CFG) == pytest.approx(0.5844236896634067, rel=1e-10)

    def test_marcum_upper_tail_is_relative(self):
        # Q_3(2, 60) = 1.1268471296774975e-17 (the series at 60 digits): far
        # below any absolute stopping rule on the Poisson mass
        assert marcum_q(3, 2.0, 60.0) == pytest.approx(1.1268471296774975e-17, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n,lam", [(1, 0.0), (2, 1.0), (4, 2.5)])
    def test_marcum_identity_grid(self, n, lam):
        p = WishartParams(n, 1, (lam,))
        for x in (0.5, 2.0, 8.0):
            assert cdf(p, x, CFG) + marcum_q(n, lam, x) == pytest.approx(1.0, abs=1e-10)

    def test_monotone(self):
        p = WishartParams(4, 2, (2.0, 1.0))
        xs = [0.25 * k for k in range(1, 90)]
        vals = [cdf(p, x, CFG) for x in xs]
        assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(len(vals) - 1))

    def test_tail_reaches_one(self):
        for (n, m, lams) in [(4, 2, (2.0, 1.0)), (3, 1, (1.0,)), (5, 3, (3.0, 2.0, 1.0))]:
            p = WishartParams(n, m, lams)
            s = n + sum(lams)
            cut = n + sum(lams) + 10 * math.sqrt(s) + 20
            assert 1.0 - cdf(p, cut, CFG) < 1e-8

    def test_series_route_agrees(self):
        p = WishartParams(4, 2, (1.0, 0.4))
        cfgs = EvalConfig(method="series", series_order=18)
        for x in (0.5, 2.0, 5.0):
            assert cdf(p, x, cfgs) == pytest.approx(cdf(p, x, CFG), rel=1e-8)

    def test_series_handles_confluent_and_zero(self):
        cfgs = EvalConfig(method="series", series_order=16)
        p = WishartParams(3, 2, (0.5, 0.5))
        assert cdf(p, 2.0, cfgs) == pytest.approx(cdf(p, 2.0, CFG), rel=1e-8)
        p0 = WishartParams(3, 2, (0.0, 0.0))
        assert cdf(p0, 2.0, cfgs) == pytest.approx(cdf(p0, 2.0, CFG), rel=1e-8)


class TestPdf:
    def test_m1_n1_density(self):
        lam = 1.3
        p = WishartParams(1, 1, (lam,))
        for x in (0.5, 2.0):
            expect = math.exp(-lam - x) * hpg01(1, x * lam)
            assert pdf(p, x, CFG) == pytest.approx(expect, rel=1e-12)
        assert pdf(WishartParams(1, 1, (0.0,)), 2.0, CFG) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_pinned_m2_value(self):
        # Richardson finite difference of the CDF, frozen (1e-7 scale)
        p = WishartParams(4, 2, (2.0, 1.0))
        assert pdf(p, 3.0, CFG) == pytest.approx(0.017318005196087737, rel=1e-7)

    def test_pdf_is_derivative_of_cdf(self):
        for (n, m, lams, x) in [(4, 2, (2.0, 1.0), 3.0), (5, 3, (3.0, 2.0, 1.0), 4.0),
                                (3, 1, (1.5,), 2.0)]:
            p = WishartParams(n, m, lams)
            h = 1e-3
            d1 = (cdf(p, x + h, CFG) - cdf(p, x - h, CFG)) / (2 * h)
            d2 = (cdf(p, x + h / 2, CFG) - cdf(p, x - h / 2, CFG)) / h
            richardson = (4 * d2 - d1) / 3
            assert pdf(p, x, CFG) == pytest.approx(richardson, rel=1e-6)

    def test_normalization(self):
        p = WishartParams(3, 2, (1.5, 0.5))
        s = 3 + 2.0
        cut = 3 + 2.0 + 10 * math.sqrt(s) + 20
        val, err = quad(lambda x: pdf(p, x, CFG), 0, cut, limit=300, epsabs=1e-11, epsrel=1e-10)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_nonnegative(self):
        p = WishartParams(5, 3, (3.0, 2.0, 1.0))
        assert all(pdf(p, x, CFG) >= 0 for x in (0.5, 1, 2, 5, 10, 20))

    def test_permutation_invariance(self):
        a = pdf(WishartParams(4, 2, (2.0, 1.0)), 3.0, CFG)
        b = pdf(WishartParams(4, 2, (1.0, 2.0)), 3.0, CFG)
        assert a == b

    def test_series_route(self):
        p = WishartParams(4, 2, (1.0, 0.4))
        cfgs = EvalConfig(method="series", series_order=18)
        for x in (0.5, 2.0, 4.0):
            assert pdf(p, x, cfgs) == pytest.approx(pdf(p, x, CFG), rel=1e-8)

    @pytest.mark.parametrize("x", [0.1, 0.3])
    def test_series_small_x_m4_matches_decimal(self, x):
        # every coefficient cancels here; the contraction's value is certified
        from wishart_roots.series_engine import build_psi_series

        lam = (1.5, 1.0, 0.5, 0.1)
        got = pdf_series(WishartParams(6, 4, lam), x, EvalConfig(series_order=4))
        ref = build_psi_series(6, 4, 4).eval_decimal(Fraction(x), [Fraction(v) for v in lam], prec=80)
        assert got == pytest.approx(float(ref) * math.exp(-sum(lam)), rel=1e-9, abs=0)


class TestTailIntegralAndG:
    @pytest.mark.parametrize("n,x", [(2, 1.0), (4, 3.0), (5, 0.7)])
    def test_eq35_identity(self, n, x):
        ref, _ = quad(lambda t: math.exp(-t) * hpg01(n + 1, x * t), 0, 220, limit=500)
        assert eq35_value(n, x) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("n,x,y", [(3, 2.0, 1.0), (5, 1.0, 3.0)])
    def test_tail_weighted_against_quadrature(self, n, x, y):
        ref, _ = quad(lambda t: math.exp(-t) * hpg01(n + 1, x * t), y, y + 200, limit=500)
        assert tail_weighted(n, x, y) == pytest.approx(math.exp(y) * ref, rel=1e-10)

    @pytest.mark.parametrize("n", [3, 4, 6])
    @pytest.mark.parametrize("x", [0.5, 2.0, 5.0])
    def test_level2_series_coefficients(self, n, x):
        G = math.exp(x - n * math.log(x)) * incomplete_gamma(n, x)
        j = g_jet(n, 2, x, 0.0, 2)
        assert j.d[0] == pytest.approx(n + n * (x - n + 1) * G, rel=1e-10)
        assert j.d[1] == pytest.approx(n + n * (x - n) * G, rel=1e-9)
        assert j.d[2] / 2 == pytest.approx((n + 1) / 2 + (n / 2) * (x - n - 1) * G, rel=1e-9)

    @pytest.mark.parametrize("n", [3, 4, 6])
    @pytest.mark.parametrize("x", [0.5, 2.0, 5.0])
    def test_level3_series_coefficients(self, n, x):
        # the quoted level-3 coefficient table describes -G_{n,3} in the
        # recursion convention adopted here
        G = math.exp(x - n * math.log(x)) * incomplete_gamma(n, x)
        j = g_jet(n, 3, x, 0.0, 2)
        c30 = -n * x + n * (n - 3) - n * ((x - n) ** 2 + 4 * x - 3 * n + 2) * G
        c31 = -n * x + n * (n - 1) - n * ((x - n) ** 2 + 2 * x - n) * G
        c32 = (-n * x + n * (n + 1)) / 2 - (n / 2) * ((x - n) ** 2 + n) * G
        assert -j.d[0] == pytest.approx(c30, rel=1e-9)
        assert -j.d[1] == pytest.approx(c31, rel=1e-9)
        assert -j.d[2] / 2 == pytest.approx(c32, rel=1e-9)

    @pytest.mark.parametrize("n", [4, 5])
    def test_raising_recursion_between_levels(self, n):
        # G_{n,m+1} = (-y d2 - (n-m+1) d + x + m) G_{n,m}, exactly
        for (x, y) in [(2.0, 1.0), (3.0, 0.6)]:
            g2 = g_jet(n, 2, x, y, 2)
            val3 = -y * g2.d[2] - (n - 1) * g2.d[1] + (x + 2) * g2.d[0]
            assert g_function(n, 3, x, y) == pytest.approx(val3, rel=1e-10)
            g3 = g_jet(n, 3, x, y, 2)
            val4 = -y * g3.d[2] - (n - 2) * g3.d[1] + (x + 3) * g3.d[0]
            assert g_function(n, 4, x, y) == pytest.approx(val4, rel=1e-10)

    def test_g_solves_same_ode_family(self):
        for n in (4, 5):
            for lev in (2, 3, 4):
                for (x, y) in [(2.0, 1.0), (3.0, 0.7)]:
                    f = g_jet(n, lev, x, y, 3)
                    r = q_residual(n, n - lev, x, y, f)
                    scale = max(abs(v) for v in f.d) + 1
                    assert abs(r) < 1e-8 * scale

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            g_function(3, 5, 1.0, 1.0)
        with pytest.raises(ValueError):
            g_function(2, 3, 1.0, 1.0)


class TestYSolutions:
    @pytest.mark.parametrize("N", [3, 4, 5])
    @pytest.mark.parametrize("M", [2, 3, 4])
    def test_annihilated_by_Q(self, N, M):
        for (x, y) in [(2.0, 1.0), (1.0, 0.5), (4.0, 2.0)]:
            f = y_solution_jet(N, M, x, y, 3)
            r = q_residual(N, N - M, x, y, f)
            scale = max(abs(v) for v in f.d) + 1
            assert abs(r) < 1e-10 * scale

    def test_large_x(self):
        # the V atom is H^0_{N+1}(y, x) at x = 300, whose series reads
        # P(a, 5) beyond a = 171, where Gamma(a) overflows
        f = y_solution_jet(4, 2, 300.0, 5.0, 3)
        assert math.isfinite(y_solution(4, 2, 300.0, 5.0)) and f.d[0] > 0
        assert abs(q_residual(4, 2, 300.0, 5.0, f)) < 1e-10 * max(abs(v) for v in f.d)

    @pytest.mark.parametrize("N", [3, 4, 6])
    def test_lowering_map(self, N):
        # (d - 1) Y_{N,M} solves Q_{N,N-M+1}; moreover for these closed
        # forms (d - 1) Y_{N,M} = (M-1) Y_{N,M-1} (factor on the lowered side)
        for M in (3, 4):
            for (x, y) in [(2.0, 1.0), (1.5, 0.8)]:
                f = y_solution_jet(N, M, x, y, 4)
                low = Jet([f.d[i + 1] - f.d[i] for i in range(len(f.d) - 1)])
                r = q_residual(N, N - M + 1, x, y, low)
                scale = max(abs(v) for v in f.d) + 1
                assert abs(r) < 1e-10 * scale
                assert low.d[0] == pytest.approx(
                    (M - 1) * y_solution(N, M - 1, x, y), rel=1e-9
                )

    @pytest.mark.parametrize("N", [4, 5])
    def test_raising_map(self, N):
        # (y d2 + (N-M+1) d - x - M) Y_{N,M} solves Q_{N,N-M-1}
        for M in (2, 3):
            for (x, y) in [(2.0, 1.0), (1.5, 0.8)]:
                f = y_solution_jet(N, M, x, y, 6)
                yj = jet_y(y, 6)
                g = yj * Jet(f.d[2:]) + (N - M + 1) * Jet(f.d[1:]) - (x + M) * f
                r = q_residual(N, N - M - 1, x, y, g)
                scale = max(abs(v) for v in f.d) + 1
                assert abs(r) < 1e-10 * scale

    def test_three_term_combination_map(self, N=4, M=3):
        # (y-x+N-2M+1) Y_M + (2y+N-M+1) Y_{M-1} + y Y_{M-2} solves Q_{N,N-M-1},
        # taking Y_{M-1}, Y_{M-2} as the (d-1)-chain of Y_M; the y-dependent
        # coefficients enter as jets, not constants
        for (x, y) in [(2.0, 1.0), (1.6, 0.9)]:
            f = y_solution_jet(N, M, x, y, 6)
            low1 = Jet([f.d[i + 1] - f.d[i] for i in range(len(f.d) - 1)])
            low2 = Jet([low1.d[i + 1] - low1.d[i] for i in range(len(low1.d) - 1)])
            yj = jet_y(y, 6)
            from wishart_roots.distribution import jet_const

            comb = (
                (yj + jet_const(N - 2 * M + 1 - x, 6)) * f
                + (2.0 * yj + jet_const(N - M + 1, 6)) * low1
                + yj * low2
            )
            r = q_residual(N, N - M - 1, x, y, comb)
            scale = max(abs(v) for v in f.d) + 1
            assert abs(r) < 1e-10 * scale

    def test_hpg01_is_P_solution(self):
        # hpg01(N-M+...): the first conjecture row solves P_{n-m}; jet check
        for (M, x, y) in [(2, 2.0, 1.0), (3, 1.5, 0.6)]:
            f = jet_0f1(M + 1, x, y, 2)
            assert abs(p_residual(M, x, y, f)) < 1e-12 * max(abs(v) for v in f.d)


class TestConjecture:
    def test_front_factor_m2(self):
        n = 5
        x = 2.0
        expect = x ** (2 * n - 2) * math.exp(-2 * x) / (n * (n - 1))
        assert conjecture_front_factor(n, 2, x) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_m2_routes_agree(self, n):
        for lams in [(2.0, 1.0), (0.5, 0.2)]:
            for x in (0.5, 2.0, 6.0, 20.0):
                p = WishartParams(n, 2, lams)
                a = pdf_quadrature(p, x, CFG)
                if abs(a) < 1e-280:
                    continue
                assert pdf_m2_closed(p, x) == pytest.approx(a, rel=1e-8)
                assert pdf_conjecture(p, x, CFG) == pytest.approx(a, rel=1e-8)

    def test_m2_confluent_matches_lhospital_limit(self):
        n, x = 4, 3.0
        base = 1.0
        confluent = pdf_conjecture(WishartParams(n, 2, (base, base)), x, CFG)
        # Richardson extrapolation in the eigenvalue gap
        def at(eps):
            return pdf_conjecture(WishartParams(n, 2, (base + eps, base - eps)), x, CFG)
        r1, r2 = at(1e-3), at(5e-4)
        limit = (4 * r2 - r1) / 3
        assert confluent == pytest.approx(limit, rel=1e-6)
        assert confluent == pytest.approx(pdf_quadrature(WishartParams(n, 2, (base, base)), x, CFG), rel=1e-8)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_m3_routes_agree(self, n):
        for lams in [(3.0, 2.0, 1.0), (1.5, 0.8, 0.3)]:
            for x in (2.0, 5.0, 10.0):
                p = WishartParams(n, 3, lams)
                a = pdf_quadrature(p, x, CFG)
                if abs(a) < 1e-280:
                    continue
                assert pdf_conjecture(p, x, CFG) == pytest.approx(a, rel=1e-6)

    def test_m3_small_x_against_series(self):
        p = WishartParams(5, 3, (1.2, 0.7, 0.2))
        cfgs = EvalConfig(method="series", series_order=12)
        for x in (0.3, 0.5, 1.0):
            assert pdf_conjecture(p, x, CFG) == pytest.approx(pdf_series(p, x, cfgs), rel=1e-8)

    def test_m1_degenerate_conjecture(self):
        p = WishartParams(4, 1, (1.5,))
        for x in (0.5, 3.0):
            assert pdf_conjecture(p, x, CFG) == pytest.approx(pdf_quadrature(p, x, CFG), rel=1e-10)

    def test_m4_requires_flag(self):
        p = WishartParams(6, 4, (1.1, 0.8, 0.4, 0.2))
        with pytest.raises(ValueError):
            pdf_conjecture(p, 3.0, CFG)
        cfg4 = EvalConfig(experimental_m4=True)
        a = pdf_quadrature(p, 3.0, CFG)
        assert pdf_conjecture(p, 3.0, cfg4) == pytest.approx(a, rel=1e-6)

    def test_nonfinite_value_raises(self):
        # the conjecture determinant leaves float range at this large-lam
        # point; the route and the dispatch refuse it rather than returning it
        p = WishartParams(5, 3, (400.0, 300.0, 200.0))
        with pytest.raises(NumericFailure):
            pdf_conjecture(p, 480.0, CFG)
        with pytest.raises(NumericFailure):
            pdf(p, 480.0, EvalConfig(method="conjecture"))

    # references from bench/oracle.py, the last two at 400 digits
    FAR_TAIL = {
        (4, 2, (400.0, 360.0), 600.0): 1.8999659911626109e-10,
        (4, 2, (380.0, 370.0), 600.0): 5.887749990466211e-12,
        (5, 3, (300.0, 250.0, 200.0), 800.0): 1.3783625367843675e-52,
        (4, 2, (2.0, 1.0), 740.0): 1.7825254186306208e-285,
        (6, 4, (5.0, 4.0, 3.0, 2.0), 750.0): 7.194240257510673e-267,
    }

    @pytest.mark.parametrize("point", list(FAR_TAIL), ids=lambda q: f"{q[:3]}-x{q[3]:g}")
    def test_far_tail_is_accurate_or_refused(self, point):
        n, m, lams, x = point
        cfg = EvalConfig(method="conjecture", experimental_m4=True)
        try:
            got = pdf(WishartParams(n, m, lams), x, cfg)
        except NumericFailure:
            return
        assert got == pytest.approx(self.FAR_TAIL[point], rel=1e-8, abs=0)

    @pytest.mark.parametrize("n,m,lams,x", [(4, 2, (500.0, 300.0), 150.0), (3, 1, (720.0,), 100.0),
                                            (4, 2, (350.0, 0.0), 400.0)])
    def test_large_noncentrality_agrees_with_quadrature(self, n, m, lams, x):
        # e^{-sum lam} underflows in the first two, the value does not
        p = WishartParams(n, m, lams)
        assert pdf_conjecture(p, x, CFG) == pytest.approx(pdf_quadrature(p, x, CFG), rel=1e-12)

    def test_cdf_has_no_conjecture_route(self):
        with pytest.raises(ValueError):
            cdf(WishartParams(4, 2, (2, 1)), 2.0, EvalConfig(method="conjecture"))


def _exact_divided_differences(poly, lams):
    """f[lam_1..lam_i], i = 1..m, of a Fraction polynomial by the recursive
    definition, with f^{(k)}(v)/k! where all k+1 points coincide."""

    def value(coeffs, v):
        return sum(c * v ** l for l, c in enumerate(coeffs))

    def dd(i, j):
        if lams[i] == lams[j]:
            k = j - i
            return value([math.comb(l, k) * c for l, c in enumerate(poly)][k:], lams[i])
        return (dd(i + 1, j) - dd(i, j - 1)) / (lams[j] - lams[i])

    return [dd(0, i) for i in range(len(lams))]


class TestDividedDifferences:
    POLYS = [[Fraction(c) for c in (3, -2, 5, 1, Fraction(1, 7), 4, -6)],
             [Fraction(c) for c in (1, Fraction(2, 3), -1, 8, 2, Fraction(-5, 2), 1)]]

    @pytest.mark.parametrize("lams", [
        (Fraction(3), Fraction(1, 2), Fraction(2)),
        (Fraction(2), Fraction(2), Fraction(1, 3)),
        (Fraction(7, 2), Fraction(3), Fraction(3)),
        (Fraction(0), Fraction(5, 2), Fraction(0)),
        (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)),
        (Fraction(0), Fraction(0), Fraction(0)),
    ])
    def test_rows_match_exact_divided_differences(self, lams):
        from wishart_roots.distribution import _scale, divided_rows

        s = _scale(lams)

        def coefs(terms):
            return np.array([[c * s ** l for l, c in enumerate(p)] + [0] * (terms - len(p))
                             for p in self.POLYS], object)

        rows = divided_rows(coefs, lams, 8, Fraction)
        for c, poly in enumerate(self.POLYS):
            assert [row[c] for row in rows] == _exact_divided_differences(poly, sorted(lams))

    def test_unconverged_series_raises(self):
        from wishart_roots.distribution import NumericFailure, divided_rows

        with pytest.raises(NumericFailure):
            divided_rows(lambda terms: np.ones((1, terms)), [0.5, 1.0], 16)

    @pytest.mark.parametrize("n,m,lams", [
        (4, 2, lambda d: (2 + d, 2 - d)),
        (5, 3, lambda d: (3 + d, 2, 2 - d)),
        (6, 4, lambda d: (3 + d, 2.5, 2, 2 - d)),
    ], ids=["m2", "m3", "m4"])
    def test_gap_sweep(self, n, m, lams):
        # no threshold: the routes agree at every gap, and a gap of 1e-12
        # changes nothing against the exact repeat
        from wishart_roots.hgm import cdf_hgm, pdf_hgm

        cfg = EvalConfig(experimental_m4=True)
        routes = (cdf_quadrature, pdf_quadrature, pdf_conjecture)
        for x in (0.15, 0.5, 3.0, 20.0):
            at = {d: WishartParams(n, m, lams(d)) for d in
                  (0.0, 1e-12, 1e-8, 1e-6, 1e-5, 2e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0)}
            for p in at.values():
                expect = pdf_quadrature(p, x, cfg)
                assert pdf_conjecture(p, x, cfg) == pytest.approx(expect, rel=1e-10)
                # the Pfaffian route integrates the same rows from the series start
                assert pdf_hgm(p, x, cfg) == pytest.approx(expect, rel=1e-8, abs=0)
                assert cdf_hgm(p, x, cfg) == pytest.approx(cdf_quadrature(p, x, cfg), rel=1e-8, abs=0)
            for fn in routes:
                assert fn(at[1e-12], x, cfg) == pytest.approx(fn(at[0.0], x, cfg), rel=1e-10)

    @pytest.mark.parametrize("n,m,lams", [(4, 2, (10.0, 5.0)), (5, 3, (12.0, 8.0, 3.0))])
    def test_conjecture_at_large_x(self, n, m, lams):
        p = WishartParams(n, m, lams)
        for x in (200.0, 300.0, 400.0):
            got = pdf_conjecture(p, x, CFG)
            assert math.isfinite(got) and got > 0
            assert got == pytest.approx(pdf_quadrature(p, x, CFG), rel=1e-8)

    @pytest.mark.parametrize("n,level", [(3, 2), (4, 2), (4, 3), (5, 3), (5, 4), (6, 4)])
    def test_g_series_sums_to_g_function(self, n, level):
        from functools import partial

        from wishart_roots.distribution import _scale, divided_rows, g_series

        for x in (0.2, 2.0, 20.0, 150.0):
            for y in (0.0, 0.5, 3.0, 60.0):
                # with one eigenvalue the divided difference is the value
                total = divided_rows(partial(g_series, n, level, np.array([x]), _scale([y])), [y], 16)[0, 0]
                assert math.exp(x) * total == pytest.approx(g_function(n, level, x, y), rel=1e-10)


class TestGrids:
    """A sequence of abscissas is one array program per route; each value
    must be the route's scalar value at that abscissa, and a refusal anywhere
    refuses the grid."""

    COND_POINT = (8, 4, (206.47799137197518, 194.0881690023807, 162.7252467700673,
                         136.70859285557685), 24.969317566358836)
    GRIDS = {
        "zero-x": (4, 2, (2.0, 1.0), [0.0, 0.5, 3.0, 20.0, 0.0]),
        "m4-small-x": (6, 4, (4.0, 3.0, 2.0, 1.0), [0.3, 0.05, 1.0, 4.0]),
        "m4-cond-limit": COND_POINT[:3] + ([200.0, COND_POINT[3], 300.0],),
        "repeat-and-zero-lam": (5, 3, (2.0, 2.0, 0.0), [9.0, 0.2, 1.5]),
        "across-pdf-shift": (4, 2, (2.0, 1.0), [650.0, 700.0, 750.0]),
        "one-refused": (5, 3, (500.0, 400.0, 300.0), [50.0, 450.0]),
    }
    ROUTES = (cdf_quadrature, pdf_quadrature, pdf_conjecture)

    @staticmethod
    def _values(fn, p, xs, cfg):
        try:
            return fn(p, xs, cfg)
        except NumericFailure:
            return None

    @pytest.mark.parametrize("name", list(GRIDS))
    def test_grid_equals_points(self, name):
        n, m, lams, xs = self.GRIDS[name]
        p, cfg = WishartParams(n, m, lams), EvalConfig(experimental_m4=True)
        for fn in self.ROUTES:
            points = [self._values(fn, p, x, cfg) for x in xs]
            grid = self._values(fn, p, xs, cfg)
            if None in points:
                assert grid is None, fn.__name__
            else:
                assert grid == pytest.approx(points, rel=1e-11, abs=0), fn.__name__

    def test_ill_conditioned_point_is_summed_in_decimals_in_a_grid(self, monkeypatch):
        import wishart_roots.distribution as dist

        original, resums = dist._decimals, []
        monkeypatch.setattr(dist, "_decimals", lambda a: resums.append(len(a)) or original(a))
        n, m, lams, xs = self.GRIDS["m4-cond-limit"]
        p = WishartParams(n, m, lams)
        for fn in (cdf_quadrature, pdf_quadrature):
            resums.clear()
            fn(p, xs, CFG)
            assert resums and all(k == 1 for k in resums), fn.__name__  # that abscissa alone

    def test_series_grid_is_its_points(self):
        p, xs, cfg = WishartParams(4, 2, (2.0, 1.0)), [0.0, 0.5, 3.0, 8.0], EvalConfig(series_order=8)
        for fn in (cdf_series, pdf_series):
            assert fn(p, xs, cfg) == [fn(p, x, cfg) for x in xs]

    def test_hgm_grid(self):
        from wishart_roots.hgm import X0, cdf_hgm, pdf_hgm

        p = WishartParams(5, 3, (2.0, 2.0, 0.0))
        start, march = [1.5, 0.2, X0, 0.7], [6.0, 1.0, 3.0]
        for fn in (cdf_hgm, pdf_hgm):
            # up to X0 every value comes from the series start
            assert fn(p, start, CFG) == pytest.approx([fn(p, x, CFG) for x in start], rel=1e-11, abs=0)
            # above it the grid is one march, within the integration tolerance
            assert fn(p, march, CFG) == pytest.approx([fn(p, x, CFG) for x in march], rel=1e-8, abs=0)

    def test_dispatch_refuses_a_nonfinite_abscissa_in_a_grid(self):
        with pytest.raises(ValueError):
            cdf(WishartParams(4, 2, (2.0, 1.0)), [1.0, math.inf], CFG)

    def test_integer_abscissas_are_floats(self):
        # x^{mn - m(m-1)/2 - 1} is 4^38 and 60^11 here, beyond int64
        for n, m, lams, x in ((20, 2, (2.0, 1.0), 4), (5, 3, (1.2, 0.7, 0.2), 60)):
            p = WishartParams(n, m, lams)
            want = pdf_conjecture(p, float(x), CFG)
            assert pdf_conjecture(p, x, CFG) == want
            assert pdf_conjecture(p, [0.5, x], CFG)[1] == pytest.approx(want, rel=1e-11)
            assert pdf(p, x, EvalConfig(method="conjecture")) == want


def _load_oracle():
    """bench/oracle.py, loaded by path: the benchmark's independent mpmath
    evaluation of the determinantal formula."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "bench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sweep_points(count=100):
    """Deterministic draws over m = 1..4, n = m+1..m+4, x log-spread over
    [0.05, 500], the largest eigenvalue log-spread over [0.2, 500] and the
    others below it in the distinct, near, repeat and zero patterns, scaled
    to sum lam <= 700."""
    import random

    patterns = ("distinct", "near", "repeat", "zero")
    rng = random.Random(20160405)
    out = []
    for j in range(count):
        m = 1 + j % 4
        pattern = patterns[j // 4 % 4] if m > 1 else patterns[j // 4 % 2 * 3]
        n = m + 1 + rng.randrange(4)
        x = 0.05 * 10_000 ** ((j + rng.random()) / count)
        top = 0.2 * 2500 ** rng.random()
        lams = [top] + sorted((rng.uniform(0.0, top) for _ in range(m - 1)), reverse=True)
        if pattern == "near":
            i = rng.randrange(m - 1)
            lams[i + 1] = lams[i] * (1 - 1e-6)
        elif pattern == "repeat":
            i = rng.randrange(m - 1)
            lams[i + 1] = lams[i]
        elif pattern == "zero":
            lams[-1] = 0.0
        scale = 700.0 / max(sum(lams), 700.0)
        out.append((n, m, tuple(v * scale for v in lams), x))
    return out


class TestQuadratureReference:
    """The quadrature route against references from ``bench/oracle.py``; where
    the oracle returns 0.0 at its own precision, the same code run at 400
    digits."""

    FIXED = {
        (4, 2, (100.0, 50.0), 120.0): (0.8222874783659468, 0.017279376390519807),
        (4, 2, (200.0, 100.0), 230.0): (0.8734430033733666, 0.00982331266597781),
        (5, 3, (300.0, 200.0, 100.0), 330.0): (0.7737953187013684, 0.012022233005699724),
        (6, 4, (100.0, 80.0, 60.0, 40.0), 130.0): (0.7764714239882334, 0.02142455411248838),
        (3, 1, (400.0,), 440.0): (0.9022030513619019, 0.0058289451122984755),
        (4, 2, (300.0, 200.0), 100.0): (4.278568528167739e-37, 5.181849269684301e-37),
        (6, 2, (150.0, 100.0), 250.0): (0.9999977693839903, 4.873911401665323e-07),
        (4, 2, (350.0, 0.0), 400.0): (0.9517405660026039, 0.003555153904162684),
        (4, 2, (350.0, 1.0), 400.0): (0.9517207336000882, 0.003556359884787396),
        # sum lam > 700 in the left tail: e^{-sum lam} underflows, the value does not
        (3, 1, (720.0,), 100.0): (1.2373026368548286e-126, 2.1018979126372125e-126),
        (4, 2, (500.0, 300.0), 150.0): (1.8758887288478203e-62, 2.406428738966745e-62),
        # past the underflow of e^{-x}
        (6, 4, (5.0, 4.0, 3.0, 2.0), 600.0): (1.0, 1.0422481732879561e-207),
        (6, 4, (5.0, 4.0, 3.0, 2.0), 750.0): (1.0, 7.194240257510673e-267),
        # condition number ~2e8: the decimal rows
        (8, 4, (206.47799137197518, 194.0881690023807, 162.7252467700673, 136.70859285557685),
         24.969317566358836): (1.5561579958827587e-147, 1.126654851095282e-146),
        # draws of the sweep below where the oracle returns 0.0
        (7, 3, (368.2254311046558, 324.1296823355408, 7.644886559803273), 98.64667996830956):
            (2.0926006580945177e-75, 3.8536240631994775e-75),
        (6, 4, (257.6309891358406, 230.13415472592118, 193.9429806356179, 18.291875502620332),
         109.82725303496123): (2.835630951983344e-40, 4.177989034563638e-40),
        (3, 2, (0.2882981640951274, 0.19242520148244024), 384.197857979311):
            (1.0, 1.7433343012488007e-154),
        (6, 3, (0.9362509408100801, 0.7181023254683334, 0.6483310680692009), 454.702870371803):
            (1.0, 2.0168326211250606e-171),
        (8, 4, (5.485264503912118, 5.388939899644329, 3.712932343318443, 0.8265358785363253),
         473.78232483692364): (1.0, 2.3213286120800437e-154),
    }

    @staticmethod
    def _check(n, m, lams, x, ref):
        assert all(r != 0.0 for r in ref)
        p = WishartParams(n, m, lams)
        assert cdf(p, x, CFG) == pytest.approx(ref[0], rel=1e-8, abs=0)
        assert pdf(p, x, CFG) == pytest.approx(ref[1], rel=1e-8, abs=0)

    @pytest.mark.parametrize("point", list(FIXED), ids=lambda q: f"{q[:2]}-x{q[3]:.4g}")
    def test_fixed_case(self, point):
        self._check(*point, self.FIXED[point])

    def test_columns_extend_a_short_tail_array(self, monkeypatch):
        import wishart_roots.distribution as dist
        from wishart_roots.special_fn import PoissonTails

        p, x = WishartParams(5, 3, (30.0, 20.0, 10.0)), 40.0
        want = cdf(p, x, CFG), pdf(p, x, CFG)
        built = []

        def short(params, xs):  # top 1: every column read rebuilds the array
            built.append(PoissonTails(xs, 1))
            return built[-1]

        monkeypatch.setattr(dist, "_tails", short)
        assert (cdf(p, x, CFG), pdf(p, x, CFG)) == pytest.approx(want, rel=1e-13)
        assert len(built) == 2 and all(t.values.shape[1] > 2 for t in built)

    def test_ill_conditioned_rows_are_summed_in_decimals(self):
        from wishart_roots.distribution import (COND_LIMIT, _det_cond, _h_coefs, _tails, _terms,
                                                divided_rows)

        p = WishartParams(8, 4, (206.47799137197518, 194.0881690023807, 162.7252467700673,
                                 136.70859285557685))
        x = np.array([24.969317566358836])
        tails = _tails(p, x)
        rows = divided_rows(lambda terms: _h_coefs(p, tails, terms, 4), p.lambdas, _terms(p, x[0]))
        assert _det_cond(rows)[1][0] > COND_LIMIT

    def test_refusal_where_the_determinant_leaves_float_range(self):
        # true values (0.00934465968112662, 0.0009455191644886697): sum lam = 1200
        p = WishartParams(5, 3, (500.0, 400.0, 300.0))
        for fn in (cdf, pdf, cdf_quadrature, pdf_quadrature):
            with pytest.raises(NumericFailure):
                fn(p, 450.0, CFG)

    @pytest.fixture(scope="class")
    def oracle(self):
        return _load_oracle()

    @pytest.mark.parametrize("point", _sweep_points(), ids=lambda q: f"{q[:2]}-x{q[3]:.4g}")
    def test_sweep(self, oracle, point):
        ref = self.FIXED.get(point) or oracle.reference(*point)
        self._check(*point, ref)
