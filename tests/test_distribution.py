import itertools
import math
from fractions import Fraction

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
        # the conjecture determinant is NaN at this large-lam point; the
        # dispatch refuses it rather than returning it
        p = WishartParams(5, 3, (400.0, 300.0, 200.0))
        assert math.isnan(pdf_conjecture(p, 480.0, CFG))
        with pytest.raises(NumericFailure):
            pdf(p, 480.0, EvalConfig(method="conjecture"))

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
        from wishart_roots.distribution import divided_rows

        columns = [lambda s, p=p: (c * s ** l for l, c in enumerate(p)) for p in self.POLYS]
        rows = divided_rows(columns, lams)
        for c, poly in enumerate(self.POLYS):
            assert [row[c] for row in rows] == _exact_divided_differences(poly, sorted(lams))

    def test_unconverged_series_raises(self):
        from wishart_roots.distribution import NumericFailure, divided_rows

        with pytest.raises(NumericFailure):
            divided_rows([lambda s: itertools.repeat(1.0)], [0.5, 1.0])

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

        from wishart_roots.distribution import divided_rows, g_series

        for x in (0.2, 2.0, 20.0, 150.0):
            for y in (0.0, 0.5, 3.0, 60.0):
                # with one eigenvalue the divided difference is the value
                total = divided_rows([partial(g_series, n, level, x)], [y])[0][0]
                assert math.exp(x) * total == pytest.approx(g_function(n, level, x, y), rel=1e-10)
