import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from wishart_roots.exp_poly import ExpPoly, incomplete_gamma_exact


def small_fractions():
    return st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))


@st.composite
def exp_polys(draw):
    n_terms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n_terms):
        i = draw(st.integers(-3, 5))
        j = draw(st.integers(0, 4))
        terms[(i, j)] = draw(small_fractions())
    return ExpPoly(terms)


class TestRingBasics:
    def test_additive_inverse(self):
        p = ExpPoly.term(1, 2, 1)  # x^2 E
        assert (p + (-p)).is_zero()

    def test_gamma1_in_ring(self):
        assert ExpPoly.one() + (-ExpPoly.e(1)) == incomplete_gamma_exact(1)

    def test_like_term_merge(self):
        assert ExpPoly.term(Fraction(3, 2), 1) + ExpPoly.term(Fraction(1, 2), 1) == ExpPoly.term(2, 1)

    def test_mul_identity(self):
        p = ExpPoly.one() - ExpPoly.e(1)
        assert p * ExpPoly.one() == p

    def test_exponent_addition(self):
        assert ExpPoly.e(1) * ExpPoly.e(1) == ExpPoly.e(2)

    def test_power_rule(self):
        n = 3
        sq = ExpPoly.term(1, n - 1, 1) ** 2
        assert sq == ExpPoly.term(1, 4, 2)

    def test_zero_coefficients_dropped(self):
        p = ExpPoly({(1, 0): Fraction(0), (0, 0): Fraction(2)})
        assert p.terms == {(0, 0): Fraction(2)}

    def test_negative_e_power_rejected(self):
        with pytest.raises(ValueError):
            ExpPoly({(0, -1): Fraction(1)})


@settings(max_examples=60, deadline=None)
@given(exp_polys(), exp_polys(), exp_polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(exp_polys(), exp_polys())
def test_product_rule_exact(a, b):
    assert (a * b).diff() == a.diff() * b + a * b.diff()


class TestDiff:
    def test_diff_gamma1(self):
        assert incomplete_gamma_exact(1).diff() == ExpPoly.e(1)

    def test_diff_x_emx(self):
        assert ExpPoly.term(1, 1, 1).diff() == ExpPoly.e(1) - ExpPoly.term(1, 1, 1)

    def test_diff_laurent(self):
        assert ExpPoly.x(-1).diff() == ExpPoly.term(-1, -2, 0)


class TestEval:
    def test_one_minus_e(self):
        p = ExpPoly.one() - ExpPoly.e(1)
        assert p.eval(1.0) == pytest.approx(1 - 1 / math.e, rel=1e-15)

    def test_zero(self):
        assert ExpPoly.zero().eval(17.3) == 0.0

    def test_square(self):
        assert ExpPoly.x(2).eval(3.0) == 9.0

    def test_pole_at_zero(self):
        with pytest.raises(ZeroDivisionError):
            ExpPoly.x(-1).eval(0.0)

    def test_precise_fallback(self):
        # gamma(12, x) = 11! (1 - e^{-x} sum_{k<12} x^k / k!) keeps ~1e-15 of its
        # terms at x = 0.5, so eval recomputes it with a 40-digit e^{-x}
        from scipy.special import gamma, gammainc

        p = incomplete_gamma_exact(12)
        terms = [float(c) * 0.5 ** i * math.exp(-0.5 * j) for (i, j), c in p.terms.items()]
        assert abs(sum(terms)) < 1e-4 * max(map(abs, terms))
        assert p.eval(0.5) == pytest.approx(gammainc(12, 0.5) * gamma(12), rel=1e-13)

    @settings(max_examples=30, deadline=None)
    @given(exp_polys(), st.floats(0.5, 8.0))
    def test_diff_matches_central_differences(self, p, x0):
        h = 1e-5 * max(1.0, abs(x0))
        numeric = (p.eval(x0 + h) - p.eval(x0 - h)) / (2 * h)
        analytic = p.diff().eval(x0)
        scale = max(1.0, abs(analytic), abs(p.eval(x0)))
        assert abs(numeric - analytic) <= 1e-7 * scale


class TestIncompleteGamma:
    def test_seed(self):
        assert incomplete_gamma_exact(1) == ExpPoly.one() - ExpPoly.e(1)

    def test_one_step_recurrence(self):
        # gamma(2, x) = 1 - E - x E
        expected = ExpPoly.one() - ExpPoly.e(1) - ExpPoly.term(1, 1, 1)
        assert incomplete_gamma_exact(2) == expected

    def test_value_against_quadrature(self):
        got = incomplete_gamma_exact(3).eval(2.0)
        ref, _ = quad(lambda t: t * t * math.exp(-t), 0, 2)
        assert got == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("a", range(1, 13))
    @pytest.mark.parametrize("x", [0.5, 3.0, 30.0])
    def test_quadrature_grid(self, a, x):
        got = incomplete_gamma_exact(a).eval(x)
        ref, err = quad(lambda t: t ** (a - 1) * math.exp(-t), 0, x, limit=200)
        assert got == pytest.approx(ref, rel=1e-12)

    def test_cancellation_raises_precision_until_certified(self, monkeypatch):
        # gamma(30, x) = 29! (1 - E sum_{k<30} x^k / k!) loses 122 digits at
        # x = 1e-3: 40 and 80 digits do not certify it, 160 do
        from decimal import getcontext

        from wishart_roots import exp_poly

        precs = []
        real = exp_poly.decimal_exp
        monkeypatch.setattr(exp_poly, "decimal_exp", lambda x: precs.append(getcontext().prec) or real(x))
        a, x = 30, 1e-3
        term, ref = x ** a * math.exp(-x) / a, 0.0
        for k in range(1, 10):
            ref += term
            term *= x / (a + k)
        assert incomplete_gamma_exact(a).eval(x) == pytest.approx(ref, rel=1e-14, abs=0)
        assert precs == [40, 80, 160]

    def test_cancellation_past_the_cap_raises(self):
        # gamma(150, 1e-3) ~ 1e-452 from terms of 149! ~ 1e260
        with pytest.raises(ArithmeticError):
            incomplete_gamma_exact(150).eval(1e-3)

    def test_exact_zeros(self):
        assert incomplete_gamma_exact(5).eval(0.0) == 0.0
        # (x - 1) E cancels exactly at x = 1: no precision certifies it
        assert (ExpPoly.term(1, 1, 1) - ExpPoly.e(1)).eval(1.0) == 0.0

    def test_recurrence_is_exact(self):
        for a in range(1, 10):
            lhs = incomplete_gamma_exact(a + 1)
            rhs = incomplete_gamma_exact(a).scale(a) - ExpPoly.term(1, a, 1)
            assert lhs == rhs

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            incomplete_gamma_exact(0)
        with pytest.raises(ValueError):
            incomplete_gamma_exact(-2)


def test_str_roundtrip_format():
    p = ExpPoly.term(Fraction(3, 2), -1, 2) + ExpPoly.one()
    assert str(p) == "1 + 3/2*x^-1*E^2"
