import math
from fractions import Fraction

import pytest

from wishart_roots.exp_poly import ExpPoly, incomplete_gamma_exact
from wishart_roots.h_integrals import (
    HCombo,
    HIndex,
    ReductionError,
    b_atom,
    h_atom,
    h_eval,
    h_series,
    lemma_lhs_index,
    rec_lemma1,
    rec_lemma2,
    rec_lemma3,
    rec_lemma45,
    reduce_to_basis,
)
from wishart_roots.ratfunc import MPoly, RatFunc
from wishart_roots.special_fn import incomplete_gamma, pochhammer

GRID = [(0.5, 0.5), (1.0, 2.0), (2.0, 1.0), (5.0, 0.7)]


def rel_close(a, b, tol):
    return abs(a - b) <= tol * max(abs(a), abs(b), 1.0)


class TestHEval:
    def test_zero_noncentrality_is_gamma(self):
        # hpg01 == 1 at y = 0, so H^k_n(x, 0) = gamma(k+1, x)
        for k in (0, 1, 3):
            for n in (1, 2, 4):
                for x in (0.5, 2.0, 7.0):
                    assert h_eval(HIndex(k, 0, n), x, 0.0) == pytest.approx(
                        incomplete_gamma(k + 1, x), rel=1e-13
                    )

    def test_h01_simple(self):
        assert h_eval(HIndex(0, 0, 1), 2.0, 0.0) == pytest.approx(1 - math.exp(-2.0), rel=1e-14)

    def test_pinned_h12(self):
        # term-wise series summed to 1e-16, frozen
        assert h_eval(HIndex(1, 0, 2), 2.0, 3.0) == pytest.approx(2.5101525456142273, rel=1e-13)

    @pytest.mark.parametrize("idx", [(0, 0, 1), (2, 0, 3), (3, 2, 4), (2, 1, 3), (1, 3, 2)])
    @pytest.mark.parametrize("pt", [(2.0, 1.5), (0.5, 0.3), (5.0, 2.0)])
    def test_series_equals_quadrature(self, idx, pt, h_quad):
        i = HIndex(*idx)
        assert rel_close(h_eval(i, *pt), h_quad(i, *pt), 1e-9)

    @pytest.mark.parametrize("y", [200.0, 400.0])
    def test_large_noncentrality_matches_quadrature(self, y, h_quad):
        # the series needs P(a, x) beyond a = 171, where Gamma(a) overflows
        i = HIndex(3, 0, 4)
        assert h_eval(i, 5.0, y) == pytest.approx(h_quad(i, 5.0, y), rel=1e-10)

    def test_x_zero(self):
        assert h_eval(HIndex(2, 0, 3), 0.0, 1.0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            h_eval(HIndex(1, 0, 2), -1.0, 0.5)


class TestHSeries:
    def test_leading_coefficient_is_gamma(self):
        for (k, n) in [(2, 3), (0, 1), (4, 2)]:
            coeffs = h_series(HIndex(k, 0, n), 3)
            assert coeffs[0] == incomplete_gamma_exact(k + 1)

    def test_row_coefficient_formula(self):
        # coefficient j is gamma(k+j+1, x) / ((n)_j j!)
        n = 5
        coeffs = h_series(HIndex(n - 1, 0, n - 1), 2)
        assert coeffs[0] == incomplete_gamma_exact(n)
        assert coeffs[1] == incomplete_gamma_exact(n + 1).scale(Fraction(1, (n - 1)))

    def test_second_row_first_order(self):
        n = 5
        coeffs = h_series(HIndex(n - 2, 0, n - 1), 1)
        assert coeffs[1] == incomplete_gamma_exact(n).scale(Fraction(1, n - 1))

    def test_requires_defining_form(self):
        with pytest.raises(ValueError):
            h_series(HIndex(1, 1, 2), 3)


def _lemma_cases():
    cases = []
    for variant, fn in (("rec3", rec_lemma1), ("recip", rec_lemma1), ("rechd", rec_lemma1),
                        ("shift_n", rec_lemma2), ("shift_k", rec_lemma2)):
        for k in (1, 2, 4):
            for n in (2, 3, 5):
                cases.append((variant, fn, HIndex(k, 0, n)))
    for variant in ("hklnx", "hklnr", "hklni", "hklrecu"):
        for k in (1, 2):
            for ell in (1, 2):
                for n in (2, 4):
                    cases.append((variant, rec_lemma45, HIndex(k, ell, n)))
    for k in (1, 2, 3):
        cases.append(("hklrecu2", rec_lemma45, HIndex(k, 2, k + 1)))
    return cases


@pytest.mark.parametrize("variant,fn,idx", _lemma_cases())
def test_recurrences_numerically(variant, fn, idx):
    combo = fn(variant, idx)
    lhs = lemma_lhs_index(variant, idx)
    for (x, y) in GRID:
        assert rel_close(h_eval(lhs, x, y), combo.eval(x, y), 1e-10)


class TestLemma3:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_all_variants(self, n):
        targets = {
            "simrec1": HIndex(n - 1, 0, n - 1),
            "simrec2": HIndex(n, 0, n),
            "hrecg": HIndex(n, 0, n + 1),
        }
        for variant, lhs in targets.items():
            combo = rec_lemma3(variant, n)
            for (x, y) in GRID:
                assert rel_close(h_eval(lhs, x, y), combo.eval(x, y), 1e-10)

    def test_hrecg_symbolic_form(self):
        n = 4
        combo = rec_lemma3("hrecg", n)
        assert combo.coeffs[h_atom(n - 1, 0, n)] == RatFunc.const(2, n)
        assert combo.coeffs[b_atom(n + 1)] == RatFunc(MPoly(2, {(n, 0): Fraction(-1)}))

    def test_hrecg_degenerates_to_gamma_recurrence(self):
        # at y = 0 the boundary atom is e^{-x} and H's are gammas
        n = 3
        combo = rec_lemma3("hrecg", n)
        for x in (0.5, 2.0, 8.0):
            lhs = incomplete_gamma(n + 1, x)
            rhs = combo.eval(x, 0.0)
            assert rel_close(lhs, rhs, 1e-12)


class TestStructure:
    def test_hklnr_at_ell_zero_is_rec3(self):
        for k in (1, 2):
            for n in (3, 4):
                a = rec_lemma45("hklnr", HIndex(k, 0, n))
                b = rec_lemma1("rec3", HIndex(k, 0, n))
                assert set(a.coeffs) == {
                    (atom[0], atom[1], 0, atom[3]) if atom[0] == "H" else atom
                    for atom in b.coeffs
                }

    def test_preconditions(self):
        with pytest.raises(ValueError):
            rec_lemma1("recip", HIndex(0, 0, 2))
        with pytest.raises(ValueError):
            rec_lemma45("hklni", HIndex(0, 1, 2))
        with pytest.raises(ValueError):
            rec_lemma45("hklrecu2", HIndex(2, 1, 4))

    def test_shift_k_degenerates_to_gamma_recurrence_at_y0(self):
        # both hpg01 atoms collapse to e^{-x}; the identity becomes Eq.-style
        # gamma relations, numerically checked
        for k in (1, 3):
            for n in (2, 5):
                combo = rec_lemma2("shift_k", HIndex(k, 0, n))
                for x in (0.7, 3.0):
                    assert rel_close(incomplete_gamma(k + 2, x), combo.eval(x, 0.0), 1e-12)


class TestDerivativeRules:
    @pytest.mark.parametrize("k,n", [(1, 2), (3, 3)])
    def test_dx_rule(self, k, n):
        from wishart_roots.special_fn import hpg01

        for (x, y) in [(1.0, 0.7), (2.5, 1.3)]:
            h = 1e-6
            fd = (h_eval(HIndex(k, 0, n), x + h, y) - h_eval(HIndex(k, 0, n), x - h, y)) / (2 * h)
            analytic = x ** k * math.exp(-x) * hpg01(n, x * y)
            assert rel_close(fd, analytic, 1e-7)

    @pytest.mark.parametrize("k,ell,n", [(1, 0, 2), (2, 1, 3)])
    def test_dy_rule(self, k, ell, n):
        for (x, y) in [(1.5, 0.8), (3.0, 1.1)]:
            h = 1e-6
            fd = (h_eval(HIndex(k, ell, n), x, y + h) - h_eval(HIndex(k, ell, n), x, y - h)) / (2 * h)
            analytic = h_eval(HIndex(k + 1, ell, n + 1), x, y) / n
            assert rel_close(fd, analytic, 1e-7)

    @pytest.mark.parametrize("k,n", [(1, 2), (2, 3), (3, 5)])
    def test_second_order_ode_exact_in_series(self, k, n):
        # (y d2 + (n - y) d - k - 1) H^k_n = -x^{k+1} e^{-x} hpg01(n; xy),
        # verified coefficient-by-coefficient in the exact ring
        order = 8
        c = h_series(HIndex(k, 0, n), order + 1)
        for j in range(order):
            lhs = (
                c[j + 1].scale(Fraction((j + 1) * j))
                + c[j + 1].scale(Fraction(n * (j + 1)))
                - c[j].scale(Fraction(j))
                - c[j].scale(Fraction(k + 1))
            )
            # rhs coefficient of y^j: -x^{k+j+1} E / ((n)_j j!)
            denom = Fraction(1)
            for t in range(j):
                denom *= (n + t) * (t + 1)
            rhs = ExpPoly.term(-Fraction(1, 1) / denom, k + j + 1, 1)
            assert lhs == rhs


class TestReduceToBasis:
    def test_basis_atom_is_fixed_point(self):
        n = 5
        combo = reduce_to_basis(HIndex(n - 1, 0, n), n)
        assert set(combo.coeffs) == {h_atom(n - 1, 0, n)}
        assert combo.coeffs[h_atom(n - 1, 0, n)] == RatFunc.const(2, 1)

    def test_simrec1_shape(self):
        # H^{n-1}_{n-1} = ((y+n-1)/(n-1)) H^{n-1}_n - y x^n e^{-x} hpg01(n+1)/(n(n-1))
        n = 5
        combo = reduce_to_basis(HIndex(n - 1, 0, n - 1), n)
        expect_h = RatFunc(
            MPoly(2, {(0, 0): Fraction(n - 1), (0, 1): Fraction(1)}),
            MPoly.const(2, n - 1),
        )
        expect_b = RatFunc(MPoly(2, {(n, 1): Fraction(-1, n * (n - 1))}))
        assert combo.coeffs[h_atom(n - 1, 0, n)] == expect_h
        assert combo.coeffs[b_atom(n + 1)] == expect_b
        assert b_atom(n) not in combo.coeffs

    @pytest.mark.parametrize("k,n,N", [(4, 5, 5), (4, 3, 3), (5, 4, 2), (2, 3, 6), (1, 2, 4)])
    def test_numeric_roundtrip(self, k, n, N):
        combo = reduce_to_basis(HIndex(k, 0, n), N)  # validates internally
        for (x, y) in [(0.8, 0.6), (3.0, 2.0)]:
            assert rel_close(h_eval(HIndex(k, 0, n), x, y), combo.eval(x, y), 1e-9)

    def test_two_routes_agree_exactly(self):
        # H^n_n via the k-shift chain against the direct two-term relation
        n = 4
        chain = reduce_to_basis(HIndex(n, 0, n), n, validate=False)
        direct = rec_lemma3("simrec2", n)
        # rewrite direct's boundary pair onto (B(n), B(n+1)) -- already there
        assert set(chain.coeffs) == set(direct.coeffs)
        for atom in chain.coeffs:
            assert chain.coeffs[atom] == direct.coeffs[atom]

    def test_out_of_hypothesis_rejected(self):
        with pytest.raises(ReductionError):
            reduce_to_basis(HIndex(1, 0, 3), 3)  # k < n-1
        with pytest.raises(ReductionError):
            reduce_to_basis(HIndex(2, 0, 1), 3)  # n <= 1
        with pytest.raises(ReductionError):
            reduce_to_basis(HIndex(2, 0, 3), 1)  # target N <= 1


def test_combo_substitute_and_scale():
    c = HCombo({h_atom(2, 0, 3): RatFunc.const(2, 2)})
    rep = HCombo({h_atom(1, 0, 3): RatFunc.const(2, 1), b_atom(3): RatFunc.const(2, -1)})
    out = c.substitute(h_atom(2, 0, 3), rep)
    assert out.coeffs[h_atom(1, 0, 3)] == RatFunc.const(2, 2)
    assert out.coeffs[b_atom(3)] == RatFunc.const(2, -2)
