import gc
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wishart_roots.exp_poly import ExpPoly, incomplete_gamma_exact
from wishart_roots.h_integrals import HIndex, h_eval, h_series
from wishart_roots.ratfunc import MPoly
from wishart_roots.series_engine import (
    LambdaSeries,
    build_cdf_series,
    build_psi_series,
    build_R_series,
    cdf_det_expansion,
    det_series,
    laplace_minors,
    lemma7_check,
    schur_poly,
)
from wishart_roots.special_fn import hpg01


def series_from(coeffs, m=1, order=6):
    return LambdaSeries(m, order, {q: ExpPoly.const(c) for q, c in coeffs.items()})


class TestSeriesArith:
    def test_product_truncates(self):
        one_plus = series_from({(0,): 1, (1,): 1}, order=2)
        one_minus = series_from({(0,): 1, (1,): -1}, order=2)
        prod = one_plus * one_minus
        assert prod.get((0,)) == ExpPoly.one()
        assert prod.get((1,)).is_zero()
        assert prod.get((2,)) == ExpPoly.const(-1)

    def test_diff_lambda(self):
        s = LambdaSeries(2, 4, {(1, 1): ExpPoly.one()})
        d = s.diff_lambda(0)
        assert d.get((0, 1)) == ExpPoly.one()
        assert d.valid == (3, 4)

    def test_truncation_drops_overflow_degree(self):
        s = series_from({(2,): 1}, order=2)
        assert (s * s).get((2,)).is_zero()  # degree-4 term not representable

    def test_mismatched_m(self):
        with pytest.raises(ValueError):
            series_from({(0,): 1}, m=1) + LambdaSeries(2, 3, {})

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
           st.lists(st.integers(-4, 4), min_size=3, max_size=3))
    def test_mul_commutes(self, a, b):
        sa = series_from({(i,): v for i, v in enumerate(a)}, order=4)
        sb = series_from({(i,): v for i, v in enumerate(b)}, order=4)
        left, right = sa * sb, sb * sa
        for q in set(left.coeffs) | set(right.coeffs):
            assert left.get(q) == right.get(q)


class TestDetSeries:
    def test_identical_rows_vanish(self):
        row = [ExpPoly.const(k + 1) for k in range(5)]
        exp = det_series([row, row], 4)
        assert exp.items == []

    def test_m1_degenerate(self):
        row = [ExpPoly.const(k) for k in range(5)]
        exp = det_series([row], 4)
        assert exp.coefficient((2,)) == ExpPoly.const(2)

    def test_leading_gamma_determinant(self):
        # first Schur coefficient of the m = 2 CDF determinant:
        # det(gamma(n), gamma(n-1); gamma(n+1), gamma(n)) / (n-1)
        n = 5
        exp = cdf_det_expansion(n, 2, 3)
        g = incomplete_gamma_exact
        det = g(n) * g(n) - g(n - 1) * g(n + 1)
        assert exp.coefficient((0, 1)) == det.scale(Fraction(1, n - 1))


class TestRSeries:
    def test_m1_closed_form(self):
        n = 4
        R = build_R_series(n, 1, 8)
        denom = Fraction(1)
        for j in range(9):
            if j:
                denom *= (n + j - 1) * j
            assert R.get((j,)) == ExpPoly.term(Fraction(1) / denom, n - 1 + j, 1)

    def test_dcdf_dx_equals_R(self):
        F = build_cdf_series(4, 2, 8)
        R = build_R_series(4, 2, 8)
        diff = F.diff_x() - R
        assert all(c.is_zero() for c in diff.coeffs.values())

    def test_antisymmetry(self):
        for (n, m) in [(4, 2), (4, 3)]:
            R = build_R_series(n, m, 6)
            swapped = R.swap(0, 1)
            assert (R + swapped).is_zero_on_valid_box()

    def test_m2_first_bracket(self):
        # coefficient of lam_1: ((x^2/(n-1) - 2x + n) gamma(n-1,x)
        #                        + (x-n)/(n-1) x^{n-1} E) x^{n-2} E
        n = 5
        R = build_R_series(n, 2, 4)
        g = incomplete_gamma_exact(n - 1)
        br = (
            ExpPoly.term(Fraction(1, n - 1), 2, 0)
            + ExpPoly.term(-2, 1, 0)
            + ExpPoly.const(n)
        ) * g + (ExpPoly.x(1) - ExpPoly.const(n)).scale(Fraction(1, n - 1)) * ExpPoly.term(1, n - 1, 1)
        assert R.get((1, 0)) == br * ExpPoly.term(1, n - 2, 1)
        assert R.get((0, 1)) == (br * ExpPoly.term(1, n - 2, 1)).scale(-1)

    def test_m2_second_bracket(self):
        n = 5
        R = build_R_series(n, 2, 4)
        g = incomplete_gamma_exact(n - 1)
        br = (
            ExpPoly.term(Fraction(1, n * (n - 1)), 3, 0)
            + ExpPoly.term(Fraction(-1, n), 2, 0)
            + ExpPoly.term(-1, 1, 0)
            + ExpPoly.const(n + 1)
        ) * g + (ExpPoly.x(1) - ExpPoly.const(n + 1)) * (ExpPoly.x(1) + ExpPoly.const(n)) * ExpPoly.term(
            Fraction(1, n * (n - 1)), n - 1, 1
        )
        assert R.get((2, 0)) == (br * ExpPoly.term(1, n - 2, 1)).scale(Fraction(1, 2))

    def test_numeric_cross_check_small_lambda(self):
        n = 4
        R = build_R_series(n, 2, 10)
        x, l1, l2 = 2.0, 0.3, 0.1
        N = n - 1

        def H(k, y):
            return h_eval(HIndex(k, 0, N), x, y)

        direct = math.exp(-x) * (
            hpg01(N, x * l1) * (x ** (n - 1) * H(n - 2, l2) - x ** (n - 2) * H(n - 1, l2))
            + hpg01(N, x * l2) * (x ** (n - 2) * H(n - 1, l1) - x ** (n - 1) * H(n - 2, l1))
        )
        assert R.eval(x, [l1, l2]) == pytest.approx(direct, rel=1e-8)


class TestSchur:
    def test_known_polynomials(self):
        assert schur_poly((0, 2), 2) == {(1, 0): 1, (0, 1): 1}
        assert schur_poly((1, 2), 2) == {(1, 1): 1}
        assert schur_poly((0, 1, 3), 3) == {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}

    def test_requires_strictly_increasing(self):
        with pytest.raises(ValueError):
            schur_poly((1, 1), 2)

    def test_nonnegative_coefficients(self):
        for q in [(0, 2, 4), (1, 3, 5), (0, 1, 4)]:
            assert all(c > 0 for c in schur_poly(q, 3).values())

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_times_vandermonde_is_alternant(self, m):
        # s_q * prod_{i<j}(lam_j - lam_i) == det(lam_i^{q_j}), exactly, for
        # every strictly increasing q with q[-1] <= 8
        lam = [MPoly.var(m, i) for i in range(m)]
        vdm = MPoly.const(m, 1)
        for i, j in itertools.combinations(range(m), 2):
            vdm = vdm * (lam[j] - lam[i])
        for q in itertools.combinations(range(9), m):
            alt = MPoly(m, {tuple(q[k] for k in perm): perm_sign(perm)
                            for perm in itertools.permutations(range(m))})
            assert MPoly(m, schur_poly(q, m)) * vdm == alt


class TestPsiSeries:
    def test_symmetry(self):
        for (n, m) in [(4, 2), (4, 3)]:
            s = build_psi_series(n, m, 5)
            sw = s.swap(0, 1)
            assert all((s.get(q) - sw.get(q)).is_zero() for q in set(s.coeffs) | set(sw.coeffs))

    def test_m1_density_series(self):
        # psi_{n,1} e^{+lam} = x^{n-1} E hpg01(n; x lam) / (n-1)! term-wise
        n = 3
        s = build_psi_series(n, 1, 6)
        denom = Fraction(math.factorial(n - 1))
        poch = Fraction(1)
        for j in range(7):
            if j:
                poch *= (n + j - 1) * j
            assert s.get((j,)) == ExpPoly.term(1 / (denom * poch), n - 1 + j, 1)

    def test_eval_decimal_path(self):
        s = build_psi_series(4, 2, 8)
        v = float(s.eval_decimal(Fraction(1, 2), [Fraction(1), Fraction(1, 2)]))
        assert v == pytest.approx(s.eval(0.5, [1.0, 0.5]), rel=1e-10)

    @pytest.mark.parametrize("lam", [(0, 0), (1, 0)])
    def test_eval_decimal_at_zero_eigenvalue(self, lam):
        s = build_psi_series(4, 2, 12)
        v = float(s.eval_decimal(Fraction(1, 2), [Fraction(l) for l in lam]))
        assert v == pytest.approx(s.eval(0.5, [float(l) for l in lam]), rel=1e-14)


class TestLemma7:
    def test_identity_matrix(self):
        mat = [[ExpPoly.one() if i == j else ExpPoly.zero() for j in range(3)] for i in range(3)]
        assert lemma7_check(mat, [1, 2, 3])

    def test_all_zero_scalars(self):
        mat = [[ExpPoly.const(i + j) for j in range(2)] for i in range(2)]
        assert lemma7_check(mat, [0, 0])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(-4, 4), min_size=9, max_size=9),
           st.lists(st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
                    min_size=3, max_size=3))
    def test_random_matrices(self, vals, cs):
        mat = [[ExpPoly.const(vals[3 * i + j]) for j in range(3)] for i in range(3)]
        assert lemma7_check(mat, cs)


def test_builds_leave_no_cyclic_garbage():
    # the memoised minors must be freed when the build returns, not left to
    # the cycle collector
    gc.collect()
    gc.disable()
    try:
        build_R_series(4, 2, 8)
        build_psi_series(5, 3, 4)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_dump_format():
    s = LambdaSeries(2, 3, {(0, 1): ExpPoly.term(Fraction(3, 2), -1, 2),
                            (1, 0): ExpPoly.one()})
    assert s.dump() == "0 1 : 3/2*x^-1*E^2\n1 0 : 1"


# ---------------------------------------------------------------------------
# the series builds in Fraction arithmetic, as the package had them before
# the integer image: ExpPoly minors, signed ExpPoly scaling, and ExpPoly
# accumulation per Schur term
# ---------------------------------------------------------------------------

def perm_sign(perm):
    """(-1)^(number of inversions)."""
    return (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))


def reference_expansion(n, m, order):
    """[(q, ExpPoly)] of the x-derivative of the CDF determinant."""
    N = n - m + 1
    minor = laplace_minors([h_series(HIndex(n - j, 0, N), order) for j in range(1, m + 1)])
    items = [(q, minor(q).diff()) for q in itertools.combinations(range(order + 1), m)]
    return [(q, c) for q, c in items if not c.is_zero()]


def _store(out, q, val):
    s = out.get(q)
    s = val if s is None else s + val
    if s.is_zero():
        out.pop(q, None)
    else:
        out[q] = s


def reference_R(n, m, order):
    out = {}
    for q, c in reference_expansion(n, m, order):
        for perm in itertools.permutations(range(m)):
            _store(out, tuple(q[perm[i]] for i in range(m)), c.scale(perm_sign(perm)))
    return LambdaSeries(m, order, out)


def reference_psi(n, m, order):
    fact = Fraction((-1) ** (m * (m - 1) // 2), math.factorial(n - m) ** m)
    out = {}
    for q, c in reference_expansion(n, m, order + m):
        cc = c.scale(fact)
        for e, s in schur_poly(q, m).items():
            if all(p <= order for p in e):
                _store(out, e, cc.scale(s))
    return LambdaSeries(m, order, out)


def assert_same_series(got, ref):
    assert got.coeffs == ref.coeffs
    assert got.valid == ref.valid
    assert got.order == ref.order


class TestIntegerImageMatchesReference:
    @pytest.mark.parametrize("n,m,order", [(3, 1, 6), (4, 2, 8), (5, 3, 4), (6, 4, 3)])
    def test_R_series(self, n, m, order):
        R = build_R_series(n, m, order)
        assert R.num
        assert_same_series(R, reference_R(n, m, order))

    @pytest.mark.parametrize("n,m,order", [(4, 2, 8), (5, 3, 5)])
    def test_psi_series(self, n, m, order):
        assert_same_series(build_psi_series(n, m, order), reference_psi(n, m, order))

    def test_eval_matches_fraction_coefficients(self):
        # the image and the Fraction coefficients contract to the same
        # rationals, so their float values are identical; both are within
        # rounding of the 50-digit value
        s = build_psi_series(4, 2, 8)
        ref = reference_psi(4, 2, 8)
        for x in (0.05, 0.5, 3.0):
            want = float(s.eval_decimal(Fraction(x), [Fraction(1.5), Fraction(0.25)], prec=50))
            assert s.eval(x, [1.5, 0.25]) == ref.eval(x, [1.5, 0.25])
            assert s.eval(x, [1.5, 0.25]) == pytest.approx(want, rel=4e-16, abs=0)
