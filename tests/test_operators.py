import gc
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wishart_roots.exp_poly import ExpPoly
from wishart_roots.operators import (
    DiffOperator,
    OrderDeficitError,
    OreOperator,
    URat,
    build_P,
    build_Q,
    build_T,
    euler_shift_operator,
    gauge_translate,
    lclm,
    order5_ore,
    ore_at_x,
    p_operator_ore,
    printed_m2_generators,
    printed_m2_sn_operator,
    printed_m2_third_order,
    printed_m3_mixed,
    printed_m3_sum,
    printed_order5_operator,
    q_operator_ore,
    residual_report,
    theorem2_operator,
    verify_printed,
    verify_theorem1,
    verify_theorem2,
)
from wishart_roots.ratfunc import MPoly, RatFunc
from wishart_roots.series_engine import LambdaSeries, build_R_series


def hpg01_series(n, order, m=1, var=0):
    """Series of hpg01(n; x lam_var) with exact ExpPoly coefficients."""
    coeffs = {}
    denom = Fraction(1)
    for j in range(order + 1):
        if j:
            denom *= (n + j - 1) * j
        q = [0] * m
        q[var] = j
        coeffs[tuple(q)] = ExpPoly.term(1 / denom, j, 0)
    return LambdaSeries(m, order, coeffs)


def l2_exp_series(N, order):
    """(y - x + N - 1) e^y as a one-variable series with ExpPoly coefficients."""
    coeffs = {}
    for k in range(order + 1):
        c = ExpPoly.const(Fraction(N - 1) / math.factorial(k)) - ExpPoly.term(
            Fraction(1, math.factorial(k)), 1, 0
        )
        if k >= 1:
            c = c + ExpPoly.const(Fraction(1, math.factorial(k - 1)))
        coeffs[(k,)] = c
    return LambdaSeries(1, order, coeffs)


def assert_zero_residual(series):
    assert series.is_zero_on_valid_box(), sorted(series.coeffs)[:5]


class TestGenerators:
    def test_P_on_defining_series(self):
        # P_M annihilates hpg01(M+1; x y)
        for M in (0, 2, 3):
            s = hpg01_series(M + 1, 10)
            assert_zero_residual(build_P(M, 0, 1).apply(s))

    def test_P_on_constant(self):
        one = LambdaSeries(1, 5, {(0,): ExpPoly.one()})
        res = build_P(0, 0, 1).apply(one)
        assert res.get((0,)) == ExpPoly.term(-1, 1, 0)

    def test_Q_symbolic_form(self):
        q = build_Q(4, 2, 0, 1)
        lam = RatFunc(MPoly.var(2, 1))
        x = RatFunc(MPoly.var(2, 0))
        assert q.terms[(0, 3)] == lam
        assert q.terms[(0, 2)] == RatFunc.const(2, 4) - lam
        assert q.terms[(0, 1)] == -(x + RatFunc.const(2, 5))
        assert q.terms[(0, 0)] == x

    @pytest.mark.parametrize("N,M", [(3, 1), (4, 2), (5, 3)])
    def test_Q_factorization_identity(self, N, M):
        # Q_{N,N-M-1} = (y d2 + (N-M+1) d - x - M)(d - 1) - M
        m = 1
        nv = 2
        x = RatFunc(MPoly.var(nv, 0))
        lam = RatFunc(MPoly.var(nv, 1))
        one = RatFunc.const(nv, 1)
        A = (
            DiffOperator.monomial(m, lam, 0, [2])
            + DiffOperator.monomial(m, one * (N - M + 1), 0, [1])
            + DiffOperator.monomial(m, -x - one * M, 0, None)
        )
        B = DiffOperator.monomial(m, one, 0, [1]) - DiffOperator.identity(m)
        lhs = A.compose(B) - DiffOperator.identity(m).scale(RatFunc.const(nv, M))
        assert lhs == build_Q(N, N - M - 1, 0, m)

    @pytest.mark.parametrize("N", [3, 4, 6])
    def test_Q_kills_l2_exponential(self, N):
        # Q_{N,N-2} annihilates (y - x + N - 1) e^y
        s = l2_exp_series(N, 14)
        res = build_Q(N, N - 2, 0, 1).apply(s)
        assert_zero_residual(res)

    def test_T_indexing(self):
        assert build_T(1, 5, 2, 0) == build_P(3, 0, 2)
        assert build_T(2, 5, 2, 1) == build_Q(5, 3, 1, 2)
        with pytest.raises(ValueError):
            build_T(3, 5, 2, 0)


class TestApply:
    def test_diff_monomial(self):
        s = LambdaSeries(1, 5, {(2,): ExpPoly.one()})
        d = DiffOperator.monomial(1, RatFunc.const(2, 1), 0, [1]).apply(s)
        assert d.get((1,)) == ExpPoly.const(2)

    def test_x_euler_acts_on_coefficients(self):
        s = LambdaSeries(1, 3, {(0,): ExpPoly.x(2)})
        op = DiffOperator.monomial(1, RatFunc(MPoly.var(2, 0)), 1, None)
        assert op.apply(s).get((0,)) == ExpPoly.term(2, 2, 0)

    def test_linearity(self):
        a = hpg01_series(3, 6)
        b = l2_exp_series(3, 6)
        op = build_Q(4, 1, 0, 1)
        left = op.apply(a + b)
        right = op.apply(a) + op.apply(b)
        diff = left - right
        assert all(c.is_zero() for c in diff.coeffs.values())

    def test_rational_coefficients_rejected(self):
        inv = RatFunc(MPoly.const(2, 1), MPoly.var(2, 1))
        op = DiffOperator.monomial(1, inv, 0, [1])
        with pytest.raises(ValueError):
            op.apply(hpg01_series(2, 4))

    def test_order_deficit(self):
        s = LambdaSeries(1, 2, {(0,): ExpPoly.one()})
        op = DiffOperator.monomial(1, RatFunc.const(2, 1), 0, [3])
        with pytest.raises(OrderDeficitError):
            op.apply(s)

    def test_composition_associative(self):
        a = build_P(1, 0, 1)
        b = build_Q(3, 1, 0, 1)
        c = DiffOperator.monomial(1, RatFunc(MPoly.var(2, 1)), 0, [1])
        assert a.compose(b).compose(c) == a.compose(b.compose(c))

    def test_composition_equals_sequential(self):
        a = build_P(1, 0, 1)
        b = build_Q(3, 1, 0, 1)
        s = l2_exp_series(3, 12)
        seq = a.apply(b.apply(s))
        comp = a.compose(b).apply(s)
        diff = seq - comp
        assert all(
            c.is_zero()
            for q, c in diff.coeffs.items()
            if all(e <= v for e, v in zip(q, diff.valid))
        )


def reference_apply(op, series):
    """DiffOperator.apply in Fraction arithmetic, as the package had it
    before the integer image: one derivative chain per term, then one
    lam-shift and ExpPoly product per coefficient monomial."""
    if series.m != op.m:
        raise ValueError("variable-count mismatch")
    total = None
    for d, c in op.terms.items():
        if not c.is_poly():
            raise ValueError("rational coefficients: clear denominators before apply()")
        poly = c.as_poly()
        cur = series
        for _ in range(d[0]):
            cur = cur.diff_x()
        for var in range(op.m):
            for _ in range(d[1 + var]):
                cur = cur.diff_lambda(var)
            if cur.valid[var] < 0:
                raise OrderDeficitError("series order too small for operator")
        piece = None
        for e, coef in poly.terms.items():
            if any(p < 0 for p in e[1:]):
                raise ValueError("negative lam exponent in operator coefficient")
            factor = ExpPoly.term(coef, e[0], 0)
            shifted = {tuple(a + b for a, b in zip(q, e[1:])): v * factor
                       for q, v in cur.coeffs.items()}
            contrib = LambdaSeries(series.m, series.order,
                                   {q: v for q, v in shifted.items() if max(q) <= series.order},
                                   cur.valid)
            piece = contrib if piece is None else piece + contrib
        if piece is None:
            continue
        total = piece if total is None else total + piece
    if total is None:
        return LambdaSeries(series.m, series.order, {}, series.valid)
    return total


def sweep_operators(n, m):
    """Every T_k, the Euler shift, the Theorem-2 operator and every printed
    operator at (n, m), including the ones that do not annihilate R."""
    ops = [build_T(k, n, m, var) for k in range(1, m + 1) for var in range(m)]
    ops += [euler_shift_operator(n, m), theorem2_operator(n, m)]
    if m == 2:
        ops += printed_m2_generators(n)
        ops += [printed_order5_operator(n), printed_m2_third_order(n),
                printed_m2_sn_operator(n, True), printed_m2_sn_operator(n, False)]
    if m == 3:
        ops += [printed_m3_mixed(n), printed_m3_sum(n), printed_m3_sum(n, as_printed=True)]
    return ops


def assert_same_apply(op, series):
    got, ref = op.apply(series), reference_apply(op, series)
    assert got.coeffs == ref.coeffs
    assert got.valid == ref.valid
    assert got.order == ref.order
    return got


class TestApplyMatchesReference:
    @pytest.mark.parametrize("n,m,order", [(4, 2, 8), (5, 3, 4), (3, 1, 6), (5, 2, 6)])
    def test_sweep(self, n, m, order):
        R = build_R_series(n, m, order)
        residuals = [assert_same_apply(op, R) for op in sweep_operators(n, m)]
        # the chained Theorem-1 products, link by link
        for k in range(1, m + 1):
            cur = R
            for var in range(m):
                cur = assert_same_apply(build_T(k, n, m, var), cur)
        # the sweep covers nonzero residuals, and at m = 2 the S_n
        # operator's Fraction(1, 2) coefficients
        assert any(not r.is_zero_on_valid_box() for r in residuals)
        if m == 2:
            sn = printed_m2_sn_operator(n)
            assert any(v.denominator == 2 for c in sn.terms.values()
                       for v in c.as_poly().terms.values())

    def test_laurent_series(self):
        s = LambdaSeries(2, 4, {
            (0, 0): ExpPoly({(-2, 1): Fraction(1, 3), (0, 0): Fraction(5, 7)}),
            (1, 0): ExpPoly({(-1, 0): Fraction(-2, 5), (1, 2): Fraction(3)}),
            (2, 3): ExpPoly({(-3, 2): Fraction(7, 6), (2, 0): Fraction(-1, 4)}),
            (4, 4): ExpPoly({(-1, 1): Fraction(1, 9)}),
        })
        for op in (euler_shift_operator(4, 2), printed_m2_generators(4)[2],
                   printed_m2_third_order(4), printed_m2_sn_operator(4)):
            assert_same_apply(op, s)

    def test_order_deficit_at_6_3_3(self):
        R = build_R_series(6, 3, 3)
        for apply in (printed_m3_sum(6).apply, lambda s: reference_apply(printed_m3_sum(6), s)):
            with pytest.raises(OrderDeficitError):
                apply(R)

    def test_apply_leaves_no_cyclic_garbage(self):
        op = printed_m2_generators(4)[2]
        R = build_R_series(4, 2, 8)
        gc.collect()
        gc.disable()
        try:
            op.apply(R)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestTheorems:
    def test_theorem1_m1(self):
        reports = verify_theorem1(4, 1, 10)
        assert all(r["pass"] for r in reports)

    def test_theorem1_m2(self):
        R = build_R_series(3, 2, 10)
        reports = verify_theorem1(3, 2, 10, R)
        assert [r["params"]["k"] for r in reports] == [1, 2]
        assert all(r["pass"] for r in reports)

    def test_theorem2_and_eigenvalue(self):
        R = build_R_series(4, 2, 10)
        reports = verify_theorem2(4, 2, 10, R)
        assert all(r["pass"] for r in reports)
        assert reports[1]["params"]["eigenvalue"] == "6"  # 2*4 - 1 - 1

    def test_theorem2_m1_direct(self):
        reports = verify_theorem2(5, 1, 10)
        assert all(r["pass"] for r in reports)

    def test_nonannihilator_is_detected(self):
        # perturbing the eigen-constant must break the exact zero
        R = build_R_series(3, 2, 8)
        bad = theorem2_operator(3, 2) + DiffOperator.identity(2)
        res = bad.apply(R)
        assert not res.is_zero_on_valid_box()

    @pytest.mark.parametrize("n,m,order", [(4, 2, 8), (5, 3, 4)])
    def test_perturbed_chain_link_is_detected(self, n, m, order):
        # a Theorem-1 product with one T link perturbed by the identity must
        # leave nonzero residual terms on the certified box; the true chain
        # leaves none
        R = build_R_series(n, m, order)
        for k in range(1, m + 1):
            for bad_var in (None,) + tuple(range(m)):
                cur = R
                for var in range(m):
                    link = build_T(k, n, m, var)
                    if var == bad_var:
                        link = link + DiffOperator.identity(m)
                    cur = link.apply(cur)
                rep = residual_report("theorem1_product", {}, cur)
                if bad_var is None:
                    assert rep["max_residual_terms"] == 0 and rep["pass"]
                else:
                    assert rep["max_residual_terms"] > 0 and not rep["pass"]


class TestPrinted:
    def test_m2_suite(self):
        R = build_R_series(4, 2, 10)
        reports = verify_printed(4, 2, 10, R)
        names = [r["check"] for r in reports]
        assert names == [
            "printed_m2_generator_1",
            "printed_m2_generator_2",
            "printed_m2_generator_3",
            "printed_m2_order5",
            "printed_m2_third_order",
        ]
        assert all(r["pass"] for r in reports)

    def test_m3_suite(self):
        R = build_R_series(4, 3, 7)
        reports = verify_printed(4, 3, 7, R)
        assert all(r["pass"] for r in reports)

    def test_m3_sum_as_printed_fails(self):
        # the source display omits a lam factor in the d3 coefficient; the
        # uncorrected operator is kept as a negative control
        R = build_R_series(4, 3, 7)
        res = printed_m3_sum(4, as_printed=True).apply(R)
        assert not res.is_zero_on_valid_box()

    def test_first_generator_is_theorem2(self):
        assert printed_m2_generators(5)[0] == theorem2_operator(5, 2)

    def test_sn_hypersurface_operator_does_not_annihilate(self):
        # negative result, pinned: the quoted hypersurface operator fails to
        # annihilate under either reading of its ambiguous tokens (its display
        # appears to carry unrecoverable typos); it stays out of the suites
        from wishart_roots.operators import printed_m2_sn_operator

        R = build_R_series(4, 2, 10)
        for reading in (True, False):
            res = printed_m2_sn_operator(4, reading).apply(R)
            assert not res.is_zero_on_valid_box()


class TestGauge:
    def test_m1_translation(self):
        op = DiffOperator.monomial(1, RatFunc.const(2, 1), 0, [1])
        got = gauge_translate(op)
        expect = op + DiffOperator.identity(1)
        assert got == expect

    def test_homomorphism_distinct_variables(self):
        d1 = DiffOperator.monomial(2, RatFunc.const(3, 1), 0, [1, 0])
        d2 = DiffOperator.monomial(2, RatFunc.const(3, 1), 0, [0, 1])
        assert gauge_translate(d1.compose(d2)) == gauge_translate(d1).compose(gauge_translate(d2))

    def test_conjugation_identity_closed_form(self):
        # g = e^{-l1-l2}/(l1-l2), u = e^{l1+2 l2}; then g u = e^{l2}/(l1-l2)
        # and translate(L)(g u) must equal g * L(u) pointwise.
        l1, l2 = 2.0, 1.0
        g = math.exp(-l1 - l2) / (l1 - l2)

        def u_deriv(a, b):
            return 1.0 ** a * 2.0 ** b * math.exp(l1 + 2 * l2)

        def gu_deriv(a, b):
            # derivatives of e^{l2} (l1-l2)^{-1}
            total = 0.0
            for t in range(b + 1):
                binom = math.comb(b, t)
                # d^t/dl2^t of (l1-l2)^{-1} then d^a/dl1^a
                pow_deriv = math.factorial(a + t) / (l1 - l2) ** (a + t + 1) * (-1) ** a
                total += binom * pow_deriv * math.exp(l2)
            return total

        def apply_op(op, deriv_fn):
            total = 0.0
            for d, c in op.terms.items():
                assert d[0] == 0
                total += c.eval([0.0, l1, l2]) * deriv_fn(d[1], d[2])
            return total

        for op in (
            DiffOperator.monomial(2, RatFunc.const(3, 1), 0, [1, 0]),
            DiffOperator.monomial(2, RatFunc(MPoly.var(3, 1)), 0, [2, 0])
            + DiffOperator.monomial(2, RatFunc.const(3, 1), 0, [0, 1]),
        ):
            lhs = apply_op(gauge_translate(op), gu_deriv)
            rhs = g * apply_op(op, u_deriv)
            assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_translated_first_order_matches_density_finite_differences(self):
        from wishart_roots.distribution import EvalConfig, WishartParams, pdf_quadrature
        from wishart_roots.h_integrals import HIndex, h_eval
        from wishart_roots.special_fn import hpg01

        n, x = 4, 2.0
        l1, l2 = 2.0, 1.0
        cfg = EvalConfig()

        def psi(a, b):
            return pdf_quadrature(WishartParams(n, 2, (a, b)), x, cfg)

        def R(a, b):
            N = n - 1
            H = lambda k, y: h_eval(HIndex(k, 0, N), x, y)
            return math.exp(-x) * (
                hpg01(N, x * a) * (x ** (n - 1) * H(n - 2, b) - x ** (n - 2) * H(n - 1, b))
                + hpg01(N, x * b) * (x ** (n - 2) * H(n - 1, a) - x ** (n - 1) * H(n - 2, a))
            )

        h = 1e-4
        lhs = (psi(l1 + h, l2) - psi(l1 - h, l2)) / (2 * h) + (1 + 1 / (l1 - l2)) * psi(l1, l2)
        front = math.exp(-l1 - l2) / (math.factorial(n - 2) ** 2 * (l1 - l2))
        rhs = front * (R(l1 + h, l2) - R(l1 - h, l2)) / (2 * h)
        assert lhs == pytest.approx(rhs, rel=1e-5)


class TestLclm:
    def test_idempotent(self):
        d_minus_1 = OreOperator([URat.const(-1), URat.const(1)])
        L = lclm([d_minus_1, d_minus_1])
        assert L == d_minus_1.monic()

    def test_two_first_order(self):
        # LCLM(d, d-1) has order 2 and right-division remainder zero for both
        d = OreOperator([URat.const(0), URat.const(1)])
        d1 = OreOperator([URat.const(-1), URat.const(1)])
        L = lclm([d, d1])
        assert L.order == 2
        assert L.right_divmod(d)[1].is_zero()
        assert L.right_divmod(d1)[1].is_zero()
        # kills 1 and e^y: constant term must vanish, and sum of coeffs too
        assert L.coeffs[0].is_zero()
        total = L.coeffs[0] + L.coeffs[1] + L.coeffs[2]
        assert total.is_zero()

    # every case of the benchmark's LCLM_CASES
    @pytest.mark.parametrize("n,x", [(4, Fraction(2)), (5, Fraction(1, 2)), (6, Fraction(3)),
                                     (3, Fraction(5))])
    def test_matches_printed_order5(self, n, x):
        L = lclm([p_operator_ore(n - 2, x), q_operator_ore(n, n - 2, x)])
        assert L.order == 5
        assert L == order5_ore(n, x).monic()
        # left-multiple property
        for op in (p_operator_ore(n - 2, x), q_operator_ore(n, n - 2, x)):
            assert L.right_divmod(op)[1].is_zero()

    def test_mismatched_x_is_not_the_printed_operator(self):
        n, xp, xq = 4, Fraction(2), Fraction(3)
        P, Q = p_operator_ore(n - 2, xp), q_operator_ore(n, n - 2, xq)
        L = lclm([P, Q])
        assert L.order == 5
        assert L.right_divmod(P)[1].is_zero() and L.right_divmod(Q)[1].is_zero()
        assert L != order5_ore(n, xp).monic()
        assert L != order5_ore(n, xq).monic()

    def test_order_guard_below_the_lclm_raises(self):
        x = Fraction(2)
        with pytest.raises(ArithmeticError):
            lclm([p_operator_ore(2, x), q_operator_ore(4, 2, x)], max_order=4)


def q_eval(poly, y):
    return sum(Fraction(c) * y ** i for i, c in enumerate(poly))


def q_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += Fraction(ca) * cb
    return out


def q_diff(poly):
    return [Fraction(c) * i for i, c in enumerate(poly)][1:]


def q_gcd_degree(a, b):
    """Degree of gcd(a, b) in Q[y] by the Euclidean algorithm over Fraction."""
    a, b = [Fraction(c) for c in a], [Fraction(c) for c in b]
    while b:
        while len(a) >= len(b):
            c, d = a[-1] / b[-1], len(a) - len(b)
            for i, cb in enumerate(b):
                a[i + d] -= c * cb
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) - 1


def assert_canonical(r):
    assert all(type(c) is int for c in r.num + r.den)
    assert r.den and r.den[-1] > 0
    assert not r.num or r.num[-1] != 0
    if not r.num:
        assert r.den == [1]
    else:
        assert math.gcd(*r.num, *r.den) == 1
        assert q_gcd_degree(r.num, r.den) == 0


coefs = st.one_of(st.integers(-6, 6),
                  st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)))
polys = st.lists(coefs, max_size=4)
nonzero_polys = polys.filter(lambda p: any(p))
# ten points: the two input denominators (degree <= 3) vanish at six at most
POINTS = [Fraction(v) for v in (0, 1, -1, 2, -3, 5, 7)] + [Fraction(1, 3), Fraction(-7, 2),
                                                          Fraction(5, 4)]


def value(num, den, y):
    return q_eval(num, y) / q_eval(den, y)


class TestURat:
    """The integer-coefficient URat against Fraction arithmetic at points."""

    @settings(max_examples=60, deadline=None)
    @given(polys, nonzero_polys, polys, nonzero_polys)
    def test_field_ops_and_diff_agree_with_fraction_values(self, an, ad, bn, bd):
        a, b = URat(an, ad), URat(bn, bd)
        results = {"+": a + b, "-": a - b, "*": a * b, "diff": a.diff()}
        if b.num:
            results["/"] = a / b
        for r in results.values():
            assert_canonical(r)
        checked = 0
        for y in POINTS:
            # a result's denominator divides products of ad, bd and, for
            # a / b, bn, so it cannot vanish where none of those does
            if 0 in (q_eval(ad, y), q_eval(bd, y)):
                continue
            va, vb = value(an, ad, y), value(bn, bd, y)
            da = (q_eval(q_diff(an), y) * q_eval(ad, y)
                  - q_eval(an, y) * q_eval(q_diff(ad), y)) / q_eval(ad, y) ** 2
            expect = {"+": va + vb, "-": va - vb, "*": va * vb, "diff": da}
            if vb:
                expect["/"] = va / vb
            for op, r in results.items():
                if op not in expect:
                    continue
                assert value(r.num, r.den, y) == expect[op], op
            checked += 1
        assert checked >= 4

    @settings(max_examples=60, deadline=None)
    @given(polys, nonzero_polys, nonzero_polys, coefs.filter(bool))
    def test_equal_values_have_identical_lists(self, n, d, g, k):
        # n*g*k / d*g is n*k / d after cancelling g, however it is written
        gn = [c * k for c in q_mul(n, g)]
        r, s = URat(gn, q_mul(d, g)), URat([c * k for c in n], d)
        assert_canonical(r)
        assert (r.num, r.den) == (s.num, s.den)
        assert r == s
        assert ((r + s) - s).num == r.num and ((r + s) - s).den == r.den

    def test_canonical_examples(self):
        zero = URat([0, 0], [3, -4])
        assert (zero.num, zero.den) == ([], [1])
        assert URat.const(0) == zero == URat([1, 2]) - URat([1, 2])
        half = URat([Fraction(1, 2), 1])
        assert (half.num, half.den) == ([1, 2], [2])
        assert half == URat([1, 2], [2]) == URat([2, 4], [4])
        assert half != URat([1, 2])
        neg = URat([1], [0, -2])
        assert (neg.num, neg.den) == ([-1], [0, 2])
        c = URat.const(Fraction(-3, 7))
        assert (c.num, c.den) == ([-3], [7])
        with pytest.raises(ZeroDivisionError):
            URat([1], [0])
        with pytest.raises(ZeroDivisionError):
            URat([1]) / zero


class TestOreConversion:
    def test_p_and_q_coefficients(self):
        assert p_operator_ore(2, Fraction(3)) == OreOperator(
            [URat.const(-3), URat.const(3), URat([0, 1])])
        x = Fraction(-3, 7)
        assert q_operator_ore(4, 2, x) == OreOperator(
            [URat.const(x), URat.const(-x - 5), URat([4, -1]), URat([0, 1])])

    def test_converts_the_lam_it_differentiates(self):
        # P on lam_2 of an m = 2 operator is P on lam_1 of an m = 1 one
        assert ore_at_x(build_P(3, 1, 2), 2) == p_operator_ore(3, Fraction(2))

    @pytest.mark.parametrize("op", [
        build_P(2, 0, 2) + build_P(2, 1, 2),  # derivatives in two lams
        DiffOperator.monomial(1, RatFunc.const(2, 1), 1, [0]),  # an x-derivative
        DiffOperator.monomial(1, RatFunc(MPoly.const(2, 1), MPoly.var(2, 1)), 0, [1]),
        DiffOperator.monomial(2, RatFunc(MPoly.var(3, 2)), 0, [1, 0]),  # lam_2 in a coefficient
    ])
    def test_rejects_what_it_cannot_convert(self, op):
        with pytest.raises(ValueError):
            ore_at_x(op, 1)
