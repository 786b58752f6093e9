"""Exact truncated power series in lam_1..lam_m over the ExpPoly ring.

The largest-root CDF determinant expands, row by row, into y-series of the
H-integrals; a determinant of series is itself a series whose coefficients
are determinants of the row coefficients over strictly increasing exponent
tuples q (Cauchy-Binet):  sum_q p_q det(lam_i^{q_j}).  Everything here is
exact.

One function turns such an expansion into a lam-series: sum_q p_q minor(q),
the minors taken by Laplace expansion of an m x (top+1) matrix of
polynomials in lam.  The monomial matrix lam_i^l gives the alternants, so
the series itself (R); the flagged matrix h_{l-i}(lam_1..lam_{i+1}) gives
the alternants divided by the Vandermonde, the Schur polynomials (psi and
the symmetric CDF series), so nothing is ever divided.

Series are built and held as an integer image: every coefficient is a term
map with Python-int numerators, and one integer denominator serves the
whole series.  The determinant's entries are cleared to ints once, per
column, so minors, d/dx and the lam-expansion are int arithmetic;
rationals appear only when a caller reads coefficients.

The central products are ``build_R_series`` (the x-derivative of the CDF
determinant, the function all the differential operators annihilate) and
``build_psi_series`` (the density with the Vandermonde divided out).
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from decimal import Decimal, getcontext
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

from .exp_poly import ExpPoly, Term, decimal_exp, decimal_terms, eval_terms, terms_diff, terms_mul
from .h_integrals import HIndex, h_series_numerators
from .ratfunc import MPoly

Expo = Tuple[int, ...]
Image = Dict[Expo, Dict[Term, int]]  # series numerators over one shared denominator


def _clear(polys: Sequence[ExpPoly]) -> Tuple[List[Dict[Term, int]], int]:
    """Rational ExpPoly values as int term maps over their lcm denominator."""
    den = math.lcm(*(v.denominator for p in polys for v in p.terms.values()))
    return [{t: v.numerator * (den // v.denominator) for t, v in p.terms.items()}
            for p in polys], den


def _add_into(out: Image, q: Expo, p: Dict[Term, int], f: int = 1):
    """out[q] += f * p, dropping terms and coefficients that cancel; ``p`` is
    never mutated (a new coefficient is a copy)."""
    acc = out.get(q)
    if acc is None:
        out[q] = {t: f * v for t, v in p.items()}
        return
    for t, v in p.items():
        s = acc.get(t, 0) + f * v
        if s:
            acc[t] = s
        else:
            acc.pop(t, None)
    if not acc:
        del out[q]


def _as_poly(p: Dict[Term, int], den: int) -> ExpPoly:
    return ExpPoly.wrap({t: Fraction(v, den) for t, v in p.items()})


class LambdaSeries:
    """Truncated multivariate series in lam_1..lam_m with ExpPoly coefficients.

    The series is held as its integer image: ``num`` maps each exponent
    tuple to a term map {(x-power, E-power): int} and one positive ``den``
    divides them all, so the exact layer (products, derivatives, operator
    application, zero tests) is int arithmetic with no gcd per operation.
    Zero coefficients and zero terms are never stored.  ``coeffs``, ``get``,
    ``eval``, ``eval_decimal`` and ``dump`` read the image as rationals.

    ``order`` is the per-variable storage cap; ``valid`` tracks, per
    variable, how far the stored coefficients are trustworthy: applying
    d/dlam_i shrinks component i by one, so after an operator of derivative
    order d_i in lam_i the coefficients are certified only on the box
    q_i <= valid_i.
    """

    __slots__ = ("m", "order", "valid", "num", "den")

    def __init__(self, m: int, order: int, coeffs: Dict[Expo, ExpPoly] | None = None,
                 valid: Sequence[int] | None = None):
        coeffs = {tuple(q): c for q, c in (coeffs or {}).items() if not c.is_zero()}
        nums, den = _clear(list(coeffs.values()))
        self._set(m, order, dict(zip(coeffs, nums)), den, valid)

    @classmethod
    def image(cls, m: int, order: int, num: Image, den: int,
              valid: Sequence[int] | None = None) -> "LambdaSeries":
        """The series num / den, on ``num`` as given (no zero coefficient or
        term stored, den > 0); images are shared, never mutated."""
        res = cls.__new__(cls)
        res._set(m, order, num, den, valid)
        return res

    def _set(self, m, order, num, den, valid):
        self.m, self.order, self.num, self.den = m, order, num, den
        self.valid = (order,) * m if valid is None else tuple(valid)

    @property
    def coeffs(self) -> Dict[Expo, ExpPoly]:
        """The coefficients with Fraction entries, built on each access."""
        return {q: _as_poly(p, self.den) for q, p in self.num.items()}

    def get(self, q: Expo) -> ExpPoly:
        p = self.num.get(tuple(q))
        return ExpPoly.zero() if p is None else _as_poly(p, self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LambdaSeries):
            return NotImplemented
        return ((self.m, self.order, self.valid, self.coeffs)
                == (other.m, other.order, other.valid, other.coeffs))

    __hash__ = None

    def __repr__(self) -> str:
        return f"LambdaSeries(m={self.m}, order={self.order}, valid={self.valid}, terms={len(self.num)})"

    # -- arithmetic -------------------------------------------------------

    def _meet(self, other: "LambdaSeries") -> Tuple[int, Tuple[int, ...]]:
        if self.m != other.m:
            raise ValueError("variable-count mismatch")
        return (min(self.order, other.order),
                tuple(min(a, b) for a, b in zip(self.valid, other.valid)))

    def __add__(self, other: "LambdaSeries") -> "LambdaSeries":
        order, valid = self._meet(other)
        den = math.lcm(self.den, other.den)
        out: Image = {}
        for s in (self, other):
            f = den // s.den
            for q, p in s.num.items():
                if max(q) <= order:
                    _add_into(out, q, p, f)
        return LambdaSeries.image(self.m, order, out, den, valid)

    def __sub__(self, other: "LambdaSeries") -> "LambdaSeries":
        return self + other.scale(-1)

    def __mul__(self, other: "LambdaSeries") -> "LambdaSeries":
        order, valid = self._meet(other)
        out: Image = {}
        for q1, p1 in self.num.items():
            for q2, p2 in other.num.items():
                q = tuple(a + b for a, b in zip(q1, q2))
                if max(q) <= order:
                    _add_into(out, q, terms_mul(p1, p2))
        return LambdaSeries.image(self.m, order, out, self.den * other.den, valid)

    def scale(self, c) -> "LambdaSeries":
        """Multiply by a rational constant."""
        c = Fraction(c)
        num = {q: {t: v * c.numerator for t, v in p.items()} for q, p in self.num.items()} if c else {}
        return LambdaSeries.image(self.m, self.order, num, self.den * c.denominator, self.valid)

    def diff_lambda(self, i: int) -> "LambdaSeries":
        out: Image = {}
        for q, p in self.num.items():
            e = q[i]
            if e:
                out[q[:i] + (e - 1,) + q[i + 1:]] = {t: e * v for t, v in p.items()}
        new_valid = list(self.valid)
        new_valid[i] -= 1
        return LambdaSeries.image(self.m, self.order, out, self.den, new_valid)

    def diff_x(self) -> "LambdaSeries":
        out: Image = {}
        for q, p in self.num.items():
            r = terms_diff(p)
            if r:
                out[q] = r
        return LambdaSeries.image(self.m, self.order, out, self.den, self.valid)

    def swap(self, i: int, j: int) -> "LambdaSeries":
        out = {}
        for q, p in self.num.items():
            nq = list(q)
            nq[i], nq[j] = nq[j], nq[i]
            out[tuple(nq)] = p
        nv = list(self.valid)
        nv[i], nv[j] = nv[j], nv[i]
        return LambdaSeries.image(self.m, self.order, out, self.den, nv)

    # -- inspection ---------------------------------------------------------

    def nonzero_on_valid_box(self) -> List[Expo]:
        """The exponents of the certified box that carry a nonzero coefficient."""
        return [q for q in self.num if all(e <= v for e, v in zip(q, self.valid))]

    def is_zero_on_valid_box(self) -> bool:
        return not self.nonzero_on_valid_box()

    def contract(self, lambdas: Sequence) -> Tuple[Dict[Term, int], int]:
        """The series at rational eigenvalues, sum_q num_q lam^q / den, as one
        int term map over one int denominator: exact, and free of x.

        Each lam_i = a_i / b_i (a float is the dyadic rational it holds) is
        taken out by Horner, the last variable first: the running sum is
        multiplied by a_i and the coefficient of lam_i^e enters weighted by
        b_i^(top - e), so no power table is formed and a zero eigenvalue
        simply keeps the coefficients of lam_i^0.
        """
        if len(lambdas) != self.m:
            raise ValueError("lambda count mismatch")
        layer, den = self.num, self.den
        for lam in reversed(lambdas):
            a, b = Fraction(lam).as_integer_ratio()
            levels: Dict[int, List[Tuple[Expo, Dict[Term, int]]]] = {}
            for q, p in layer.items():
                levels.setdefault(q[-1], []).append((q[:-1], p))
            top = max(levels, default=0)
            layer, w = {}, 1
            for e in range(top, -1, -1):
                if a != 1:
                    layer = {r: {t: v * a for t, v in p.items()} for r, p in layer.items()} if a else {}
                for rest, p in levels.get(e, ()):
                    _add_into(layer, rest, p, w)
                w *= b
            den *= b ** top
        return layer.get((), {}), den

    def eval(self, x, lambdas: Sequence[float]):
        """The series at one float x (a float) or at a sequence of them (a
        list, in their order): contracted against ``lambdas`` once, then one
        ``eval_terms`` per abscissa."""
        terms, den = self.contract(lambdas)
        if isinstance(x, numbers.Real):
            return eval_terms(terms, x, den)
        return [eval_terms(terms, x0, den) for x0 in x]

    def eval_decimal(self, x0: Fraction, lambdas: Sequence[Fraction], prec: int = 50) -> Decimal:
        """High-precision evaluation at rational arguments.

        The closed forms of the coefficients subtract quantities agreeing to
        many digits when x is small (incomplete-gamma pieces); this route
        contracts the series against the rational eigenvalues exactly and
        sums the contraction's terms in ``prec``-digit Decimal.
        """
        terms, den = self.contract([Fraction(l) for l in lambdas])
        ctx_prec = getcontext().prec
        getcontext().prec = max(prec + 10, ctx_prec)
        try:
            return decimal_terms(terms, *decimal_exp(Fraction(x0)), den)
        finally:
            getcontext().prec = ctx_prec

    def dump(self) -> str:
        """Plain-text lines 'q1 q2 ... qm : <ExpPoly>' sorted by exponent."""
        lines = []
        for q in sorted(self.num):
            lines.append(" ".join(str(e) for e in q) + " : " + str(self.get(q)))
        return "\n".join(lines)


@dataclass
class SchurExpansion:
    """Antisymmetric series organized by strictly increasing exponent tuples.

    Each item pairs a tuple q_1 < ... < q_m with the int term map of the
    determinant coefficient multiplying det(lam_i^{q_j}); ``den`` divides
    every one of them (the integer image, as in ``LambdaSeries``).
    """

    m: int
    order: int
    items: List[Tuple[Expo, Dict[Term, int]]] = field(default_factory=list)
    den: int = 1

    def coefficient(self, q: Expo) -> ExpPoly:
        q = tuple(q)
        for qq, p in self.items:
            if qq == q:
                return _as_poly(p, self.den)
        return ExpPoly.zero()

    def to_lambda_series(self) -> LambdaSeries:
        """sum_q p_q det(lam_i^{q_j}): the minors of the monomial matrix."""
        return _lambda_series(self, monomial_matrix(self.m, self.order), self.order, self.den)

    def diff_x(self) -> "SchurExpansion":
        items = [(q, terms_diff(p)) for q, p in self.items]
        return SchurExpansion(self.m, self.order, [(q, p) for q, p in items if p], self.den)


def laplace_minors(rows: Sequence[Sequence]) -> Callable[[Tuple[int, ...]], object]:
    """The exact determinant of the package: ``minor(cols)`` is
    det(rows[i][cols[j]]) for a tuple of len(rows) column indices, by
    Laplace expansion along the top row.  The minors of the lower rows are
    memoized, so column tuples sharing them share the work.  Entries are
    exact ring elements (ExpPoly, MPoly, RatFunc)."""
    return _LaplaceMinors(rows)


class _LaplaceMinors:
    # an object rather than a self-referencing closure: a recursive closure
    # is a reference cycle, which left every memo of minors to the cycle
    # collector instead of freeing it with the last reference
    __slots__ = ("rows", "memo")

    def __init__(self, rows: Sequence[Sequence]):
        self.rows = rows
        self.memo: Dict[Tuple[int, ...], object] = {}

    def __call__(self, cols: Tuple[int, ...]):
        rows = self.rows
        if len(cols) == 1:
            return rows[-1][cols[0]]
        got = self.memo.get(cols)
        if got is None:
            top = rows[len(rows) - len(cols)]
            for pos, c in enumerate(cols):
                term = top[c] * self(cols[:pos] + cols[pos + 1:])
                term = term if pos % 2 == 0 else -term
                got = term if got is None else got + term
            self.memo[cols] = got
        return got


def exact_det(mat: Sequence[Sequence]):
    """Determinant of a square matrix of exact ring elements."""
    return laplace_minors(mat)(tuple(range(len(mat))))


def det_series(rows: List[List[ExpPoly]], order: int) -> SchurExpansion:
    """det of m series f_i(lam) = sum_j c^{(i)}_j lam^j, expanded over
    strictly increasing tuples:  sum_q det(c^{(i)}_{q_j}) det(lam_i^{q_j}).

    ``rows[i]`` holds the coefficients c^{(i)}_0 .. c^{(i)}_order (at least).
    """
    m = len(rows)
    for r in rows:
        if len(r) < order + 1:
            raise ValueError("rows need at least order+1 coefficients")
    cols = [_clear([r[j] for r in rows]) for j in range(order + 1)]
    return _det_expansion([[nums[i] for nums, _ in cols] for i in range(m)],
                          [den for _, den in cols], order)


def _det_expansion(rows: List[List[Dict[Term, int]]], col_dens: Sequence[int],
                   order: int) -> SchurExpansion:
    """``det_series`` of the entries rows[i][j] / col_dens[j] (int term maps
    over one denominator per column): every minor is taken on the ints, and
    the minor on columns q is divided by prod_j col_dens[q_j], which the
    expansion's one ``den`` (their lcm) absorbs."""
    m = len(rows)
    minor = laplace_minors([[ExpPoly.wrap(p) for p in r[:order + 1]] for r in rows])
    found = []
    for q in itertools.combinations(range(order + 1), m):
        c = minor(q)
        if not c.is_zero():
            found.append((q, c.terms, math.prod(col_dens[j] for j in q)))
    den = math.lcm(*(d for _, _, d in found))
    items = [(q, p if d == den else {t: v * (den // d) for t, v in p.items()})
             for q, p, d in found]
    return SchurExpansion(m, order, items, den)


def cdf_det_expansion(n: int, m: int, order: int) -> SchurExpansion:
    """Schur expansion of det(H^{n-j}_{n-m+1}(x, lam_i)) (the CDF determinant
    without its front factor).  Every row's y-coefficient l is an int
    incomplete gamma over the same (N)_l l!, so the minors are products of
    the incomplete gammas themselves."""
    if not (n >= m >= 1):
        raise ValueError("requires n >= m >= 1")
    N = n - m + 1
    rows = [h_series_numerators(HIndex(n - j, 0, N), order) for j in range(1, m + 1)]
    return _det_expansion([nums for nums, _ in rows], rows[0][1], order)


def build_R_series(n: int, m: int, order: int) -> LambdaSeries:
    """Exact lam-series of R_{n,m} = d/dx det(H^{n-j}_{n-m+1}(x, lam_i))."""
    return cdf_det_expansion(n, m, order).diff_x().to_lambda_series()


def build_cdf_series(n: int, m: int, order: int) -> LambdaSeries:
    """Exact lam-series of the CDF determinant (no front factor, no d/dx)."""
    return cdf_det_expansion(n, m, order).to_lambda_series()


# ---------------------------------------------------------------------------
# the lam-expansion of a Schur expansion: sum_q p_q * minor(q)
# ---------------------------------------------------------------------------

def _lambda_series(expansion: SchurExpansion, matrix: Sequence[Sequence[MPoly]],
                   order: int, den: int, sign: int = 1) -> LambdaSeries:
    """sign * sum_q p_q * det(matrix[i][q_j]) / den, truncated at ``order`` in
    each lam.  The Laplace memo shares the lower-row minors across all q."""
    minor = laplace_minors(matrix)
    out: Image = {}
    for q, p in expansion.items:
        for e, s in minor(q).terms.items():
            if max(e) <= order:
                _add_into(out, e, p, sign * s)
    return LambdaSeries.image(expansion.m, order, out, den)


def monomial_matrix(m: int, top: int) -> List[List[MPoly]]:
    """lam_i^l for l = 0..top: its minor on columns q is the alternant
    det(lam_i^{q_j})."""
    return [[MPoly.var(m, i, l) for l in range(top + 1)] for i in range(m)]


def flagged_matrix(m: int, top: int) -> List[List[MPoly]]:
    """h_{l-i}(lam_1..lam_{i+1}) for l = 0..top (h_r the complete homogeneous
    polynomial, zero for r < 0): its minor on a strictly increasing q is the
    Schur polynomial det(lam_i^{q_j}) / prod_{i<j}(lam_j - lam_i) (the
    flagged Jacobi-Trudi form, Macdonald ch. I section 3).  The rows follow
    h_r(lam_1..lam_{i+1}) = h_r(lam_1..lam_i) + lam_{i+1} h_{r-1}(lam_1..lam_{i+1})."""
    zero = MPoly(m)
    h = [MPoly.const(m, 1)] + [zero] * top  # h_r of no variables
    rows = []
    for i in range(m):
        lam = MPoly.var(m, i)
        for r in range(1, top + 1):
            h[r] = h[r] + lam * h[r - 1]
        rows.append([zero] * i + h[:top + 1 - i])
    return rows


def schur_poly(q: Expo, m: int) -> Dict[Expo, int]:
    """det(lam_i^{q_j}) / det(lam_i^{(0..m-1)}) as an exact polynomial (the
    Schur polynomial attached to the strictly increasing tuple q), with int
    coefficients: one minor of the flagged matrix."""
    if len(q) != m or any(q[i] >= q[i + 1] for i in range(m - 1)):
        raise ValueError("q must be strictly increasing of length m")
    return laplace_minors(flagged_matrix(m, q[-1]))(tuple(q)).terms


def vandermonde_quotient(expansion: SchurExpansion, n: int, m: int, order: int) -> LambdaSeries:
    """(-1)^{m(m-1)/2} / (n-m)!^m times a determinant's Schur expansion divided
    by the Vandermonde prod_{i<j}(lam_i - lam_j), truncated at ``order`` in
    each lam: each monomial determinant's quotient is a Schur polynomial, a
    minor of the flagged matrix, so nothing is divided."""
    return _lambda_series(expansion, flagged_matrix(m, expansion.order), order,
                          expansion.den * math.factorial(n - m) ** m, (-1) ** (m * (m - 1) // 2))


def build_psi_series(n: int, m: int, order: int) -> LambdaSeries:
    """Series of psi_{n,m} * e^{+sum(lam)}  (symmetric part of the density).

    That is R_{n,m} / ( {(n-m)!}^m  prod_{i<j}(lam_i - lam_j) ), computed per
    Schur component (``vandermonde_quotient``).
    """
    return vandermonde_quotient(cdf_det_expansion(n, m, order + m).diff_x(), n, m, order)


def lemma7_check(matrix: List[List[ExpPoly]], scalars: Sequence) -> bool:
    """Exact check of the row-scaling determinant identity:

    sum_l det(matrix with row l scaled entrywise by c_j) ==
    (sum_j c_j) * det(matrix).
    """
    mm = len(matrix)
    cs = [Fraction(c) for c in scalars]
    if len(cs) != mm:
        raise ValueError("need one scalar per column")
    lhs = ExpPoly.zero()
    for ell in range(mm):
        scaled = [
            [matrix[i][j].scale(cs[j]) if i == ell else matrix[i][j] for j in range(mm)]
            for i in range(mm)
        ]
        lhs = lhs + exact_det(scaled)
    rhs = exact_det(matrix).scale(sum(cs, Fraction(0)))
    return lhs == rhs
