"""Exact truncated power series in lam_1..lam_m over the ExpPoly ring.

The largest-root CDF determinant expands, row by row, into y-series of the
H-integrals; a determinant of series is itself a series whose coefficients
are determinants of the row coefficients over strictly increasing exponent
tuples (the bialternant expansion).  Everything here is exact: coefficients
are ExpPoly values, the antisymmetric part divides exactly by the
Vandermonde, and the quotients are Schur polynomials.

Series are built and held as an integer image: every coefficient is a term
map with Python-int numerators, and one integer denominator serves the
whole series.  The determinant's entries are cleared to ints once, per
column, so minors, d/dx, the signed expansion and the Schur quotients are
int arithmetic; rationals appear only when a caller reads coefficients.

The central products are ``build_R_series`` (the x-derivative of the CDF
determinant, the function all the differential operators annihilate) and
``build_psi_series`` (the density with the Vandermonde divided out).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from decimal import Decimal, getcontext
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

from .exp_poly import ExpPoly, Term, decimal_exp, decimal_terms, eval_terms, terms_diff, terms_mul
from .h_integrals import HIndex, h_series_numerators

Expo = Tuple[int, ...]
Image = Dict[Expo, Dict[Term, int]]  # series numerators over one shared denominator


class SeriesDivisionError(ArithmeticError):
    """An antisymmetric component failed exact Vandermonde divisibility."""


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

    def eval(self, x0: float, lambdas: Sequence[float]) -> float:
        if len(lambdas) != self.m:
            raise ValueError("lambda count mismatch")
        total = 0.0
        for q, p in self.num.items():
            v = eval_terms(p, x0, self.den)
            for lam, e in zip(lambdas, q):
                v *= lam ** e
            total += v
        return total

    def eval_decimal(self, x0: Fraction, lambdas: Sequence[Fraction], prec: int = 50) -> Decimal:
        """High-precision evaluation at rational arguments.

        The closed forms of the coefficients subtract quantities agreeing to
        many digits when x is small (incomplete-gamma pieces), so the float
        ``eval`` loses accuracy there; this route computes the polynomial
        parts exactly and e^{-x} by a Decimal series.
        """
        if len(lambdas) != self.m:
            raise ValueError("lambda count mismatch")
        ctx_prec = getcontext().prec
        getcontext().prec = max(prec + 10, ctx_prec)
        try:
            xd, E = decimal_exp(Fraction(x0), prec + 5)
            lam_d = [Decimal(Fraction(l).numerator) / Decimal(Fraction(l).denominator) for l in lambdas]
            total = Decimal(0)
            for q, p in self.num.items():
                v = decimal_terms(p, xd, E, self.den)
                for l, e in zip(lam_d, q):
                    v *= l ** e
                total += v
            return total
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
        """Expand every monomial determinant det(lam_i^{q_j}) with signs.

        The permutations of distinct strictly increasing tuples are distinct,
        so every exponent receives exactly one signed coefficient."""
        out: Image = {}
        for q, p in self.items:
            neg = {t: -v for t, v in p.items()}
            for perm in itertools.permutations(range(self.m)):
                out[tuple(q[i] for i in perm)] = p if _perm_sign(perm) > 0 else neg
        return LambdaSeries.image(self.m, self.order, out, self.den)

    def diff_x(self) -> "SchurExpansion":
        items = [(q, terms_diff(p)) for q, p in self.items]
        return SchurExpansion(self.m, self.order, [(q, p) for q, p in items if p], self.den)


def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def laplace_minors(rows: Sequence[Sequence]) -> Callable[[Tuple[int, ...]], object]:
    """The exact determinant of the package: ``minor(cols)`` is
    det(rows[i][cols[j]]) for a tuple of len(rows) column indices, by
    Laplace expansion along the top row.  The minors of the lower rows are
    memoized, so column tuples sharing them share the work.  Entries are
    exact ring elements (ExpPoly, RatFunc)."""
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
# Schur polynomials via exact alternant / Vandermonde division
# ---------------------------------------------------------------------------

def _poly_divide_linear(
    poly: Dict[Expo, int], i: int, j: int
) -> Tuple[Dict[Expo, int], Dict[Expo, int]]:
    """Exact division by (lam_i - lam_j): returns (quotient, remainder).

    Synthetic division treating the polynomial as univariate in u = lam_i
    with v = lam_j as the root value; the remainder is the substitution
    u -> v and vanishes exactly when the input is divisible.  The divisor is
    monic, so int (or Fraction) coefficients stay int (or Fraction).
    """
    grouped: Dict[Tuple, Dict[int, int]] = {}
    for e, c in poly.items():
        key = e[:i] + (0,) + e[i + 1:]
        grouped.setdefault(key, {})[e[i]] = c

    def _emit(acc: Dict[Expo, int], key, upow: int, vpow: int, c: int):
        e = list(key)
        e[i] = upow
        e[j] += vpow
        ee = tuple(e)
        s = acc.get(ee, 0) + c
        if s == 0:
            acc.pop(ee, None)
        else:
            acc[ee] = s

    quot: Dict[Expo, int] = {}
    rem: Dict[Expo, int] = {}
    for key, uni in grouped.items():
        deg = max(uni)
        carry: Dict[int, int] = {}  # v-power -> coeff; equals sum_{t>d} a_t v^{t-d-1}
        for d in range(deg, 0, -1):
            new_carry = {p + 1: c for p, c in carry.items()}
            a_d = uni.get(d)
            if a_d:
                new_carry[0] = new_carry.get(0, 0) + a_d
            for p, c in new_carry.items():
                if c:
                    _emit(quot, key, d - 1, p, c)
            carry = new_carry
        final = {p + 1: c for p, c in carry.items()}
        a0 = uni.get(0)
        if a0:
            final[0] = final.get(0, 0) + a0
        for p, c in final.items():
            if c:
                _emit(rem, key, 0, p, c)
    return quot, rem


def schur_poly(q: Expo, m: int) -> Dict[Expo, int]:
    """det(lam_i^{q_j}) / det(lam_i^{(0..m-1)}) as an exact polynomial (the
    Schur polynomial attached to the strictly increasing tuple q), with int
    coefficients."""
    if len(q) != m or any(q[i] >= q[i + 1] for i in range(m - 1)):
        raise ValueError("q must be strictly increasing of length m")
    alt: Dict[Expo, int] = {}
    for perm in itertools.permutations(range(m)):
        sign = _perm_sign(perm)
        expo = tuple(q[perm[i]] for i in range(m))
        alt[expo] = alt.get(expo, 0) + sign
    alt = {e: c for e, c in alt.items() if c != 0}
    # det(lam_i^{(0..m-1)}) = prod_{i<j}(lam_j - lam_i); divide by the
    # (lam_i - lam_j) factors and flip the sign once per pair
    poly = alt
    flips = 0
    for i in range(m):
        for j in range(i + 1, m):
            poly, rem = _poly_divide_linear(poly, i, j)
            if rem:
                raise SeriesDivisionError(
                    f"alternant for q={q} not divisible by (lam_{i} - lam_{j})"
                )
            flips += 1
    if flips % 2 == 1:
        poly = {e: -c for e, c in poly.items()}
    return poly


def vandermonde_quotient(expansion: SchurExpansion, n: int, m: int, order: int) -> LambdaSeries:
    """(-1)^{m(m-1)/2} / (n-m)!^m times a determinant's Schur expansion divided
    by the Vandermonde prod_{i<j}(lam_i - lam_j), truncated at ``order`` in
    each lam: each monomial determinant divides exactly, the quotient being a
    Schur polynomial."""
    sign = (-1) ** (m * (m - 1) // 2)
    out: Image = {}
    for q, p in expansion.items:
        for e, s in schur_poly(q, m).items():
            if max(e) <= order:
                _add_into(out, e, p, sign * s)
    return LambdaSeries.image(m, order, out, expansion.den * math.factorial(n - m) ** m)


def build_psi_series(
    n: int, m: int, order: int, fold_exp: bool = False
) -> LambdaSeries:
    """Series of psi_{n,m} * e^{+sum(lam)}  (symmetric part of the density).

    That is R_{n,m} / ( {(n-m)!}^m  prod_{i<j}(lam_i - lam_j) ), computed per
    Schur component (``vandermonde_quotient``).  With ``fold_exp`` the
    truncated series of e^{-sum(lam)} is multiplied back in, giving the
    density series itself.
    """
    res = vandermonde_quotient(cdf_det_expansion(n, m, order + m).diff_x(), n, m, order)
    if fold_exp:
        res = res * _exp_minus_sum_series(m, order)
    return res


def _exp_minus_sum_series(m: int, order: int) -> LambdaSeries:
    coeffs: Dict[Expo, ExpPoly] = {}
    for q in itertools.product(range(order + 1), repeat=m):
        c = Fraction(1)
        for e in q:
            c *= Fraction((-1) ** e, math.factorial(e))
        coeffs[q] = ExpPoly.const(c)
    return LambdaSeries(m, order, coeffs)


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
