"""Exact truncated power series in lam_1..lam_m over the ExpPoly ring.

The largest-root CDF determinant expands, row by row, into y-series of the
H-integrals; a determinant of series is itself a series whose coefficients
are determinants of the row coefficients over strictly increasing exponent
tuples (the bialternant expansion).  Everything here is exact: coefficients
are ExpPoly values, the antisymmetric part divides exactly by the
Vandermonde, and the quotients are Schur polynomials.

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

from .exp_poly import ExpPoly, decimal_exp
from .h_integrals import HIndex, h_series

Expo = Tuple[int, ...]


class SeriesDivisionError(ArithmeticError):
    """An antisymmetric component failed exact Vandermonde divisibility."""


@dataclass
class LambdaSeries:
    """Truncated multivariate series: coeffs maps exponent tuples to ExpPoly.

    ``order`` is the per-variable storage cap; ``valid`` tracks, per
    variable, how far the stored coefficients are trustworthy: applying
    d/dlam_i shrinks component i by one, so after an operator of derivative
    order d_i in lam_i the coefficients are certified only on the box
    q_i <= valid_i.
    """

    m: int
    order: int
    coeffs: Dict[Expo, ExpPoly] = field(default_factory=dict)
    valid: Tuple[int, ...] | None = None

    def __post_init__(self):
        if self.valid is None:
            self.valid = (self.order,) * self.m
        else:
            self.valid = tuple(self.valid)
        self.coeffs = {tuple(q): c for q, c in self.coeffs.items() if not c.is_zero()}

    def get(self, q: Expo) -> ExpPoly:
        return self.coeffs.get(tuple(q), ExpPoly.zero())

    def _store(self, out: Dict[Expo, ExpPoly], q: Expo, val: ExpPoly):
        if any(e > self.order for e in q):
            return
        s = out.get(q)
        s = val if s is None else s + val
        if s.is_zero():
            out.pop(q, None)
        else:
            out[q] = s

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "LambdaSeries") -> "LambdaSeries":
        if self.m != other.m:
            raise ValueError("variable-count mismatch")
        order = min(self.order, other.order)
        out: Dict[Expo, ExpPoly] = {}
        res = LambdaSeries(self.m, order, {},
                           tuple(min(a, b) for a, b in zip(self.valid, other.valid)))
        for q, c in itertools.chain(self.coeffs.items(), other.coeffs.items()):
            res._store(out, q, c)
        res.coeffs = out
        return res

    def __sub__(self, other: "LambdaSeries") -> "LambdaSeries":
        return self + other.scale(Fraction(-1))

    def __mul__(self, other: "LambdaSeries") -> "LambdaSeries":
        if self.m != other.m:
            raise ValueError("variable-count mismatch")
        order = min(self.order, other.order)
        res = LambdaSeries(self.m, order, {},
                           tuple(min(a, b) for a, b in zip(self.valid, other.valid)))
        out: Dict[Expo, ExpPoly] = {}
        for q1, c1 in self.coeffs.items():
            for q2, c2 in other.coeffs.items():
                q = tuple(a + b for a, b in zip(q1, q2))
                if any(e > order for e in q):
                    continue
                res._store(out, q, c1 * c2)
        res.coeffs = out
        return res

    def scale(self, c) -> "LambdaSeries":
        """Multiply by a rational constant."""
        c = Fraction(c)
        out = {q: v.scale(c) for q, v in self.coeffs.items()}
        return LambdaSeries(self.m, self.order, out, self.valid)

    def diff_lambda(self, i: int) -> "LambdaSeries":
        out: Dict[Expo, ExpPoly] = {}
        for q, c in self.coeffs.items():
            if q[i] == 0:
                continue
            nq = list(q)
            nq[i] -= 1
            out[tuple(nq)] = c.scale(q[i])
        new_valid = list(self.valid)
        new_valid[i] -= 1
        return LambdaSeries(self.m, self.order, out, tuple(new_valid))

    def diff_x(self) -> "LambdaSeries":
        out = {q: c.diff() for q, c in self.coeffs.items()}
        out = {q: c for q, c in out.items() if not c.is_zero()}
        return LambdaSeries(self.m, self.order, out, self.valid)

    def swap(self, i: int, j: int) -> "LambdaSeries":
        out = {}
        for q, c in self.coeffs.items():
            nq = list(q)
            nq[i], nq[j] = nq[j], nq[i]
            out[tuple(nq)] = c
        nv = list(self.valid)
        nv[i], nv[j] = nv[j], nv[i]
        return LambdaSeries(self.m, self.order, out, tuple(nv))

    # -- inspection ---------------------------------------------------------

    def is_zero_on_valid_box(self) -> bool:
        return all(
            c.is_zero()
            for q, c in self.coeffs.items()
            if all(e <= v for e, v in zip(q, self.valid))
        )

    def eval(self, x0: float, lambdas: Sequence[float]) -> float:
        if len(lambdas) != self.m:
            raise ValueError("lambda count mismatch")
        total = 0.0
        for q, c in self.coeffs.items():
            v = c.eval(x0)
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
            for q, c in self.coeffs.items():
                v = c.decimal_value(xd, E)
                for l, e in zip(lam_d, q):
                    v *= l ** e
                total += v
            return total
        finally:
            getcontext().prec = ctx_prec

    def dump(self) -> str:
        """Plain-text lines 'q1 q2 ... qm : <ExpPoly>' sorted by exponent."""
        lines = []
        for q in sorted(self.coeffs):
            lines.append(" ".join(str(e) for e in q) + " : " + str(self.coeffs[q]))
        return "\n".join(lines)


@dataclass
class SchurExpansion:
    """Antisymmetric series organized by strictly increasing exponent tuples.

    Each item pairs a tuple q_1 < ... < q_m with the ExpPoly determinant
    coefficient multiplying det(lam_i^{q_j}).
    """

    m: int
    order: int
    items: List[Tuple[Expo, ExpPoly]] = field(default_factory=list)

    def coefficient(self, q: Expo) -> ExpPoly:
        q = tuple(q)
        for qq, c in self.items:
            if qq == q:
                return c
        return ExpPoly.zero()

    def to_lambda_series(self) -> LambdaSeries:
        """Expand every monomial determinant det(lam_i^{q_j}) with signs."""
        out: Dict[Expo, ExpPoly] = {}
        for q, c in self.items:
            for perm in itertools.permutations(range(self.m)):
                sign = _perm_sign(perm)
                expo = tuple(q[perm[i]] for i in range(self.m))
                cc = c.scale(sign)
                s = out.get(expo)
                s = cc if s is None else s + cc
                if s.is_zero():
                    out.pop(expo, None)
                else:
                    out[expo] = s
        return LambdaSeries(self.m, self.order, out)

    def diff_x(self) -> "SchurExpansion":
        items = [(q, c.diff()) for q, c in self.items]
        return SchurExpansion(self.m, self.order, [(q, c) for q, c in items if not c.is_zero()])


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
    m = len(rows)
    memo: Dict[Tuple[int, ...], object] = {}

    def minor(cols: Tuple[int, ...]):
        if len(cols) == 1:
            return rows[m - 1][cols[0]]
        got = memo.get(cols)
        if got is None:
            top = rows[m - len(cols)]
            for pos, c in enumerate(cols):
                term = top[c] * minor(cols[:pos] + cols[pos + 1:])
                term = term if pos % 2 == 0 else -term
                got = term if got is None else got + term
            memo[cols] = got
        return got

    return minor


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
    minor = laplace_minors(rows)
    items = []
    for q in itertools.combinations(range(order + 1), m):
        c = minor(q)
        if not c.is_zero():
            items.append((q, c))
    return SchurExpansion(m, order, items)


def cdf_det_expansion(n: int, m: int, order: int) -> SchurExpansion:
    """Schur expansion of det(H^{n-j}_{n-m+1}(x, lam_i)) (the CDF determinant
    without its front factor)."""
    if not (n >= m >= 1):
        raise ValueError("requires n >= m >= 1")
    N = n - m + 1
    rows = [h_series(HIndex(n - j, 0, N), order) for j in range(1, m + 1)]
    return det_series(rows, order)


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
    poly: Dict[Expo, Fraction], i: int, j: int
) -> Tuple[Dict[Expo, Fraction], Dict[Expo, Fraction]]:
    """Exact division by (lam_i - lam_j): returns (quotient, remainder).

    Synthetic division treating the polynomial as univariate in u = lam_i
    with v = lam_j as the root value; the remainder is the substitution
    u -> v and vanishes exactly when the input is divisible.
    """
    grouped: Dict[Tuple, Dict[int, Fraction]] = {}
    for e, c in poly.items():
        key = e[:i] + (0,) + e[i + 1:]
        grouped.setdefault(key, {})[e[i]] = c

    def _emit(acc: Dict[Expo, Fraction], key, upow: int, vpow: int, c: Fraction):
        e = list(key)
        e[i] = upow
        e[j] += vpow
        ee = tuple(e)
        s = acc.get(ee, Fraction(0)) + c
        if s == 0:
            acc.pop(ee, None)
        else:
            acc[ee] = s

    quot: Dict[Expo, Fraction] = {}
    rem: Dict[Expo, Fraction] = {}
    for key, uni in grouped.items():
        deg = max(uni)
        carry: Dict[int, Fraction] = {}  # v-power -> coeff; equals sum_{t>d} a_t v^{t-d-1}
        for d in range(deg, 0, -1):
            new_carry = {p + 1: c for p, c in carry.items()}
            a_d = uni.get(d)
            if a_d:
                new_carry[0] = new_carry.get(0, Fraction(0)) + a_d
            for p, c in new_carry.items():
                if c:
                    _emit(quot, key, d - 1, p, c)
            carry = new_carry
        final = {p + 1: c for p, c in carry.items()}
        a0 = uni.get(0)
        if a0:
            final[0] = final.get(0, Fraction(0)) + a0
        for p, c in final.items():
            if c:
                _emit(rem, key, 0, p, c)
    return quot, rem


def schur_poly(q: Expo, m: int) -> Dict[Expo, Fraction]:
    """det(lam_i^{q_j}) / det(lam_i^{(0..m-1)}) as an exact polynomial (the
    Schur polynomial attached to the strictly increasing tuple q)."""
    if len(q) != m or any(q[i] >= q[i + 1] for i in range(m - 1)):
        raise ValueError("q must be strictly increasing of length m")
    alt: Dict[Expo, Fraction] = {}
    for perm in itertools.permutations(range(m)):
        sign = _perm_sign(perm)
        expo = tuple(q[perm[i]] for i in range(m))
        alt[expo] = alt.get(expo, Fraction(0)) + sign
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
    fact = Fraction((-1) ** (m * (m - 1) // 2), math.factorial(n - m) ** m)
    out: Dict[Expo, ExpPoly] = {}
    res = LambdaSeries(m, order, {})
    for q, c in expansion.items:
        cc = c.scale(fact)
        for e, s in schur_poly(q, m).items():
            if all(p <= order for p in e):
                res._store(out, e, cc.scale(s))
    res.coeffs = out
    return res


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
