"""Exact arithmetic in the ring Q[x, 1/x, E] with E = exp(-x).

Every series coefficient of the distribution functions handled by this
package lives in this ring: lower incomplete gamma functions at integer
first argument reduce to it via

    gamma(1, x) = 1 - E,    gamma(a+1, x) = a*gamma(a, x) - x^a * E.

The ring is closed under d/dx, which is what makes exact annihilation
checks of differential operators possible: a residual is either the zero
element or it is not, with no tolerance involved.

Elements are immutable; all operations return new values.
"""

from __future__ import annotations

import math
from decimal import Decimal, getcontext
from fractions import Fraction
from typing import Dict, Tuple

Term = Tuple[int, int]  # (power of x, power of E); x-power may be negative

_FRAC_ONE = Fraction(1)


class ExpPoly:
    """A finite sum  sum_{i,j} c_{ij} * x^i * E^j  with exact rational c_{ij}.

    ``i`` is any integer, ``j`` is a nonnegative integer.  Zero coefficients
    are never stored, so structural equality of the term maps is semantic
    equality.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Term, Fraction] | None = None):
        clean: Dict[Term, Fraction] = {}
        if terms:
            for (i, j), c in terms.items():
                if j < 0:
                    raise ValueError("E-power must be nonnegative")
                c = Fraction(c)
                if c != 0:
                    clean[(int(i), int(j))] = c
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @staticmethod
    def wrap(terms: Dict[Term, Fraction]) -> "ExpPoly":
        """An element on ``terms`` as given, unchecked and uncopied: the map
        must hold only nonzero int or Fraction coefficients at integer
        (x, E) powers, E >= 0."""
        res = ExpPoly.__new__(ExpPoly)
        res.terms = terms
        return res

    @staticmethod
    def zero() -> "ExpPoly":
        return ExpPoly()

    @staticmethod
    def one() -> "ExpPoly":
        return ExpPoly({(0, 0): _FRAC_ONE})

    @staticmethod
    def const(c) -> "ExpPoly":
        return ExpPoly({(0, 0): Fraction(c)})

    @staticmethod
    def term(c, xpow: int = 0, epow: int = 0) -> "ExpPoly":
        """c * x^xpow * E^epow."""
        return ExpPoly({(xpow, epow): Fraction(c)})

    @staticmethod
    def x(power: int = 1) -> "ExpPoly":
        return ExpPoly({(power, 0): _FRAC_ONE})

    @staticmethod
    def e(power: int = 1) -> "ExpPoly":
        return ExpPoly({(0, power): _FRAC_ONE})

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        if not isinstance(other, ExpPoly):
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, 0) + c
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
        return ExpPoly.wrap(out)

    def __neg__(self) -> "ExpPoly":
        return ExpPoly.wrap({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "ExpPoly") -> "ExpPoly":
        return self + (-other)

    def __mul__(self, other) -> "ExpPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return ExpPoly.wrap(terms_mul(self.terms, other.terms))

    __rmul__ = __mul__

    def scale(self, c) -> "ExpPoly":
        c = Fraction(c)
        if c == 0:
            return ExpPoly.zero()
        return ExpPoly.wrap({k: v * c for k, v in self.terms.items()})

    def mul_xpow(self, i: int) -> "ExpPoly":
        """Multiply by x^i (i may be negative)."""
        return ExpPoly.wrap({(a + i, b): c for (a, b), c in self.terms.items()})

    def __pow__(self, k: int) -> "ExpPoly":
        if k < 0:
            raise ValueError("negative powers of general elements not supported")
        out = ExpPoly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- calculus ---------------------------------------------------------

    def diff(self) -> "ExpPoly":
        """Exact d/dx.  d(x^i E^j)/dx = i x^{i-1} E^j - j x^i E^j."""
        return ExpPoly.wrap(terms_diff(self.terms))

    def eval(self, x0: float) -> float:
        """Numeric value at x = x0 (see ``eval_terms``)."""
        return eval_terms(self.terms, x0)

    # -- structure --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (i, j) in sorted(self.terms, key=lambda t: (t[1], t[0])):
            c = self.terms[(i, j)]
            factors = [str(c)]
            if i != 0:
                factors.append(f"x^{i}")
            if j != 0:
                factors.append(f"E^{j}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"ExpPoly({self})"


# ---------------------------------------------------------------------------
# term maps {(x-power, E-power): coefficient}
#
# The functions below are the ring operations on bare term maps.  They work
# on Fraction coefficients (an ExpPoly) and on Python-int numerators alike:
# the exact series layer holds every coefficient of a series as an int term
# map over one shared denominator (the series' integer image), so its
# products and derivatives are int arithmetic with no gcd per operation.
# Zero coefficients are dropped as they arise, so a map is zero iff empty.
# ---------------------------------------------------------------------------

def terms_mul(a: Dict[Term, object], b: Dict[Term, object]) -> Dict[Term, object]:
    """The product of two term maps."""
    out: Dict[Term, object] = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            s = out.get(key, 0) + c1 * c2
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
    return out


def terms_diff(a: Dict[Term, object]) -> Dict[Term, object]:
    """d/dx of a term map: x^i E^j -> i x^{i-1} E^j - j x^i E^j."""
    out: Dict[Term, object] = {}
    for (i, j), c in a.items():
        if i != 0:
            key = (i - 1, j)
            s = out.get(key, 0) + i * c
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
        if j != 0:
            key = (i, j)
            s = out.get(key, 0) - j * c
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
    return out


DECIMAL_DIGITS = 40  # first precision of the cancellation re-sum
DECIMAL_CAP = 640  # precision past which a cancelling value is refused


def eval_terms(terms: Dict[Term, object], x0: float, den: int = 1) -> float:
    """Numeric value at x = x0 of the term map divided by ``den``.

    Requires x0 > 0 whenever a negative x-power is present (the ring
    element has a pole at 0 otherwise); at x0 = 0 the value is the exact
    sum of the x^0 coefficients.  Each coefficient enters the float sum as
    the correctly rounded float of c / den.  Closed forms like the
    incomplete gammas cancel violently when x is small relative to the
    degree, so when the float sum loses more than one bit to cancellation
    (the terms' absolute values sum to more than twice the value) it is
    summed again in Decimal from ``DECIMAL_DIGITS`` digits, the precision
    doubling until the rounding bound (largest term) * (term count) *
    10^(20 - prec) is below the value.  Past ``DECIMAL_CAP`` digits an
    exact zero gives 0.0 and anything else ``ArithmeticError``.
    """
    if x0 == 0:
        if any(i < 0 for (i, _) in terms):
            raise ZeroDivisionError("negative x-power evaluated at x = 0")
        return float(Fraction(sum(c for (i, _), c in terms.items() if i == 0)) / den)
    x0 = float(x0)
    total = 0.0
    mass = 0.0
    for (i, j), c in terms.items():
        term = (c / den if den != 1 else float(c)) * x0 ** i * math.exp(-j * x0)
        total += term
        mass += abs(term)
    if 2.0 * abs(total) < mass:
        return float(_certified_terms(terms, Fraction(x0), den))
    return total


def _certified_terms(terms: Dict[Term, object], x: Fraction, den: int) -> Decimal:
    """The value of the term map / ``den`` at x, in Decimal at a precision
    that certifies it (see ``eval_terms``)."""
    ctx = getcontext()
    old = ctx.prec
    try:
        ctx.prec = DECIMAL_DIGITS
        while ctx.prec <= DECIMAL_CAP:
            parts = list(_decimal_parts(terms, *decimal_exp(x), den))
            value = sum(parts)
            if max(map(abs, parts)) * len(parts) * Decimal(10) ** (20 - ctx.prec) < abs(value):
                return value
            ctx.prec *= 2
    finally:
        ctx.prec = old
    # e^{-x} is transcendental at a rational x > 0, so the value is exactly
    # zero iff the coefficient of every E-power vanishes there
    by_e: Dict[int, Fraction] = {}
    for (i, j), c in terms.items():
        by_e[j] = by_e.get(j, 0) + Fraction(c) * x ** i
    if not any(by_e.values()):
        return Decimal(0)
    raise ArithmeticError(f"the terms cancel beyond {DECIMAL_CAP} digits at x = {float(x)}")


def _decimal_parts(terms: Dict[Term, object], xd: Decimal, E: Decimal, den: int):
    for (i, j), c in terms.items():
        yield Decimal(c.numerator) / Decimal(c.denominator * den) * xd ** i * E ** j


def decimal_terms(terms: Dict[Term, object], xd: Decimal, E: Decimal, den: int = 1) -> Decimal:
    """Value of the term map divided by ``den`` in the current Decimal
    context at x = xd, given E = e^{-x}."""
    return sum(_decimal_parts(terms, xd, E, den), Decimal(0))


def decimal_exp(x: Fraction) -> Tuple[Decimal, Decimal]:
    """x and e^{-x}, each correctly rounded in the current Decimal context."""
    xd = Decimal(x.numerator) / Decimal(x.denominator)
    return xd, (-xd).exp()


def gamma_terms(a: int) -> Dict[Term, int]:
    """gamma(a, x) for integer a >= 1 as a term map with int coefficients.

    Seeded at gamma(1, x) = 1 - E and built with the one-step recurrence
    gamma(a+1, x) = a*gamma(a, x) - x^a E.
    """
    if not isinstance(a, int) or a < 1:
        raise ValueError("incomplete_gamma_exact requires an integer a >= 1")
    g = {(0, 0): 1, (0, 1): -1}  # 1 - E
    for k in range(1, a):
        g = {t: k * v for t, v in g.items()}
        g[(k, 1)] = -1
    return g


def incomplete_gamma_exact(a: int) -> ExpPoly:
    """gamma(a, x) as an exact ring element, for integer a >= 1."""
    return ExpPoly(gamma_terms(a))
