"""Exact multivariate Laurent polynomials and rational functions over Q.

Internal plumbing for the recurrence/reduction layer and the Pfaffian
coefficient tables.  An ``MPoly`` is a dict from integer exponent tuples
(negative exponents allowed) to ``Fraction``; a ``RatFunc`` is a
numerator/denominator pair normalized by rational content and monomial
shift.  Equality of rational functions is decided by cross-multiplication,
so no multivariate gcd is needed; the reduction chains here are short
enough that expression swell is a non-issue.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Sequence, Tuple

Expo = Tuple[int, ...]


class MPoly:
    """Laurent polynomial over Q in a fixed number of variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Dict[Expo, Fraction] | None = None):
        self.nvars = nvars
        clean: Dict[Expo, Fraction] = {}
        if terms:
            for e, c in terms.items():
                c = Fraction(c)
                if c != 0:
                    clean[tuple(e)] = c
        self.terms = clean

    @staticmethod
    def const(nvars: int, c) -> "MPoly":
        c = Fraction(c)
        if c == 0:
            return MPoly(nvars)
        return MPoly(nvars, {(0,) * nvars: c})

    @staticmethod
    def var(nvars: int, i: int, power: int = 1) -> "MPoly":
        e = [0] * nvars
        e[i] = power
        return MPoly(nvars, {tuple(e): Fraction(1)})

    def __add__(self, other: "MPoly") -> "MPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        r = MPoly.__new__(MPoly)
        r.nvars, r.terms = self.nvars, out
        return r

    def __neg__(self) -> "MPoly":
        r = MPoly.__new__(MPoly)
        r.nvars = self.nvars
        r.terms = {e: -c for e, c in self.terms.items()}
        return r

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other) -> "MPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        out: Dict[Expo, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        r = MPoly.__new__(MPoly)
        r.nvars, r.terms = self.nvars, out
        return r

    __rmul__ = __mul__

    def scale(self, c) -> "MPoly":
        c = Fraction(c)
        if c == 0:
            return MPoly(self.nvars)
        r = MPoly.__new__(MPoly)
        r.nvars = self.nvars
        r.terms = {e: v * c for e, v in self.terms.items()}
        return r

    def shift(self, expo: Expo) -> "MPoly":
        """Multiply by the monomial with exponent tuple ``expo``."""
        r = MPoly.__new__(MPoly)
        r.nvars = self.nvars
        r.terms = {tuple(a + b for a, b in zip(e, expo)): c for e, c in self.terms.items()}
        return r

    def diff(self, i: int) -> "MPoly":
        out: Dict[Expo, Fraction] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = list(e)
            ne[i] -= 1
            key = tuple(ne)
            s = out.get(key, 0) + c * e[i]
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
        r = MPoly.__new__(MPoly)
        r.nvars, r.terms = self.nvars, out
        return r

    def eval(self, point: Sequence[float]) -> float:
        total = 0.0
        for e, c in self.terms.items():
            v = float(c)
            for xi, ei in zip(point, e):
                v *= float(xi) ** ei
            total += v
        return total

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and (0,) * self.nvars in self.terms)

    def const_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if self.is_const():
            return self.terms[(0,) * self.nvars]
        raise ValueError("not a constant polynomial")

    def min_degree(self, i: int) -> int:
        if not self.terms:
            return 0
        return min(e[i] for e in self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            factors = [str(c)]
            for i, p in enumerate(e):
                if p != 0:
                    factors.append(f"v{i}^{p}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    __repr__ = __str__


class RatFunc:
    """num/den with MPoly parts; den is normalized to leading coefficient 1
    after cancelling any common monomial factor."""

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly | None = None):
        if den is None:
            den = MPoly.const(num.nvars, 1)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = MPoly.const(num.nvars, 1)
        else:
            # cancel the common monomial: shift both so den's minimal
            # exponents are zero, which keeps Laurent content tidy
            shift = tuple(-min(num.min_degree(i), den.min_degree(i)) for i in range(num.nvars))
            if any(shift):
                num = num.shift(shift)
                den = den.shift(shift)
        # scale so den's lexicographically-first term has coefficient 1
        lead = den.terms[min(den.terms)] if den.terms else Fraction(1)
        if lead != 1:
            num = num.scale(Fraction(1) / lead)
            den = den.scale(Fraction(1) / lead)
        self.num = num
        self.den = den

    @staticmethod
    def const(nvars: int, c) -> "RatFunc":
        return RatFunc(MPoly.const(nvars, c))

    @staticmethod
    def from_terms(num: Dict[Expo, Fraction], den: Dict[Expo, Fraction] | None = None) -> "RatFunc":
        """num/den from exponent-to-coefficient dicts; the exponent tuples'
        length is the variable count."""
        nvars = len(next(iter(num)))
        return RatFunc(MPoly(nvars, num), MPoly(nvars, den) if den else None)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return self.den.is_const()

    def as_poly(self) -> MPoly:
        if not self.is_poly():
            raise ValueError("rational function has a nontrivial denominator")
        return self.num.scale(Fraction(1) / self.den.const_value())

    def __add__(self, other: "RatFunc") -> "RatFunc":
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RatFunc":
        r = RatFunc.__new__(RatFunc)
        r.num, r.den = -self.num, self.den
        return r

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other) -> "RatFunc":
        if isinstance(other, (int, Fraction)):
            r = RatFunc.__new__(RatFunc)
            r.num, r.den = self.num.scale(other), self.den
            return r if other != 0 else RatFunc.const(self.num.nvars, 0)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero():
            raise ZeroDivisionError
        return RatFunc(self.num * other.den, self.den * other.num)

    def diff(self, i: int) -> "RatFunc":
        return RatFunc(
            self.num.diff(i) * self.den - self.num * self.den.diff(i),
            self.den * self.den,
        )

    def eval(self, point: Sequence[float]) -> float:
        d = self.den.eval(point)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at evaluation point")
        return self.num.eval(point) / d

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return (self.num * other.den) == (other.num * self.den)

    def __hash__(self):
        raise TypeError("RatFunc is unhashable (equality is by cross-multiplication)")

    def __str__(self) -> str:
        if self.den.is_const() and self.den.const_value() == 1:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    __repr__ = __str__
