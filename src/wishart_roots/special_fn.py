"""Floating-point scalar special functions.

The building block of everything here is the confluent limit function

    hpg01(n, z) = sum_k z^k / ((n)_k k!)        (lower parameter n, no upper)

together with the modified Bessel cross-check I_n(z), the lower incomplete
gamma gamma(a, x), and the Marcum Q-function in the normalization

    Q_n(x, y) = e^{-x}/(n-1)! * int_y^inf t^{n-1} e^{-t} hpg01(n, x t) dt,

which is the one the m = 1 largest-root CDF complements.  All in-scope
arguments are nonnegative, so the series have positive terms and no
cancellation; plain compensated summation reaches ~1e-13 relative error
for z <= 500.  Larger arguments would need scaled asymptotics, which are
deliberately out of scope.
"""

from __future__ import annotations

import math
from functools import lru_cache


class ConvergenceError(ArithmeticError):
    """A series or iteration failed to reach its stopping rule."""


MAX_TERMS = 10_000


def pochhammer(a: float, k: int) -> float:
    """Rising factorial (a)_k = a (a+1) ... (a+k-1); empty product is 1."""
    if k < 0:
        raise ValueError("pochhammer requires k >= 0")
    out = 1.0
    for i in range(k):
        out *= a + i
    return out


def hpg01(n: float, z: float) -> float:
    """hpg01(n, z) = sum_k z^k / ((n)_k k!) by direct series.

    Stops when term/partial_sum < 1e-17.  Requires n > 0 (the distribution
    paths only ever use positive integers).
    """
    if n <= 0:
        raise ValueError("hpg01 requires n > 0")
    if z == 0.0:
        return 1.0
    term = 1.0
    total = 1.0
    comp = 0.0  # Kahan compensation
    for k in range(1, MAX_TERMS):
        term *= z / ((n + k - 1) * k)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(term) < 1e-17 * abs(total):
            return total
    raise ConvergenceError(f"hpg01({n}, {z}) did not converge in {MAX_TERMS} terms")


def bessel_i_check(n: int, z: float) -> float:
    """I_n(z) through the hpg01 series: I_n(z) = (z/2)^n / n! * hpg01(n+1, z^2/4).

    Consistency oracle only; not meant for large-z use.
    """
    if z < 0:
        raise ValueError("bessel_i_check requires z >= 0")
    if z == 0.0:
        return 1.0 if n == 0 else 0.0
    return (z / 2.0) ** n / math.factorial(n) * hpg01(n + 1, z * z / 4.0)


# bounded: every Monte Carlo comparison asks for fresh x values, which
# would otherwise pile up for the life of the process
@lru_cache(maxsize=8192)
def incomplete_gamma(a: float, x: float) -> float:
    """Lower incomplete gamma gamma(a, x) = int_0^x t^{a-1} e^{-t} dt.

    Series for x < a + 1, continued fraction for the complement otherwise
    (the classic split), both run to 1e-15 relative on the regularized
    value before scaling by Gamma(a).
    """
    if a <= 0:
        raise ValueError("incomplete_gamma requires a > 0")
    if x < 0:
        raise ValueError("incomplete_gamma requires x >= 0")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _gamma_series(a, x) * math.gamma(a)
    return (1.0 - _gamma_cf(a, x)) * math.gamma(a)


def _gamma_series(a: float, x: float) -> float:
    """Regularized P(a, x) by the ascending series."""
    ap = a
    delta = 1.0 / a
    total = delta
    for _ in range(MAX_TERMS):
        ap += 1.0
        delta *= x / ap
        total += delta
        if abs(delta) < abs(total) * 1e-16:
            return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise ConvergenceError(f"incomplete gamma series stalled at a={a}, x={x}")


def _gamma_cf(a: float, x: float) -> float:
    """Regularized Q(a, x) = 1 - P(a, x) by the Lentz continued fraction."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0 else 1.0 / tiny
    h = d
    for i in range(1, MAX_TERMS):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h
    raise ConvergenceError(f"incomplete gamma CF stalled at a={a}, x={x}")


def marcum_q(n: int, x: float, y: float) -> float:
    """Q_n(x, y) in the paper-facing normalization (see module docstring).

    Term-wise integration gives

        Q_n(x, y) = sum_{k>=0} pois_k(x) * CP(n+k-1, y)

    with pois_k(x) = e^{-x} x^k / k! and CP(j, y) = e^{-y} sum_{i<=j} y^i/i!.
    Both factor sequences are computed by stable upward recurrences; since
    CP <= 1, the truncation error after cumulative Poisson mass 1 - eps is
    below eps, so we stop once 1 - sum_k pois_k < 1e-14.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("marcum_q requires integer n >= 1")
    if x < 0 or y < 0:
        raise ValueError("marcum_q requires x >= 0 and y >= 0")

    pois = math.exp(-x)  # pois_0
    pois_cum = pois
    # CP(n-1, y) and the next increment e^{-y} y^{n}/n!
    cp_term = math.exp(-y)
    cp = cp_term
    for i in range(1, n):
        cp_term *= y / i
        cp += cp_term
    next_inc = cp_term * y / n if n >= 1 else cp_term

    total = pois * cp
    k = 0
    inc = next_inc
    while 1.0 - pois_cum >= 1e-14:
        k += 1
        if k > MAX_TERMS:
            raise ConvergenceError(f"marcum_q({n}, {x}, {y}) did not converge")
        pois *= x / k
        pois_cum += pois
        cp += inc
        inc *= y / (n + k)
        total += pois * cp
    return min(total, 1.0)
