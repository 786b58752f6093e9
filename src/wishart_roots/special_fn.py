"""Floating-point scalar special functions.

The building block of everything here is the confluent limit function

    hpg01(n, z) = sum_k z^k / ((n)_k k!)        (lower parameter n, no upper)

together with the modified Bessel cross-check I_n(z), the lower incomplete
gamma gamma(a, x) and its regularised form P(a, x), the array of P(a, x)
at a = 0..top and every abscissa of a grid that the quadrature route reads
(``PoissonTails``, one per grid), and the Marcum Q-function in the
normalization

    Q_n(x, y) = e^{-x}/(n-1)! * int_y^inf t^{n-1} e^{-t} hpg01(n, x t) dt,

which is the one the m = 1 largest-root CDF complements.  All in-scope
arguments are nonnegative, so the series have positive terms and no
cancellation; plain compensated summation reaches ~1e-13 relative error.
``incomplete_gamma`` scales by Gamma(a) and so overflows for a > 171;
``PoissonTails`` forms no Gamma(a) and starts its terms at their mode, so
it serves any a and x.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np


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
    """Lower incomplete gamma gamma(a, x) = int_0^x t^{a-1} e^{-t} dt,
    that is ``regularized_p(a, x)`` scaled by Gamma(a) (which overflows for
    a > 171; the H columns use ``PoissonTails`` instead)."""
    if a <= 0:
        raise ValueError("incomplete_gamma requires a > 0")
    if x < 0:
        raise ValueError("incomplete_gamma requires x >= 0")
    if x == 0.0:
        return 0.0
    return regularized_p(a, x) * math.gamma(a)


def regularized_p(a: float, x: float) -> float:
    """Regularized P(a, x) = gamma(a, x) / Gamma(a), for a > 0 and x > 0.

    Series for x < a + 1, 1 - Q by the continued fraction otherwise (the
    classic split), both run to 1e-16 relative, times the common factor
    e^{-x} x^a / Gamma(a), formed from logarithms (its rounding costs about
    1e-16 * a log(x) relative).
    """
    front = math.exp(-x + a * math.log(x) - math.lgamma(a))
    if x < a + 1.0:
        return front * _gamma_series(a, x)
    return 1.0 - front * _gamma_cf(a, x)


def _gamma_series(a: float, x: float) -> float:
    """P(a, x) over its front factor, by the ascending series."""
    ap = a
    delta = 1.0 / a
    total = delta
    for _ in range(MAX_TERMS):
        ap += 1.0
        delta *= x / ap
        total += delta
        if abs(delta) < abs(total) * 1e-16:
            return total
    raise ConvergenceError(f"incomplete gamma series stalled at a={a}, x={x}")


def _gamma_cf(a: float, x: float) -> float:
    """Q(a, x) = 1 - P(a, x) over its front factor, by the Lentz continued
    fraction."""
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
            return h
    raise ConvergenceError(f"incomplete gamma CF stalled at a={a}, x={x}")


def _poisson_term(k: int, x: float) -> float:
    """e^{-x} x^k / k! to a few ulps when k is near x, without forming e^{-x}:
    exp(-stirlerr(k) - bd0(k, x)) / sqrt(2 pi k) (Loader, "Fast and accurate
    computation of binomial probabilities", 2000), where the deviance
    bd0 = k log(k/x) + x - k is summed as a series near k = x and
    stirlerr(k) = log k! - log(sqrt(2 pi k) (k/e)^k) is Stirling's series."""
    if k == 0:
        return math.exp(-x)
    if k > 15:
        k2 = 1.0 / (k * k)
        stirlerr = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - k2 / 1188) * k2) * k2) * k2) / k
    else:
        stirlerr = math.lgamma(k + 1.0) - (k + 0.5) * math.log(k) + k - 0.5 * math.log(2 * math.pi)
    if abs(k - x) < 0.1 * (k + x):
        v = (k - x) / (k + x)
        bd0 = (k - x) * v
        term = 2.0 * k * v
        for j in itertools.count(1):
            term *= v * v
            nxt = bd0 + term / (2 * j + 1)
            if nxt == bd0:
                break
            bd0 = nxt
    else:
        bd0 = k * math.log(k / x) + x - k
    return math.exp(-stirlerr - bd0) / math.sqrt(2 * math.pi * k)


def _past_top(x: float, top: int) -> Tuple[int, float]:
    """How many Poisson terms past ``top`` the upper tail P(top, x) at x < top
    sums, and their sum with t_top, both relative to t_top: they run until a
    term is at most 1e-17 of the sum.  A smaller x needs fewer."""
    t = s = 1.0
    a = top
    while t > 1e-17 * s:
        a += 1
        t *= x / a
        s += t
    return a - top, s


def _tail_row(x: float, top: int) -> List[float]:
    """P(a, x) at a = 0..top for one abscissa, as a list (see ``PoissonTails``)."""
    mode = min(int(x), top)
    peak = _poisson_term(mode, x)
    up = list(itertools.accumulate([x / a for a in range(mode + 1, top + 1)], operator.mul,
                                   initial=peak))  # terms mode..top
    down = list(itertools.accumulate([a / x for a in range(mode, 0, -1)], operator.mul,
                                     initial=peak))  # terms mode..0
    if x >= top:  # mode == top
        return [1.0 - v for v in itertools.accumulate(down[:0:-1], initial=0.0)]
    tails = list(itertools.accumulate(up[-2::-1] + down[1:], initial=up[-1] * _past_top(x, top)[1]))
    tails.reverse()
    return tails


def _tail_grid(x: np.ndarray, top: int) -> np.ndarray:
    """``_tail_row`` of every abscissa of ``x`` as one array (x, a): the same
    products, in the same order, along the rows; an upper tail sums the terms
    past ``top`` that the largest abscissa below it needs."""
    mode = np.minimum(x, top).astype(int)
    below = x < top
    width = top + 1 + (_past_top(float(x[below].max()), top)[0] if below.any() else 0)
    a, k, rows = np.arange(width), mode[:, None], np.arange(x.size)
    peak = [_poisson_term(j, v) for j, v in zip(mode.tolist(), x.tolist())]
    with np.errstate(divide="ignore", invalid="ignore"):  # x / 0 and 1 / x at x = 0, masked
        up = np.where(a > k, x[:, None] / a, 1.0)
        down = np.where(a < k, (a + 1) / x[:, None], 1.0)
    up[rows, mode] = down[rows, mode] = peak
    terms = np.where(a < k, down[:, ::-1].cumprod(axis=1)[:, ::-1], up.cumprod(axis=1))
    out = np.empty((x.size, top + 1))
    out[below] = terms[below, ::-1].cumsum(axis=1)[:, ::-1][:, :top + 1]
    out[~below, 0] = 1.0
    out[~below, 1:] = 1.0 - terms[~below, :top].cumsum(axis=1)
    return out


# from this many abscissas up the array program is cheaper than building the
# rows one at a time in Python: its fixed cost is about 35 us, a row's 7-25 us
GRID_ROWS = 3


class PoissonTails:
    """P(a, x) = e^{-x} sum_{i>=a} x^i / i!, the regularized lower incomplete
    gamma at integer a, for a = 0..top at every abscissa of a grid ``x``, in
    one array ``values`` (x, a).

    The Poisson terms e^{-x} x^a / a! are run out by their ratios from the
    mode, which ``_poisson_term`` gives directly (e^{-x} alone underflows for
    x > 745, the term at the mode does not), down to 0 and up to ``top``.
    Where x < top they run on past ``top`` until a term is at most 1e-17 of
    their sum (``_past_top``), and P(a, x) is the sum of the terms from a up;
    where x >= top, P(a, x) is 1 minus the terms below a, at least about 1/2
    for a <= top, so nothing cancels.  No Gamma(a) and no series or continued
    fraction per abscissa.  A grid of ``GRID_ROWS`` or more abscissas is one
    array program; a smaller one, such as a single abscissa, is built row by
    row in Python, with the same products.  ``reach(a)`` rebuilds ``values``,
    doubling ``top`` until it holds column a.
    """

    __slots__ = ("x", "values")

    def __init__(self, x: Sequence[float], top: int):
        self.x = np.array(x, dtype=float, ndmin=1)
        if not all(0.0 <= v < math.inf for v in self.x.tolist()):
            raise ValueError("PoissonTails requires finite x >= 0")
        self.values = self._build(max(int(top), 1))

    def reach(self, a: int) -> None:
        top = self.values.shape[1] - 1
        if a > top:
            while top < a:
                top *= 2
            self.values = self._build(top)

    def _build(self, top: int) -> np.ndarray:
        if self.x.size >= GRID_ROWS:
            return _tail_grid(self.x, top)
        return np.array([_tail_row(v, top) for v in self.x.tolist()])


def marcum_q(n: int, x: float, y: float) -> float:
    """Q_n(x, y) in the paper-facing normalization (see module docstring).

    Term-wise integration gives

        Q_n(x, y) = sum_{k>=0} pois_k(x) * CP(n+k-1, y)

    with pois_k(x) = e^{-x} x^k / k! and CP(j, y) = e^{-y} sum_{i<=j} y^i/i!.
    Both factor sequences are computed by stable upward recurrences.  Since
    CP(j, y) / CP(j-1, y) <= 1 + y/j, the ratio of consecutive terms after
    term k is at most r = x/(k+1) (1 + y/(n+k)), which falls with k; once
    r < 1 the tail is at most term_k r/(1-r), and the sum stops when that is
    below 1e-17 of it, so a value far out in the upper tail keeps its digits.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("marcum_q requires integer n >= 1")
    if x < 0 or y < 0:
        raise ValueError("marcum_q requires x >= 0 and y >= 0")

    pois = math.exp(-x)  # pois_0
    # CP(n-1, y) and the next increment e^{-y} y^{n}/n!
    cp_term = math.exp(-y)
    cp = cp_term
    for i in range(1, n):
        cp_term *= y / i
        cp += cp_term
    inc = cp_term * y / n

    total = term = pois * cp
    for k in range(MAX_TERMS):
        r = x / (k + 1) * (1 + y / (n + k))
        if r < 1 and term * r <= (1 - r) * 1e-17 * total:
            return min(total, 1.0)
        pois *= x / (k + 1)
        cp += inc
        inc *= y / (n + k + 1)
        term = pois * cp
        total += term
    raise ConvergenceError(f"marcum_q({n}, {x}, {y}) did not converge")
