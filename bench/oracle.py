"""Independent reference values for the largest-root CDF and density.

This module never imports ``wishart_roots``.  It evaluates the determinantal
formula directly in mpmath at raised precision:

    CDF(x) = e^{-sum lam} / ((n-m)!^m  V(lam)) * det[ H^{n-j}_N(x, lam_i) ],

with N = n - m + 1, V the Vandermonde prod_{a<b} (lam_a - lam_b) over the
descending eigenvalues, and the kernel integral expanded term-wise,

    H^k_N(x, y) = sum_j y^j / ((N)_j j!) * (k+j)! * T_{k+j+1}(x),

where T_a(x) = e^{-x} sum_{i>=a} x^i / i! is the Poisson upper tail, built
by a downward recurrence of positive terms (no cancellation).  The density
is the cofactor sum of the x-derivative rows
x^k e^{-x} 0F1(N; x y), with 0F1 from mpmath's own ``hyp0f1``.  Exactly
repeated eigenvalues use derivative rows f, f'/1!, f''/2!, ... (the r-th
y-derivative of H^k_N is H^{k+r}_{N+r} / (N)_r), the Vandermonde over the
distinct values only, and the sign (-1)^{r(r-1)/2} per group of size r.
Near-confluent eigenvalues are evaluated as distinct: the working precision
absorbs the cancellation that the float routes have to avoid, and it is
raised until two successive precisions agree to ``GUARD`` digits.

Run as a program it reads a JSON list of queries ``[n, m, [lambdas...], x]``
and writes the reference ``[cdf, pdf]`` pairs, in the same order, as JSON.
"""

from __future__ import annotations

import json
import sys
from math import factorial

import mpmath as mp

DPS = 30  # starting precision in decimal digits, raised by x / 5
STEP = 20
GUARD = 17  # digits on which two precisions must agree
MAX_DPS = 400


def _lower_gammas(x, top: int) -> list:
    """gamma(a, x) = (a-1)! T_a(x) for a = 0..top (entry 0 unused), where
    T_a(x) = e^{-x} sum_{i>=a} x^i / i! is summed downward from ``top``."""
    p = [mp.exp(-x)]
    for a in range(1, top + 1):
        p.append(p[-1] * x / a)
    tail = mp.mpf(0)
    term = p[top]
    i = top
    eps = mp.eps / 1000  # below the working precision
    while True:
        i += 1
        term = term * x / i
        tail += term
        if i > x and term <= eps * tail:
            break
    t = [mp.mpf(0)] * (top + 1)
    t[top] = p[top] + tail
    for a in range(top - 1, 0, -1):
        t[a] = t[a + 1] + p[a]
    g = [mp.mpf(0)] * (top + 1)
    fact = mp.mpf(1)
    for a in range(1, top + 1):
        g[a] = t[a] * fact
        fact *= a
    return g


def _h_row(ks, N: int, y, gammas: list):
    """[H^k_N(x, y) for k in ks] by the shared term-wise series
    sum_j y^j / ((N)_j j!) gamma(k+j+1, x); None when ``gammas`` is short."""
    totals = [mp.mpf(0)] * len(ks)
    c = mp.mpf(1)
    eps = mp.eps / 1000  # below the working precision
    kmax = max(ks)
    j = 0
    while True:
        if kmax + j + 1 >= len(gammas):
            return None
        terms = [c * gammas[k + j + 1] for k in ks]
        totals = [t + u for t, u in zip(totals, terms)]
        if j > y and all(u <= eps * t for u, t in zip(terms, totals)):
            return totals
        j += 1
        c = c * y / ((N + j - 1) * j)


def _groups(lambdas):
    """Exact-equality groups of the descending eigenvalues: (value, size)."""
    out = []
    for v in sorted(lambdas, reverse=True):
        if out and out[-1][0] == v:
            out[-1][1] += 1
        else:
            out.append([v, 1])
    return out


def _rows(n: int, m: int, x, groups, gammas):
    """Determinant rows (CDF entries) and their x-derivatives."""
    N = n - m + 1
    ks = [n - j for j in range(1, m + 1)]
    rows, rows_dx = [], []
    for v, r in groups:
        y = mp.mpf(v)
        for d in range(r):
            scale = mp.rf(N, d) * factorial(d)
            row = _h_row([k + d for k in ks], N + d, y, gammas)
            if row is None:
                return None, None
            rows.append([h / scale for h in row])
            f = mp.exp(-x) * mp.hyp0f1(N + d, x * y) / scale
            rows_dx.append([x ** (k + d) * f for k in ks])
    return rows, rows_dx


def _front(n: int, m: int, lambdas, groups):
    vdm = mp.mpf(1)
    for a in range(len(groups)):
        for b in range(a + 1, len(groups)):
            vdm *= (mp.mpf(groups[a][0]) - mp.mpf(groups[b][0])) ** (groups[a][1] * groups[b][1])
    sign = 1
    for _, r in groups:
        if (r * (r - 1) // 2) % 2:
            sign = -sign
    return sign * mp.exp(-mp.fsum(mp.mpf(v) for v in lambdas)) / (factorial(n - m) ** m * vdm)


def _evaluate(n: int, m: int, lambdas, x):
    """(CDF, density) at the working precision."""
    groups = _groups(lambdas)
    ymax = max(lambdas)
    top = n + m + int(2 * mp.sqrt(x * ymax) + 2 * ymax) + 40
    while True:
        rows, rows_dx = _rows(n, m, x, groups, _lower_gammas(x, top))
        if rows is not None:
            break
        top *= 2
    front = _front(n, m, lambdas, groups)
    pdf = mp.fsum(mp.det(mp.matrix([rows_dx[i] if i == rho else rows[i] for i in range(m)]))
                  for rho in range(m))
    return front * mp.det(mp.matrix(rows)), front * pdf


def reference(n: int, m: int, lambdas, x: float):
    """Reference (CDF, density) of the largest root at x, as floats.

    The determinants cancel (by ~30 digits at x=150 for m=2), so the value
    is accepted only once raising the precision by STEP digits changes it
    by less than 10^-GUARD relative."""
    if x == 0:
        return 0.0, 0.0
    dps, prev = DPS + int(x / 5), None
    while dps <= MAX_DPS:
        with mp.workdps(dps):
            cur = _evaluate(n, m, lambdas, mp.mpf(x))
            tol = mp.mpf(10) ** -GUARD
            if prev is not None and all(abs(a - b) <= tol * abs(b) for a, b in zip(prev, cur)):
                return float(cur[0]), float(cur[1])
        prev, dps = cur, dps + STEP
    raise ArithmeticError(f"no reference at n={n} m={m} lambdas={lambdas} x={x}")


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: oracle.py QUERIES.json OUT.json", file=sys.stderr)
        return 1
    with open(argv[0]) as fh:
        queries = json.load(fh)
    values = [reference(n, m, lams, x) for n, m, lams, x in queries]
    with open(argv[1], "w") as fh:
        json.dump(values, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
