import math

import pytest
from scipy.integrate import quad

from wishart_roots.h_integrals import HIndex
from wishart_roots.special_fn import hpg01


def _h_quad_value(idx: HIndex, x: float, y: float) -> float:
    """H^{k,l}_n(x, y) by adaptive quadrature of its defining integral
    (split at x/2 when l > 0): the oracle for the term-wise series."""
    k, ell, n = idx.k, idx.ell, idx.n

    def f(t: float) -> float:
        return math.exp(-t) * t ** k * (x - t) ** ell * hpg01(n, t * y)

    pieces = [(0.0, x)] if ell == 0 else [(0.0, x / 2.0), (x / 2.0, x)]
    total = err = 0.0
    for a, b in pieces:
        val, e = quad(f, a, b, epsabs=1e-13, epsrel=1e-12, limit=200)
        total += val
        err += e
    assert err <= 1e-9 * (1.0 + abs(total)), f"H quadrature error {err} at {idx}, x={x}, y={y}"
    return total


@pytest.fixture
def h_quad():
    return _h_quad_value
