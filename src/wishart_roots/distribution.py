"""Numeric CDF/PDF of the largest root, and the determinantal closed forms.

Routes
------
quadrature : the determinantal CDF formula with H-integral entries, each a
             power series in lam whose coefficients are regularised
             incomplete gammas read from one ``PoissonTails`` array per
             grid, and its x-derivative as one bordered determinant for
             the density.
series     : evaluation of the exact truncated lam-series (fast and robust
             for small noncentrality; symmetric, so confluent lam's are
             free).
conjecture : the determinantal closed form built from hpg01 and the
             G-functions (levels 2..4), with the explicit front factor.
hgm        : Taylor steps of the Pfaffian system of the quadrature rows (in
             wishart_roots.hgm; dispatched from here).

Every determinant over the eigenvalues is the determinant of divided
differences f_j[lam_1..lam_i] (``divided_rows``), summed as power series with
nonnegative weights, so nothing is divided by the Vandermonde and repeated,
clustered and zero eigenvalues need no special case and no threshold.  A
route takes a float x or a sequence of abscissas, one array program: weights
built once from lam, the rows of every abscissa from one matrix product, and
batched determinants and condition numbers.  The quadrature, conjecture and
hgm routes share the last step (``_log_dets``, ``_fronted``): the sign and
log|det| of the rows, an ill-conditioned abscissa summed again in decimals,
and one front factor applied in logarithms, so a determinant past float
range is no refusal; rows that leave float range (max lam >~ 710) raise
``NumericFailure``.  The dispatch clamps every CDF to [0, 1].
"""

from __future__ import annotations

import decimal
import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from decimal import Decimal
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .h_integrals import HIndex, h_eval
from .series_engine import LambdaSeries, build_psi_series, cdf_det_expansion, vandermonde_quotient
from .special_fn import MAX_TERMS, PoissonTails, hpg01, incomplete_gamma, pochhammer


class NumericFailure(ArithmeticError):
    """A numeric route could not produce a trustworthy value."""


@dataclass(frozen=True)
class WishartParams:
    """Degrees of freedom n, dimension m, noncentrality eigenvalues."""

    n: int
    m: int
    lambdas: Tuple[float, ...]

    def __init__(self, n: int, m: int, lambdas: Sequence[float]):
        if not (isinstance(n, int) and isinstance(m, int) and n >= m >= 1):
            raise ValueError("requires integers n >= m >= 1")
        lambdas = tuple(float(v) for v in lambdas)
        if len(lambdas) != m:
            raise ValueError("need exactly m noncentrality eigenvalues")
        if not all(math.isfinite(v) and v >= 0 for v in lambdas):
            raise ValueError("noncentrality eigenvalues must be finite and >= 0")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "lambdas", tuple(sorted(lambdas, reverse=True)))


@dataclass
class EvalConfig:
    method: str = "quadrature"
    series_order: int = 20
    experimental_m4: bool = False


def _det(mat: List[List[Decimal]]) -> Decimal:
    """LU determinant with partial pivoting of a small matrix of Decimals."""
    n = len(mat)
    a = [row[:] for row in mat]
    det = 1
    for c in range(n):
        piv = max(range(c, n), key=lambda r: abs(a[r][c]))
        if a[piv][c] == 0:
            return Decimal(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            for cc in range(c, n):
                a[r][cc] -= f * a[c][cc]
    return det


def _gridded(route: Callable) -> Callable:
    """A route written for a list of abscissas, called with one float x
    (giving a float) or a sequence of them (giving a list, in their order)."""

    @functools.wraps(route)
    def call(p, x, *cfg):
        return route(p, [x], *cfg)[0] if isinstance(x, numbers.Real) else route(p, list(x), *cfg)
    return call


def _on_positive(xs: List[float], at_zero: float, values: Callable[[np.ndarray], list]) -> List[float]:
    """``values`` of the nonzero abscissas as one array, ``at_zero`` at x = 0;
    an abscissa below 0 raises ``ValueError``."""
    if any(x < 0 for x in xs):
        raise ValueError("x must be >= 0")
    rest = np.array([x for x in xs if x != 0.0], dtype=float)
    if not rest.size:
        return [at_zero] * len(xs)
    with np.errstate(all="ignore"):  # blocks of 512 bound the arrays; the values judge overflow
        out = iter([v for i in range(0, rest.size, 512) for v in values(rest[i:i + 512])])
    return [at_zero if x == 0.0 else next(out) for x in xs]


# ---------------------------------------------------------------------------
# divided-difference determinants
# ---------------------------------------------------------------------------

def _scale(lambdas: Sequence) -> float:
    """s = max(lam, 1): the series in y are summed in powers of y/s."""
    return max(max(lambdas), 1)


def _terms(params: WishartParams, x: float) -> int:
    """Terms of the lam-series at abscissas up to x: their coefficients peak
    near l = q = sqrt(x s) (at l = s < q when s < x) and are negligible some
    8 sqrt(q) beyond it."""
    q = math.sqrt(x * _scale(params.lambdas))
    return math.ceil(q + 8.0 * math.sqrt(q) + 12.0)


def _h_weights(lambdas: Sequence, terms: int, num: Callable = float) -> np.ndarray:
    """w[l, i] = h_{l-i}(mu_1..mu_{i+1}) / s^i (zero for l < i), l < ``terms``,
    mu = lam / s ascending, h the complete homogeneous polynomials, in the
    number type ``num``, one eigenvalue at a time:
    h_r(mu_1..mu_i) = h_r(mu_1..mu_{i-1}) + mu_i h_{r-1}(mu_1..mu_i)."""
    s = num(_scale(lambdas))
    w = np.zeros((terms, len(lambdas)), float if num is float else object)
    h = [num(1)] + [num(0)] * (terms - 1)
    for i, lam in enumerate(sorted(lambdas)):
        mu = num(lam) / s
        h = list(itertools.accumulate(h, lambda prev, v: v + mu * prev))
        w[i:, i] = h[:terms - i]
    return w / np.array([s ** i for i in range(len(lambdas))], w.dtype)


def divided_rows(coefs: Callable[[int], np.ndarray], lambdas: Sequence, terms: int,
                 num: Callable = float) -> np.ndarray:
    """Divided differences f_c[lam_1..lam_i] (row i = 1..m, lam ascending) of
    power series f_c(y) = sum_l c_l y^l, an array (..., m, columns), from
    ``coefs(L)``, the c_l s^l (l < L) as an array (..., columns, L) of the
    number type ``num``: row i is sum_l c_l h_{l-i+1}(lam_1..lam_i), one
    product with ``_h_weights``.  det(rows) is symmetric in lam; for
    descending lam det(f_c(lam_i)) = (-1)^{m(m-1)/2} prod_{a<b} (lam_a - lam_b)
    det(rows).  Ascending, row i is dominated by lam_i, so fast-growing series
    lose no digits in the determinant.  The sum runs over ``terms`` terms,
    doubled until the last two in every row are at most 1e-17 of its sum of
    |terms|; past ``MAX_TERMS`` it raises ``NumericFailure``."""
    tiny = num(1e-17)
    while terms <= MAX_TERMS:
        c = coefs(terms)
        w = _h_weights(lambdas, terms, num)
        a = abs(c)
        if not (a[..., -2:, None] * w[-2:] > tiny * (a @ w)[..., None, :]).any():
            return (c @ w).swapaxes(-1, -2)
        terms *= 2
    raise NumericFailure("divided-difference series did not converge")


def _border(n: int, x, m: int, r: int = 0) -> np.ndarray:
    """-x^{n-j} / r! (j = 1..m) and 0 on the last axis (x a float or an array):
    bordering rows that end in the divided differences of e^{-x} hpg01(N; x y)
    with this row gives the x-derivative of the determinant of the
    H^{n-j}_N / r! rows."""
    out = np.zeros(np.shape(x) + (m + 1,))
    out[..., :m] = -np.power.outer(x, np.arange(n - 1, n - m - 1, -1.0)) / math.factorial(r)
    return out


# a determinant over float rows whose Skeel condition number exceeds COND_LIMIT
# is taken again from rows summed in DECIMAL_DIGITS-digit decimals: each float
# row carries a relative error of about 1e-16, and the determinant multiplies
# it by the condition number (up to ~3e8 at m = 4, lam ~ 200, x < 60)
COND_LIMIT = 1e6
DECIMAL_DIGITS = 40


_decimals = np.frompyfunc(Decimal, 1, 1)  # each float exactly, into an object array


def _log_dets(params: WishartParams, x: np.ndarray, coefs_at: Callable, border: np.ndarray | None = None,
              rows: np.ndarray | None = None) -> Tuple[np.ndarray, np.ndarray]:
    """The sign and log|det| of the divided-difference rows at each abscissa
    of ``x`` under the ``border`` rows (x, k - m, k), if any: the one
    determinant of the quadrature, conjecture and hgm routes.  The float
    ``rows`` (x, m, k) are summed from ``coefs_at(x)`` (as for
    ``divided_rows``) unless the caller has them; rows that are not finite
    raise ``NumericFailure``.  An abscissa whose Skeel condition number
    sum_ij |a_ij (A^-1)_ji| exceeds ``COND_LIMIT`` (or is singular) is summed
    again, alone, in decimals from ``coefs_at`` of that abscissa."""
    if rows is None:
        rows = divided_rows(coefs_at(x), params.lambdas, _terms(params, x.max()))
    if border is not None:
        rows = np.concatenate([rows, border], axis=-2)
    if not np.isfinite(rows).all():
        raise NumericFailure("the divided-difference rows left float range")
    sign, logdet = np.linalg.slogdet(rows)
    singular = sign == 0.0
    if singular.any():  # the identity in their place, condition inf
        rows = np.where(singular[:, None, None], np.eye(rows.shape[-1]), rows)
    cond = np.abs(rows * np.linalg.inv(rows).swapaxes(-1, -2)).sum(axis=(-1, -2))
    cond[singular] = np.inf
    for i in [i for i, c in enumerate(cond.tolist()) if not c <= COND_LIMIT]:  # NaN too
        with decimal.localcontext() as ctx:
            ctx.prec = DECIMAL_DIGITS
            ctx.traps[decimal.InvalidOperation] = False  # coefficients past float range give NaN, refused later
            coefs = coefs_at(x[i:i + 1])
            a = divided_rows(lambda L: _decimals(coefs(L)), params.lambdas, _terms(params, x[i]), Decimal)
            if border is not None:
                a = np.concatenate([a, _decimals(border[i:i + 1])], axis=-2)
            d = _det(a[0].tolist())
            sign[i], logdet[i] = (d > 0) - (d < 0), float(abs(d).ln()) if d else -math.inf
    return sign, logdet


def _fronted(params: WishartParams, dets: Tuple[np.ndarray, np.ndarray], const=0.0) -> List[float]:
    """(-1)^{m(m-1)/2} e^{-sum lam + const} det per abscissa from ``_log_dets``:
    the one front factor of the quadrature, conjecture and hgm routes, in
    logarithms, so neither a determinant past float range nor an e^{-sum lam}
    that underflows loses a representable value.  ``const`` (a number or one
    per abscissa) is the route's: the e^{-x} a density column leaves out, the
    1/(n-m)!^m of rows that do not carry it, the conjecture's power of x."""
    sign, logdet = dets
    m = params.m
    values = (sign * (-1) ** (m * (m - 1) // 2) * np.exp(logdet + (const - sum(params.lambdas)))).tolist()
    if not all(map(math.isfinite, values)):
        raise NumericFailure("the value of the divided-difference determinant left float range")
    return values


def _tails(params: WishartParams, xs: np.ndarray) -> PoissonTails:
    """The Poisson tails of the grid for all H columns, one array with room
    for the terms of the grid (a longer read rebuilds it)."""
    return PoissonTails(xs, params.n + _terms(params, max(xs)))


def _h_coefs(params: WishartParams, tails: PoissonTails, terms: int, r: int = 0):
    """Coefficients of H^{n-j}_N(x, y) / r! (j = 1..m, N = n-m+1, r <= n-m) at
    the abscissas of ``tails``, times s^l, an array (x, j, l): in
    H^k_N(x, y) = sum_l gamma(k+l+1, x) y^l / ((N)_l l!), gamma(k+l+1, x) is
    (k+l)! P(k+l+1, x), so coefficient l is P(k+l+1, x) (k!/r!) (k+1)_l s^l / ((N)_l l!)."""
    n, m = params.n, params.m
    tails.reach(n + terms - 1)
    k = n - np.arange(1, m + 1)[:, None]
    l = np.arange(1, terms)
    ratios = np.empty((m, terms))
    ratios[:, 0] = [math.factorial(j) // math.factorial(r) for j in k[:, 0]]
    ratios[:, 1:] = (k + l) / ((n - m + l) * l) * float(_scale(params.lambdas))
    return tails.values[:, k + 1 + np.arange(terms)] * ratios.cumprod(axis=1)


def _hpg01_coefs(nu: int, x: np.ndarray, s: float, terms: int, scale) -> np.ndarray:
    """Coefficients of c hpg01(nu; x y) = c sum_l (x y)^l / ((nu)_l l!), times
    s^l, an array (x, l), with c = ``scale`` (a number or one per x)."""
    l = np.arange(1, terms)
    ratios = np.empty((len(x), terms))
    ratios[:, 0] = scale
    ratios[:, 1:] = x[:, None] * s / ((nu - 1 + l) * l)
    return ratios.cumprod(axis=1)


# ---------------------------------------------------------------------------
# quadrature route (the determinantal formula itself)
# ---------------------------------------------------------------------------

# the density's hpg01 column carries e^{-min(x, PDF_SHIFT)}, small enough to
# keep e^{2 sqrt(x lam)} in range and large enough not to underflow; the rest
# of e^{-x} joins the front factor
PDF_SHIFT = 700.0


def _density_at_zero(params: WishartParams) -> float:
    return math.exp(-sum(params.lambdas)) if params.n == params.m == 1 else 0.0


@_gridded
def cdf_quadrature(params: WishartParams, xs: List[float], cfg: EvalConfig) -> List[float]:
    """(-1)^{m(m-1)/2} e^{-sum lam} / (n-m)!^m det(H^{n-j}_N[lam_1..lam_i]),
    the entries summed as power series in lam (``divided_rows``) over the
    whole grid at once.  Rows past float range (max lam >~ 710) raise
    ``NumericFailure``."""
    coefs_at = lambda x: functools.partial(_h_coefs, params, _tails(params, x), r=params.n - params.m)
    return _on_positive(xs, 0.0, lambda x: _fronted(params, _log_dets(params, x, coefs_at)))


@_gridded
def pdf_quadrature(params: WishartParams, xs: List[float], cfg: EvalConfig) -> List[float]:
    """The x-derivative of ``cdf_quadrature``'s determinant, one bordered
    determinant over the same rows plus the divided differences of
    e^{-x} hpg01(N; x lam) (``_border``), whose e^{-x} past ``PDF_SHIFT``
    joins the front factor."""
    n, m = params.n, params.m
    s = float(_scale(params.lambdas))

    def coefs_at(x):
        h = functools.partial(_h_coefs, params, _tails(params, x), r=n - m)
        g = functools.partial(_hpg01_coefs, n - m + 1, x, s, scale=np.exp(-np.minimum(x, PDF_SHIFT)))
        return lambda L: np.concatenate([h(L), g(L)[:, None]], axis=1)

    def values(x):
        dets = _log_dets(params, x, coefs_at, _border(n, x, m, n - m)[:, None])
        return _fronted(params, dets, np.minimum(x, PDF_SHIFT) - x)

    return _on_positive(xs, _density_at_zero(params), values)


# ---------------------------------------------------------------------------
# series route
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=32)
def _psi_series_cached(n: int, m: int, order: int) -> LambdaSeries:
    return build_psi_series(n, m, order)


@functools.lru_cache(maxsize=32)
def _cdf_sym_series_cached(n: int, m: int, order: int) -> LambdaSeries:
    """CDF determinant / Vandermonde as a symmetric series (no front factor)."""
    return vandermonde_quotient(cdf_det_expansion(n, m, order + m), n, m, order)


@_gridded
def cdf_series(params: WishartParams, xs: List[float], cfg: EvalConfig) -> List[float]:
    if any(x < 0 for x in xs):
        raise ValueError("x must be >= 0")
    s = _cdf_sym_series_cached(params.n, params.m, cfg.series_order)
    front = math.exp(-sum(params.lambdas))
    values = iter(s.eval([x for x in xs if x != 0.0], list(params.lambdas)))
    return [next(values) * front if x != 0.0 else 0.0 for x in xs]


@_gridded
def pdf_series(params: WishartParams, xs: List[float], cfg: EvalConfig) -> List[float]:
    if any(x < 0 for x in xs):
        raise ValueError("x must be >= 0")
    s = _psi_series_cached(params.n, params.m, cfg.series_order)
    front = math.exp(-sum(params.lambdas))
    return [v * front for v in s.eval(xs, list(params.lambdas))]


# ---------------------------------------------------------------------------
# jets in y (value plus derivatives), for the G / Y closed forms
# ---------------------------------------------------------------------------

class Jet:
    """Truncated derivative sequence [f, f', ..., f^{(K)}] at a point."""

    __slots__ = ("d",)

    def __init__(self, d: Sequence[float]):
        self.d = list(d)

    @property
    def order(self) -> int:
        return len(self.d) - 1

    def __add__(self, o: "Jet") -> "Jet":
        k = min(len(self.d), len(o.d))
        return Jet([self.d[i] + o.d[i] for i in range(k)])

    def __sub__(self, o: "Jet") -> "Jet":
        k = min(len(self.d), len(o.d))
        return Jet([self.d[i] - o.d[i] for i in range(k)])

    def __mul__(self, o):
        if isinstance(o, (int, float)):
            return Jet([c * o for c in self.d])
        k = min(len(self.d), len(o.d))
        out = []
        for r in range(k):
            out.append(sum(math.comb(r, i) * self.d[i] * o.d[r - i] for i in range(r + 1)))
        return Jet(out)

    __rmul__ = __mul__

    def value(self) -> float:
        return self.d[0]


def jet_const(c: float, K: int) -> Jet:
    return Jet([c] + [0.0] * K)


def jet_y(y: float, K: int) -> Jet:
    d = [y] + [0.0] * K
    if K >= 1:
        d[1] = 1.0
    return Jet(d)


def jet_0f1(nu: float, x: float, y: float, K: int) -> Jet:
    """hpg01(nu; x y) as a jet in y: d-th derivative x^d hpg01(nu+d; xy)/(nu)_d."""
    return Jet([x ** d * hpg01(nu + d, x * y) / pochhammer(nu, d) for d in range(K + 1)])


def tail_weighted(n: int, x: float, y: float) -> float:
    """W(x, y) = e^y * int_y^inf e^{-t} hpg01(n+1; x t) dt, by the positive
    double series sum_k x^k e_k(y) / ((n+1)_k) with e_k(y) = sum_{i<=k} y^i/i!.
    No cancellation anywhere."""
    if x < 0 or y < 0:
        raise ValueError("tail_weighted requires x >= 0, y >= 0")
    ek = 1.0
    yterm = 1.0
    coef = 1.0
    total = ek
    ey = math.exp(y)
    for k in range(1, 100000):
        yterm *= y / k
        ek += yterm
        coef *= x / (n + k)
        term = coef * ek
        total += term
        if coef * ey < 1e-17 * total and k > x:
            return total
    raise ArithmeticError("tail_weighted did not converge")


def jet_tail_weighted(n: int, x: float, y: float, K: int) -> Jet:
    """Jet of W: W' = W - hpg01(n+1; x y)."""
    b = jet_0f1(n + 1, x, y, K)
    d = [tail_weighted(n, x, y)]
    for i in range(K):
        d.append(d[-1] - b.d[i])
    return Jet(d)


def jet_h0_weighted(N: int, x: float, y: float, K: int) -> Jet:
    """Jet of V = e^y H^0_{N+1}(y, x) (note the swapped arguments):
    V' = V + hpg01(N+1; x y)."""
    b = jet_0f1(N + 1, x, y, K)
    d = [math.exp(y) * h_eval(HIndex(0, 0, N + 1), y, x)]
    for i in range(K):
        d.append(d[-1] + b.d[i])
    return Jet(d)


def eq35_value(n: int, x: float) -> float:
    """int_0^inf e^{-t} hpg01(n+1; x t) dt = n x^{-n} e^x gamma(n, x)."""
    return n * math.exp(x - n * math.log(x)) * incomplete_gamma(n, x)


def _l_polys(N: int, x: float, y: Jet) -> Tuple[Jet, Jet, Jet]:
    K = y.order
    one = jet_const(1.0, K)
    L2 = y + jet_const(N - 1 - x, K)
    L3 = L2 * L2 + jet_const(2 * x - N + 1, K)
    L4 = L2 * L2 * L2 + (2 * x - N + 1) * 3.0 * (L2 - one) + jet_const(-N + 1.0, K)
    return L2, L3, L4


def _closed_form_jet(N: int, M: int, x: float, y: float, K: int, tail: Jet) -> Jet:
    """Common combination of the level-M closed form over the atoms
    A = hpg01(N; xy), B = hpg01(N+1; xy) and a tail jet (V or -W)."""
    A = jet_0f1(N, x, y, K)
    B = jet_0f1(N + 1, x, y, K)
    yj = jet_y(y, K)
    L2, L3, L4 = _l_polys(N, x, yj)
    one = jet_const(1.0, K)
    if M == 2:
        return N * A + yj * B + L2 * tail
    if M == 3:
        return N * (L2 - 2.0 * one) * A + yj * (L2 - one) * B + L3 * tail
    if M == 4:
        pa = (L2 - 2.0 * one) * (L2 - 2.0 * one) + 2.0 * yj + jet_const(2 * x + 2.0, K)
        pb = (L2 - one) * (L2 - one) + yj + jet_const(3 * x - N + 2.0, K)
        return N * pa * A + yj * pb * B + L4 * tail
    raise ValueError("closed forms exist for levels 2, 3, 4")


def y_solution_jet(N: int, M: int, x: float, y: float, K: int = 0) -> Jet:
    """Y_{N,M}(x, y), a solution of Q_{N,N-M}[y] Y = 0, with derivatives."""
    if M not in (2, 3, 4):
        raise ValueError("y_solution supports M in {2, 3, 4}")
    if N < 1:
        raise ValueError("N must be a positive integer")
    V = jet_h0_weighted(N, x, y, K)
    return _closed_form_jet(N, M, x, y, K, V)


def y_solution(N: int, M: int, x: float, y: float) -> float:
    return y_solution_jet(N, M, x, y, 0).value()


def g_jet(n: int, m_level: int, x: float, y: float, K: int = 0) -> Jet:
    """G_{n, m_level}(x, y) with derivatives.

    Level 2 is the defining tail-integral form; higher levels follow the
    raising recursion  G_{n,m+1} = (-y d2 - (n-m+1) d + x + m) G_{n,m}.
    In closed form this is (-1)^{m_level} times the Y_{n,M} combination
    with the V-atom (e^y int_0^y) replaced by -W (e^y int_y^inf), so level
    3 carries a global minus sign relative to the level-3 coefficient
    tables quoted elsewhere; this is the convention under which the
    determinantal density formula holds for every m (see tests).
    """
    if m_level not in (2, 3, 4):
        raise ValueError("g_function supports levels 2, 3, 4")
    if n < m_level:
        raise ValueError("requires n >= m_level")
    if x < 0 or y < 0:
        raise ValueError("requires x >= 0 and y >= 0")
    W = jet_tail_weighted(n, x, y, K)
    jet = _closed_form_jet(n, m_level, x, y, K, jet_const(-1.0, K) * W)
    if m_level % 2 == 1:
        jet = jet * -1.0
    return jet


def g_function(n: int, m_level: int, x: float, y: float) -> float:
    return g_jet(n, m_level, x, y, 0).value()


def q_residual(N: int, M: int, x: float, y: float, f: Jet) -> float:
    """Residual of Q_{N,M}[y] applied to a jet built at (x, y); needs order >= 3."""
    if f.order < 3:
        raise ValueError("jet order >= 3 required")
    return y * f.d[3] + (M - y + 2) * f.d[2] - (x + N + 1) * f.d[1] + x * f.d[0]


def p_residual(M: int, x: float, y: float, f: Jet) -> float:
    """Residual of P_M[y] applied to a jet built at (x, y); needs order >= 2."""
    if f.order < 2:
        raise ValueError("jet order >= 2 required")
    return y * f.d[2] + (M + 1) * f.d[1] - x * f.d[0]


# ---------------------------------------------------------------------------
# conjecture route
# ---------------------------------------------------------------------------

def g_series(n: int, m_level: int, x: np.ndarray, s: float, terms: int) -> np.ndarray:
    """Coefficients g_l s^l (l < ``terms``) of e^{-x} G_{n, m_level}(x, y) =
    sum_l g_l y^l at the abscissas x, an array (x, l).

    Level 2 is e^{-x} (n A + y B + (x-n+1-y) W) with A = hpg01(n; xy),
    B = hpg01(n+1; xy) and W = sum_i y^i/i! sum_{k>=i} x^k/((n+1)_k).  Level
    l+1 is g_jet's raising g'_j = (x+l) g_j - (j+1)(j+n-l+1) g_{j+1}.
    """
    if n < m_level:
        raise ValueError("requires n >= m_level")
    g = _g2_series(n, x, s, terms + m_level - 2)
    for level in range(2, m_level):
        j = np.arange(g.shape[1] - 1)
        g = (x[:, None] + level) * g[:, :-1] - (j + 1) * (j + n - level + 1) * g[:, 1:] / s
    return g


def _g2_series(n: int, x: np.ndarray, s: float, terms: int) -> np.ndarray:
    # e^{-x} x^k / (n+1)_k from e^{-x} on (no power overflows), summed downward
    # into the tails of W from some nine widths past the peak of the terms
    top = terms + int(x.max() + 9.0 * math.sqrt(x.max())) + 30
    u = np.empty((len(x), top))
    u[:, 0] = np.exp(-x)
    u[:, 1:] = x[:, None] / (n + np.arange(1, top))
    tails = u.cumprod(axis=1)[:, ::-1].cumsum(axis=1)[:, ::-1]
    f = np.ones(terms)  # s^i / i!
    f[1:] = s / np.arange(1, terms)
    w = f.cumprod() * tails[:, :terms]
    g = n * _hpg01_coefs(n, x, s, terms, u[:, 0]) + (x[:, None] - n + 1) * w
    g[:, 1:] += s * (_hpg01_coefs(n + 1, x, s, terms, u[:, 0])[:, :-1] - w[:, :-1])
    return g


def _log_conjecture_power(n: int, m: int, x):
    """log(C(x) e^{mx}) = log((n-m+1) x^{mn - m(m-1)/2 - 1} / prod_k (n-k+1)^k)
    at x > 0 (a float or an array), C(x) the conjecture's front factor."""
    denom = math.prod((n - k + 1) ** k for k in range(1, m + 1))
    return math.log((n - m + 1) / denom) + (m * n - m * (m - 1) // 2 - 1) * np.log(x)


@_gridded
def pdf_conjecture(params: WishartParams, xs: List[float], cfg: EvalConfig) -> List[float]:
    """psi_{n,m} = C(x) e^{-sum lam} / ((n-m)!^m V(lam))
    * det(hpg01(n-m+1; x lam_i); G_{n-m+j, j}(x, lam_i)), proved for m = 2, 3
    and conjectured beyond.  Each row carries one e^{-x} of C(x), which keeps
    the entries in float range for x up to a few hundred; past ``PDF_SHIFT``
    that e^{-x} loses digits to underflow, so x > PDF_SHIFT raises
    ``NumericFailure``, as do rows past float range."""
    n, m = params.n, params.m
    if m > 4:
        raise ValueError("conjecture route implemented for m <= 4")
    if m == 4 and not cfg.experimental_m4:
        raise ValueError("m = 4 conjecture route is experimental; enable it explicitly")
    s = float(_scale(params.lambdas))

    def coefs_at(x):
        return lambda L: np.stack([_hpg01_coefs(n - m + 1, x, s, L, np.exp(-x))]
                                  + [g_series(n - m + j, j, x, s, L) for j in range(2, m + 1)], axis=1)

    def values(x):
        if x.max() > PDF_SHIFT:
            raise NumericFailure(f"the conjecture route serves x <= {PDF_SHIFT:g}")
        const = _log_conjecture_power(n, m, x) - m * math.log(math.factorial(n - m))
        return _fronted(params, _log_dets(params, x, coefs_at), const)

    return _on_positive(xs, _density_at_zero(params), values)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def _route_value(kind: str, params: WishartParams, x, cfg: EvalConfig):
    """The value of the route ``cfg.method`` for a "cdf" or "pdf" at a finite x,
    or the list of values at a sequence of them (``ValueError`` otherwise); a
    value that is not a finite number raises ``NumericFailure``, and every
    CDF value is clamped to [0, 1] here."""
    one = isinstance(x, numbers.Real)
    xs = [x] if one else list(x)
    if not all(map(math.isfinite, xs)):
        raise ValueError(f"x must be finite, got {x}")
    routes = {"quadrature": (cdf_quadrature, pdf_quadrature), "series": (cdf_series, pdf_series),
              "conjecture": (None, pdf_conjecture)}
    if cfg.method == "hgm":
        from . import hgm  # hgm imports this module

        routes["hgm"] = (hgm.cdf_hgm, hgm.pdf_hgm)
    if cfg.method not in routes:
        raise ValueError(f"unknown method {cfg.method!r}")
    fn = routes[cfg.method][kind == "pdf"]
    if fn is None:
        raise ValueError("the conjectured closed form gives the density, not the CDF")
    values = fn(params, xs, cfg)
    bad = [v for v in values if not math.isfinite(v)]
    if bad:
        raise NumericFailure(f"the {cfg.method} route returned {bad[0]}")
    if kind == "cdf":
        values = [min(max(v, 0.0), 1.0) for v in values]
    return values[0] if one else values


def cdf(params: WishartParams, x, cfg: EvalConfig | None = None):
    """The CDF at a float x, or the list of its values at a sequence of x."""
    return _route_value("cdf", params, x, cfg or EvalConfig())


def pdf(params: WishartParams, x, cfg: EvalConfig | None = None):
    """The density at a float x, or the list of its values at a sequence of x."""
    return _route_value("pdf", params, x, cfg or EvalConfig())
