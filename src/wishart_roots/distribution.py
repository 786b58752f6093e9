"""Numeric CDF/PDF of the largest root, and the determinantal closed forms.

Routes
------
quadrature : the determinantal CDF formula with H-integral entries, each a
             power series in lam whose coefficients are regularised
             incomplete gammas read from one ``PoissonTails`` array per
             abscissa, and its x-derivative as one bordered determinant for
             the density.
series     : evaluation of the exact truncated lam-series (fast and robust
             for small noncentrality; symmetric, so confluent lam's are
             free).
conjecture : the determinantal closed form built from hpg01 and the
             G-functions (levels 2..4), with the explicit front factor.
hgm        : Pfaffian ODE integration (in wishart_roots.hgm; dispatched
             from here).

Every determinant over the eigenvalues is the determinant of divided
differences f_j[lam_1..lam_i] (``divided_rows``), summed as power series with
nonnegative weights, so nothing is divided by the Vandermonde and repeated,
clustered and zero eigenvalues need no special case and no threshold.  The
quadrature route sums those rows again in decimals where their determinant
is ill conditioned (``_rows_det``), and raises ``NumericFailure`` where it
leaves float range (sum lam >~ 700 outside the far tails).
"""

from __future__ import annotations

import decimal
import functools
import itertools
import math
from dataclasses import dataclass
from decimal import Decimal
from typing import Callable, Iterator, List, Sequence, Tuple

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
    hgm_rtol: float = 1e-10
    experimental_m4: bool = False


def _det(mat: List[List[float]]) -> float:
    """LU determinant with partial pivoting (matrices here are tiny); the
    entries may be floats or Decimals."""
    n = len(mat)
    a = [row[:] for row in mat]
    det = 1
    for c in range(n):
        piv = max(range(c, n), key=lambda r: abs(a[r][c]))
        if a[piv][c] == 0.0:
            return 0.0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            for cc in range(c, n):
                a[r][cc] -= f * a[c][cc]
    return det


def _det_cond(mat: List[List[float]]) -> Tuple[float, float]:
    """Determinant and Skeel condition number sum_ij |a_ij (A^-1)_ji| of a
    small matrix, by Gauss-Jordan elimination with partial pivoting (which
    yields A^-1 alongside the pivots that ``_det`` multiplies).  Relative
    errors e in the entries move the determinant by up to about e times the
    condition number (inf for a singular matrix)."""
    n = len(mat)
    a = [row + [0.0] * n for row in mat]
    for i, row in enumerate(a):
        row[n + i] = 1.0
    det = 1.0
    for c in range(n):
        piv = max(range(c, n), key=lambda r: abs(a[r][c]))
        prow = a[piv]
        p = prow[c]
        if p == 0.0:
            return 0.0, math.inf
        if piv != c:
            a[piv] = a[c]
            det = -det
        det *= p
        prow = [v / p for v in prow]
        a[c] = prow
        for r, row in enumerate(a):
            if r != c:
                f = row[c]
                a[r] = [u - f * v for u, v in zip(row, prow)]
    return det, sum(abs(v * row[n + i]) for i, mrow in enumerate(mat) for v, row in zip(mrow, a))


# ---------------------------------------------------------------------------
# divided-difference determinants
# ---------------------------------------------------------------------------

def divided_rows(columns: Sequence[Callable[[float], Iterator[float]]],
                 lambdas: Sequence[float], num: Callable = lambda v: v) -> List[List[float]]:
    """Divided differences f_c[lam_1..lam_i] (row i = 1..m, lam ascending) of
    power series f_c(y) = sum_l c_l y^l, one column per series: row i is
    sum_l c_l h_{l-i+1}(lam_1..lam_i), h_r the complete homogeneous polynomials.

    det(rows) is symmetric in lam; for descending lam
    det(f_c(lam_i)) = (-1)^{m(m-1)/2} prod_{a<b} (lam_a - lam_b) det(rows).
    Ascending, row i is dominated by lam_i, so fast-growing series lose no
    digits in the determinant.  Each column is called with s = max(lam, 1) and
    yields c_l s^l; h runs on lam/s and row i is divided by s^{i-1}, so every
    term stays in float range.  A column is summed until it ends or until, at
    two consecutive l, each row's term is below 1e-17 of its sum of |terms|.
    ``num`` converts the eigenvalues and the constants to the columns' number
    type (``Decimal`` for columns that yield Decimals); by default they are
    used as they are.
    """
    m = len(lambdas)
    s = max(max(lambdas), 1)
    scale = num(s)
    mu = [num(v) / scale for v in sorted(lambdas)]
    tiny = num(1e-17)
    hs = [[1] * m]  # hs[r][i] = h_r(mu_1..mu_{i+1})
    diagonals = [[1]]  # diagonals[l][i] = hs[l-i][i], the weights of c_l in rows i < min(l+1, m)
    sums = []
    for column in columns:
        acc = [0] * m
        mags = [num(0)] * m
        quiet = 0
        for l, coef in enumerate(column(s)):
            if l == len(diagonals):
                if l == MAX_TERMS:
                    raise NumericFailure("divided-difference series did not converge")
                # h_r(mu_1..mu_i) = sum_{t<=i} mu_t h_{r-1}(mu_1..mu_t)
                hs.append(list(itertools.accumulate(u * h for u, h in zip(mu, hs[-1]))))
                diagonals.append([hs[l - i][i] for i in range(min(l + 1, m))])
            small = l >= m - 1
            for i, h in enumerate(diagonals[l]):
                t = coef * h
                acc[i] += t
                t = abs(t)
                mags[i] += t
                small = small and t <= tiny * mags[i]
            quiet = quiet + 1 if small else 0
            if quiet == 2:
                break
        sums.append(acc)
    return [[acc[i] / scale ** i for acc in sums] for i in range(m)]


def _fronted(params: WishartParams, det: float, shift: float = 0.0) -> float:
    """(-1)^{m(m-1)/2} e^{-sum lam - shift} det, the one front factor of the
    quadrature, conjecture and hgm determinants (each already divided by
    (n-m)!^m), taken through logarithms when e^{-sum lam - shift} would
    underflow, so a representable value is not lost.  A determinant that is
    not finite raises ``NumericFailure``."""
    if not math.isfinite(det):
        raise NumericFailure("the determinant of the divided-difference rows left float range")
    m = params.m
    sign = (-1) ** (m * (m - 1) // 2)
    log_front = -sum(params.lambdas) - shift
    if log_front > -700.0 or det == 0.0:
        return sign * math.exp(log_front) * det
    return sign * math.copysign(math.exp(math.log(abs(det)) + log_front), det)


def _border(n: int, x: float, m: int, r: int = 0) -> List[float]:
    """x^{n-j} / r! (j = 1..m) and 0: bordering rows that end in the divided
    differences of e^{-x} hpg01(N; x y) with this row gives minus the
    x-derivative of the determinant of the H^{n-j}_N / r! rows."""
    return [x ** (n - j) / math.factorial(r) for j in range(1, m + 1)] + [0.0]


def _det_dx(n: int, x: float, rows: List[List[float]]) -> float:
    """d/dx det(H^{n-j}_N[lam_1..lam_i]) from those rows, each ending in its
    divided difference of e^{-x} hpg01(N; x y), which times x^{n-j} is
    d/dx H^{n-j}_N(x, y): the sum of the determinants with one row
    differentiated is minus the bordered one."""
    return -_det(rows + [_border(n, x, len(rows))])


# a determinant over float rows whose Skeel condition number exceeds COND_LIMIT
# is taken again from rows summed in DECIMAL_DIGITS-digit decimals: each float
# row carries a relative error of about 1e-16, and the determinant multiplies
# it by the condition number (up to ~3e8 at m = 4, lam ~ 200, x < 60)
COND_LIMIT = 1e6
DECIMAL_DIGITS = 40


def _rows_det(columns: Sequence[Callable[[float], Iterator[float]]], lambdas: Sequence[float],
              extra: Sequence[List[float]] = ()) -> float:
    """det(divided_rows(columns, lambdas) + extra), within about 1e-10 relative
    of the determinant of the series' divided differences."""
    rows = divided_rows(columns, lambdas) + list(extra)
    det, cond = _det_cond(rows)
    if cond <= COND_LIMIT or not math.isfinite(det):
        return det
    with decimal.localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        decimal_columns = [lambda s, column=column: map(Decimal, column(s)) for column in columns]
        rows = divided_rows(decimal_columns, lambdas, Decimal)
        return float(_det(rows + [[Decimal(v) for v in row] for row in extra]))


def _tails(params: WishartParams, x: float) -> PoissonTails:
    """One Poisson-tail array at x for all H columns, with room for the terms
    their series usually need (a longer read extends it)."""
    s = max(max(params.lambdas), 1.0)
    return PoissonTails(x, params.n + int(2.0 * math.sqrt(x * s) + 2.0 * s) + 20)


def _h_series(k: int, N: int, tails: PoissonTails, s: float, r: int = 0) -> Iterator[float]:
    """Coefficients of H^k_N(x, y) / r! = sum_l gamma(k+l+1, x) y^l / ((N)_l l! r!),
    times s^l, at the x of ``tails`` (r <= k): gamma(k+l+1, x) = (k+l)! P(k+l+1, x),
    so coefficient l is P(k+l+1, x) (k!/r!) (k+1)_l s^l / ((N)_l l!), with the
    ratio (k+l+1) s / ((N+l)(l+1)) carried from term to term and Gamma never
    formed."""
    t = float(math.factorial(k) // math.factorial(r))
    l = 0
    while True:
        for p in tails.values[k + l + 1:]:
            yield p * t
            t *= (k + l + 1) * s / ((N + l) * (l + 1))
            l += 1
        tails.reach(k + l + 1)


def _hpg01_series(nu: int, x: float, s: float, scale: float | None = None) -> Iterator[float]:
    """Coefficients of c hpg01(nu; x y) = c sum_l (x y)^l / ((nu)_l l!), times s^l,
    with c = ``scale``, by default e^{-x}."""
    t = math.exp(-x) if scale is None else scale
    for l in itertools.count():
        if l:
            t *= x * s / ((nu + l - 1) * l)
        yield t


# ---------------------------------------------------------------------------
# quadrature route (the determinantal formula itself)
# ---------------------------------------------------------------------------

# the density's hpg01 column carries e^{-min(x, PDF_SHIFT)}, small enough to
# keep e^{2 sqrt(x lam)} in range and large enough not to underflow; the rest
# of e^{-x} joins the front factor
PDF_SHIFT = 700.0


def _h_columns(params: WishartParams, x: float) -> list:
    """The columns H^{n-j}_N(x, y) / (n-m)!, j = 1..m, over one shared
    ``PoissonTails`` array at x (the factorials of the front factor go into
    the columns, which keeps the determinant in range a little longer)."""
    n, m = params.n, params.m
    tails = _tails(params, x)
    return [functools.partial(_h_series, n - j, n - m + 1, tails, r=n - m) for j in range(1, m + 1)]


def cdf_quadrature(params: WishartParams, x: float, cfg: EvalConfig) -> float:
    """(-1)^{m(m-1)/2} e^{-sum lam} / (n-m)!^m det(H^{n-j}_N[lam_1..lam_i]),
    the entries summed as power series in lam (``divided_rows``).  The rows'
    determinant leaves float range once sum lam >~ 700 (outside the far
    tails); there it raises ``NumericFailure``."""
    if x < 0:
        raise ValueError("x must be >= 0")
    if x == 0.0:
        return 0.0
    val = _fronted(params, _rows_det(_h_columns(params, x), params.lambdas))
    return min(max(val, 0.0), 1.0)


def pdf_quadrature(params: WishartParams, x: float, cfg: EvalConfig) -> float:
    """The x-derivative of ``cdf_quadrature``'s determinant, one bordered
    determinant over the same rows plus the divided differences of
    e^{-x} hpg01(N; x lam) (``_det_dx``).  It raises ``NumericFailure`` where
    that determinant leaves float range, once sum lam >~ 700 (outside the far
    tails)."""
    n, m = params.n, params.m
    if x < 0:
        raise ValueError("x must be >= 0")
    if x == 0.0:
        return 0.0 if not (n == m == 1) else math.exp(-sum(params.lambdas))
    shift = max(x - PDF_SHIFT, 0.0)
    columns = _h_columns(params, x)
    columns.append(functools.partial(_hpg01_series, n - m + 1, x, scale=math.exp(shift - x)))
    det = -_rows_det(columns, params.lambdas, [_border(n, x, m, n - m)])
    return _fronted(params, det, shift)


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


def cdf_series(params: WishartParams, x: float, cfg: EvalConfig) -> float:
    if x < 0:
        raise ValueError("x must be >= 0")
    if x == 0.0:
        return 0.0
    s = _cdf_sym_series_cached(params.n, params.m, cfg.series_order)
    val = s.eval(x, list(params.lambdas)) * math.exp(-sum(params.lambdas))
    return min(max(val, 0.0), 1.0)


def pdf_series(params: WishartParams, x: float, cfg: EvalConfig) -> float:
    if x < 0:
        raise ValueError("x must be >= 0")
    s = _psi_series_cached(params.n, params.m, cfg.series_order)
    return s.eval(x, list(params.lambdas)) * math.exp(-sum(params.lambdas))


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

def g_series(n: int, m_level: int, x: float, s: float) -> Iterator[float]:
    """Coefficients g_l s^l of e^{-x} G_{n, m_level}(x, y) = sum_l g_l y^l.

    Level 2 is e^{-x} (n A + y B + (x-n+1-y) W) with A = hpg01(n; xy),
    B = hpg01(n+1; xy) and W = sum_i y^i/i! sum_{k>=i} x^k/((n+1)_k).  Higher
    levels apply the raising recursion of g_jet,
    g'_j = (x+l) g_j - (j+1)(j+n-l+1) g_{j+1}.
    """
    if n < m_level:
        raise ValueError("requires n >= m_level")
    coeffs = _g2_series(n, x, s)
    for level in range(2, m_level):
        coeffs = _raised(coeffs, n, level, x, s)
    return coeffs


def _g2_series(n: int, x: float, s: float) -> Iterator[float]:
    # e^{-x} x^k / (n+1)_k, summed downward into the tails of W, until it and
    # its scaled terms x^k s^k / ((n+1)_k k!) are past their peaks and negligible
    u, f = [math.exp(-x)], 1.0  # f = s^k / k!
    total = peak = u[0]
    while len(u) <= x or u[-1] > 1e-17 * total or u[-1] * f > 1e-17 * peak:
        f *= s / len(u)
        u.append(u[-1] * x / (n + len(u)))
        total += u[-1]
        peak = max(peak, u[-1] * f)
    tails = list(itertools.accumulate(reversed(u)))[::-1]
    a = b = math.exp(-x)  # e^{-x} (xs)^i / ((n)_i i!), the same over (n+1)_i
    b_prev = w_prev = 0.0
    f = 1.0
    for i in itertools.count():
        if i:
            a *= x * s / ((n + i - 1) * i)
            b_prev, b = b, b * x * s / ((n + i) * i)
            f *= s / i
        w = f * tails[i] if i < len(tails) else 0.0
        yield n * a + s * b_prev + (x - n + 1) * w - s * w_prev
        w_prev = w


def _raised(coeffs: Iterator[float], n: int, level: int, x: float, s: float) -> Iterator[float]:
    prev = next(coeffs)
    for j, cur in enumerate(coeffs):
        yield (x + level) * prev - (j + 1) * (j + n - level + 1) * cur / s
        prev = cur


def _conjecture_power(n: int, m: int, x: float) -> float:
    """C(x) e^{mx} = (n-m+1) x^{mn - m(m-1)/2 - 1} / prod_k (n-k+1)^k."""
    denom = math.prod(float(n - k + 1) ** k for k in range(1, m + 1))
    return (n - m + 1) * x ** (m * n - m * (m - 1) // 2 - 1) / denom


def conjecture_front_factor(n: int, m: int, x: float) -> float:
    """C(x) = (n-m+1) x^{mn - m(m-1)/2 - 1} e^{-mx} / prod_k (n-k+1)^k."""
    return _conjecture_power(n, m, x) * math.exp(-m * x)


def pdf_conjecture(params: WishartParams, x: float, cfg: EvalConfig) -> float:
    """psi_{n,m} = C(x) e^{-sum lam} / ((n-m)!^m V(lam))
    * det(hpg01(n-m+1; x lam_i); G_{n-m+j, j}(x, lam_i)), proved for m = 2, 3
    and conjectured beyond.  Each row carries one e^{-x} of C(x), which keeps
    the entries in float range for x up to a few hundred; past ``PDF_SHIFT``
    that e^{-x} loses digits to underflow, so x > PDF_SHIFT raises
    ``NumericFailure``.  A determinant that leaves float range gives NaN,
    which ``pdf`` refuses."""
    n, m = params.n, params.m
    if x < 0:
        raise ValueError("x must be >= 0")
    if x == 0.0:
        return pdf_quadrature(params, x, cfg)
    if m > 4:
        raise ValueError("conjecture route implemented for m <= 4")
    if m == 4 and not cfg.experimental_m4:
        raise ValueError("m = 4 conjecture route is experimental; enable it explicitly")
    if x > PDF_SHIFT:
        raise NumericFailure(f"the conjecture route serves x <= {PDF_SHIFT:g}")
    columns = [functools.partial(_hpg01_series, n - m + 1, x)]
    columns += [functools.partial(g_series, n - m + j, j, x) for j in range(2, m + 1)]
    det = _det(divided_rows(columns, params.lambdas))
    if not math.isfinite(det):
        return math.nan  # the dispatch refuses it, like any value that is not finite
    return _fronted(params, det * _conjecture_power(n, m, x) / math.factorial(n - m) ** m)


def pdf_m2_closed(params: WishartParams, x: float) -> float:
    """The proved m = 2 closed form, the m = 2 case of pdf_conjecture:

    psi_{n,2} = x^{2n-2} e^{-lam1-lam2-2x} / (n! (n-2)! (lam1-lam2))
                * det( hpg01(n-1; x lam_i) ; G_{n,2}(x, lam_i) )."""
    if params.m != 2:
        raise ValueError("m = 2 only")
    return pdf_conjecture(params, x, EvalConfig())


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def _route_value(kind: str, params: WishartParams, x: float, cfg: EvalConfig) -> float:
    """The value of the route ``cfg.method`` for a "cdf" or "pdf" at a finite
    x (``ValueError`` otherwise); a value that is not a finite number raises
    ``NumericFailure``."""
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    routes = {"quadrature": (cdf_quadrature, pdf_quadrature), "series": (cdf_series, pdf_series),
              "conjecture": (None, pdf_conjecture)}
    if cfg.method == "hgm":
        from . import hgm  # hgm needs scipy; it also imports this module

        routes["hgm"] = (hgm.cdf_hgm, hgm.pdf_hgm)
    if cfg.method not in routes:
        raise ValueError(f"unknown method {cfg.method!r}")
    fn = routes[cfg.method][kind == "pdf"]
    if fn is None:
        raise ValueError("the conjectured closed form gives the density, not the CDF")
    value = fn(params, x, cfg)
    if not math.isfinite(value):
        raise NumericFailure(f"the {cfg.method} route returned {value}")
    return value


def cdf(params: WishartParams, x: float, cfg: EvalConfig | None = None) -> float:
    return _route_value("cdf", params, x, cfg or EvalConfig())


def pdf(params: WishartParams, x: float, cfg: EvalConfig | None = None) -> float:
    return _route_value("pdf", params, x, cfg or EvalConfig())
