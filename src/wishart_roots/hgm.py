"""Holonomic gradient route: the quadrature route's determinant rows, marched in x.

Per noncentrality eigenvalue y, with N = n - m + 1 and the gauge s = x^N e^{-x}
of Hashiguchi, Numata, Takayama and Takemura (2013), the functions

    F_j = H^{n-j}_N(x, y) (j = 1..m),   b1 = s hpg01(N; x y),   b2 = s hpg01(N+1; x y)

obey x F_j' = x^{m-j} b1, x b1' = (N - x) b1 + x y b2 / N, x b2' = N b1 - x b2:
x times ``x_block(N)``, whose basis is (b0, b1, b2) with b0 = F_m.  The
system is linear in y, so the divided differences over each prefix
lam_1..lam_k of the ascending eigenvalues close, by (y b2)[lam_1..lam_k] =
lam_k b2[lam_1..lam_k] + b2[lam_1..lam_{k-1}]: the state is the m(m+2)
divided differences of (F_1..F_m, b1, b2), and x y' = M(x) y with M a
polynomial matrix of degree max(1, m-1) (``PfaffianSystem``).  Its Taylor
coefficients obey a recurrence, so ``hgm_integrate`` steps it by summed Taylor
series (van der Hoeven, "Fast evaluation of holonomic functions", 1999), with
no integrator and no tolerance; the gauge keeps the state in float range up
to sum lam ~ 700.  The F part is the quadrature route's rows, so the CDF is
front * det(rows) and the density the same bordered determinant as there:
nothing is divided by the Vandermonde, and repeated, clustered and zero
eigenvalues take one path; a determinant whose condition number exceeds
``COND_LIMIT`` is refused (``NumericFailure``).  Abscissas up to X0 take the
state from the series (``divided_rows``); the others are reached by one march
from X0.
The symbolic coefficients over the 3^m tensor products of (b0, b1, b2)
(``extraction_vector``, ``extraction_vector_dx``) serve the printed m = 2 table.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .distribution import (COND_LIMIT, EvalConfig, NumericFailure, WishartParams, _border, _det_cond,
                           _fronted, _gridded, _h_coefs, _hpg01_coefs, _on_positive, _scale, _tails,
                           _terms, divided_rows)
from .h_integrals import HIndex, b_atom, h_atom, reduce_to_basis
from .ratfunc import MPoly, RatFunc
from .series_engine import exact_det
from .special_fn import MAX_TERMS

Idx = Tuple[int, ...]

X0 = 2.0  # abscissas up to X0 take the series start; the march starts at X0


def x_block(N: int) -> List[List[RatFunc]]:
    """3x3 block A with d/dx [b0, b1, b2]^T = A [b0, b1, b2]^T, vars (x, lam)."""
    z = RatFunc.const(2, 0)
    inv_x = RatFunc.from_terms({(0, 0): 1}, {(1, 0): 1})
    return [
        [z, inv_x, z],
        [z, inv_x * N - RatFunc.const(2, 1), RatFunc.from_terms({(0, 1): Fraction(1, N)})],
        [z, inv_x * N, RatFunc.const(2, -1)],
    ]


def lam_block(N: int) -> List[List[RatFunc]]:
    """3x3 block for d/dlam, vars (x, lam)."""
    z = RatFunc.const(2, 0)
    one = RatFunc.const(2, 1)
    n_over_lam = RatFunc.from_terms({(0, 0): N}, {(0, 1): 1})
    return [
        [one, z, RatFunc.const(2, Fraction(-1, N))],
        [z, z, RatFunc.from_terms({(1, 0): Fraction(1, N)})],
        [z, n_over_lam, -n_over_lam],
    ]


@dataclass
class PfaffianSystem:
    """x-system for (n, m): x y' = M(x) y over the divided differences of
    (F_1..F_m, b1, b2) over each prefix of the ascending eigenvalues, stacked
    prefix by prefix into an m(m+2)-vector, with M(x) = sum_i x^i M_i read
    off x ``x_block(N)``."""

    n: int
    m: int

    def __post_init__(self):
        if not (self.n > self.m >= 1):
            raise ValueError("requires n > m >= 1 so that N = n-m+1 > 1")
        self.N = self.n - self.m + 1
        x = RatFunc(MPoly.var(2, 0))
        # (i, e, a, b, c): c x^i lam^e is a term of entry (a, b) of x A; e <= 1
        self.terms = [(i, e, a, b, float(c)) for a, row in enumerate(x_block(self.N))
                      for b, entry in enumerate(row) for (i, e), c in (x * entry).as_poly().terms.items()]
        self.degree = max(i + (self.m - 1 if a == 0 else 0) for i, _, a, *_ in self.terms)
        self._memo: Dict[Tuple[float, ...], np.ndarray] = {}

    def matrices(self, lambdas: Sequence[float]) -> np.ndarray:
        """M_0..M_degree, an array (degree+1, m(m+2), m(m+2)), ``lambdas``
        ascending.  Slot (b0, b1, b2) of prefix k is its (F_m, b1, b2); the
        F_j row is x^{m-j} times the b0 row, since F_j' = x^{m-j} F_m'; and a
        lam-linear entry c lam acts on prefix k as c lam_k on prefix k plus c
        on prefix k-1, the Leibniz rule of divided differences."""
        key = tuple(lambdas)
        if key not in self._memo:
            m, d = self.m, self.m + 2
            out = np.zeros((self.degree + 1, m * d, m * d))
            for k, lam in enumerate(key):
                for i, e, a, b, c in self.terms:  # slot a of a prefix is its component m-1+a
                    rows = [(i + m - 1 - j, k * d + j) for j in range(m)] if a == 0 else [(i, k * d + m - 1 + a)]
                    for power, r in rows:
                        out[power, r, k * d + m - 1 + b] += c * lam ** e
                        if e and k:
                            out[power, r, (k - 1) * d + m - 1 + b] += c
            self._memo[key] = out
        return self._memo[key]

    def rhs(self, x: float, state: np.ndarray, lambdas: Sequence[float]) -> np.ndarray:
        """The state's x-derivative M(x) y / x, ``lambdas`` ascending."""
        return sum(x ** i * mi for i, mi in enumerate(self.matrices(lambdas))) @ state / x


@dataclass
class HgmState:
    x: float
    values: np.ndarray  # (F_1..F_m, b1, b2) divided differences, prefix by prefix


def initial_state(params: WishartParams, x0, cfg: EvalConfig | None = None):
    """The state at 0 < x0 <= X0 (a float, giving an ``HgmState``), or at
    each of a sequence of them (giving a list), by one ``divided_rows`` call:
    the quadrature route's H^{n-j}_N rows without their 1/(n-m)!, and the
    gauged hpg01 columns."""
    x = np.array([x0] if isinstance(x0, numbers.Real) else x0, dtype=float)
    if not ((0 < x) & (x <= X0)).all():
        raise ValueError(f"initial abscissas must satisfy 0 < x0 <= {X0}")
    N = params.n - params.m + 1
    s, gauge = float(_scale(params.lambdas)), np.exp(N * np.log(x) - x)
    tails = _tails(params, x)

    def coefs(L):
        b = [_hpg01_coefs(nu, x, s, L, gauge)[:, None] for nu in (N, N + 1)]
        return np.concatenate([_h_coefs(params, tails, L)] + b, axis=1)

    rows = divided_rows(coefs, params.lambdas, _terms(params, x.max()))
    states = [HgmState(v, r.ravel()) for v, r in zip(x.tolist(), rows)]
    return states[0] if isinstance(x0, numbers.Real) else states


def hgm_integrate(sys: PfaffianSystem, start: HgmState, x_target: float, lambdas: Sequence[float],
                  cfg: EvalConfig | None = None) -> HgmState:
    """March the state from ``start.x`` to ``x_target`` (both positive) by
    Taylor steps of x y' = M(x) y.  At a centre c, with M(c+t) = sum_j P_j t^j
    and y(c+t) = sum_k a_k t^k, c (k+1) a_{k+1} = sum_j P_j a_{k-j} - k a_k;
    the terms a_k h^k are formed directly, one mat-vec each, and summed until
    m+1 in a row are, component by component, at most 1e-17 of the sum.  The
    step is h = min(c/2, 4/(1 + sqrt(lam_max/c)), the distance left): half the
    distance to the singular point x = 0, and a bound on h times the growth
    rate sqrt(lam/x) of hpg01(N; x lam)."""
    if not (0 < start.x < math.inf and 0 < x_target < math.inf):
        raise ValueError(f"the march runs between finite positive abscissas, not to {x_target}")
    lam = sorted(float(v) for v in lambdas)  # the prefixes ascend
    mats = sys.matrices(lam)
    deg, d = len(mats) - 1, mats.shape[1]
    c, y = start.x, start.values.copy()
    while c != x_target:
        h = min(c / 2, 4 / (1 + math.sqrt(lam[-1] / c)))
        end = abs(x_target - c) <= h
        h = math.copysign(abs(x_target - c) if end else h, x_target - c)
        # [P_0, P_1 h, .., P_deg h^deg] h / c, with P_j = sum_i C(i, j) c^(i-j) M_i
        step = np.concatenate([sum(math.comb(i, j) * c ** (i - j) * mats[i] for i in range(j, deg + 1))
                               * (h ** (j + 1) / c) for j in range(deg + 1)], axis=1)
        window = np.concatenate([y, np.zeros(deg * d)])  # a_k h^k, .., a_{k-deg} h^(k-deg)
        quiet = 0
        for k in range(MAX_TERMS):
            term = (step @ window - (h / c * k) * window[:d]) / (k + 1)
            y += term
            window = np.concatenate([term, window[:-d]])
            quiet = quiet + 1 if (np.abs(term) <= 1e-17 * np.abs(y)).all() else 0
            if quiet > sys.m:
                break
        else:
            raise NumericFailure(f"the Taylor series of the Pfaffian system did not converge at x = {c}")
        c = x_target if end else c + h
    return HgmState(c, y)


# ---------------------------------------------------------------------------
# extraction coefficients
# ---------------------------------------------------------------------------

def _entry_reductions(n: int, m: int, N: int) -> List[List[RatFunc]]:
    """For column j = 1..m, the coefficients of H^{n-j}_{n-m+1} on the basis
    (b0, b1, b2) at level N, as rational functions of (x, y).  The printed
    boundary atoms carry x^N, which is divided out of b1/b2 coefficients."""
    out = []
    xN = MPoly(2, {(N, 0): Fraction(1)})
    for j in range(1, m + 1):
        combo = reduce_to_basis(HIndex(n - j, 0, n - m + 1), N, validate=False)
        c0 = combo.coeffs.get(h_atom(N - 1, 0, N), RatFunc.const(2, 0))
        c1 = combo.coeffs.get(b_atom(N), RatFunc.const(2, 0)) / RatFunc(xN)
        c2 = combo.coeffs.get(b_atom(N + 1), RatFunc.const(2, 0)) / RatFunc(xN)
        out.append([c0, c1, c2])
    return out


def _subst_y(rf: RatFunc, nvars: int, var_index: int) -> RatFunc:
    """Map a (x, y) rational function into nvars variables with y -> var_index."""

    def conv(p: MPoly) -> MPoly:
        terms = {}
        for (ex, ey), c in p.terms.items():
            e = [0] * nvars
            e[0] = ex
            e[var_index] = ey
            terms[tuple(e)] = c
        return MPoly(nvars, terms)

    return RatFunc(conv(rf.num), conv(rf.den))


def extraction_vector(params: WishartParams, target_N: int | None = None) -> Dict[Idx, RatFunc]:
    """Coefficients c_alpha(x, lam) with the CDF determinant det(E) equal to
    sum_alpha c_alpha * prod_i b^{alpha_i}(lam_i), over the basis at level
    ``target_N`` (by default n - m + 1).  Rational functions live in
    (x, lam_1..lam_m); ``extraction_vector_dx`` of the result gives R.
    """
    n, m = params.n, params.m
    N = target_N if target_N is not None else n - m + 1
    nv = m + 1
    reductions = _entry_reductions(n, m, N)
    table = [[[_subst_y(reductions[j][a], nv, 1 + i) for a in range(3)] for j in range(m)]
             for i in range(m)]
    out: Dict[Idx, RatFunc] = {}
    for alpha in itertools.product(range(3), repeat=m):
        d = exact_det([[table[i][j][alpha[i]] for j in range(m)] for i in range(m)])
        if not d.is_zero():
            out[alpha] = d
    return out


def _accumulate(out: Dict[Idx, RatFunc], key: Idx, val: RatFunc):
    """out[key] += val, storing no zero coefficient."""
    if val.is_zero():
        return
    s = out[key] + val if key in out else val
    if s.is_zero():
        del out[key]
    else:
        out[key] = s


def extraction_vector_dx(
    params: WishartParams, coeffs: Dict[Idx, RatFunc], N: int | None = None
) -> Dict[Idx, RatFunc]:
    """Coefficients of d/dx applied to a basis combination: differentiate the
    coefficients and push the x-block (at basis level N, by default
    n - m + 1) through the tensor slots."""
    m = params.m
    N = N if N is not None else params.n - m + 1
    nv = m + 1
    xb = x_block(N)
    out: Dict[Idx, RatFunc] = {}
    for beta, c in coeffs.items():
        _accumulate(out, beta, c.diff(0))
        for slot in range(m):
            for target_a in range(3):
                blk = xb[beta[slot]][target_a]
                if blk.is_zero():
                    continue
                alpha = list(beta)
                alpha[slot] = target_a
                _accumulate(out, tuple(alpha), c * _subst_y(blk, nv, 1 + slot))
    return out


# ---------------------------------------------------------------------------
# distribution values through the Pfaffian route
# ---------------------------------------------------------------------------

def _march(params: WishartParams, x: np.ndarray) -> np.ndarray:
    """The states at the abscissas x > 0, an array (x, m, m+2) in their
    order: those up to X0 from the series, the others by one march from X0."""
    m = params.m
    sys = PfaffianSystem(params.n, m)
    ascending = np.sort(x)  # a NaN sorts last and is refused by the march
    near = ascending[ascending <= X0].tolist()
    states = initial_state(params, near + [X0])
    for v in ascending[len(near):].tolist():
        states.append(hgm_integrate(sys, states[-1], v, params.lambdas))
    del states[len(near)]  # the start of the march
    w = np.empty((x.size, m, m + 2))
    w[np.argsort(x, kind="stable")] = [st.values.reshape(m, m + 2) for st in states]
    return w


def _dets(rows: np.ndarray) -> np.ndarray:
    """det(rows) per abscissa.  The marched rows carry relative errors of
    about 1e-16 and more, which a determinant multiplies by its Skeel
    condition number: one above ``COND_LIMIT`` raises ``NumericFailure``."""
    det, cond = _det_cond(rows)
    bad = (cond > COND_LIMIT) & (det != 0.0)
    if bad.any():
        raise NumericFailure(f"the hgm rows are ill-conditioned: Skeel condition number "
                             f"{cond[bad].max():.3g} > {COND_LIMIT:g}")
    return det


def _dx_dets(params: WishartParams, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """d/dx det(H^{n-j}_N[lam_1..lam_i]) from the states ``w`` at ``x``:
    minus the determinant of the rows (F_1..F_m, b1) bordered, as in
    ``pdf_quadrature``, by x^{m-1-j}, since x^{m-1-j} b1 = x^{n-j} e^{-x} u1."""
    m = params.m
    return -_dets(np.concatenate([w[:, :, :m + 1], _border(m - 1, x, m)[:, None]], axis=1))


def _fronted_dets(params: WishartParams, dets: np.ndarray) -> List[float]:
    scale = math.factorial(params.n - params.m) ** params.m  # the 1/(n-m)! of each quadrature row
    return [_fronted(params, d / scale) for d in dets.tolist()]


@_gridded
def pdf_hgm(params: WishartParams, xs: List[float], cfg: EvalConfig | None = None) -> List[float]:
    return _on_positive(xs, 0.0, lambda x: _fronted_dets(params, _dx_dets(params, x, _march(params, x))))


@_gridded
def cdf_hgm(params: WishartParams, xs: List[float], cfg: EvalConfig | None = None) -> List[float]:
    def values(x):
        dets = _dets(_march(params, x)[:, :, :params.m])
        return [min(max(v, 0.0), 1.0) for v in _fronted_dets(params, dets)]

    return _on_positive(xs, 0.0, values)


def trajectory(params: WishartParams, xs: Sequence[float],
               cfg: EvalConfig | None = None) -> List[Tuple[float, np.ndarray, float, float]]:
    """The ``hgm`` dump: one march through the abscissas in increasing order;
    returns (x, basis values, R, density) per abscissa, in the order given.

    The basis values are the 3^m products of the eigenvalues' (b0, b1, b2),
    eigenvalues descending, C-order over {0,1,2}^m.  R = d/dx det(E), with
    E_ij = H^{n-j}_N(x, lam_i), is the bordered divided-difference
    determinant times the signed Vandermonde product, a multiplication that
    gives zero at repeated eigenvalues.  The abscissa x = 0 gives zeros.
    """
    m, lam = params.m, params.lambdas
    mu = lam[::-1]
    vandermonde = math.prod(b - a for a, b in itertools.combinations(lam, 2))
    # Newton form f(mu_i) = sum_k f[mu_1..mu_k] prod_{t<k} (mu_i - mu_t): for
    # ascending mu no term is negative (k > i gives 0); rows in the order of lam
    newton = np.array([[math.prod(mu[i] - mu[t] for t in range(k)) for k in range(m)]
                       for i in reversed(range(m))])

    def rows(x):
        w = _march(params, x)
        basis = [functools.reduce(np.kron, b) for b in newton @ w[:, :, m - 1:]]  # b0 = F_m
        dets = _dx_dets(params, x, w)
        return list(zip(basis, (vandermonde * dets).tolist(), _fronted_dets(params, dets)))

    return [(x, *row) for x, row in zip(xs, _on_positive(list(xs), (np.zeros(3 ** m), 0.0, 0.0), rows))]


# ---------------------------------------------------------------------------
# the printed m = 2 table (for comparison tests)
# ---------------------------------------------------------------------------

def m2_paper_products_extraction(n: int) -> Tuple[List[RatFunc], List[RatFunc]]:
    """Extraction coefficients of R_{n,2} and (n-1) dR/dx over the eight
    printed products of one H-function and one hpg01 factor (or two hpg01
    factors), in the printed order.

    The products are, with Hn = H^{n-1}_n and F(nu, i) = hpg01(nu; x lam_i):

        1: x^{n-2} e^{-x}  F(n-1, 2) Hn(lam_1)
        2: x^{n-2} e^{-x}  F(n,   2) Hn(lam_1)
        3: x^{n-2} e^{-x}  F(n-1, 1) Hn(lam_2)
        4: x^{n-2} e^{-x}  F(n,   1) Hn(lam_2)
        5: x^{2n-3} e^{-2x} F(n-1, 1) F(n-1, 2)
        6: x^{2n-3} e^{-2x} F(n-1, 1) F(n,   2)
        7: x^{2n-3} e^{-2x} F(n,   1) F(n-1, 2)
        8: x^{2n-3} e^{-2x} F(n,   1) F(n,   2)

    (The x-powers are the ones that make the printed coefficient table hold
    exactly; the source displays x^n / x^{2n}.)
    """
    params = WishartParams(n, 2, (2.0, 1.0))  # lambdas irrelevant for symbols
    R = extraction_vector_dx(params, extraction_vector(params, target_N=n), N=n)
    # the printed derivative is the gauged D_x = d/dx + 1 - (n-2)/x used
    # throughout the rank-8 discussion, not the bare d/dx
    gauged = extraction_vector_dx(params, R, N=n)
    shift = RatFunc.from_terms({(1, 0, 0): 1, (0, 0, 0): -(n - 2)}, {(1, 0, 0): 1})
    for beta, c in R.items():
        _accumulate(gauged, beta, c * shift)
    return _paper_convert(R, n, 1), _paper_convert(gauged, n, n - 1)


def _paper_convert(coeffs: Dict[Idx, RatFunc], n: int, scale: int) -> List[RatFunc]:
    """Change of products from the tensor basis at level N = n to the eight
    printed products (see m2_paper_products_extraction)."""
    nv = 3
    x = RatFunc(MPoly.var(nv, 0))
    l1 = RatFunc(MPoly.var(nv, 1))
    l2 = RatFunc(MPoly.var(nv, 2))
    c = Fraction(n * (n - 1))
    z = RatFunc.const(nv, 0)
    # rows: tensor index alpha -> list of (product_index, factor)
    conv = {
        (0, 1): [(1, x * x)],
        (0, 2): [(0, x * c / l2), (1, -(x * c) / l2)],
        (1, 0): [(3, x * x)],
        (2, 0): [(2, x * c / l1), (3, -(x * c) / l1)],
        (1, 1): [(7, x * x * x)],
        (1, 2): [(6, x * x * c / l2), (7, -(x * x * c) / l2)],
        (2, 1): [(5, x * x * c / l1), (7, -(x * x * c) / l1)],
        (2, 2): [
            (4, x * c * c / (l1 * l2)),
            (5, -(x * c * c) / (l1 * l2)),
            (6, -(x * c * c) / (l1 * l2)),
            (7, x * c * c / (l1 * l2)),
        ],
    }
    out = [z] * 8
    for alpha, cf in coeffs.items():
        if alpha == (0, 0):
            if not cf.is_zero():
                raise ArithmeticError("unexpected H(x)H product in the expansion")
            continue
        for target, factor in conv[alpha]:
            out[target] = out[target] + cf * factor * scale
    return out


def printed_m2_table(n: int) -> Tuple[List[RatFunc], List[RatFunc]]:
    """The printed coefficient rows for R_{n,2} and (n-1) dR/dx."""
    nv = 3
    one = RatFunc.const(nv, 1)
    x = RatFunc(MPoly.var(nv, 0))
    l1 = RatFunc(MPoly.var(nv, 1))
    l2 = RatFunc(MPoly.var(nv, 2))
    inv = Fraction(1, n - 1)
    row_r = [
        (l1 - x) * inv + one,
        RatFunc.const(nv, 0),
        -((l2 - x) * inv) - one,
        RatFunc.const(nv, 0),
        RatFunc.const(nv, 0),
        x * inv - one,
        -(x * inv) + one,
        RatFunc.const(nv, 0),
    ]
    row_dx = [
        -one,
        l2 * ((l1 - x) * inv + one),
        one,
        -(l1 * ((l2 - x) * inv + one)),
        RatFunc.const(nv, 0),
        -l2 + one,
        l1 - one,
        (l1 - l2) * (x * inv - one),
    ]
    return row_r, row_dx
