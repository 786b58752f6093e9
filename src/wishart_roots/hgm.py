"""Holonomic gradient route: the quadrature route's determinant rows, integrated in x.

Per noncentrality eigenvalue y the functions

    F_j = H^{n-j}_N(x, y) (j = 1..m),   u1 = hpg01(N; x y),   u2 = hpg01(N+1; x y),

with N = n - m + 1, obey a system in x that is linear in y:

    F_j' = x^{n-j} e^{-x} u1,   u1' = (y/N) u2,   u2' = (N/x) (u1 - u2),

the last two being x_block(N) gauged by diag(1, s, s), s = x^N e^{-x} (the
scaling of Hashiguchi, Numata, Takayama and Takemura, 2013).  So the divided
differences over each prefix lam_1..lam_k of the ascending eigenvalues close
as well, by (y u2)[lam_1..lam_k] = lam_k u2[lam_1..lam_k] + u2[lam_1..lam_{k-1}]:
the state is the m(m+2) divided differences of (F_1..F_m, u1, u2), all
positive, so a relative tolerance alone controls it.  Its F part is the
quadrature route's rows, so the CDF is front * det(rows) and the density the
same bordered determinant as there, nothing is divided by the Vandermonde,
and repeated, clustered and zero eigenvalues take one path.  Abscissas up to
X0 take the state from the series (``divided_rows``), which is cheaper there
than integrating; the others integrate from the last of them.

The symbolic coefficients over the 3^m tensor products of the per-eigenvalue
basis b0 = H^{N-1}_N, b1 = x^N e^{-x} u1, b2 = x^N e^{-x} u2
(``extraction_vector`` for the CDF determinant, ``extraction_vector_dx`` for an
x-derivative) serve the printed m = 2 coefficient table.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy.integrate import solve_ivp

from .distribution import (EvalConfig, NumericFailure, WishartParams, _det, _det_dx, _fronted,
                           _gridded, _h_coefs, _hpg01_coefs, _scale, _tails, _terms, divided_rows)
from .h_integrals import HIndex, b_atom, h_atom, reduce_to_basis
from .ratfunc import MPoly, RatFunc
from .series_engine import exact_det

Idx = Tuple[int, ...]

X0 = 2.0  # abscissas up to X0 take the series start; integrations start at or below it


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
    """x-system for (n, m): the divided differences of (F_1..F_m, u1, u2)
    over each prefix of the ascending eigenvalues, stacked prefix by prefix
    into an m(m+2)-vector."""

    n: int
    m: int

    def __post_init__(self):
        if not (self.n > self.m >= 1):
            raise ValueError("requires n > m >= 1 so that N = n-m+1 > 1")
        self.N = self.n - self.m + 1

    def rhs(self, x: float, state: np.ndarray, lambdas: Sequence[float]) -> np.ndarray:
        """The state's x-derivative, ``lambdas`` ascending.  In plain floats:
        a state of m(m+2) numbers is too small to pay for numpy calls."""
        m, N = self.m, self.N
        s = state.tolist()
        weights = [math.exp((N - 1) * math.log(x) - x)]  # x^{n-j} e^{-x}, j = m..1
        for _ in range(1, m):
            weights.append(weights[-1] * x)
        weights.reverse()
        out = []
        u2 = 0.0
        for k, lam in enumerate(lambdas):
            u1, prev, u2 = s[k * (m + 2) + m], u2, s[k * (m + 2) + m + 1]
            out += [u1 * w for w in weights]
            # (y u2)[lam_1..lam_k] = lam_k u2[lam_1..lam_k] + u2[lam_1..lam_{k-1}]
            out += ((lam * u2 + prev) / N, (N / x) * (u1 - u2))
        return np.array(out)


@dataclass
class HgmState:
    x: float
    values: np.ndarray  # (F_1..F_m, u1, u2) divided differences, prefix by prefix


def initial_state(params: WishartParams, x0: float, cfg: EvalConfig | None = None) -> HgmState:
    """The state at a small abscissa, summed from the power series in y by
    ``divided_rows``: the rows of H^{n-j}_N (the quadrature route's without
    its 1/(n-m)!, over one tail array at x0) plus the hpg01 columns."""
    if not (0 < x0 <= X0):
        raise ValueError(f"initial abscissa must satisfy 0 < x0 <= {X0}")
    N = params.n - params.m + 1
    x, s = np.array([x0], dtype=float), float(_scale(params.lambdas))
    tails = _tails(params, x)

    def coefs(L):
        u = [_hpg01_coefs(nu, x, s, L, 1.0)[:, None] for nu in (N, N + 1)]
        return np.concatenate([_h_coefs(params, tails, L)] + u, axis=1)

    return HgmState(x0, divided_rows(coefs, params.lambdas, _terms(params, x0))[0].ravel())


def hgm_integrate(
    sys: PfaffianSystem,
    start: HgmState,
    x_target: float,
    lambdas: Sequence[float],
    cfg: EvalConfig | None = None,
) -> HgmState:
    """Adaptive embedded Runge-Kutta 5(4) along x at fixed lam, with a
    relative tolerance only."""
    cfg = cfg or EvalConfig()
    if not 0 < cfg.hgm_rtol < math.inf:  # solve_ivp never ends at a NaN tolerance
        raise ValueError(f"hgm_rtol must be a positive finite number, got {cfg.hgm_rtol}")
    if x_target == start.x:
        return HgmState(start.x, start.values.copy())
    lam = sorted(float(v) for v in lambdas)  # the prefixes ascend
    sol = solve_ivp(
        lambda t, y: sys.rhs(t, y, lam),
        (start.x, x_target),
        start.values,
        method="RK45",
        rtol=cfg.hgm_rtol,
        atol=0.0,
        dense_output=False,
    )
    if not sol.success:
        raise NumericFailure(f"HGM integration failed: {sol.message}")
    return HgmState(x_target, sol.y[:, -1])


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

@_gridded
def pdf_hgm(params: WishartParams, xs: List[float], cfg: EvalConfig | None = None) -> List[float]:
    return [row[3] for row in trajectory(params, xs, cfg, what="R")]


@_gridded
def cdf_hgm(params: WishartParams, xs: List[float], cfg: EvalConfig | None = None) -> List[float]:
    return [row[3] for row in trajectory(params, xs, cfg, what="F")]


def trajectory(
    params: WishartParams,
    xs: Sequence[float],
    cfg: EvalConfig | None = None,
    what: str = "R",
) -> List[Tuple[float, np.ndarray, float, float]]:
    """March once through the abscissas in increasing order; returns
    (x, basis values, determinant value, distribution value) per abscissa,
    in the order given.

    The basis values are the 3^m products of the eigenvalues' (b0, b1, b2),
    eigenvalues descending, C-order over {0,1,2}^m.  With E_ij =
    H^{n-j}_N(x, lam_i), ``what`` "R" gives R = d/dx det(E) and the density,
    "F" det(E) and the CDF, clamped to [0, 1].  det(E) is the
    divided-difference determinant times the signed Vandermonde product, a
    multiplication that gives zero at repeated eigenvalues.  Abscissas x <= 0
    give zeros.
    """
    cfg = cfg or EvalConfig()
    n, m = params.n, params.m
    if n == m:
        raise ValueError("the Pfaffian basis needs n > m (N = n-m+1 > 1)")
    if what not in ("R", "F"):
        raise ValueError("what must be 'R' or 'F'")
    if not all(map(math.isfinite, xs)):
        raise ValueError("abscissas must be finite")
    given, xs = xs, sorted(xs)
    out = [(x, np.zeros(3 ** m), 0.0, 0.0) for x in xs if x <= 0]
    xs = xs[len(out):]
    sys = PfaffianSystem(n, m)
    N = sys.N
    lam = params.lambdas
    mu = lam[::-1]
    vandermonde = math.prod(b - a for a, b in itertools.combinations(lam, 2))
    scale = math.factorial(n - m) ** m  # the 1/(n-m)! of each quadrature row
    # Newton form f(mu_i) = sum_k f[mu_1..mu_k] prod_{t<k} (mu_i - mu_t): for
    # ascending mu no term is negative (k > i gives 0); rows in the order of lam
    newton = np.array([[math.prod(mu[i] - mu[t] for t in range(k)) for k in range(m)]
                       for i in reversed(range(m))])
    state = initial_state(params, min(X0, xs[0]), cfg) if xs else None
    for x in xs:
        if x > X0:
            state = hgm_integrate(sys, state, x, lam, cfg)
        elif x != state.x:
            state = initial_state(params, x, cfg)
        w = state.values.reshape(m, m + 2)
        rows = w[:, :m].tolist()
        if what == "F":
            det = _det(rows)
            dist = min(max(_fronted(params, det / scale), 0.0), 1.0)
        else:
            g = (math.exp(-x) * w[:, m]).tolist()
            det = _det_dx(n, x, [row + [gi] for row, gi in zip(rows, g)])
            dist = _fronted(params, det / scale)
        s = math.exp(N * math.log(x) - x)
        basis = newton @ w[:, m - 1:] * (1.0, s, s)  # H^{n-m}_N is b0 = H^{N-1}_N
        out.append((x, functools.reduce(np.kron, basis), vandermonde * det, dist))
    rows = {row[0]: row for row in out}
    return [rows[x] for x in given]


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
