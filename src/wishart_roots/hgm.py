"""Holonomic gradient route: one gauged Pfaffian 3-vector per eigenvalue.

Per noncentrality eigenvalue lam the three basis functions are

    b0 = H^{N-1}_N(x, lam),   b1 = x^N e^{-x} hpg01(N; x lam),
    b2 = x^N e^{-x} hpg01(N+1; x lam),        N = n - m + 1,

whose x- and lam-derivatives close over the triple with rational-function
coefficients (the 3x3 blocks below).  Every determinant entry
H^{n-j}_N(x, lam_i) is a polynomial combination of the triple at lam_i, so
the CDF determinant and its x-derivative need the m triples only.

The integration gauges each triple by S = diag(1, s, s), s = x^N e^{-x}
(the scaling of Hashiguchi, Numata, Takayama and Takemura, 2013): the state
(b0, u1, u2) = (b0, hpg01(N; x lam), hpg01(N+1; x lam)) obeys x_block(N)
conjugated by S,

    b0' = x^{N-1} e^{-x} u1,   u1' = (lam/N) u2,   u2' = (N/x) (u1 - u2).

No component decays, so a relative tolerance alone controls the state.  The
m slots are stacked into one 3m-vector and integrated in one call, from the
series values at x <= X0, where the determinant below cancels for m >= 3 and
needs the state exact to rounding.  At each abscissa the entries
E_ij = sum_a c_{j,a}(x, lam_i) b_a(lam_i) give the CDF as front * det(E)
and the density as -front * det([E | e^{-x} u1; x^{n-1} .. x^{n-m} | 0]),
the bordered determinant of the quadrature route.

The symbolic coefficients over the 3^m tensor products (``extraction_vector``
for the CDF determinant, ``extraction_vector_dx`` for an x-derivative) serve
the printed m = 2 coefficient table.
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

from .distribution import EvalConfig, WishartParams, _det, _front_factor
from .h_integrals import HIndex, b_atom, h_atom, h_eval, reduce_to_basis
from .ratfunc import MPoly, RatFunc
from .series_engine import exact_det
from .special_fn import hpg01

Idx = Tuple[int, ...]

X0 = 2.0  # abscissas up to X0 take the series start; integrations start at or below it
MIN_GAP = 1e-5  # smallest eigenvalue gap the route accepts, relative to 1 + max lam


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
    """Gauged x-system for (n, m): one 3-vector (b0, u1, u2) per
    noncentrality eigenvalue, stacked slot by slot into a 3m-vector."""

    n: int
    m: int

    def __post_init__(self):
        if not (self.n > self.m >= 1):
            raise ValueError("requires n > m >= 1 so that N = n-m+1 > 1")
        self.N = self.n - self.m + 1

    def rhs(self, x: float, state: np.ndarray, lambdas: Sequence[float]) -> np.ndarray:
        """x_block(N) conjugated by diag(1, s, s), s = x^N e^{-x}, in every slot."""
        N = self.N
        u1, u2 = state[1::3], state[2::3]
        out = np.empty_like(state)
        out[0::3] = math.exp((N - 1) * math.log(x) - x) * u1
        out[1::3] = np.multiply(lambdas, u2) / N
        out[2::3] = (N / x) * (u1 - u2)
        return out


@dataclass
class HgmState:
    x: float
    values: np.ndarray  # (b0, u1, u2) per slot, slot by slot


def basis_value(N: int, a: int, x: float, lam: float) -> float:
    if a == 0:
        return h_eval(HIndex(N - 1, 0, N), x, lam)
    nu = N if a == 1 else N + 1
    return math.exp(N * math.log(x) - x) * hpg01(nu, x * lam) if x > 0 else 0.0


def initial_state(params: WishartParams, x0: float, cfg: EvalConfig | None = None) -> HgmState:
    """Gauged state at a small abscissa: b0 from the term-wise gamma series,
    u1 and u2 from hpg01."""
    if not (0 < x0 <= X0):
        raise ValueError(f"initial abscissa must satisfy 0 < x0 <= {X0}")
    N = params.n - params.m + 1
    vals = [v for lam in params.lambdas
            for v in (basis_value(N, 0, x0, lam), hpg01(N, x0 * lam), hpg01(N + 1, x0 * lam))]
    return HgmState(x0, np.array(vals))


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
    if x_target == start.x:
        return HgmState(start.x, start.values.copy())
    sol = solve_ivp(
        lambda t, y: sys.rhs(t, y, lambdas),
        (start.x, x_target),
        start.values,
        method="RK45",
        rtol=cfg.hgm_rtol,
        atol=0.0,
        dense_output=False,
    )
    if not sol.success:
        raise ArithmeticError(f"HGM integration failed: {sol.message}")
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

def pdf_hgm(params: WishartParams, x: float, cfg: EvalConfig | None = None) -> float:
    return trajectory(params, [x], cfg, what="R")[0][3]


def cdf_hgm(params: WishartParams, x: float, cfg: EvalConfig | None = None) -> float:
    return trajectory(params, [x], cfg, what="F")[0][3]


def trajectory(
    params: WishartParams,
    xs: Sequence[float],
    cfg: EvalConfig | None = None,
    what: str = "R",
) -> List[Tuple[float, np.ndarray, float, float]]:
    """March once through the abscissas in increasing order; returns
    (x, basis values, determinant value, distribution value) per abscissa.

    The basis values are the 3^m products of the slots' (b0, b1, b2), C-order
    over {0,1,2}^m.  ``what`` is "R" for the density psi = front * R with
    R = d/dx det(E), "F" for the CDF front * det(E), clamped to [0, 1].
    Abscissas x <= 0 give zeros.
    """
    cfg = cfg or EvalConfig()
    n, m = params.n, params.m
    if n == m:
        raise ValueError("the Pfaffian basis needs n > m (N = n-m+1 > 1)")
    if what not in ("R", "F"):
        raise ValueError("what must be 'R' or 'F'")
    lam = params.lambdas
    if any(lam[i] - lam[i + 1] < MIN_GAP * (1.0 + lam[0]) for i in range(m - 1)):
        raise ValueError("the HGM route requires distinct noncentrality eigenvalues")
    xs = sorted(xs)
    out = [(x, np.zeros(3 ** m), 0.0, 0.0) for x in xs if x <= 0]
    xs = xs[len(out):]
    if not xs:
        return out
    sys = PfaffianSystem(n, m)
    N = sys.N
    coeffs = _entry_reductions(n, m, N)
    # det(f_j(lam_i)) = prod_{a<b} (lam_b - lam_a) det(f_j[lam_1..lam_i])
    front = _front_factor(params) / math.prod(b - a for a, b in itertools.combinations(lam, 2))
    state = initial_state(params, min(X0, xs[0]), cfg)
    for x in xs:
        if x > X0:
            state = hgm_integrate(sys, state, x, lam, cfg)
        elif x != state.x:
            # the series start is cheap and exact to rounding, which the
            # determinant needs: for m >= 3 it amplifies state errors by ~1e5 at x < 1
            state = initial_state(params, x, cfg)
        s = math.exp(N * math.log(x) - x)
        basis = state.values.reshape(m, 3) * (1.0, s, s)
        rows = [[sum(c.eval((x, y)) * b for c, b in zip(cj, v)) for cj in coeffs]
                for y, v in zip(lam, basis.tolist())]
        if what == "F":
            value = _det(rows)
            dist = min(max(front * value, 0.0), 1.0)
        else:
            # d/dx H^{n-j}_N(x, lam_i) = x^{n-j} e^{-x} u1_i: the sum of the
            # determinants with one row differentiated is minus the bordered one
            border = [x ** (n - j) for j in range(1, m + 1)] + [0.0]
            g = (math.exp(-x) * state.values[1::3]).tolist()
            value = -_det([row + [gi] for row, gi in zip(rows, g)] + [border])
            dist = front * value
        out.append((x, functools.reduce(np.kron, basis), value, dist))
    return out


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
