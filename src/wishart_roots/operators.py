"""Differential-operator algebra and exact annihilation checks.

Operators act on the m+1 variables (x, lam_1, ..., lam_m) with rational-
function coefficients.  The generators of interest are

    P_M[y]   = y d^2/dy^2 + (M+1) d/dy - x,
    Q_NM[y]  = y d^3/dy^3 + (M - y + 2) d^2/dy^2 - (x + N + 1) d/dy + x,

together with the second-order mixed operator that trades d/dx for the
lam-Euler operators, the explicitly printed m = 2 and m = 3 generators,
and least common left multiples of one-variable operators at rational
specializations.  Verification applies an operator to the exact lam-series
of R_{n,m}; the residual must be the exact zero series on the certified
box, not merely small.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .ratfunc import MPoly, RatFunc
from .series_engine import Image, LambdaSeries, build_R_series

Deriv = Tuple[int, ...]  # (order in x, orders in lam_1..lam_m)


class OrderDeficitError(ValueError):
    """The series is too short for the requested operator application."""


class DiffOperator:
    """Finite sum of coefficient * mixed-partial terms on (x, lam_1..lam_m)."""

    __slots__ = ("m", "terms")

    def __init__(self, m: int, terms: Dict[Deriv, RatFunc] | None = None):
        self.m = m
        self.terms: Dict[Deriv, RatFunc] = {}
        if terms:
            for d, c in terms.items():
                if not c.is_zero():
                    self.terms[tuple(d)] = c

    @property
    def nvars(self) -> int:
        return self.m + 1

    # -- construction helpers ---------------------------------------------

    @staticmethod
    def zero(m: int) -> "DiffOperator":
        return DiffOperator(m)

    @staticmethod
    def identity(m: int) -> "DiffOperator":
        return DiffOperator(m, {(0,) * (m + 1): RatFunc.const(m + 1, 1)})

    @staticmethod
    def monomial(m: int, coef: RatFunc, dx: int = 0, dlam: Sequence[int] | None = None) -> "DiffOperator":
        d = [dx] + list(dlam or [0] * m)
        return DiffOperator(m, {tuple(d): coef})

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "DiffOperator") -> "DiffOperator":
        out = dict(self.terms)
        for d, c in other.terms.items():
            s = out[d] + c if d in out else c
            if s.is_zero():
                out.pop(d, None)
            else:
                out[d] = s
        return DiffOperator(self.m, out)

    def __neg__(self) -> "DiffOperator":
        return DiffOperator(self.m, {d: -c for d, c in self.terms.items()})

    def __sub__(self, other: "DiffOperator") -> "DiffOperator":
        return self + (-other)

    def scale(self, c: RatFunc | Fraction | int) -> "DiffOperator":
        if not isinstance(c, RatFunc):
            c = RatFunc.const(self.nvars, c)
        return DiffOperator(self.m, {d: v * c for d, v in self.terms.items()})

    def compose(self, other: "DiffOperator") -> "DiffOperator":
        """self o other (apply ``other`` first)."""
        out: Dict[Deriv, RatFunc] = {}
        for d1, c1 in self.terms.items():
            for d2, c2 in other.terms.items():
                # move the d1 derivatives past the coefficient c2 by Leibniz
                for gamma in itertools.product(*(range(a + 1) for a in d1)):
                    coef = c2
                    factor = 1
                    for a, g in zip(d1, gamma):
                        factor *= math.comb(a, g)
                    # differentiate c2 by (d1 - gamma)
                    for var, times in enumerate(tuple(a - g for a, g in zip(d1, gamma))):
                        for _ in range(times):
                            coef = coef.diff(var)
                    if coef.is_zero():
                        continue
                    dd = tuple(g + b for g, b in zip(gamma, d2))
                    val = c1 * coef * factor
                    s = out[dd] + val if dd in out else val
                    if s.is_zero():
                        out.pop(dd, None)
                    else:
                        out[dd] = s
        return DiffOperator(self.m, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffOperator):
            return NotImplemented
        if self.m != other.m:
            return False
        keys = set(self.terms) | set(other.terms)
        z = RatFunc.const(self.nvars, 0)
        return all(self.terms.get(k, z) == other.terms.get(k, z) for k in keys)

    def max_order(self) -> int:
        return max((sum(d) for d in self.terms), default=0)

    # -- series application ---------------------------------------------------

    def apply(self, series: LambdaSeries) -> LambdaSeries:
        """Exact application to a LambdaSeries.

        Coefficients must be polynomial (clear denominators first); lam
        exponents must be nonnegative, x exponents may be Laurent.  The
        output's per-variable certified box shrinks by the lam-derivative
        order of each term, and terms beyond ``series.order`` are dropped.

        The work is done on the series' integer image: the operator's
        coefficients are scaled to ints over their lcm denominator, each
        derivative multi-index is taken once, one step from its nearest
        computed parent, and each coefficient monomial x^a lam^e is an
        exponent shift and an int multiply into the output image.
        """
        if series.m != self.m:
            raise ValueError("variable-count mismatch")
        # every term is checked, in stored order, before any work
        polys = []
        for d, c in self.terms.items():
            if not c.is_poly():
                raise ValueError("rational coefficients: clear denominators before apply()")
            if any(v < k for v, k in zip(series.valid, d[1:])):
                raise OrderDeficitError(self._deficit(series.valid))
            poly = c.as_poly().terms
            if any(p < 0 for e in poly for p in e[1:]):
                raise ValueError("negative lam exponent in operator coefficient")
            if poly:
                polys.append((d, poly))
        den_op = math.lcm(*(v.denominator for _, poly in polys for v in poly.values()))
        derivs = _derivatives(series, sorted({d for d, _ in polys}, key=sum))
        order = series.order
        acc: Image = {}
        for d, poly in polys:
            mons = [(e[0], e[1:], v.numerator * (den_op // v.denominator)) for e, v in poly.items()]
            for q, p in derivs[d].num.items():
                shifted = {0: p}  # p times x^a, per x-power a of the monomials
                for a, e, c in mons:
                    nq = tuple(map(operator.add, q, e))
                    if max(nq) > order:
                        continue
                    pa = shifted.get(a)
                    if pa is None:
                        pa = shifted[a] = {(i + a, j): v for (i, j), v in p.items()}
                    out = acc.get(nq)
                    if out is None:
                        acc[nq] = {t: c * v for t, v in pa.items()}
                    else:
                        for t, v in pa.items():
                            out[t] = out.get(t, 0) + c * v
        num = {}
        for q, out in acc.items():
            terms = {t: v for t, v in out.items() if v}
            if terms:
                num[q] = terms
        valid = tuple(min([v] + [v - d[1 + i] for d, _ in polys])
                      for i, v in enumerate(series.valid))
        return LambdaSeries.image(series.m, order, num, series.den * den_op, valid)

    def _deficit(self, valid: Sequence[int]) -> str:
        need = [max(d[1 + i] for d in self.terms) for i in range(self.m)]
        short = max(k - v for k, v in zip(need, valid))
        return (f"series order too small for operator: it takes lam-derivatives of orders "
                f"{tuple(need)} and the series is certified on the box {tuple(valid)}; "
                f"raise the series order by at least {short}")


def _derivatives(series: LambdaSeries, wanted: Sequence[Deriv]) -> Dict[Deriv, LambdaSeries]:
    """The derivatives of ``series`` at every index in ``wanted``, each one
    taken from its nearest computed parent (``wanted`` is sorted by total
    order, so the parents come first)."""
    done = {(0,) * (series.m + 1): series}
    for d in wanted:
        if d in done:
            continue
        p = max((k for k in done if all(a <= b for a, b in zip(k, d))), key=sum)
        cur = done[p]
        step = list(p)
        for var in range(len(d)):
            while step[var] < d[var]:
                cur = cur.diff_x() if var == 0 else cur.diff_lambda(var - 1)
                step[var] += 1
                done[tuple(step)] = cur
    return done


# ---------------------------------------------------------------------------
# the paper-facing generators
# ---------------------------------------------------------------------------

def build_P(M: int, var: int, m: int) -> DiffOperator:
    """P_M acting on lam_{var}:  y y'' ... concretely  y d2 + (M+1) d - x."""
    op = DiffOperator(m)
    nv = m + 1
    lam = RatFunc(MPoly.var(nv, 1 + var))
    x = RatFunc(MPoly.var(nv, 0))
    one = RatFunc.const(nv, 1)
    d2 = [0] * m
    d2[var] = 2
    d1 = [0] * m
    d1[var] = 1
    op = op + DiffOperator.monomial(m, lam, 0, d2)
    op = op + DiffOperator.monomial(m, one * (M + 1), 0, d1)
    op = op + DiffOperator.monomial(m, -x, 0, None)
    return op


def build_Q(N: int, M: int, var: int, m: int) -> DiffOperator:
    """Q_{N,M} on lam_{var}:  y d3 + (M - y + 2) d2 - (x + N + 1) d + x."""
    nv = m + 1
    lam = RatFunc(MPoly.var(nv, 1 + var))
    x = RatFunc(MPoly.var(nv, 0))
    one = RatFunc.const(nv, 1)
    d3 = [0] * m
    d3[var] = 3
    d2 = [0] * m
    d2[var] = 2
    d1 = [0] * m
    d1[var] = 1
    op = DiffOperator.monomial(m, lam, 0, d3)
    op = op + DiffOperator.monomial(m, one * (M + 2) - lam, 0, d2)
    op = op + DiffOperator.monomial(m, -(x + one * (N + 1)), 0, d1)
    op = op + DiffOperator.monomial(m, x, 0, None)
    return op


def build_T(j: int, n: int, m: int, var: int) -> DiffOperator:
    """T_1 = P_{n-m}; T_j = Q_{n-m+j, n-m} for 2 <= j <= m."""
    if j == 1:
        return build_P(n - m, var, m)
    if 2 <= j <= m:
        return build_Q(n - m + j, n - m, var, m)
    raise ValueError("T_j defined for 1 <= j <= m")


def theorem2_operator(n: int, m: int) -> DiffOperator:
    """x dx + sum_k (lam_k d2_k + (n-m+1-lam_k) d_k - n) + m(m-1)/2 + 1: the
    Euler-shift operator plus a constant."""
    const = Fraction(-n * m) + Fraction(m * (m - 1), 2) + 1
    return euler_shift_operator(n, m) + DiffOperator.identity(m).scale(const)


def euler_shift_operator(n: int, m: int) -> DiffOperator:
    """x dx + sum_k (lam_k d2_k + (n-m+1-lam_k) d_k): multiplies R_{n,m} by
    the constant mn - m(m-1)/2 - 1."""
    nv = m + 1
    x = RatFunc(MPoly.var(nv, 0))
    op = DiffOperator.monomial(m, x, 1, None)
    for k in range(m):
        lam = RatFunc(MPoly.var(nv, 1 + k))
        d2 = [0] * m
        d2[k] = 2
        d1 = [0] * m
        d1[k] = 1
        op = op + DiffOperator.monomial(m, lam, 0, d2)
        op = op + DiffOperator.monomial(m, RatFunc.const(nv, n - m + 1) - lam, 0, d1)
    return op


# ---------------------------------------------------------------------------
# gauge translation
# ---------------------------------------------------------------------------

def gauge_translate(op: DiffOperator) -> DiffOperator:
    """Conjugation by e^{-sum lam}/Vandermonde:
    d/dlam_i -> d/dlam_i + 1 + sum_{j != i} 1/(lam_i - lam_j).

    An annihilator of R becomes an annihilator of the density psi.
    """
    m = op.m
    nv = m + 1
    shifted = [DiffOperator.zero(m) for _ in range(m)]
    for i in range(m):
        phi = RatFunc.const(nv, 1)
        for j in range(m):
            if j == i:
                continue
            diff = MPoly.var(nv, 1 + i) - MPoly.var(nv, 1 + j)
            phi = phi + RatFunc(MPoly.const(nv, 1), diff)
        d1 = [0] * m
        d1[i] = 1
        shifted[i] = DiffOperator.monomial(m, RatFunc.const(nv, 1), 0, d1) + \
            DiffOperator.monomial(m, phi, 0, None)
    out = DiffOperator.zero(m)
    for d, c in op.terms.items():
        term = DiffOperator.monomial(m, c, d[0], None)
        for i in range(m):
            for _ in range(d[1 + i]):
                term = term.compose(shifted[i])
        out = out + term
    return out


# ---------------------------------------------------------------------------
# verification drivers
# ---------------------------------------------------------------------------

def residual_report(name: str, params: dict, residual: LambdaSeries) -> dict:
    bad = residual.nonzero_on_valid_box()
    return {
        "check": name,
        "params": params,
        "valid_box": list(residual.valid),
        "max_residual_terms": len(bad),
        "pass": not bad,
    }


def verify_theorem1(n: int, m: int, order: int, series: LambdaSeries | None = None) -> List[dict]:
    """Products T_k[lam_1] ... T_k[lam_m] annihilate R_{n,m}, k = 1..m."""
    R = series if series is not None else build_R_series(n, m, order)
    reports = []
    for k in range(1, m + 1):
        cur = R
        for var in range(m):
            cur = build_T(k, n, m, var).apply(cur)
        reports.append(
            residual_report("theorem1_product", {"n": n, "m": m, "k": k, "order": order}, cur)
        )
    return reports


def verify_theorem2(n: int, m: int, order: int, series: LambdaSeries | None = None) -> List[dict]:
    """The mixed second-order operator annihilates R; equivalently the
    Euler-shift operator has exact eigenvalue mn - m(m-1)/2 - 1 on R."""
    R = series if series is not None else build_R_series(n, m, order)
    # theorem2_operator is the Euler-shift operator minus the eigenvalue, so
    # both statements have the one residual
    eig = Fraction(m * n - m * (m - 1) // 2 - 1)
    res = theorem2_operator(n, m).apply(R)
    return [
        residual_report("theorem2", {"n": n, "m": m, "order": order}, res),
        residual_report("theorem2_eigenvalue",
                        {"n": n, "m": m, "order": order, "eigenvalue": str(eig)}, res),
    ]


# ---------------------------------------------------------------------------
# the explicitly printed m = 2 and m = 3 operators
# ---------------------------------------------------------------------------

def printed_m2_generators(n: int) -> List[DiffOperator]:
    """The three rank-12 generators for m = 2 (orders 2, 3, 3)."""
    m = 2
    nv = 3
    x = RatFunc(MPoly.var(nv, 0))
    l1 = RatFunc(MPoly.var(nv, 1))
    l2 = RatFunc(MPoly.var(nv, 2))
    one = RatFunc.const(nv, 1)

    # lam1 d1^2 + lam2 d2^2 - (lam1-n+1) d1 - (lam2-n+1) d2 + x dx - 2n + 2
    g1 = (
        DiffOperator.monomial(m, l1, 0, [2, 0])
        + DiffOperator.monomial(m, l2, 0, [0, 2])
        + DiffOperator.monomial(m, -(l1 - one * (n - 1)), 0, [1, 0])
        + DiffOperator.monomial(m, -(l2 - one * (n - 1)), 0, [0, 1])
        + DiffOperator.monomial(m, x, 1, None)
        + DiffOperator.monomial(m, one * (2 - 2 * n), 0, None)
    )

    # d3/dx dlam1 dlam2 + 2 d2/dlam1 dlam2 - d1 - d2
    g2 = (
        DiffOperator.monomial(m, one, 1, [1, 1])
        + DiffOperator.monomial(m, one * 2, 0, [1, 1])
        + DiffOperator.monomial(m, -one, 0, [1, 0])
        + DiffOperator.monomial(m, -one, 0, [0, 1])
    )

    # (lam1 lam2 d1 + lam1 lam2 d2 + (n-1)(lam1+lam2)) d2/dlam1 dlam2 + (n-1) x
    #   + (x dx + 2x - n + 2)(x dx - lam1 d1 - lam2 d2 + x - 2n + 2)
    head = (
        DiffOperator.monomial(m, l1 * l2, 0, [2, 1])
        + DiffOperator.monomial(m, l1 * l2, 0, [1, 2])
        + DiffOperator.monomial(m, (l1 + l2) * (n - 1), 0, [1, 1])
        + DiffOperator.monomial(m, x * (n - 1), 0, None)
    )
    left = (
        DiffOperator.monomial(m, x, 1, None)
        + DiffOperator.monomial(m, x * 2 + one * (2 - n), 0, None)
    )
    right = (
        DiffOperator.monomial(m, x, 1, None)
        + DiffOperator.monomial(m, -l1, 0, [1, 0])
        + DiffOperator.monomial(m, -l2, 0, [0, 1])
        + DiffOperator.monomial(m, x + one * (2 - 2 * n), 0, None)
    )
    g3 = head + left.compose(right)
    return [g1, g2, g3]


def printed_order5_operator(n: int) -> DiffOperator:
    """The fifth-order operator in lam_1 alone (LCLM of P_{n-2} and Q_{n,n-2})."""
    m = 2
    nv = 3
    x = RatFunc(MPoly.var(nv, 0))
    l1 = RatFunc(MPoly.var(nv, 1))
    one = RatFunc.const(nv, 1)
    return (
        DiffOperator.monomial(m, l1 * l1, 0, [5, 0])
        + DiffOperator.monomial(m, l1 * (one * (2 * n + 2) - l1), 0, [4, 0])
        + DiffOperator.monomial(
            m, one * (n * n + n) - x * l1 * 2 - l1 * (2 * n + 3), 0, [3, 0]
        )
        + DiffOperator.monomial(
            m, -(one * (n * n + 2 * n) - x * l1 * 2 + x * (2 * n)), 0, [2, 0]
        )
        + DiffOperator.monomial(m, x * (x + one * (2 * n + 1)), 0, [1, 0])
        + DiffOperator.monomial(m, -(x * x), 0, None)
    )


def printed_m2_third_order(n: int) -> DiffOperator:
    """The third-order operator adjoined to reach the rank-8 system (m = 2)."""
    m = 2
    nv = 3
    x = RatFunc(MPoly.var(nv, 0))
    l1 = RatFunc(MPoly.var(nv, 1))
    l2 = RatFunc(MPoly.var(nv, 2))
    one = RatFunc.const(nv, 1)
    head = (
        DiffOperator.monomial(m, l1 * 2, 0, [2, 1])
        + DiffOperator.monomial(m, l2 * 2, 0, [1, 2])
        + DiffOperator.monomial(m, -(l1 + l2) * 3 + one * (4 * n - 6), 0, [1, 1])
        + DiffOperator.monomial(m, l2, 0, [1, 0])
        + DiffOperator.monomial(m, l1, 0, [0, 1])
    )
    xop = (
        DiffOperator.monomial(m, x, 2, None)
        + DiffOperator.monomial(m, x + one * (3 - n), 1, None)
        + DiffOperator.monomial(m, one * n, 0, None)
    )
    dsum = DiffOperator.monomial(m, one, 0, [1, 0]) + DiffOperator.monomial(m, one, 0, [0, 1])
    tail = DiffOperator.monomial(m, x * 3, 1, None) + DiffOperator.monomial(
        m, one * (6 - 2 * n), 0, None
    )
    return head - xop.compose(dsum) + tail


def printed_m3_mixed(n: int) -> DiffOperator:
    """d4/dx d1 d2 d3 + 3 d3/d1 d2 d3 - d2/d1d2 - d2/d1d3 - d2/d2d3  (m = 3)."""
    m = 3
    one = RatFunc.const(4, 1)
    return (
        DiffOperator.monomial(m, one, 1, [1, 1, 1])
        + DiffOperator.monomial(m, one * 3, 0, [1, 1, 1])
        + DiffOperator.monomial(m, -one, 0, [1, 1, 0])
        + DiffOperator.monomial(m, -one, 0, [1, 0, 1])
        + DiffOperator.monomial(m, -one, 0, [0, 1, 1])
    )


def printed_m3_sum(n: int, as_printed: bool = False) -> DiffOperator:
    """sum_k ( lam_k^2 d4 + lam_k(2n-2-lam_k) d3 + (n^2-3n+2-(x+2n)lam_k) d2
              + (x lam_k - (n-2)(x+n+1)) d ) + (3n-2) x   (m = 3).

    The source display omits the lam_k factor in the d3 coefficient; the
    corrected coefficient above is the unique one (exact linear fit over the
    symmetric shape) for which the operator annihilates R_{n,3}.  Pass
    ``as_printed=True`` to get the uncorrected display (which does not
    annihilate; kept as a negative control).
    """
    m = 3
    nv = 4
    x = RatFunc(MPoly.var(nv, 0))
    one = RatFunc.const(nv, 1)
    op = DiffOperator.monomial(m, x * (3 * n - 2), 0, None)
    for k in range(3):
        lam = RatFunc(MPoly.var(nv, 1 + k))
        d4 = [0] * 3
        d4[k] = 4
        d3 = [0] * 3
        d3[k] = 3
        d2 = [0] * 3
        d2[k] = 2
        d1 = [0] * 3
        d1[k] = 1
        c3 = one * (2 * n - 2) - lam
        if not as_printed:
            c3 = c3 * lam
        op = op + DiffOperator.monomial(m, lam * lam, 0, d4)
        op = op + DiffOperator.monomial(m, c3, 0, d3)
        op = op + DiffOperator.monomial(
            m, one * (n * n - 3 * n + 2) - (x + one * (2 * n)) * lam, 0, d2
        )
        op = op + DiffOperator.monomial(m, x * lam - one * ((n - 2)) * (x + one * (n + 1)), 0, d1)
    return op


def printed_m2_sn_operator(n: int, second_derivative_reading: bool = True) -> DiffOperator:
    """The quoted second-order operator living on the S_n hypersurface of the
    rank-8 system (m = 2), multiplied through by x^2 to clear denominators.

    Its display is ambiguous in several places ("lam^2 d/dlam^2" tokens,
    operator grouping) and under every bounded reading -- including exact
    group-weight refits -- the resulting operator does NOT annihilate R_{n,2}
    (see the negative-control test), unlike every other quoted generator.
    It is therefore kept out of the verification suites and retained only
    for reference.
    """
    m = 2
    nv = 3
    x = RatFunc(MPoly.var(nv, 0))
    l1 = RatFunc(MPoly.var(nv, 1))
    l2 = RatFunc(MPoly.var(nv, 2))
    one = RatFunc.const(nv, 1)
    inv_x = RatFunc(MPoly.const(nv, 1), MPoly.var(nv, 0))
    Dx = DiffOperator.monomial(m, one, 1, None) + DiffOperator.monomial(
        m, one - inv_x * (n - 2), 0, None
    )
    Dlam = DiffOperator.monomial(m, l1, 0, [1, 0]) + DiffOperator.monomial(m, l2, 0, [0, 1])
    d11 = DiffOperator.monomial(m, one, 0, [2, 0])
    d22 = DiffOperator.monomial(m, one, 0, [0, 2])
    d12 = DiffOperator.monomial(m, one, 0, [1, 1])
    d1 = DiffOperator.monomial(m, one, 0, [1, 0])
    d2 = DiffOperator.monomial(m, one, 0, [0, 1])
    I = DiffOperator.identity(m)
    Sn = (x * 2 - one * (n - 1)) * (x * 2 - one * (n - 1)) * (
        l1 + l2 - x * 2 + one * (2 * n - 2)
    ) - (l1 - l2) * (l1 - l2) * x * Fraction(1, 2)
    sq1, sq2 = (d11, d22) if second_derivative_reading else (d1, d2)
    g1 = (
        Dx.compose(Dx).scale(x)
        + d12.scale(l1 * l2 * 2 * inv_x)
        - Dlam.compose(Dx.scale(2) + I)
        + Dx.scale(x - one * (n - 1))
        + I.scale(l1 + l2 - one)
    ).scale(Sn)
    g2 = (
        (Dlam.compose(Dx) - d12.scale(l1 * l2 * 2 * inv_x)).scale(x - one * (n - 1))
        + (Dlam + Dx.scale(x - one * (n - 1)) - I).scale(x * 2 - one * n)
    ).scale(l1 + l2 - x * 4 + one * (2 * n - 2))
    g3 = (
        (Dlam + I.scale(x * 2 - one * (n - 1))).scale(l1 + l2)
        - sq1.scale(l1 * l1)
        - sq2.scale(l2 * l2)
        - I.scale((l1 + l2) * (l1 + l2) * Fraction(1, 2))
    ).scale((x * 2 - one * (n - 1)) * 2)
    g4 = (Dlam.compose(Dx).scale(x) - I.scale((l1 + l2) * Fraction(1, 2) + x * 2 - one * n)).scale(
        l1 * l2 * 2
    )
    g5 = (d11.scale(l1 * l1) - d22.scale(l2 * l2) - d1.scale(l1 * l1) + d2.scale(l2 * l2)).scale(
        l1 - l2
    )
    xx = RatFunc(MPoly(nv, {(2, 0, 0): Fraction(1)}))
    return (g1 + g2 + g3 + g4 + g5).scale(xx)


def require_printed_m(m: int) -> None:
    if m not in (2, 3):
        raise ValueError("printed operators exist for m = 2 and m = 3 only")


def verify_printed(n: int, m: int, order: int, series: LambdaSeries | None = None) -> List[dict]:
    """Exact-zero residuals of the printed operators on the R-series."""
    require_printed_m(m)
    R = series if series is not None else build_R_series(n, m, order)
    reports = []
    if m == 2:
        for i, op in enumerate(printed_m2_generators(n), start=1):
            res = op.apply(R)
            reports.append(
                residual_report(f"printed_m2_generator_{i}", {"n": n, "order": order}, res)
            )
        res = printed_order5_operator(n).apply(R)
        reports.append(residual_report("printed_m2_order5", {"n": n, "order": order}, res))
        res = printed_m2_third_order(n).apply(R)
        reports.append(residual_report("printed_m2_third_order", {"n": n, "order": order}, res))
    else:
        res = printed_m3_mixed(n).apply(R)
        reports.append(residual_report("printed_m3_mixed", {"n": n, "order": order}, res))
        res = printed_m3_sum(n).apply(R)
        reports.append(residual_report("printed_m3_sum", {"n": n, "order": order}, res))
    return reports


# ---------------------------------------------------------------------------
# univariate Ore algebra over Q(y): right division and LCLM
# ---------------------------------------------------------------------------

# Polynomials in y are little-endian lists of Python ints, trimmed so the
# last entry is nonzero; [] is zero.

def _ip_trim(p: List[int]) -> List[int]:
    while p and not p[-1]:
        p.pop()
    return p


def _ip_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _ip_trim(out)


def _ip_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def _ip_diff(a):
    return [a[i] * i for i in range(1, len(a))]


def _ip_exquo(a, b):
    """a / b in Z[y], for a b that divides a exactly."""
    nb = len(b) - 1
    lb = b[-1]
    r = list(a)
    q = [0] * (len(a) - nb)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + nb] // lb
        q[k] = c
        if c:
            for i in range(nb):
                r[k + i] -= c * b[i]
    return q


def _ip_primitive(a):
    g = math.gcd(*a)
    return a if g == 1 else [c // g for c in a]


def _ip_prem(a, b):
    """A pseudo-remainder of a by b: c*a - q*b with deg < deg b, c a nonzero int."""
    nb = len(b) - 1
    lb = b[-1]
    r = list(a)
    while len(r) > nb:
        c = r[-1]
        d = len(r) - 1 - nb
        g = math.gcd(c, lb)
        s, c = lb // g, c // g
        r.pop()
        if s != 1:
            r = [v * s for v in r]
        for i in range(nb):
            r[d + i] -= c * b[i]
        _ip_trim(r)
    return r


def _ip_gcd(a, b):
    """gcd of nonzero a, b in Q[y] as a primitive Z[y] polynomial, by the
    primitive pseudo-remainder sequence; [1] when they are coprime."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        return [1]
    a, b = _ip_primitive(a), _ip_primitive(b)
    while True:
        r = _ip_prem(a, b)
        if not r:
            return b if b[-1] > 0 else [-c for c in b]
        if len(r) == 1:
            return [1]
        a, b = b, _ip_primitive(r)


def _lowest(num, den) -> "URat":
    """num/den in URat's canonical form."""
    out = object.__new__(URat)
    if not num:
        out.num, out.den = [], [1]
        return out
    g = _ip_gcd(num, den)
    if len(g) > 1:
        num, den = _ip_exquo(num, g), _ip_exquo(den, g)
    c = math.gcd(*num, *den)
    if den[-1] < 0:
        c = -c
    if c != 1:
        num = [v // c for v in num]
        den = [v // c for v in den]
    out.num, out.den = num, den
    return out


class URat:
    """Rational function in one variable over Q, held as Z[y] num/den in the
    canonical form: gcd(num, den) = 1 in Q[y], integer content 1 across num
    and den together, den's leading coefficient positive, zero as []/[1].
    Equal values therefore have identical ``num`` and ``den`` lists."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1,)):
        num = [Fraction(c) for c in num]
        den = [Fraction(c) for c in den]
        ln = math.lcm(*(c.denominator for c in num))
        ld = math.lcm(*(c.denominator for c in den))
        num = _ip_trim([c.numerator * (ln // c.denominator) * ld for c in num])
        den = _ip_trim([c.numerator * (ld // c.denominator) * ln for c in den])
        if not den:
            raise ZeroDivisionError
        r = _lowest(num, den)
        self.num, self.den = r.num, r.den

    @staticmethod
    def const(c):
        c = Fraction(c)
        return _lowest([c.numerator] if c else [], [c.denominator])

    def is_zero(self):
        return not self.num

    def __add__(self, o):
        a, b, c, d = self.num, self.den, o.num, o.den
        return _lowest(_ip_add(_ip_mul(a, d), _ip_mul(c, b)), _ip_mul(b, d))

    def __neg__(self):
        out = object.__new__(URat)
        out.num, out.den = [-c for c in self.num], self.den
        return out

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        if not isinstance(o, URat):
            o = URat.const(o)
        return _lowest(_ip_mul(self.num, o.num), _ip_mul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, o):
        if o.is_zero():
            raise ZeroDivisionError
        return _lowest(_ip_mul(self.num, o.den), _ip_mul(self.den, o.num))

    def diff(self):
        a, b = self.num, self.den
        return _lowest(_ip_add(_ip_mul(_ip_diff(a), b), [-v for v in _ip_mul(a, _ip_diff(b))]),
                       _ip_mul(b, b))

    def __eq__(self, o):
        if not isinstance(o, URat):
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __str__(self):
        if self.den == [1]:
            return str(self.num)
        return f"{self.num}/{self.den}"

    __repr__ = __str__


class OreOperator:
    """sum_i a_i(y) d^i with URat coefficients (dense list by derivative order)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: List[URat]):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.coeffs = coeffs

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, o):
        out = [URat.const(0)] * max(len(self.coeffs), len(o.coeffs))
        for i, c in enumerate(self.coeffs):
            out[i] = out[i] + c
        for i, c in enumerate(o.coeffs):
            out[i] = out[i] + c
        return OreOperator(out)

    def __neg__(self):
        return OreOperator([-c for c in self.coeffs])

    def __sub__(self, o):
        return self + (-o)

    def scale(self, c: URat):
        return OreOperator([a * c for a in self.coeffs])

    def compose(self, other: "OreOperator") -> "OreOperator":
        """self o other, using d^i o b = sum_t C(i,t) b^{(t)} d^{i-t}."""
        out = [URat.const(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_zero():
                    continue
                bt = b
                for t in range(i + 1):
                    coef = a * bt * math.comb(i, t)
                    idx = (i - t) + j
                    while idx >= len(out):
                        out.append(URat.const(0))
                    out[idx] = out[idx] + coef
                    bt = bt.diff()
        return OreOperator(out)

    def right_divmod(self, d: "OreOperator"):
        """self = q o d + r with ord(r) < ord(d)."""
        if d.is_zero():
            raise ZeroDivisionError
        r = OreOperator(list(self.coeffs))
        q = OreOperator([])
        while not r.is_zero() and r.order >= d.order:
            shift = r.order - d.order
            mono = OreOperator([URat.const(0)] * shift + [r.coeffs[-1] / d.coeffs[-1]])
            q = q + mono
            r = r - mono.compose(d)
        return q, r

    def monic(self) -> "OreOperator":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        return OreOperator([c / lead for c in self.coeffs])

    def __eq__(self, o):
        if not isinstance(o, OreOperator):
            return NotImplemented
        if len(self.coeffs) != len(o.coeffs):
            return False
        return all(a == b for a, b in zip(self.coeffs, o.coeffs))

    def __str__(self):
        return " + ".join(f"({c})*D^{i}" for i, c in enumerate(self.coeffs))

    __repr__ = __str__


def _ore_reduce_powers(d: OreOperator, upto: int) -> List[List[URat]]:
    """Right remainders of D^i modulo d, i = 0..upto, as coefficient vectors."""
    k = d.order
    rows = []
    cur = [URat.const(0)] * k
    if k > 0:
        cur[0] = URat.const(1)
    rows.append(list(cur))
    for _ in range(upto):
        # multiply by D on the left: (sum c_j D^j) -> sum (c_j' D^j + c_j D^{j+1})
        nxt = [URat.const(0)] * (k + 1)
        for j, c in enumerate(cur):
            nxt[j] = nxt[j] + c.diff()
            nxt[j + 1] = nxt[j + 1] + c
        # reduce the D^k term by d
        top = nxt[k]
        if not top.is_zero():
            lead = d.coeffs[-1]
            for j in range(k):
                nxt[j] = nxt[j] - top * d.coeffs[j] / lead
        cur = nxt[:k]
        rows.append(list(cur))
    return rows


def lclm(ops: List[OreOperator], max_order: int | None = None) -> OreOperator:
    """Monic least common left multiple by linear algebra over Q(y).

    Finds the minimal r with a combination sum a_i D^i reducing to zero
    modulo every input operator; guards at sum of orders (or ``max_order``).
    """
    if not ops:
        raise ValueError("need at least one operator")
    bound = sum(op.order for op in ops)
    if max_order is not None:
        bound = min(bound, max_order)
    tables = [_ore_reduce_powers(op, bound) for op in ops]
    width = sum(op.order for op in ops)
    for r in range(max(op.order for op in ops), bound + 1):
        # rows i = 0..r of the stacked reduction matrix; find a left kernel
        # vector with a_r != 0 (guaranteeing order exactly r)
        mat = []
        for i in range(r + 1):
            row = []
            for t, op in enumerate(ops):
                row.extend(tables[t][i])
            mat.append(row)
        sol = _solve_left_kernel(mat, width)
        if sol is not None:
            cand = OreOperator(sol).monic()
            if all(cand.right_divmod(op)[1].is_zero() for op in ops):
                return cand
    raise ArithmeticError("LCLM not found within the order guard")


def _solve_left_kernel(mat: List[List[URat]], width: int):
    """A vector a (last entry forced nonzero) with sum_i a_i * mat[i] = 0."""
    rows = len(mat)
    # solve transpose system: unknowns a_0..a_{rows-1}, equations per column
    # set a_{rows-1} = 1 and solve the inhomogeneous system by elimination
    a_cols = rows - 1
    # build matrix M[eq][var] and rhs
    M = [[mat[i][c] for i in range(a_cols)] for c in range(width)]
    rhs = [-mat[rows - 1][c] for c in range(width)]
    # gaussian elimination over Q(y)
    pivots = []
    row = 0
    ncols = a_cols
    for col in range(ncols):
        piv = None
        for rr in range(row, len(M)):
            if not M[rr][col].is_zero():
                piv = rr
                break
        if piv is None:
            continue
        M[row], M[piv] = M[piv], M[row]
        rhs[row], rhs[piv] = rhs[piv], rhs[row]
        inv = M[row][col]
        M[row] = [c / inv for c in M[row]]
        rhs[row] = rhs[row] / inv
        for rr in range(len(M)):
            if rr != row and not M[rr][col].is_zero():
                f = M[rr][col]
                M[rr] = [c - f * d for c, d in zip(M[rr], M[row])]
                rhs[rr] = rhs[rr] - f * rhs[row]
        pivots.append(col)
        row += 1
        if row == len(M):
            break
    # check consistency
    sol = [URat.const(0)] * a_cols
    for r_i, col in enumerate(pivots):
        sol[col] = rhs[r_i]
    for rr in range(row, len(M)):
        if all(c.is_zero() for c in M[rr]) and not rhs[rr].is_zero():
            return None
    # verify
    full = sol + [URat.const(1)]
    for c in range(width):
        s = URat.const(0)
        for i in range(rows):
            s = s + full[i] * mat[i][c]
        if not s.is_zero():
            return None
    return full


def ore_at_x(op: DiffOperator, x_val: Fraction) -> OreOperator:
    """``op`` at a rational x as an Ore operator in the one lam it
    differentiates.  Its coefficients must be polynomials in x and that lam."""
    lams = {i for d in op.terms for i, k in enumerate(d[1:]) if k}
    if len(lams) > 1 or any(d[0] for d in op.terms):
        raise ValueError("an Ore operator takes derivatives in one lam only")
    var = 1 + (lams.pop() if lams else 0)
    x_val = Fraction(x_val)
    coeffs = [URat.const(0)] * (op.max_order() + 1)
    for d, c in op.terms.items():
        if not c.is_poly():
            raise ValueError("an Ore operator needs polynomial coefficients")
        poly: Dict[int, Fraction] = {}
        for e, v in c.as_poly().terms.items():
            if any(p for i, p in enumerate(e[1:], start=1) if i != var):
                raise ValueError("coefficient depends on another lam")
            poly[e[var]] = poly.get(e[var], 0) + v * x_val ** e[0]
        coeffs[d[var]] = URat([poly.get(k, 0) for k in range(max(poly) + 1)])
    return OreOperator(coeffs)


def p_operator_ore(M: int, x_val: Fraction) -> OreOperator:
    """P_M[y] at a rational specialization of x."""
    return ore_at_x(build_P(M, 0, 1), x_val)


def q_operator_ore(N: int, M: int, x_val: Fraction) -> OreOperator:
    """Q_{N,M}[y] at a rational specialization of x."""
    return ore_at_x(build_Q(N, M, 0, 1), x_val)


def order5_ore(n: int, x_val: Fraction) -> OreOperator:
    """The printed fifth-order lam_1 operator at a rational x."""
    return ore_at_x(printed_order5_operator(n), x_val)
