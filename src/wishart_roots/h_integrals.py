"""The kernel integrals H^{k,l}_n(x, y) and their recurrence algebra.

    H^{k,l}_n(x, y) = int_0^x e^{-t} t^k (x-t)^l hpg01(n; t y) dt,

with H^k_n = H^{k,0}_n.  These are the determinant entries of the
largest-root CDF.  This module provides

* numeric evaluation (term-wise gamma series),
* the y-series of H^k_n with exact ExpPoly coefficients,
* all printed recurrences between contiguous indices, as exact
  rational-function combinations (``HCombo``), and
* the reduction of any H^k_n with k >= n-1 onto the three-element basis
  { H^{N-1}_N,  x^N e^{-x} hpg01(N; xy),  x^N e^{-x} hpg01(N+1; xy) }
  for an arbitrary target N > 1, which is what the Pfaffian route runs on.

Atoms of an HCombo are either ("H", k, l, n) or ("B", nu), where B(nu)
stands for e^{-x} * hpg01(nu; x y); x-powers multiplying boundary terms
live in the rational-function coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Dict, List, Tuple

from .exp_poly import ExpPoly, Term, gamma_terms
from .ratfunc import RatFunc
from .special_fn import MAX_TERMS, ConvergenceError, _tail_row, hpg01

Atom = Tuple

# rational functions here always live in the two variables (x, y)
_NV = 2


def _rf_const(c) -> RatFunc:
    return RatFunc.const(_NV, c)


@dataclass(frozen=True)
class HIndex:
    """Index triple of H^{k,l}_n: t-power k, (x-t)-power l, hpg01 parameter n."""

    k: int
    ell: int
    n: int

    def __post_init__(self):
        if self.k < 0 or self.ell < 0 or self.n < 1:
            raise ValueError(f"invalid H index {self}")


def h_atom(k: int, ell: int, n: int) -> Atom:
    return ("H", k, ell, n)


def b_atom(nu: int) -> Atom:
    return ("B", nu)


class HCombo:
    """Finite rational-function combination of H-atoms and boundary atoms."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Dict[Atom, RatFunc] | None = None):
        self.coeffs: Dict[Atom, RatFunc] = {}
        if coeffs:
            for a, c in coeffs.items():
                if not c.is_zero():
                    self.coeffs[a] = c

    def __add__(self, other: "HCombo") -> "HCombo":
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            s = out[a] + c if a in out else c
            if s.is_zero():
                out.pop(a, None)
            else:
                out[a] = s
        r = HCombo.__new__(HCombo)
        r.coeffs = out
        return r

    def __sub__(self, other: "HCombo") -> "HCombo":
        return self + other.scale(_rf_const(-1))

    def scale(self, c: RatFunc) -> "HCombo":
        if c.is_zero():
            return HCombo()
        r = HCombo.__new__(HCombo)
        r.coeffs = {a: v * c for a, v in self.coeffs.items()}
        return r

    def substitute(self, atom: Atom, replacement: "HCombo") -> "HCombo":
        """Replace ``atom`` by the combination ``replacement``."""
        if atom not in self.coeffs:
            return self
        c = self.coeffs[atom]
        rest = HCombo({a: v for a, v in self.coeffs.items() if a != atom})
        return rest + replacement.scale(c)

    def atoms(self):
        return self.coeffs.keys()

    def eval(self, x: float, y: float) -> float:
        total = 0.0
        for a, c in self.coeffs.items():
            total += c.eval([x, y]) * eval_atom(a, x, y)
        return total

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"({c}) * {a}" for a, c in sorted(self.coeffs.items()))

    __repr__ = __str__


def eval_atom(a: Atom, x: float, y: float) -> float:
    if a[0] == "H":
        return h_eval(HIndex(a[1], a[2], a[3]), x, y)
    return math.exp(-x) * hpg01(a[1], x * y)


# ---------------------------------------------------------------------------
# numeric evaluation
# ---------------------------------------------------------------------------

def h_eval(idx: HIndex, x: float, y: float) -> float:
    """Numeric H^{k,l}_n(x, y), hpg01 expanded term-wise: the positive
    series sum_j y^j gamma(k+j+1, x) / ((n)_j j!) for l = 0 and a binomial
    (x-t)^l expansion on top of it otherwise."""
    if x < 0 or y < 0:
        raise ValueError("h_eval requires x >= 0 and y >= 0")
    if x == 0.0:
        return 0.0
    if idx.ell == 0:
        return _h_series_value(idx.k, idx.n, x, y)
    if x <= 5.0:
        # term-wise in y with a beta-function series for the inner
        # integral; mild alternation, well conditioned at small x
        return _h_kl_beta_value(idx.k, idx.ell, idx.n, x, y)
    # peel the (x - t) factors one at a time: H^{k,l} = x H^{k,l-1} -
    # H^{k+1,l-1}; one mild subtraction per level, fine once the factor
    # e^{-t} concentrates the mass well below t = x
    memo: Dict[Tuple[int, int], float] = {}

    def val(k: int, ell: int) -> float:
        if ell == 0:
            return _h_series_value(k, idx.n, x, y)
        got = memo.get((k, ell))
        if got is None:
            got = x * val(k, ell - 1) - val(k + 1, ell - 1)
            memo[(k, ell)] = got
        return got

    return val(idx.k, idx.ell)


@lru_cache(maxsize=100_000)
def _b_integral(a: int, ell: int, x: float) -> float:
    """int_0^x t^a (x-t)^l e^{-t} dt by the alternating beta series
    x^{a+l+1} sum_i (-x)^i/i! * B(a+i+1, l+1)."""
    term = x ** (a + ell + 1) * math.exp(
        math.lgamma(a + 1) + math.lgamma(ell + 1) - math.lgamma(a + ell + 2)
    )
    total = term
    for i in range(1, 10_000):
        term *= -x * (a + i) / (i * (a + i + ell + 1))
        total += term
        if abs(term) < 1e-18 * abs(total) and i > x:
            return total
    raise ConvergenceError(f"beta series stalled at a={a}, l={ell}, x={x}")


def _h_kl_beta_value(k: int, ell: int, n: int, x: float, y: float) -> float:
    total = 0.0
    scale = 1.0  # y^j / ((n)_j j!)
    for j in range(4000):
        if j > 0:
            scale *= y / ((n + j - 1) * j)
        term = scale * _b_integral(k + j, ell, x)
        total += term
        if j > y and abs(term) < 1e-17 * abs(total):
            return total
    raise ConvergenceError(f"H^{k},{ell}_{n} beta series did not converge")


@lru_cache(maxsize=400_000)
def _h_series_value(k: int, n: int, x: float, y: float) -> float:
    """H^k_n(x, y) = sum_j gamma(k+j+1, x) y^j / ((n)_j j!), the quadrature
    columns' sum: gamma(k+j+1, x) is (k+j)! P(k+j+1, x), read from one
    Poisson-tail row (``special_fn._tail_row``, as a list), so term j is
    P(k+j+1, x) k! (k+1)_j y^j / ((n)_j j!) and no Gamma(a) is formed."""
    top = k + int(y) + 2
    p = _tail_row(x, top)
    total = 0.0
    coef = float(math.factorial(k))  # k! (k+1)_j y^j / ((n)_j j!)
    for j in range(MAX_TERMS):
        if j > 0:
            coef *= y * (k + j) / ((n + j - 1) * j)
        if k + j + 1 > top:  # as ``PoissonTails.reach``
            top *= 2
            p = _tail_row(x, top)
        term = coef * p[k + j + 1]
        total += term
        if j > y and term < 1e-17 * total:
            return total
        if term == 0.0 and j > 2:
            return total
    raise ConvergenceError(f"H^{k}_{n} series did not converge at x={x}, y={y}")


def h_series_numerators(idx: HIndex, order: int) -> Tuple[List[Dict[Term, int]], List[int]]:
    """``h_series`` as int numerators over per-coefficient denominators:
    coefficient j is the int term map of gamma(k+j+1, x) over (n)_j j!."""
    if idx.ell != 0:
        raise ValueError("h_series is defined for l = 0 only")
    nums, dens = [], []
    denom = 1  # (n)_j j!
    for j in range(order + 1):
        if j > 0:
            denom *= (idx.n + j - 1) * j
        nums.append(gamma_terms(idx.k + j + 1))
        dens.append(denom)
    return nums, dens


def h_series(idx: HIndex, order: int) -> List[ExpPoly]:
    """Exact y-series coefficients of H^k_n(x, y), orders 0..order.

    Coefficient j is gamma(k+j+1, x) / ((n)_j j!) as an ExpPoly.
    """
    nums, dens = h_series_numerators(idx, order)
    return [ExpPoly({t: Fraction(v, d) for t, v in p.items()}) for p, d in zip(nums, dens)]


# ---------------------------------------------------------------------------
# printed recurrences (each function returns the combination equal to the
# H-function named in its docstring, with any left-hand scalar divided out)
# ---------------------------------------------------------------------------

def rec_lemma1(variant: str, idx: HIndex) -> HCombo:
    """Three contiguous relations for H^k_n, k > 0.

    rec3  : value of H^k_{n-1}
    recip : value of H^{k-1}_n
    rechd : value of H^{k-1}_{n-1}
    """
    k, n = idx.k, idx.n
    if variant == "rec3":
        if k <= 0:
            raise ValueError("rec3 requires k > 0")
        return HCombo({
            h_atom(k, 0, n): _rf_const(1),
            h_atom(k + 1, 0, n + 1): RatFunc.from_terms({(0, 1): Fraction(1, n * (n - 1))}),
        })
    if variant == "recip":
        if k <= 0:
            raise ValueError("recip requires k > 0")
        inv_k = Fraction(1, k)
        return HCombo({
            h_atom(k, 0, n): _rf_const(inv_k),
            h_atom(k, 0, n + 1): RatFunc.from_terms({(0, 1): -Fraction(1, n) * inv_k}),
            b_atom(n): RatFunc.from_terms({(k, 0): inv_k}),
        })
    if variant == "rechd":
        if k <= 0:
            raise ValueError("rechd requires k > 0")
        inv_k = Fraction(1, k)
        return HCombo({
            h_atom(k, 0, n): RatFunc.from_terms({(0, 0): Fraction(n - 1, 1) * inv_k,
                                                 (0, 1): -inv_k}, {(0, 0): Fraction(n - 1)}),
            h_atom(k + 1, 0, n + 1): RatFunc.from_terms({(0, 1): Fraction(1, n * (n - 1)) * inv_k}),
            b_atom(n - 1): RatFunc.from_terms({(k, 0): inv_k}),
        })
    raise ValueError(f"unknown lemma-1 variant {variant!r}")


def rec_lemma2(variant: str, idx: HIndex) -> HCombo:
    """Single-index shifts, k > 0.

    shift_n : value of H^k_{n-1}
    shift_k : value of H^{k+1}_n
    """
    k, n = idx.k, idx.n
    if k <= 0:
        raise ValueError("lemma 2 requires k > 0")
    if variant == "shift_n":
        d = Fraction(1, n * (n - 1))
        return HCombo({
            h_atom(k, 0, n): RatFunc.from_terms({(0, 0): Fraction(n - 1), (0, 1): Fraction(1)},
                                                {(0, 0): Fraction(n - 1)}),
            h_atom(k, 0, n + 1): RatFunc.from_terms({(0, 1): Fraction(k - n + 1)}) * _rf_const(d),
            b_atom(n + 1): RatFunc.from_terms({(k + 1, 1): Fraction(-1)}) * _rf_const(d),
        })
    if variant == "shift_k":
        return HCombo({
            h_atom(k, 0, n): RatFunc.from_terms({(0, 0): Fraction(2 * k + 2 - n),
                                                 (0, 1): Fraction(1)}),
            h_atom(k - 1, 0, n): _rf_const(Fraction(k * (n - k - 1))),
            b_atom(n - 1): RatFunc.from_terms({(k, 0): Fraction(-(n - 1))}),
            b_atom(n): RatFunc.from_terms({(k, 0): Fraction(k), (k + 1, 0): Fraction(-1)}),
        })
    raise ValueError(f"unknown lemma-2 variant {variant!r}")


def rec_lemma3(variant: str, n: int) -> HCombo:
    """Two-H relations at the diagonal, n > 0.

    simrec1 : value of H^{n-1}_{n-1}
    simrec2 : value of H^n_n
    hrecg   : value of H^n_{n+1}
    """
    if n <= 0:
        raise ValueError("lemma 3 requires n > 0")
    if variant == "simrec1":
        if n <= 1:
            raise ValueError("simrec1 requires n > 1")
        d = Fraction(1, n - 1)
        return HCombo({
            h_atom(n - 1, 0, n): RatFunc.from_terms({(0, 0): Fraction(n - 1),
                                                     (0, 1): Fraction(1)}) * _rf_const(d),
            b_atom(n + 1): RatFunc.from_terms({(n, 1): -Fraction(1, n)}) * _rf_const(d),
        })
    if variant == "simrec2":
        return HCombo({
            h_atom(n - 1, 0, n): RatFunc.from_terms({(0, 0): Fraction(n), (0, 1): Fraction(1)}),
            b_atom(n + 1): RatFunc.from_terms({(n, 1): -Fraction(1, n)}),
            b_atom(n): RatFunc.from_terms({(n, 0): Fraction(-1)}),
        })
    if variant == "hrecg":
        return HCombo({
            h_atom(n - 1, 0, n): _rf_const(n),
            b_atom(n + 1): RatFunc.from_terms({(n, 0): Fraction(-1)}),
        })
    raise ValueError(f"unknown lemma-3 variant {variant!r}")


def rec_lemma45(variant: str, idx: HIndex) -> HCombo:
    """Relations for the two-exponent integrals H^{k,l}_n.

    hklnx    : value of H^{k,l}_n      (from x*H^{k,l} = H^{k+1,l} + H^{k,l+1})
    hklnr    : value of H^{k,l}_{n-1}
    hklni    : value of H^{k,l}_n      (integration by parts; k, l > 0)
    hklrecu  : value of H^{k-1,l}_{n-1}
    hklrecu2 : value of H^{k-1,l}_k    (requires n = k + 1)
    """
    k, ell, n = idx.k, idx.ell, idx.n
    if variant == "hklnx":
        if ell <= 0:
            raise ValueError("hklnx requires l > 0")
        inv_x = RatFunc.from_terms({(0, 0): Fraction(1)}, {(1, 0): Fraction(1)})
        return HCombo({
            h_atom(k + 1, ell, n): inv_x,
            h_atom(k, ell + 1, n): inv_x,
        })
    if variant == "hklnr":
        return HCombo({
            h_atom(k, ell, n): _rf_const(1),
            h_atom(k + 1, ell, n + 1): RatFunc.from_terms({(0, 1): Fraction(1, n * (n - 1))}),
        })
    if variant == "hklni":
        if k <= 0 or ell <= 0:
            raise ValueError("hklni requires k > 0 and l > 0")
        return HCombo({
            h_atom(k - 1, ell, n): _rf_const(k),
            h_atom(k, ell - 1, n): _rf_const(-ell),
            h_atom(k, ell, n + 1): RatFunc.from_terms({(0, 1): Fraction(1, n)}),
        })
    if variant == "hklrecu":
        if k <= 0 or ell <= 0:
            raise ValueError("hklrecu requires k > 0 and l > 0")
        d = _rf_const(Fraction(1, n - 1))
        return HCombo({
            h_atom(k, ell, n): d,
            h_atom(k, ell - 1, n): d * _rf_const(ell),
            h_atom(k - 1, ell, n): d * _rf_const(n - k - 1),
        })
    if variant == "hklrecu2":
        if k <= 0 or ell <= 0:
            raise ValueError("hklrecu2 requires k > 0 and l > 0")
        if n != k + 1:
            raise ValueError("hklrecu2 is the n = k+1 case")
        d = _rf_const(Fraction(1, k))
        return HCombo({
            h_atom(k, ell, k + 1): d,
            h_atom(k, ell - 1, k + 1): d * _rf_const(ell),
        })
    raise ValueError(f"unknown lemma-4/5 variant {variant!r}")


def lemma_lhs_index(variant: str, idx: HIndex) -> HIndex:
    """The H-index whose value the corresponding rec_* combo expresses."""
    k, ell, n = idx.k, idx.ell, idx.n
    table = {
        "rec3": HIndex(k, 0, n - 1),
        "recip": HIndex(k - 1, 0, n),
        "rechd": HIndex(k - 1, 0, n - 1),
        "shift_n": HIndex(k, 0, n - 1),
        "shift_k": HIndex(k + 1, 0, n),
        "hklnx": HIndex(k, ell, n),
        "hklnr": HIndex(k, ell, n - 1),
        "hklni": HIndex(k, ell, n),
        "hklrecu": HIndex(k - 1, ell, n - 1),
        "hklrecu2": HIndex(k - 1, ell, k),
    }
    if variant not in table:
        raise ValueError(f"unknown variant {variant!r}")
    return table[variant]


def verify_recurrences() -> dict:
    """Check every printed recurrence numerically on a small (x, y) grid,
    comparing each combination with the H-function it expresses."""
    contiguous = [HIndex(k, 0, n) for k in (1, 2) for n in (2, 3)]  # lemmas 1 and 2
    two_exponent = [HIndex(1, 1, 2), HIndex(2, 1, 3)]  # lemmas 4 and 5
    cases = []
    for fn, variants, idxs in [
        (rec_lemma1, ("rec3", "recip", "rechd"), contiguous),
        (rec_lemma2, ("shift_n", "shift_k"), contiguous),
        (rec_lemma45, ("hklnx", "hklnr", "hklni", "hklrecu"), two_exponent),
        (rec_lemma45, ("hklrecu2",), [HIndex(1, 1, 2), HIndex(2, 2, 3)]),  # needs n = k+1
    ]:
        cases += [(lemma_lhs_index(v, idx), fn(v, idx)) for v in variants for idx in idxs]
    for n in (2, 3, 4):
        cases += [(HIndex(n - 1, 0, n - 1), rec_lemma3("simrec1", n)),
                  (HIndex(n, 0, n), rec_lemma3("simrec2", n)),
                  (HIndex(n, 0, n + 1), rec_lemma3("hrecg", n))]
    grid = [(x, y) for x in (0.5, 1.0, 2.0) for y in (0.5, 2.0)]
    failures = 0
    for lhs, combo in cases:
        for x, y in grid:
            lv = h_eval(lhs, x, y)
            rv = combo.eval(x, y)
            if abs(lv - rv) > 1e-10 * max(abs(lv), abs(rv), 1.0):
                failures += 1
    return {"check": "recurrences", "params": {"checks": len(cases) * len(grid)},
            "max_residual_terms": failures, "pass": failures == 0}


# ---------------------------------------------------------------------------
# basis reduction (Prop.-1 style)
# ---------------------------------------------------------------------------

class ReductionError(ValueError):
    """The requested index is outside the reachable range."""


def _reduce_same_param(k: int, n: int, cache: Dict[int, HCombo]) -> HCombo:
    """H^k_n over {H^{n-1}_n, B(n-1), B(n)} for k >= n-1 (fixed parameter n)."""
    if k in cache:
        return cache[k]
    if k == n - 1:
        combo = HCombo({h_atom(n - 1, 0, n): _rf_const(1)})
    else:
        # shift_k with k -> k-1: expresses H^k_n via H^{k-1}_n and H^{k-2}_n;
        # the H^{k-2} coefficient (k-1)(n-k) vanishes exactly when k = n, so
        # the chain never leaves k >= n-1
        kk = k - 1
        lower1 = _reduce_same_param(kk, n, cache)
        combo = lower1.scale(RatFunc.from_terms({(0, 0): Fraction(2 * kk + 2 - n),
                                                 (0, 1): Fraction(1)}))
        c2 = Fraction(kk * (n - kk - 1))
        if c2 != 0:
            lower2 = _reduce_same_param(kk - 1, n, cache)
            combo = combo + lower2.scale(_rf_const(c2))
        combo = combo + HCombo({
            b_atom(n - 1): RatFunc.from_terms({(kk, 0): Fraction(-(n - 1))}),
            b_atom(n): RatFunc.from_terms({(kk, 0): Fraction(kk), (kk + 1, 0): Fraction(-1)}),
        })
    cache[k] = combo
    return combo


def _transition_up(combo: HCombo, nu: int) -> HCombo:
    """Re-express a combo over {H^{nu-1}_nu, B(nu), B(nu+1)} on the level-(nu+1) basis."""
    # H^{nu-1}_nu = (H^{nu}_{nu+1} + x^nu B(nu+1)) / nu          [hrecg at n = nu]
    h_rep = HCombo({
        h_atom(nu, 0, nu + 1): _rf_const(Fraction(1, nu)),
        b_atom(nu + 1): RatFunc.from_terms({(nu, 0): Fraction(1, nu)}),
    })
    # B(nu) = B(nu+1) + x y B(nu+2) / ((nu+1) nu)                 [three-term]
    b_rep = HCombo({
        b_atom(nu + 1): _rf_const(1),
        b_atom(nu + 2): RatFunc.from_terms({(1, 1): Fraction(1, nu * (nu + 1))}),
    })
    out = combo.substitute(h_atom(nu - 1, 0, nu), h_rep)
    out = out.substitute(b_atom(nu), b_rep)
    return out


def _transition_down(combo: HCombo, nu: int) -> HCombo:
    """Re-express a level-nu combo on the level-(nu-1) basis."""
    # hrecg at n = nu-1 solved forward: H^{nu-1}_nu = (nu-1) H^{nu-2}_{nu-1} - x^{nu-1} B(nu)
    h_rep = HCombo({
        h_atom(nu - 2, 0, nu - 1): _rf_const(nu - 1),
        b_atom(nu): RatFunc.from_terms({(nu - 1, 0): Fraction(-1)}),
    })
    # inverted three-term: B(nu+1) = nu(nu-1) (B(nu-1) - B(nu)) / (x y)
    b_rep = HCombo({
        b_atom(nu - 1): RatFunc.from_terms({(0, 0): Fraction(nu * (nu - 1))}, {(1, 1): 1}),
        b_atom(nu): RatFunc.from_terms({(0, 0): Fraction(-nu * (nu - 1))}, {(1, 1): 1}),
    })
    out = combo.substitute(h_atom(nu - 1, 0, nu), h_rep)
    out = out.substitute(b_atom(nu + 1), b_rep)
    return out


def reduce_to_basis(idx: HIndex, N: int, validate: bool = True) -> HCombo:
    """H^k_n as a Q(x, y)-combination of H^{N-1}_N, B(N), B(N+1).

    Requires n > 1, k >= n-1 (the reachable range) and target N > 1.  The
    boundary atoms are plain B's; the conventional x^N e^{-x} factor of the
    printed basis sits inside the returned coefficients.
    """
    if idx.ell != 0:
        raise ValueError("reduce_to_basis handles l = 0 integrals only")
    if idx.n <= 1:
        raise ReductionError("reduce_to_basis requires n > 1")
    if idx.k < idx.n - 1:
        raise ReductionError(f"index {idx} outside the reachable range k >= n-1")
    if N <= 1:
        raise ReductionError("target basis requires N > 1")

    combo = _reduce_same_param(idx.k, idx.n, {})
    # after the k-chain the atoms are {H^{n-1}_n, B(n-1), B(n)}; fold B(n-1)
    combo = combo.substitute(
        b_atom(idx.n - 1),
        HCombo({
            b_atom(idx.n): _rf_const(1),
            b_atom(idx.n + 1): RatFunc.from_terms({(1, 1): Fraction(1, idx.n * (idx.n - 1))}),
        }),
    )
    nu = idx.n
    while nu < N:
        combo = _transition_up(combo, nu)
        nu += 1
    while nu > N:
        combo = _transition_down(combo, nu)
        nu -= 1

    expected = {h_atom(N - 1, 0, N), b_atom(N), b_atom(N + 1)}
    extra = set(combo.atoms()) - expected
    if extra:
        raise ReductionError(f"reduction left unexpected atoms {extra}")

    if validate:
        x0, y0 = 1.5, 0.8
        lhs = h_eval(idx, x0, y0)
        rhs = combo.eval(x0, y0)
        scale = max(abs(lhs), abs(rhs), 1e-30)
        if abs(lhs - rhs) > 1e-8 * scale:
            raise ReductionError(
                f"reduction of {idx} to N={N} failed numeric check: {lhs} vs {rhs}"
            )
    return combo
