"""Monte Carlo oracle for the largest-root distribution.

Rows of X are independent complex Gaussian CN(v_i, Id) with the circularly
symmetric convention (real and imaginary parts each of variance 1/2, unit
total variance per complex entry); V is the n x m matrix with sqrt(lam_i)
on the leading diagonal, so V*V has the requested noncentrality
eigenvalues.  The largest eigenvalue of S = X*X comes from a self-contained
cyclic Jacobi sweep, run in numpy over the whole batch of m x m Hermitian
matrices at once -- deliberately not a LAPACK call, so the sampler is an
independent check of the analytic routes.  Draws are deterministic per seed
(counter-based Philox streams).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from .distribution import WishartParams


JACOBI_SLICE = 2048  # matrices rotated together by jacobi_eigvals


class EigenConvergenceError(ArithmeticError):
    """The Jacobi sweep failed to reduce the off-diagonal norm."""


@dataclass
class McConfig:
    samples: int = 100_000
    seed: int = 20240801
    bins: int = 60
    batch: int = 20_000

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("need at least one sample")


def hermitian_eigvals(a: List[List[complex]], tol: float = 1e-13, max_sweeps: int = 30) -> List[float]:
    """All eigenvalues (ascending) of a small Hermitian matrix: ``jacobi_eigvals``
    on a batch of one."""
    return [float(v) for v in jacobi_eigvals(np.asarray(a, dtype=complex)[None], tol, max_sweeps)[0]]


def hermitian_eig_max(a: List[List[complex]], tol: float = 1e-13, max_sweeps: int = 30) -> float:
    """Largest eigenvalue of a small Hermitian matrix: ``jacobi_eigvals`` on a
    batch of one."""
    return hermitian_eigvals(a, tol, max_sweeps)[-1]


def jacobi_eigvals(stack: np.ndarray, tol: float = 1e-13, max_sweeps: int = 30) -> np.ndarray:
    """Eigenvalues, ascending along the last axis, of a (count, n, n) stack of
    Hermitian matrices by cyclic complex Jacobi.

    Each rotation zeroes one off-diagonal pair (p, q), in row-major pair
    order, with a complex Givens rotation; a pair with |a_pq| <= 1e-300 is
    left alone.  A matrix stops rotating once its own off-diagonal
    Frobenius mass falls to tol * ||A||_F; ``EigenConvergenceError`` if
    any has not after ``max_sweeps`` sweeps.  The stack is solved in slices
    of ``JACOBI_SLICE`` matrices, so the temporaries stay small.
    """
    stack = np.asarray(stack, dtype=complex)
    out = np.empty(stack.shape[:2])
    for lo in range(0, len(stack), JACOBI_SLICE):
        out[lo:lo + JACOBI_SLICE] = _jacobi_slice(stack[lo:lo + JACOBI_SLICE], tol, max_sweeps)
    out.sort(axis=1)
    return out


def _jacobi_slice(a: np.ndarray, tol: float, max_sweeps: int) -> np.ndarray:
    count, n, _ = a.shape
    # held as (n, n, count): the batch axis is the contiguous one, so each
    # numpy call runs along the whole slice; real and imaginary parts apart,
    # so every product is the same float arithmetic whatever the slice size
    re = np.ascontiguousarray(a.real.transpose(1, 2, 0))
    im = np.ascontiguousarray(a.imag.transpose(1, 2, 0))
    norm = _row_major_sqrt_sum(np.hypot(re, im) ** 2)
    off_mask = ~np.eye(n, dtype=bool)[:, :, None]
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    diag = np.empty((count, n))
    live = np.arange(count)
    with np.errstate(over="ignore"):  # tau * tau -> inf gives t = 0, as intended
        for _ in range(max_sweeps):
            off = _row_major_sqrt_sum(np.hypot(re, im) ** 2 * off_mask)
            done = off <= tol * norm
            diag[live[done]] = np.diagonal(re[:, :, done])
            keep = ~done
            re, im, norm, live = re[:, :, keep], im[:, :, keep], norm[keep], live[keep]
            if not live.size:
                return diag
            for p, q in pairs:
                _rotate(re, im, p, q)
    raise EigenConvergenceError(f"Jacobi did not converge in {max_sweeps} sweeps")


def _row_major_sqrt_sum(sq: np.ndarray) -> np.ndarray:
    """sqrt of each matrix's entry sum, the entries added one by one in
    row-major order (a running sum, not numpy's pairwise one)."""
    return np.sqrt(np.add.accumulate(sq.reshape(-1, sq.shape[-1]))[-1])


def _rotate(re: np.ndarray, im: np.ndarray, p: int, q: int) -> None:
    """Zero the (p, q) pair of every matrix in place: A <- U^H A U with
    U = diag(1, e^{-i arg a_pq}) followed by a real Jacobi angle."""
    r = np.hypot(re[p, q], im[p, q])
    skip = r <= 1e-300  # such a matrix gets the identity rotation
    any_skip = skip.any()
    if any_skip:
        r[skip] = 1.0
    # phase = a_pq * (1/r), the way numpy divides a complex by a real, so the
    # result matches the same sweep run on numpy complex scalars bit for bit
    inv = 1.0 / r
    ph_re = re[p, q] * inv
    ph_im = im[p, q] * inv
    tau = (re[q, q] - re[p, p]) / (2.0 * r)
    t = np.where(tau >= 0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    if any_skip:
        c[skip], s[skip], ph_re[skip], ph_im[skip] = 1.0, 0.0, 1.0, 0.0
    # columns: A <- A U, with w = conj(phase) * a_kq
    kp_re, kp_im, kq_re, kq_im = re[:, p], im[:, p], re[:, q], im[:, q]
    w_re = ph_re * kq_re + ph_im * kq_im
    w_im = ph_re * kq_im - ph_im * kq_re
    re[:, p], re[:, q] = c * kp_re - s * w_re, s * kp_re + c * w_re
    im[:, p], im[:, q] = c * kp_im - s * w_im, s * kp_im + c * w_im
    # rows: A <- U^H A, with v = phase * a_qk
    pk_re, pk_im, qk_re, qk_im = re[p], im[p], re[q], im[q]
    v_re = ph_re * qk_re - ph_im * qk_im
    v_im = ph_re * qk_im + ph_im * qk_re
    re[p], re[q] = c * pk_re - s * v_re, s * pk_re + c * v_re
    im[p], im[q] = c * pk_im - s * v_im, s * pk_im + c * v_im


def sample_largest_eig(params: WishartParams, cfg: McConfig) -> np.ndarray:
    """Seeded draws of the largest eigenvalue of S = X*X."""
    n, m = params.n, params.m
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    sqrt_lam = np.zeros((n, m))
    for i, lam in enumerate(params.lambdas):
        sqrt_lam[i, i] = math.sqrt(lam)
    out = np.empty(cfg.samples)
    done = 0
    while done < cfg.samples:
        count = min(cfg.batch, cfg.samples - done)
        g = rng.standard_normal((count, n, m)) + 1j * rng.standard_normal((count, n, m))
        x = sqrt_lam[None, :, :] + g / math.sqrt(2.0)
        s = np.einsum("bij,bik->bjk", x.conj(), x)
        out[done:done + count] = jacobi_eigvals(s)[:, -1]
        done += count
    return out


def empirical_cdf(draws: np.ndarray, x: float) -> float:
    return float(np.count_nonzero(draws <= x)) / draws.size


def compare_cdf(
    params: WishartParams,
    cfg: McConfig,
    analytic: Callable[[float], float],
    points: int = 20,
    z: float = 3.2905,
    perturb: float = 0.0,
) -> dict:
    """Empirical CDF versus an analytic route at equally spaced quantile
    probes, with a two-sided 99.9% binomial band (z = 3.2905).

    ``perturb`` shifts the analytic values (negative-control hook).
    """
    draws = np.sort(sample_largest_eig(params, cfg))
    N = draws.size
    rows = []
    ok = True
    for i in range(1, points + 1):
        prob = i / (points + 1)
        xq = float(draws[min(N - 1, max(0, int(round(prob * N)) - 1))])
        emp = empirical_cdf(draws, xq)
        ana = analytic(xq) + perturb
        band = z * math.sqrt(max(ana * (1.0 - ana), 1e-12) / N)
        inside = abs(emp - ana) <= band
        ok = ok and inside
        rows.append({
            "x": xq,
            "empirical": emp,
            "analytic": ana,
            "band": band,
            "inside": inside,
        })
    return {
        "check": "mc_cdf_band",
        "params": {"n": params.n, "m": params.m, "lambdas": list(params.lambdas),
                   "samples": N, "seed": cfg.seed, "z": z},
        "points": rows,
        "pass": ok,
    }


def histogram_csv(draws: np.ndarray, bins: int) -> str:
    """Density histogram and empirical CDF as CSV text."""
    hist, edges = np.histogram(draws, bins=bins, density=True)
    cdf = np.searchsorted(np.sort(draws), edges[1:], side="right") / draws.size
    lines = ["bin_left,bin_right,density,cdf_at_right"]
    for i in range(bins):
        lines.append(
            f"{edges[i]:.17g},{edges[i + 1]:.17g},{hist[i]:.17g},{cdf[i]:.17g}"
        )
    return "\n".join(lines)
