"""Monte Carlo oracle for the largest-root distribution.

Rows of X are independent complex Gaussian CN(v_i, Id) with the circularly
symmetric convention (real and imaginary parts each of variance 1/2, unit
total variance per complex entry); V is the n x m matrix with sqrt(lam_i)
on the leading diagonal, so V*V has the requested noncentrality
eigenvalues.  The largest eigenvalue of S = X*X comes from LAPACK's
Hermitian eigensolver (``np.linalg.eigvalsh``), called once per batch of
m x m matrices.  The check stays independent of what it checks: no analytic
route uses a matrix eigensolver or a random draw, and the tests hold the
draws to a scalar Jacobi sweep of their own.  Draws are deterministic per
seed (counter-based Philox streams).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from .distribution import WishartParams


@dataclass
class McConfig:
    samples: int = 100_000
    seed: int = 20240801
    bins: int = 60
    batch: int = 20_000

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("need at least one sample")


def hermitian_eigvals(a: List[List[complex]]) -> List[float]:
    """All eigenvalues (ascending) of a small Hermitian matrix."""
    return np.linalg.eigvalsh(np.asarray(a, dtype=complex)).tolist()


def hermitian_eig_max(a: List[List[complex]]) -> float:
    """Largest eigenvalue of a small Hermitian matrix."""
    return hermitian_eigvals(a)[-1]


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
        out[done:done + count] = np.linalg.eigvalsh(s)[:, -1]
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
