import math

import numpy as np
import pytest

from wishart_roots import mc_validator
from wishart_roots.distribution import EvalConfig, WishartParams, cdf_quadrature
from wishart_roots.mc_validator import (
    McConfig,
    compare_cdf,
    empirical_cdf,
    hermitian_eig_max,
    hermitian_eigvals,
    histogram_csv,
    sample_largest_eig,
)


def scalar_jacobi_diagonal(a, tol=1e-13, max_sweeps=30):
    """Reference: a one-matrix-at-a-time cyclic complex Jacobi sweep,
    independent of the LAPACK eigensolver the sampler calls."""
    n = len(a)
    a = [row[:] for row in a]
    if n == 1:
        return [a[0][0].real]
    norm = math.sqrt(sum(abs(a[i][j]) ** 2 for i in range(n) for j in range(n)))
    if norm == 0.0:
        return [0.0] * n
    for _ in range(max_sweeps):
        off = math.sqrt(sum(abs(a[i][j]) ** 2 for i in range(n) for j in range(n) if i != j))
        if off <= tol * norm:
            return [a[i][i].real for i in range(n)]
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if abs(apq) <= 1e-300:
                    continue
                app = a[p][p].real
                aqq = a[q][q].real
                phase = apq / abs(apq)
                tau = (aqq - app) / (2.0 * abs(apq))
                t = (1.0 if tau >= 0 else -1.0) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                pc = phase.conjugate()
                for k in range(n):
                    akp = a[k][p]
                    akq = a[k][q]
                    a[k][p] = c * akp - s * (pc * akq)
                    a[k][q] = s * akp + c * (pc * akq)
                for k in range(n):
                    apk = a[p][k]
                    aqk = a[q][k]
                    a[p][k] = c * apk - s * (phase * aqk)
                    a[q][k] = s * apk + c * (phase * aqk)
    raise ArithmeticError(f"Jacobi did not converge in {max_sweeps} sweeps")


def scalar_sample_largest_eig(params, cfg):
    """Reference: ``sample_largest_eig`` with the scalar sweep per sample."""
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
        for b in range(count):
            out[done + b] = max(scalar_jacobi_diagonal([list(row) for row in s[b]]))
        done += count
    return out


def mixed_batch(m, rng):
    """Hermitian m x m matrices that take every branch of the sweep: zero,
    diagonal, a multiple of the identity, rank one, a pair that starts at
    zero (the |a_pq| <= 1e-300 skip), and dense ones."""
    def herm(M):
        return (M + M.conj().T) / 2

    mats = [np.zeros((m, m), complex), np.diag(rng.standard_normal(m)).astype(complex),
            2.5 * np.eye(m, dtype=complex)]
    v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    mats.append(np.outer(v, v.conj()))
    if m >= 3:
        gapped = herm(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        gapped[0, 1] = gapped[1, 0] = 0.0
        mats.append(gapped)
    for _ in range(6):
        mats.append(herm(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))))
    return np.array(mats)


def cubic_largest_root(H):
    """Largest eigenvalue of a 3x3 Hermitian matrix through its
    characteristic cubic, by bisection from a Gershgorin bracket."""
    def det_shift(t):
        a = [[H[i][j] - (t if i == j else 0.0) for j in range(3)] for i in range(3)]
        return (
            a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
        ).real

    hi = max(H[i][i].real + sum(abs(H[i][j]) for j in range(3) if j != i) for i in range(3))
    lo = hi - 1e-6
    # walk down until the characteristic polynomial changes sign: above the
    # largest root det(H - tI) has sign (-1)^3
    while det_shift(lo) * det_shift(hi) > 0:
        lo -= 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if det_shift(mid) * det_shift(hi) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestJacobi:
    def test_diagonal(self):
        assert hermitian_eig_max([[3.0 + 0j, 0], [0, -1.0 + 0j]]) == 3.0

    def test_2x2_closed_form(self):
        a, b, c = 1.5, 0.7 + 0.3j, -0.4
        expect = ((a + c) + math.sqrt((a - c) ** 2 + 4 * abs(b) ** 2)) / 2
        got = hermitian_eig_max([[a, b], [b.conjugate(), c]])
        assert got == pytest.approx(expect, rel=1e-13)

    def test_3x3_against_characteristic_cubic(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            H = [list(r) for r in (M + M.conj().T) / 2]
            assert hermitian_eig_max(H) == pytest.approx(cubic_largest_root(H), abs=1e-9)

    def test_trace_and_frobenius_preserved(self):
        rng = np.random.default_rng(4)
        M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        H = (M + M.conj().T) / 2
        eigs = hermitian_eigvals([list(r) for r in H])
        assert sum(eigs) == pytest.approx(np.trace(H).real, rel=1e-12)
        assert sum(e * e for e in eigs) == pytest.approx(
            np.linalg.norm(H, "fro") ** 2, rel=1e-12
        )


class TestJacobiBatch:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_equals_scalar_sweep(self, m):
        stack = mixed_batch(m, np.random.default_rng(50 + m))
        for b in range(len(stack)):
            got = hermitian_eigvals([list(r) for r in stack[b]])
            ref = sorted(scalar_jacobi_diagonal([list(r) for r in stack[b]]))
            assert np.allclose(got, ref, rtol=1e-13, atol=1e-13 * max(1.0, max(map(abs, ref))))


class TestSampler:
    def test_determinism(self):
        p = WishartParams(4, 2, (2.0, 1.0))
        d1 = sample_largest_eig(p, McConfig(samples=1500, seed=42))
        d2 = sample_largest_eig(p, McConfig(samples=1500, seed=42))
        assert np.array_equal(d1, d2)
        d3 = sample_largest_eig(p, McConfig(samples=1500, seed=43))
        assert not np.array_equal(d1, d3)

    def test_m1_mean(self):
        # E |x|^2-sum = n + lam
        p = WishartParams(3, 1, (1.0,))
        d = sample_largest_eig(p, McConfig(samples=120_000, seed=5))
        se = d.std() / math.sqrt(d.size)
        assert abs(d.mean() - 4.0) < 4 * se

    def test_trace_mean(self):
        # E tr S = m n + sum(lam); largest eig >= tr/m on average
        p = WishartParams(4, 2, (2.0, 1.0))
        rng_draws = sample_largest_eig(p, McConfig(samples=60_000, seed=9))
        tr_mean = 2 * 4 + 3.0
        assert rng_draws.mean() >= tr_mean / 2 - 4 * rng_draws.std() / math.sqrt(rng_draws.size)

    @pytest.mark.parametrize("n,m,lambdas", [
        (4, 2, (2.0, 1.0)), (5, 3, (3.0, 2.0, 1.0)), (6, 4, (4.0, 3.0, 2.0, 0.5)),
    ])
    def test_draws_equal_scalar_sweep(self, n, m, lambdas):
        p = WishartParams(n, m, lambdas)
        cfg = McConfig(samples=3000, seed=21, batch=1200)
        got = sample_largest_eig(p, cfg)
        ref = scalar_sample_largest_eig(p, cfg)
        assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))

    def test_central_exponential_ks(self):
        # V = 0, n = m = 1: |g|^2 is standard exponential
        p = WishartParams(1, 1, (0.0,))
        d = np.sort(sample_largest_eig(p, McConfig(samples=50_000, seed=17)))
        n = d.size
        ref = 1.0 - np.exp(-d)
        emp_hi = np.arange(1, n + 1) / n
        emp_lo = np.arange(0, n) / n
        ks = max(np.max(np.abs(emp_hi - ref)), np.max(np.abs(ref - emp_lo)))
        assert ks < 1.63 / math.sqrt(n)


class TestCompare:
    def test_band_pass_and_negative_control(self):
        p = WishartParams(4, 2, (2.0, 1.0))
        cfg = EvalConfig()
        mcc = McConfig(samples=60_000, seed=11)
        rep = compare_cdf(p, mcc, lambda x: cdf_quadrature(p, x, cfg))
        assert rep["pass"]
        assert len(rep["points"]) == 20
        rep_bad = compare_cdf(p, mcc, lambda x: cdf_quadrature(p, x, cfg), perturb=0.02)
        assert not rep_bad["pass"]

    def test_report_equals_scalar_sweep(self, monkeypatch):
        p = WishartParams(4, 2, (2.0, 1.0))
        cfg = EvalConfig()
        mcc = McConfig(samples=60_000, seed=11)
        rep = compare_cdf(p, mcc, lambda x: cdf_quadrature(p, x, cfg))
        monkeypatch.setattr(mc_validator, "sample_largest_eig", scalar_sample_largest_eig)
        ref = compare_cdf(p, mcc, lambda x: cdf_quadrature(p, x, cfg))
        assert [r["empirical"] for r in rep["points"]] == [r["empirical"] for r in ref["points"]]
        assert rep["pass"] == ref["pass"]

    def test_empirical_cdf(self):
        d = np.array([1.0, 2.0, 3.0])
        assert empirical_cdf(d, 2.0) == pytest.approx(2 / 3)

    def test_histogram_csv_shape(self):
        d = np.linspace(0, 1, 100)
        text = histogram_csv(d, 10)
        lines = text.splitlines()
        assert lines[0] == "bin_left,bin_right,density,cdf_at_right"
        assert len(lines) == 11

    def test_histogram_csv_equals_per_bin_count(self):
        draws = sample_largest_eig(WishartParams(4, 2, (2.0, 1.0)), McConfig(samples=5000, seed=3))
        hist, edges = np.histogram(draws, bins=60, density=True)
        lines = ["bin_left,bin_right,density,cdf_at_right"]
        for i in range(60):
            cdf = float(np.count_nonzero(draws <= edges[i + 1])) / draws.size
            lines.append(f"{edges[i]:.17g},{edges[i + 1]:.17g},{hist[i]:.17g},{cdf:.17g}")
        assert histogram_csv(draws, 60) == "\n".join(lines)
