import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from wishart_roots.special_fn import (
    ConvergenceError,
    PoissonTails,
    bessel_i_check,
    hpg01,
    incomplete_gamma,
    marcum_q,
    pochhammer,
    regularized_p,
)


class TestPochhammer:
    def test_basic(self):
        assert pochhammer(3, 2) == 12

    def test_empty_product(self):
        assert pochhammer(7.3, 0) == 1.0

    def test_factorial(self):
        assert pochhammer(1, 5) == 120

    @given(st.floats(0.5, 10), st.integers(0, 8))
    def test_shift(self, a, k):
        assert pochhammer(a, k + 1) == pytest.approx(pochhammer(a, k) * (a + k))


class TestHpg01:
    def test_at_zero(self):
        assert hpg01(5, 0.0) == 1.0

    def test_pinned_values(self):
        # 60-term series in extended precision; also equal I_1(2), I_0(2)
        assert hpg01(2, 1.0) == pytest.approx(1.5906368546373291, rel=1e-13)
        assert hpg01(1, 1.0) == pytest.approx(2.2795853023360673, rel=1e-13)

    def test_bessel_identity(self):
        assert bessel_i_check(1, 2.0) == pytest.approx(hpg01(2, 1.0), rel=1e-13)
        assert bessel_i_check(0, 0.0) == 1.0
        assert bessel_i_check(2, 0.0) == 0.0

    @pytest.mark.parametrize("n", range(2, 11))
    @pytest.mark.parametrize("z", [0.1, 1.0, 10.0, 100.0])
    def test_three_term_recurrence(self, n, z):
        lhs = hpg01(n - 1, z)
        rhs = hpg01(n, z) + z * hpg01(n + 1, z) / (n * (n - 1))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 8])
    @pytest.mark.parametrize("z", [0.5, 5.0, 50.0])
    def test_defining_ode(self, n, z):
        # z Y'' + n Y' - Y = 0 with analytic derivatives
        y = hpg01(n, z)
        y1 = hpg01(n + 1, z) / n
        y2 = hpg01(n + 2, z) / (n * (n + 1))
        assert z * y2 + n * y1 - y == pytest.approx(0.0, abs=1e-12 * y)

    def test_rejects_nonpositive_parameter(self):
        with pytest.raises(ValueError):
            hpg01(0, 1.0)

    def test_convergence_guard(self):
        with pytest.raises(ConvergenceError):
            hpg01(2, 1e9)


class TestMarcumQ:
    def test_x_zero_reduces_to_exponential_tail(self):
        for y in (0.0, 1.0, 4.0):
            assert marcum_q(1, 0.0, y) == pytest.approx(math.exp(-y), rel=1e-13)

    def test_full_mass(self):
        assert marcum_q(3, 0.0, 0.0) == pytest.approx(1.0, abs=1e-13)
        assert marcum_q(2, 1.5, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_pinned_against_quadrature(self):
        # adaptive quadrature of the defining integral, frozen
        assert marcum_q(2, 1.0, 1.0) == pytest.approx(0.8695234505257732, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("x", [0.0, 0.7, 3.0])
    def test_nonincreasing_in_y(self, n, x):
        ys = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0]
        vals = [marcum_q(n, x, y) for y in ys]
        assert all(vals[i] >= vals[i + 1] - 1e-14 for i in range(len(vals) - 1))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_quadrature_cross_check_grid(self):
        for (n, x, y) in [(1, 0.5, 2.0), (3, 2.0, 1.0), (2, 4.0, 3.0)]:
            ref, _ = quad(
                lambda t: t ** (n - 1) * math.exp(-t) * hpg01(n, x * t),
                y, y + 80.0, limit=400,
            )
            ref *= math.exp(-x) / math.factorial(n - 1)
            assert marcum_q(n, x, y) == pytest.approx(ref, rel=1e-10)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            marcum_q(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            marcum_q(2, -1.0, 1.0)


class TestIncompleteGamma:
    def test_a_one(self):
        for x in (0.3, 2.0, 9.0):
            assert incomplete_gamma(1, x) == pytest.approx(1 - math.exp(-x), rel=1e-13)

    def test_at_zero(self):
        assert incomplete_gamma(4.2, 0.0) == 0.0

    def test_pinned(self):
        assert incomplete_gamma(3, 2.0) == pytest.approx(0.6466471676338732, rel=1e-13)

    @pytest.mark.parametrize("a", [1, 2, 5, 9])
    @pytest.mark.parametrize("x", [0.4, 3.0, 12.0, 30.0])
    def test_recurrence_residual(self, a, x):
        lhs = incomplete_gamma(a + 1, x)
        rhs = a * incomplete_gamma(a, x) - x ** a * math.exp(-x)
        assert abs(lhs - rhs) <= 1e-13 * max(lhs, 1e-300)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.5, 12.0), st.floats(0.01, 30.0))
    def test_against_quadrature(self, a, x):
        ref, err = quad(lambda t: t ** (a - 1) * math.exp(-t), 0, x, limit=250)
        if err > 1e-13 * max(ref, 1e-12):
            return  # quadrature itself too loose on this draw
        assert incomplete_gamma(a, x) == pytest.approx(ref, rel=1e-11)


GRID = [0.05, 0.3, 3.0, 150.0, 500.0, 800.0]


class TestPoissonTails:
    @pytest.fixture(scope="class")
    def grid(self):
        return PoissonTails(GRID, 2000).values

    @pytest.mark.parametrize("x", GRID)
    def test_against_mpmath(self, grid, x):
        # one grid; x = 800 is past the underflow of e^{-x}: the terms start from the mode
        values = grid[GRID.index(x)]
        assert grid.shape == (len(GRID), 2001) and values[0] == pytest.approx(1.0, rel=1e-15)
        with mpmath.workdps(30):
            for a in range(1, 2001):
                ref = mpmath.gammainc(a, 0, x, regularized=True)
                if ref > mpmath.mpf("1e-290"):
                    assert abs(values[a] - ref) <= 1e-13 * ref, a

    @pytest.mark.parametrize("top", [1, 40, 67, 2000])
    def test_grid_equals_its_abscissas_one_at_a_time(self, top):
        # the array program against single rows, abscissas on both sides of top
        xs = GRID + [0.0, 40.0, 66.0, 67.5]
        grid = PoissonTails(xs, top).values
        for x, row in zip(xs, grid):
            one = PoissonTails([x], top).values[0]
            assert np.all(np.abs(row - one) <= 1e-15 * one), x

    @pytest.mark.parametrize("x", [0.05, 3.0, 150.0, 500.0, 800.0])
    def test_matches_incomplete_gamma(self, x):
        values = PoissonTails([x], 170).values[0]
        for a in range(1, 171):
            assert values[a] == pytest.approx(incomplete_gamma(a, x) / math.gamma(a), rel=1e-12)

    @pytest.mark.parametrize("x", [0.3, 40.0, 800.0])
    def test_read_past_top_rebuilds_as_from_the_start(self, x):
        for xs in ([x], [x, 0.3, 66.0, 800.0]):  # one row, and the array program
            tails = PoissonTails(xs, 30)
            tails.reach(100)  # top doubled twice
            assert np.array_equal(tails.values, PoissonTails(xs, 120).values)
            tails.reach(50)
            assert tails.values.shape == (len(xs), 121)

    def test_decreasing_and_positive_past_the_underflow_of_exp(self):
        for xs in ([900.0], [900.0, 0.3, 950.0]):  # one row, and the array program
            values = PoissonTails(xs, 1200).values[0]
            assert all(a > b > 0.0 for a, b in zip(values[800:], values[801:]))

    def test_zero_abscissa(self):
        assert PoissonTails([0.0], 3).values.tolist() == [[1.0, 0.0, 0.0, 0.0]]
        assert PoissonTails([0.0, 1.0, 2.0], 3).values[0].tolist() == [1.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("x", [-1.0, math.inf, math.nan])
    def test_bad_abscissa(self, x):
        with pytest.raises(ValueError):
            PoissonTails([1.0, x], 3)

    def test_regularized_p_is_incomplete_gamma_over_gamma(self):
        for a, x in ((2.5, 1.0), (7.0, 9.0), (30.0, 12.0)):
            assert regularized_p(a, x) * math.gamma(a) == incomplete_gamma(a, x)
