"""Numerical kernels: SPD solves, chi-square tails, quantiles, scalar search."""

from __future__ import annotations

import math

import numpy as np
import pytest

from nmacompare import NumericError, chi_square_sf, minimize_scalar, normal_quantile, numerics, solve_spd

from conftest import blas_threads, needs_openblas_threads


class TestSolveSpd:
    def test_identity(self):
        result = solve_spd(np.eye(3), np.array([1.0, 2.0, 3.0]))
        assert np.allclose(result.solution, [1.0, 2.0, 3.0])
        assert result.log_det == 0.0

    def test_diagonal(self):
        result = solve_spd(np.diag([4.0, 9.0]), np.array([8.0, 27.0]))
        assert np.allclose(result.solution, [2.0, 3.0])
        assert result.log_det == pytest.approx(math.log(36.0), abs=1e-12)

    def test_random_spd_multiply_back(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = rng.normal(size=(5, 5))
            a = m.T @ m + np.eye(5)
            b = rng.normal(size=5)
            x = solve_spd(a, b).solution
            assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) <= 1e-10

    def test_multiple_rhs(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(4, 4))
        a = m.T @ m + np.eye(4)
        b = rng.normal(size=(4, 3))
        x = solve_spd(a, b).solution
        assert x.shape == (4, 3)
        assert np.allclose(a @ x, b, atol=1e-10)

    def test_log_det_scaling(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(4, 4))
        a = m.T @ m + np.eye(4)
        base = solve_spd(a, np.ones(4)).log_det
        for c in (0.5, 2.0, 37.0):
            scaled = solve_spd(c * a, np.ones(4)).log_det
            assert scaled == pytest.approx(4 * math.log(c) + base, abs=1e-10)

    def test_not_positive_definite(self):
        with pytest.raises(NumericError, match="not positive definite"):
            solve_spd(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))

    def test_not_symmetric(self):
        with pytest.raises(NumericError, match="not symmetric"):
            solve_spd(np.array([[1.0, 0.5], [0.0, 1.0]]), np.ones(2))

    def test_nan_entry_rejected(self):
        # numpy's Cholesky returns a NaN factor here instead of raising
        with pytest.raises(NumericError, match="invalid matrix entries"):
            solve_spd(np.array([[math.nan, 0.0], [0.0, 1.0]]), np.ones(2))

    def test_inf_entry_rejected(self):
        # checked before the symmetry test, where inf - inf would warn
        with pytest.raises(NumericError, match="invalid matrix entries"):
            solve_spd(np.array([[1.0, math.inf], [math.inf, 1.0]]), np.ones(2))


def _spd_stack(k: int, p: int, seed: int) -> np.ndarray:
    m = np.random.default_rng(seed).normal(size=(k, p, p))
    return m @ np.swapaxes(m, 1, 2) + np.eye(p)


class TestSolveSpdStack:
    def test_matches_slice_by_slice(self):
        a = _spd_stack(5, 4, seed=6)
        rng = np.random.default_rng(7)
        for b in (rng.normal(size=(5, 4)), rng.normal(size=(5, 4, 3))):
            result = solve_spd(a, b)
            assert result.solution.shape == b.shape
            assert result.log_det.shape == (5,)
            for j in range(5):
                one = solve_spd(a[j], b[j])
                np.testing.assert_allclose(result.solution[j], one.solution, rtol=1e-12)
                assert result.log_det[j] == pytest.approx(one.log_det, rel=1e-12)

    @pytest.mark.parametrize("bad, message", [
        (np.array([[math.nan, 0.0], [0.0, 1.0]]), "invalid matrix entries"),
        (np.array([[1.0, math.inf], [math.inf, 1.0]]), "invalid matrix entries"),
        (np.array([[1.0, 0.5], [0.0, 1.0]]), "not symmetric"),
        (np.array([[1.0, 2.0], [2.0, 1.0]]), "not positive definite"),
    ])
    def test_one_bad_slice_raises_as_in_2d(self, bad, message):
        with pytest.raises(NumericError, match=message):
            solve_spd(bad, np.ones(2))
        a = _spd_stack(4, 2, seed=8)
        a[2] = bad
        with pytest.raises(NumericError, match=message):
            solve_spd(a, np.ones((4, 2)))

    def test_symmetry_is_relative_to_each_slice(self):
        """A 1e-3 asymmetry is caught next to a slice of scale 1e10."""
        a = np.stack([1e10 * np.eye(2), np.array([[1.0, 1e-3], [0.0, 1.0]])])
        with pytest.raises(NumericError, match="not symmetric"):
            solve_spd(a, np.ones((2, 2)))


@needs_openblas_threads
@pytest.mark.usefixtures("two_blas_threads")
class TestSingleBlasThread:
    def test_one_thread_inside_then_restored(self):
        @numerics.single_blas_thread
        def factor(a):
            return blas_threads(), solve_spd(a, np.ones(3)).solution

        threads, solution = factor(np.eye(3))
        assert threads == 1
        assert solution.tolist() == [1.0, 1.0, 1.0]
        assert blas_threads() == 2

    def test_restored_after_an_error(self):
        with pytest.raises(NumericError, match="not positive definite"):
            numerics.single_blas_thread(solve_spd)(-np.eye(3), np.ones(3))
        assert blas_threads() == 2


class TestChiSquareSf:
    def test_reference_values(self):
        assert chi_square_sf(82.25, 23) == pytest.approx(1.37e-8, rel=0.02)
        assert chi_square_sf(23.51, 10) == pytest.approx(0.009, rel=0.05)

    def test_zero_statistic(self):
        for df in (1, 2, 7, 100):
            assert chi_square_sf(0.0, df) == 1.0

    def test_infinite_statistic(self):
        for df in (1, 2, 7, 100):
            assert chi_square_sf(math.inf, df) == 0.0

    def test_df2_closed_form(self):
        for x in (0.1, 1.0, 5.0, 30.0, 200.0):
            assert chi_square_sf(x, 2) == pytest.approx(math.exp(-x / 2), abs=1e-12)

    def test_strictly_decreasing(self):
        xs = np.linspace(0.0, 60.0, 200)
        values = [chi_square_sf(float(x), 7) for x in xs]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_even_df_against_poisson_sum_oracle(self):
        """For even df, sf(x, df) = exp(-x/2) * sum_{k<df/2} (x/2)^k / k!.

        Evaluated in log space, this closed form is an independent route to
        the same tail; agreement is required to 1e-12 absolute across the
        supported range (x <= 1e4, df <= 5000, the df a 300-treatment,
        5000-study network reaches).
        """

        def oracle(x: float, df: int) -> float:
            half = x / 2.0
            if half == 0.0:
                return 1.0
            terms = [k * math.log(half) - math.lgamma(k + 1) for k in range(df // 2)]
            peak = max(terms)
            return math.exp(-half + peak) * math.fsum(math.exp(t - peak) for t in terms)

        for df in (2, 4, 10, 24, 60, 120, 200, 1000, 4400, 5000):
            for x in (0.0, 0.5, 3.7, 23.51, 82.25, 190.15, 400.0, 1000.0, 4400.0, 5000.0, 1e4):
                assert abs(chi_square_sf(x, df) - oracle(x, df)) <= 1e-12

    def test_odd_df_against_scipy(self):
        gammaincc = pytest.importorskip("scipy.special").gammaincc
        xs = [0.0, 1e-6, 0.3, 1.0, 3.84, 23.51, 82.25, 400.0, 998.0, 1500.0, 4999.0, 5300.0, 1e4]
        for df in (1, 3, 5, 23, 101, 999, 4999):
            for x in xs:
                expected = float(gammaincc(df / 2.0, x / 2.0))
                if expected >= 1e-300:
                    assert chi_square_sf(x, df) == pytest.approx(expected, rel=1e-10, abs=0.0)

    def test_against_scipy_chi2_sf(self):
        """``scipy.stats.chi2.sf`` as an oracle over df 1 to 10^4, from x = 0 to past
        df + 100 sqrt(2 df): 1e-10 relative where the tail is at least 1e-300, and
        below 1e-290 where it is smaller."""
        chi2 = pytest.importorskip("scipy.stats").chi2
        dfs = sorted({round(d) for d in np.geomspace(1, 1e4, 25)} | {2, 3, 9999})
        for df in dfs:
            spread = [df + z * math.sqrt(2 * df) for z in (1, 3, 10, 30, 100)]
            for x in [0.0, 1e-8, *(r * df for r in (0.01, 0.5, 1, 1.5, 2, 4)), *spread, 700, 1400]:
                expected, got = float(chi2.sf(x, df)), chi_square_sf(x, df)
                if expected >= 1e-300:
                    assert got == pytest.approx(expected, rel=1e-10, abs=0.0), (x, df)
                else:
                    assert 0.0 <= got < 1e-290, (x, df)

    def test_df1_against_erfc_oracle(self):
        # sf(x, 1) = P(|Z| > sqrt(x)) = erfc(sqrt(x/2))
        for x in (0.01, 1.0, 3.84, 10.0, 50.0, 300.0):
            assert chi_square_sf(x, 1) == pytest.approx(
                math.erfc(math.sqrt(x / 2.0)), rel=1e-12, abs=1e-300
            )

    def test_zero_df_rejected(self):
        with pytest.raises(NumericError, match="zero degrees of freedom"):
            chi_square_sf(1.0, 0)

    def test_negative_statistic_rejected(self):
        with pytest.raises(NumericError):
            chi_square_sf(-0.5, 3)


class TestNormalQuantile:
    def test_97_5_percent(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)

    def test_median(self):
        assert normal_quantile(0.5) == 0.0

    def test_against_erf_inversion(self):
        """Oracle: bisect the CDF built from the error function."""

        def cdf(x: float) -> float:
            return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

        def invert(p: float) -> float:
            lo, hi = -10.0, 10.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if cdf(mid) < p:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        assert normal_quantile(0.841344746) == pytest.approx(1.0, abs=1e-6)
        for p in (0.01, 0.1, 0.25, 0.6, 0.841344746, 0.975, 0.999):
            assert normal_quantile(p) == pytest.approx(invert(p), abs=1e-9)

    def test_against_scipy_ndtri(self):
        ndtri = pytest.importorskip("scipy.special").ndtri
        for p in np.linspace(0.001, 0.999, 999):
            expected = float(ndtri(p))
            assert normal_quantile(float(p)) == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_antisymmetry(self):
        for p in (0.001, 0.05, 0.3, 0.49):
            assert normal_quantile(1 - p) == pytest.approx(-normal_quantile(p), abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_domain(self, p):
        with pytest.raises(NumericError):
            normal_quantile(p)


class TestMinimizeScalar:
    def test_quadratic(self):
        assert minimize_scalar(lambda x: (x - 2.0) ** 2, 0.0, 10.0, tol=1e-8) == pytest.approx(
            2.0, abs=1e-7
        )

    def test_cosine(self):
        assert minimize_scalar(math.cos, 0.0, 2.0 * math.pi, tol=1e-8) == pytest.approx(
            math.pi, abs=1e-7
        )

    def test_multimodal_finds_global(self):
        # local minimum at 8 (value -1), global at 2 (value -3)
        def f(x: float) -> float:
            return -3.0 * math.exp(-((x - 2.0) ** 2) / 0.02) - math.exp(
                -((x - 8.0) ** 2) / 0.02
            )

        assert minimize_scalar(f, 0.0, 10.0, tol=1e-8) == pytest.approx(2.0, abs=1e-6)

    def test_boundary_minimum(self):
        assert minimize_scalar(lambda x: x, 0.0, 5.0, tol=1e-8) == pytest.approx(0.0, abs=1e-7)

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError, match="non-finite"):
            minimize_scalar(lambda x: float("nan"), 0.0, 1.0)

    def test_empty_bracket_rejected(self):
        with pytest.raises(NumericError, match="bracket"):
            minimize_scalar(lambda x: x, 1.0, 1.0)
