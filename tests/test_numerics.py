"""Substrate checks: special functions against a high-precision oracle,
solver behavior, stream determinism."""

import math

import mpmath
import numpy as np
import pytest

from pointnull.numerics import (
    NoCrossingError,
    RngStream,
    find_crossing,
    log_normal_pdf,
    std_normal_cdf,
    std_normal_quantile,
)

mpmath.mp.dps = 40


class TestStdNormalCdf:
    def test_zero_is_exactly_half(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_named_values(self):
        # oracle: mpmath.ncdf at 40 digits
        assert math.isclose(std_normal_cdf(1.96), 0.9750021048517796, abs_tol=1e-12)
        assert math.isclose(std_normal_cdf(3.0), 0.9986501019683699, abs_tol=1e-12)

    def test_absolute_error_on_grid(self):
        for x in [-8.0, -5.0, -3.0, -1.5, -0.7, -0.1, 0.3, 1.0, 1.96, 2.5, 4.0, 6.0, 8.0]:
            want = float(mpmath.ncdf(x))
            assert abs(std_normal_cdf(x) - want) <= 1e-12

    def test_symmetry_partition(self):
        rng = np.random.default_rng(1)
        for x in rng.uniform(-8.0, 8.0, size=200):
            assert abs(std_normal_cdf(float(x)) + std_normal_cdf(float(-x)) - 1.0) <= 1e-14

    def test_monotone(self):
        vals = [std_normal_cdf(float(x)) for x in np.linspace(-10.0, 10.0, 401)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_far_tail_keeps_relative_precision(self):
        # the erfc route matters at 8+ sigma where 1 - cdf would round away
        for x in [4.0, 6.0, 8.0, 10.0]:
            want = float(mpmath.ncdf(-x))
            assert std_normal_cdf(-x) == pytest.approx(want, rel=1e-12)
            assert std_normal_cdf(-x) > 0.0


class TestStdNormalQuantile:
    def test_median_is_exactly_zero(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_named_values(self):
        assert math.isclose(std_normal_quantile(0.9), 1.281551565544600467, abs_tol=1e-12)
        assert math.isclose(std_normal_quantile(0.975), 1.9599639845400542, abs_tol=1e-12)

    def test_round_trip(self):
        for x in np.linspace(-6.0, 6.0, 49):
            assert abs(std_normal_quantile(std_normal_cdf(float(x))) - x) <= 1e-8
        for p in np.linspace(0.001, 0.999, 57):
            assert abs(std_normal_cdf(std_normal_quantile(float(p))) - p) <= 1e-10

    def test_antisymmetric(self):
        for p in [0.01, 0.1, 0.25, 0.4, 0.49]:
            assert abs(std_normal_quantile(p) + std_normal_quantile(1.0 - p)) <= 1e-9

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.3])
    def test_domain_errors(self, p):
        with pytest.raises(ValueError):
            std_normal_quantile(p)


class TestLogNormalPdf:
    def test_mode_value(self):
        assert math.isclose(
            log_normal_pdf(0.0, 0.0, 1.0), -0.5 * math.log(2.0 * math.pi), rel_tol=1e-15
        )

    def test_matches_direct_density(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            x, mean = rng.normal(size=2)
            var = float(rng.uniform(0.01, 9.0))
            direct = math.exp(-((x - mean) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)
            assert math.isclose(math.exp(log_normal_pdf(float(x), float(mean), var)), direct, rel_tol=1e-12)

    def test_rejects_bad_variance(self):
        with pytest.raises(ValueError):
            log_normal_pdf(0.0, 0.0, 0.0)


class TestFindCrossing:
    def test_identity(self):
        assert find_crossing(lambda x: x, 3.0, 0.0) == 3.0

    def test_log_inverse(self):
        root = find_crossing(math.log, 1.0, 0.5)
        assert abs(root - math.e) <= 1e-9

    def test_log_bf_root_near_crossing(self):
        # real root of sqrt(1+n) exp(-n t^2/(2(1+n))) = 19 at t=1.96;
        # oracle: mpmath.findroot, 16817.748857995294
        t = 1.96

        def log_bf(n):
            return 0.5 * math.log1p(n) - n * t * t / (2.0 * (1.0 + n))

        root = find_crossing(log_bf, math.log(19.0), 1.0)
        assert abs(root - 16817.748857995294) <= 1e-6
        # grid-scan oracle: first integer past the root satisfying the target
        first = next(n for n in range(16810, 16830) if log_bf(n) >= math.log(19.0))
        assert first == 16818
        assert math.ceil(root) == first

    def test_decreasing_function(self):
        root = find_crossing(lambda x: -x, -5.0, 0.0)
        assert abs(root - 5.0) <= 1e-9

    def test_returns_lo_when_already_at_target(self):
        assert find_crossing(lambda x: x * x, 4.0, 2.0) == 2.0

    def test_bounded_function_raises(self):
        with pytest.raises(NoCrossingError):
            find_crossing(math.atan, 10.0, 0.0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            find_crossing(lambda x: x, 1.0, math.inf)
        with pytest.raises(ValueError):
            find_crossing(lambda x: x, 1.0, 0.0, initial_step=0.0)


class TestRngStream:
    def test_replay_is_identical(self):
        a = RngStream(20140913, 0).normals(5)
        b = RngStream(20140913, 0).normals(5)
        np.testing.assert_array_equal(a, b)

    def test_streams_are_distinct(self):
        a = RngStream(42, 0).normals(8)
        b = RngStream(42, 1).normals(8)
        assert not np.array_equal(a, b)

    def test_mean_and_variance_sanity(self):
        draws = RngStream(42, 0).normals(10**6)
        assert abs(float(draws.mean())) < 0.004
        assert abs(float(draws.var()) - 1.0) < 0.01

    @pytest.mark.parametrize("seed,stream_id", [(-1, 0), (2**64, 0), (3, -1), (1.0, 0)])
    def test_key_validation(self, seed, stream_id):
        with pytest.raises(ValueError):
            RngStream(seed, stream_id)

    def test_fractional_key_is_named_not_truncated(self):
        with pytest.raises(ValueError, match=r"^seed must be an unsigned 64-bit integer, got 1\.9$"):
            RngStream(1.9)
        with pytest.raises(ValueError, match=r"^stream_id must be a non-negative integer, got 0\.5$"):
            RngStream(1, 0.5)
        a = RngStream(np.int64(7), np.int32(2))
        assert repr(a) == "RngStream(seed=7, stream_id=2)"
        assert np.array_equal(a.normals(4), RngStream(7, 2).normals(4))
