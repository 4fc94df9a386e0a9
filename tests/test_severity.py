"""Severity evaluation, warranted discrepancy, curves."""

import math

import numpy as np
import pytest

from pointnull.binomial import STONE_EXAMPLE, as_normal_problem
from pointnull.normal import NormalProblem
from pointnull.numerics import find_crossing, std_normal_quantile
from pointnull.severity import (
    SeverityCurve,
    SeverityQuery,
    severity_at,
    severity_curve,
    warranted_discrepancy,
)

# mpmath oracle (dps 40): Phi(1.96)
PHI_196 = 0.97500210485177956586
# mpmath oracle: 0.0016526 - z_0.9 * 0.4/sqrt(527135) with z_0.9 solved at dps 40
STONE_GAMMA_90 = 0.00094655049906139274

UNIT = NormalProblem(theta0=0.0, sigma=1.0, n=1, xbar=1.96)
STONE_SCALE = NormalProblem(theta0=0.2, sigma=0.4, n=527135, xbar=0.2 + 0.0016526)


def random_problem(rng):
    theta0 = float(rng.uniform(-3, 3))
    sigma = float(rng.uniform(0.2, 4))
    n = int(rng.integers(1, 5000))
    t = float(rng.uniform(-5, 5))
    return NormalProblem(
        theta0=theta0, sigma=sigma, n=n, xbar=theta0 + t * sigma / math.sqrt(n)
    )


class TestSeverityAt:
    def test_half_exactly_at_xbar(self):
        assert severity_at(UNIT, UNIT.xbar) == 0.5

    def test_half_exactly_at_xbar_random(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            p = random_problem(rng)
            assert severity_at(p, p.xbar) == 0.5

    def test_zero_discrepancy_claim(self):
        assert math.isclose(severity_at(UNIT, 0.0), PHI_196, rel_tol=1e-14)
        assert abs(severity_at(UNIT, 0.0) - 0.9750) < 1e-4

    def test_vanishes_far_above(self):
        assert severity_at(UNIT, UNIT.xbar + 45.0) == 0.0

    def test_strictly_decreasing_in_theta1(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            p = random_problem(rng)
            grid = p.xbar + p.sem * np.linspace(-4, 4, 9)
            vals = [severity_at(p, float(th)) for th in grid]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_strictly_increasing_in_xbar(self):
        p_lo = NormalProblem(theta0=0.0, sigma=1.0, n=25, xbar=0.3)
        p_hi = NormalProblem(theta0=0.0, sigma=1.0, n=25, xbar=0.4)
        assert severity_at(p_hi, 0.35) > severity_at(p_lo, 0.35)

    def test_affine_equivariance(self):
        # common map x -> a x + b on (theta0, xbar, theta1) with sigma -> a sigma
        rng = np.random.default_rng(33)
        for _ in range(50):
            p = random_problem(rng)
            theta1 = p.xbar + float(rng.uniform(-2, 2)) * p.sem
            a = float(rng.uniform(0.1, 10))
            b = float(rng.uniform(-5, 5))
            q = NormalProblem(
                theta0=a * p.theta0 + b, sigma=a * p.sigma, n=p.n, xbar=a * p.xbar + b
            )
            assert math.isclose(
                severity_at(q, a * theta1 + b), severity_at(p, theta1), rel_tol=1e-12
            )

    def test_rejects_non_finite_theta1(self):
        with pytest.raises(ValueError):
            severity_at(UNIT, math.nan)

    def test_at_null_is_one_minus_one_sided_p(self):
        # Phi(t) = 1 - P(T > t) under the null
        from pointnull.numerics import std_normal_cdf

        got = severity_at(UNIT, 0.0)
        assert math.isclose(got, 1.0 - std_normal_cdf(-1.96), rel_tol=1e-12)

    def test_reflection_about_xbar(self):
        # theta1 mirrored across xbar flips the severity about one half
        p = NormalProblem(theta0=0.5, sigma=2.0, n=16, xbar=1.3)
        mirrored = p.theta0 + 2.0 * (p.xbar - p.theta0)
        assert math.isclose(
            severity_at(p, mirrored),
            1.0 - severity_at(p, p.theta0),
            rel_tol=1e-12,
        )


class TestWarrantedDiscrepancy:
    def test_level_half_is_observed_discrepancy(self):
        # z at level one half is exactly zero
        assert warranted_discrepancy(UNIT, 0.5) == UNIT.xbar - UNIT.theta0

    def test_stone_scale_anchor(self):
        g = warranted_discrepancy(STONE_SCALE, 0.9)
        assert abs(g - 0.000946) < 1e-5
        assert math.isclose(g, STONE_GAMMA_90, rel_tol=1e-12)

    def test_level_0975_nearly_cancels_t(self):
        # z_0.975 = 1.9599639845..., so the bound sits a hair above zero
        # rather than exactly on it
        g = warranted_discrepancy(UNIT, 0.975)
        assert g == 1.96 - std_normal_quantile(0.975)
        assert 0.0 < g < 5e-5

    def test_severity_at_warranted_gamma_recovers_level(self):
        rng = np.random.default_rng(35)
        for _ in range(100):
            p = random_problem(rng)
            level = float(rng.uniform(0.02, 0.98))
            g = warranted_discrepancy(p, level)
            assert abs(severity_at(p, p.theta0 + g) - level) < 1e-8

    def test_independent_solver_agreement(self):
        # re-solve severity_at(theta1) = level from scratch and compare
        rng = np.random.default_rng(36)
        for _ in range(100):
            p = random_problem(rng)
            level = float(rng.uniform(0.02, 0.98))
            g = warranted_discrepancy(p, level)
            root = find_crossing(
                lambda th: severity_at(p, th),
                level,
                p.xbar - 40.0 * p.sem,
                initial_step=p.sem,
            )
            assert abs((root - p.theta0) - g) < 1e-8 * max(1.0, abs(g))

    def test_decreasing_in_level(self):
        gs = [warranted_discrepancy(UNIT, lvl) for lvl in (0.1, 0.5, 0.9, 0.99)]
        assert all(b < a for a, b in zip(gs, gs[1:]))

    def test_extreme_level_skips_vacuous_probe(self):
        # quantile beyond 8 sigma: closed form only, still finite and ordered
        g_hi = warranted_discrepancy(UNIT, 1.0 - 1e-16)
        assert math.isfinite(g_hi)
        assert g_hi < warranted_discrepancy(UNIT, 0.99)

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.1, 1.5])
    def test_level_validation(self, level):
        with pytest.raises(ValueError):
            warranted_discrepancy(UNIT, level)

    def test_binomial_bridge_uses_null_based_scale(self):
        # the normal reduction of the count problem carries
        # sigma = sqrt(theta0 (1 - theta0))
        p = as_normal_problem(STONE_EXAMPLE)
        assert math.isclose(p.sigma, math.sqrt(0.2 * 0.8), rel_tol=1e-15)
        g = warranted_discrepancy(p, 0.9)
        assert g == pytest.approx(
            (p.xbar - 0.2) - std_normal_quantile(0.9) * p.sem, rel=1e-14
        )


class TestSeverityQuery:
    def test_defaults(self):
        q = SeverityQuery(problem=UNIT)
        assert q.level == 0.9

    @pytest.mark.parametrize("level", [0.0, 1.0])
    def test_level_validation(self, level):
        with pytest.raises(ValueError):
            SeverityQuery(problem=UNIT, level=level)


class TestSeverityCurve:
    def test_single_point_at_xbar(self):
        q = SeverityQuery(problem=UNIT)
        curve = severity_curve(q, [UNIT.xbar])
        assert curve.points == ((1.96, 0.5),)

    def test_warranted_gamma_attached(self):
        q = SeverityQuery(problem=UNIT, level=0.9)
        curve = severity_curve(q, [1.0, 2.0])
        assert curve.warranted_gamma == warranted_discrepancy(UNIT, 0.9)

    def test_strictly_decreasing(self):
        q = SeverityQuery(problem=UNIT)
        curve = severity_curve(q, list(np.linspace(0.5, 3.5, 13)))
        sevs = [s for _, s in curve.points]
        assert all(b < a for a, b in zip(sevs, sevs[1:]))

    def test_level_crossed_exactly_once_when_straddled(self):
        q = SeverityQuery(problem=UNIT, level=0.9)
        curve = severity_curve(q, list(np.linspace(0.0, 3.0, 31)))
        signs = [s >= 0.9 for _, s in curve.points]
        flips = sum(a != b for a, b in zip(signs, signs[1:]))
        assert flips == 1

    def test_symmetric_grid_mirrors_about_half(self):
        q = SeverityQuery(problem=UNIT)
        delta = 0.3
        grid = [UNIT.xbar + k * delta for k in range(-5, 6)]
        sevs = [s for _, s in severity_curve(q, grid).points]
        for i in range(11):
            assert math.isclose(sevs[i] + sevs[10 - i], 1.0, abs_tol=1e-12)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            severity_curve(SeverityQuery(problem=UNIT), [])

    def test_rejects_unsorted_and_duplicate_grids(self):
        q = SeverityQuery(problem=UNIT)
        with pytest.raises(ValueError):
            severity_curve(q, [2.0, 1.0])
        with pytest.raises(ValueError):
            severity_curve(q, [1.0, 1.0, 2.0])

    def test_rejects_saturated_grid(self):
        q = SeverityQuery(problem=UNIT)
        with pytest.raises(ValueError, match="saturates"):
            severity_curve(q, [UNIT.xbar - 20.0, UNIT.xbar])

    def test_curve_type_validates_directly(self):
        with pytest.raises(ValueError):
            SeverityCurve(points=(), warranted_gamma=0.0)
        with pytest.raises(ValueError):
            SeverityCurve(points=((0.0, 0.4), (1.0, 0.6)), warranted_gamma=0.0)
