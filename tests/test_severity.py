"""Severity evaluation, warranted discrepancy, curves."""

import math
import re
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pointnull.normal import NormalProblem
from pointnull.numerics import find_crossing, std_normal_quantile
from pointnull.severity import severity_at, severity_curve, warranted_discrepancy


def binades(lo, hi):
    """Doubles m 2^e with m in [0.5, 1), spread evenly over the exponents."""
    return st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(lo, hi))


def signed(magnitudes):
    signs = st.sampled_from((-1.0, 1.0))
    return st.one_of(st.just(0.0), st.builds(lambda s, y: s * y, signs, magnitudes))


# mpmath oracle (dps 40): Phi(1.96)
PHI_196 = 0.97500210485177956586
# mpmath oracle: 0.0016526 - z_0.9 * 0.4/sqrt(527135) with z_0.9 solved at dps 40
STONE_GAMMA_90 = 0.00094655049906139274

UNIT = NormalProblem(theta0=0.0, sigma=1.0, n=1, xbar=1.96)
STONE_SCALE = NormalProblem(theta0=0.2, sigma=0.4, n=527135, xbar=0.2 + 0.0016526)


def mp_quantile(level):
    """z = sqrt(2) erfinv(2 level - 1) at 50 digits.

    Below one half z is solved as log erfc(-z/sqrt(2)) = log(2 level), the
    same root: 2 level - 1 would need hundreds of digits to keep a subnormal
    level, and erfinv's own solve at that precision is slow.
    """
    with mpmath.workdps(50):
        level = mpmath.mpf(level)
        if level >= 0.5:
            return mpmath.sqrt(2) * mpmath.erfinv(2 * level - 1)
        u = mpmath.findroot(
            lambda u: mpmath.log(mpmath.erfc(u)) - mpmath.log(2 * level),
            mpmath.sqrt(-mpmath.log(2 * level)),
        )
        return -mpmath.sqrt(2) * u


def mp_warranted(p, level):
    """The closed form at 50 digits and max(|xbar - theta0|, |z| sem)."""
    z = mp_quantile(level)
    with mpmath.workdps(50):
        d = mpmath.mpf(p.xbar) - mpmath.mpf(p.theta0)
        sem = mpmath.mpf(p.sigma) / mpmath.sqrt(p.n)
        return d - z * sem, max(abs(d), abs(z) * sem)


# Relative bound of warranted_discrepancy against mp_warranted, on the larger
# of |xbar - theta0| and |z| sem; 20000 random draws of the property's
# strategies reach 6.9e-16, about what z, sem, their product and the
# difference lose at half an ulp to a few ulps each. Below
# 2^-1022 sem and z sem round to multiples of 2^-1074, which |z| <= 38.5
# turns into at most about 20 of them: TINY allows that much absolute error.
TOL_GAMMA = 1e-15
TINY = 40 * 2.0**-1074


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
        # z at level one half is exactly zero, so gamma is xbar - theta0 to
        # the bit at every scale
        for p in [
            UNIT,
            NormalProblem(theta0=0.0, sigma=67102145626.49337, n=5, xbar=-4.714575711559233),
            NormalProblem(theta0=0.0, sigma=1.4591152174168513e254, n=3, xbar=5.988348671222782e195),
        ]:
            assert warranted_discrepancy(p, 0.5) == p.xbar - p.theta0

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

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(
        signed(binades(-1073, 1024)),
        signed(binades(-1073, 1024)),
        binades(-1073, 1024),
        binades(1, 1024).map(int),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_closed_form_against_mpmath(self, theta0, d, sigma, n, level):
        xbar = theta0 + d
        assume(math.isfinite(xbar))
        p = NormalProblem(theta0=theta0, sigma=sigma, n=n, xbar=xbar)
        got = warranted_discrepancy(p, level)
        want, scale = mp_warranted(p, level)
        if abs(want) > sys.float_info.max:
            assert got == float(want), (got, want)
        else:
            assert abs(got - want) <= TOL_GAMMA * scale + TINY, (got, float(want))

    def test_overflowing_intermediates_are_answered(self):
        # xbar - theta0 = 3.4e308 and z sem = 2.3e308 overflow, gamma = 1.07e308 does not
        p = NormalProblem(theta0=-1.7e308, sigma=1e308, n=1, xbar=1.7e308)
        g = warranted_discrepancy(p, 0.99)
        want, _ = mp_warranted(p, 0.99)
        assert math.isfinite(g)
        assert abs(g - want) <= TOL_GAMMA * abs(want)

    def test_fallback_keeps_z_sem_in_range(self):
        # z sem = 3.6e308 overflowed even halved, where gamma = -1.8e304 is a double
        top = sys.float_info.max
        p = NormalProblem(theta0=-top, sigma=top, n=1, xbar=top)
        g = warranted_discrepancy(p, 0.9772552666085894)
        want, scale = mp_warranted(p, 0.9772552666085894)
        assert -1.8e304 < g < -1.79e304
        assert abs(g - want) <= TOL_GAMMA * scale

    def test_fallback_names_the_size_beyond_the_doubles(self):
        # z sem = 7.9e308, once halved to 4e308 and refused at 10^inf
        p = NormalProblem(theta0=0.0, sigma=1e308, n=1, xbar=0.0)
        want, _ = mp_warranted(p, 0.999999999999999)
        size = f"{float(mpmath.log10(abs(want))):.6g}"
        assert size == "308.9"
        message = (
            "warranted gamma from --xbar, --theta0, --sigma, --n and --level "
            f"lies beyond the largest double, at 10^{size}"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            warranted_discrepancy(p, 0.999999999999999)

    def test_decreasing_in_level(self):
        gs = [warranted_discrepancy(UNIT, lvl) for lvl in (0.1, 0.5, 0.9, 0.99)]
        assert all(b < a for a, b in zip(gs, gs[1:]))

    def test_extreme_level_stays_finite_and_ordered(self):
        # quantile beyond 8 standard errors, where severity_at is saturated
        g_hi = warranted_discrepancy(UNIT, 1.0 - 1e-16)
        assert math.isfinite(g_hi)
        assert g_hi < warranted_discrepancy(UNIT, 0.99)

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.1, 1.5, math.nan])
    def test_level_validation(self, level):
        # a curve checks its level here first, before its grid
        message = "level must lie strictly between 0 and 1"
        with pytest.raises(ValueError, match=message):
            warranted_discrepancy(UNIT, level)
        with pytest.raises(ValueError, match=message):
            severity_curve(UNIT, [UNIT.xbar], level)
        with pytest.raises(ValueError, match=message):
            severity_curve(UNIT, [], level)

    def test_stone_counts_on_the_null_based_scale(self):
        # Spanos' reading of Stone's 106298 successes in 527135 trials: the
        # normal problem with the null spread sigma = sqrt(theta0 (1 - theta0))
        p = NormalProblem(0.2, math.sqrt(0.2 * 0.8), 527135, 106298 / 527135)
        g = warranted_discrepancy(p, 0.9)
        assert g == pytest.approx(
            (p.xbar - 0.2) - std_normal_quantile(0.9) * p.sem, rel=1e-14
        )


class TestSeverityCurve:
    def test_single_point_at_xbar(self):
        curve = severity_curve(UNIT, [UNIT.xbar])
        assert curve.points == ((1.96, 0.5),)

    def test_warranted_gamma_attached(self):
        assert severity_curve(UNIT, [1.0, 2.0]).warranted_gamma == warranted_discrepancy(UNIT, 0.9)
        curve = severity_curve(UNIT, [1.0, 2.0], 0.6)
        assert curve.warranted_gamma == warranted_discrepancy(UNIT, 0.6)

    def test_strictly_decreasing(self):
        curve = severity_curve(UNIT, list(np.linspace(0.5, 3.5, 13)))
        sevs = [s for _, s in curve.points]
        assert all(b < a for a, b in zip(sevs, sevs[1:]))

    def test_level_crossed_exactly_once_when_straddled(self):
        curve = severity_curve(UNIT, list(np.linspace(0.0, 3.0, 31)), 0.9)
        signs = [s >= 0.9 for _, s in curve.points]
        flips = sum(a != b for a, b in zip(signs, signs[1:]))
        assert flips == 1

    def test_symmetric_grid_mirrors_about_half(self):
        delta = 0.3
        grid = [UNIT.xbar + k * delta for k in range(-5, 6)]
        sevs = [s for _, s in severity_curve(UNIT, grid).points]
        for i in range(11):
            assert math.isclose(sevs[i] + sevs[10 - i], 1.0, abs_tol=1e-12)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="non-empty"):
            severity_curve(UNIT, [])

    def test_rejects_unsorted_and_duplicate_grids(self):
        with pytest.raises(ValueError, match="ascending"):
            severity_curve(UNIT, [2.0, 1.0])
        with pytest.raises(ValueError, match="ascending"):
            severity_curve(UNIT, [1.0, 1.0, 2.0])

    def test_rejects_saturated_grid(self):
        with pytest.raises(ValueError, match="saturates"):
            severity_curve(UNIT, [UNIT.xbar - 20.0, UNIT.xbar])

    @pytest.mark.parametrize(
        "grid",
        [(0.1, 0.10000000000000002, 0.10000000000000003), (-0.6, -0.5995, -0.599)],
        ids=["adjacent-doubles", "near-one"],
    )
    def test_equal_neighbours_are_answered(self, grid):
        # Phi rounds the last two theta1 of each grid to the same double
        p = NormalProblem(theta0=0.0, sigma=1.0, n=100, xbar=0.2)
        sevs = [s for _, s in severity_curve(p, grid).points]
        assert sevs == [severity_at(p, th) for th in grid]
        assert sevs[1] == sevs[2]

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        binades(-30, 30),
        st.integers(1, 10**9),
        st.floats(-1e6, 1e6),
        st.lists(
            st.tuples(
                # offsets from xbar in units of sem: the body, and the upper
                # tail of Phi where it rounds to 1 at about 8.3 sem below xbar
                st.one_of(st.floats(-4.0, 4.0), st.floats(-8.6, -7.9)),
                st.integers(1, 4),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_points_are_severity_at_or_saturation_is_named(self, sigma, n, xbar, runs):
        p = NormalProblem(theta0=0.0, sigma=sigma, n=n, xbar=xbar)
        grid = set()
        for offset, length in runs:
            theta = xbar + offset * p.sem
            for _ in range(length):
                grid.add(theta)
                theta = math.nextafter(theta, math.inf)
        grid = sorted(grid)
        want = [severity_at(p, th) for th in grid]
        if any(s in (0.0, 1.0) for s in want):
            with pytest.raises(ValueError, match="saturates"):
                severity_curve(p, grid)
            return
        curve = severity_curve(p, grid)
        assert curve.points == tuple(zip(grid, want))
        assert all(b <= a for a, b in zip(want, want[1:]))
