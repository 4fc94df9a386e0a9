"""Predictive densities, log/Hyvarinen/KL scoring rules, selection sweeps."""

import math
import re
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pointnull.normal import (
    AlternativePrior,
    NormalProblem,
    bayes_factor_conjugate,
    conjugate_posterior,
    improper_bf,
)
from pointnull.numerics import log_normal_pdf, quadrature
from pointnull.paradox import ConsistencyRun
from pointnull.scores import (
    PredictiveDensity,
    ScoreReport,
    ScoreSelectionSummary,
    hyvarinen_compare,
    hyvarinen_score,
    log_score,
    log_score_compare,
    score_consistency_sim,
    sprenger_kl_report,
    sprenger_kl_score,
)

# mpmath oracle (dps 40): 25*(1/26 + (12.5/13)^2)/2
SPRENGER_25 = 3.370007396449704142
# 1 - p_value(sqrt(2)) = P(chi-square_1 < 2), mpmath erfc oracle
CHI2_BELOW_2 = 0.84270079294971487


def random_problem(rng):
    theta0 = float(rng.uniform(-3, 3))
    sigma = float(rng.uniform(0.2, 4))
    n = int(rng.integers(1, 5000))
    t = float(rng.uniform(-5, 5))
    return NormalProblem(
        theta0=theta0, sigma=sigma, n=n, xbar=theta0 + t * sigma / math.sqrt(n)
    )


def fd_hyvarinen(x, m, h=1e-4):
    # central finite differences on the defining 2 (log m)'' + ((log m)')^2
    lm = m.log_density
    second = (lm(x + h) - 2.0 * lm(x) + lm(x - h)) / (h * h)
    first = (lm(x + h) - lm(x - h)) / (2.0 * h)
    return 2.0 * second + first * first


class TestPredictiveDensity:
    def test_point_null_predictive(self):
        p = NormalProblem(theta0=1.0, sigma=2.0, n=16, xbar=1.5)
        m = PredictiveDensity.point_null(p)
        assert m.kind == "point-null"
        assert m.location == 1.0
        assert m.variance == 0.25

    def test_conjugate_predictive_adds_prior_variance(self):
        p = NormalProblem(theta0=0.0, sigma=1.0, n=4, xbar=0.5)
        m = PredictiveDensity.conjugate(p, AlternativePrior.conjugate(2.0))
        assert m.variance == 0.25 + 4.0

    def test_conjugate_constructor_rejects_flat_prior(self):
        p = NormalProblem(theta0=0.0, sigma=1.0, n=4, xbar=0.5)
        with pytest.raises(ValueError):
            PredictiveDensity.conjugate(p, AlternativePrior.flat())

    def test_from_prior_dispatch(self):
        p = NormalProblem(theta0=0.0, sigma=1.0, n=4, xbar=0.5)
        assert PredictiveDensity.from_prior(p, AlternativePrior.conjugate(1.0)).kind == "conjugate"
        m = PredictiveDensity.from_prior(p, AlternativePrior.flat(c=3.0))
        assert m.kind == "improper-flat"
        assert m.c == 3.0

    def test_log_density_matches_normal_pdf(self):
        m = PredictiveDensity(kind="conjugate", location=0.7, variance=2.5)
        assert m.log_density(1.2) == log_normal_pdf(1.2, 0.7, 2.5)

    def test_flat_log_density_is_log_c(self):
        m = PredictiveDensity.improper_flat(5.0)
        assert m.log_density(-100.0) == math.log(5.0)
        assert m.log_density(100.0) == math.log(5.0)

    def test_scaled_shifts_log_density_by_log_k(self):
        m = PredictiveDensity(kind="point-null", location=0.0, variance=1.0)
        assert math.isclose(
            m.scaled(4.0).log_density(0.3) - m.log_density(0.3),
            math.log(4.0),
            rel_tol=1e-15,
        )

    def test_c_dependent_flag(self):
        assert PredictiveDensity.improper_flat().c_dependent
        assert not PredictiveDensity(kind="point-null", location=0.0, variance=1.0).c_dependent

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "cauchy"},
            {"kind": "point-null"},
            {"kind": "point-null", "location": 0.0},
            {"kind": "point-null", "location": 0.0, "variance": 0.0},
            {"kind": "point-null", "location": 0.0, "variance": -1.0},
            {"kind": "improper-flat", "location": 0.0},
            {"kind": "improper-flat", "c": 0.0},
            {"kind": "improper-flat", "c": -2.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            PredictiveDensity(**kwargs)

    def test_scaled_rejects_nonpositive(self):
        m = PredictiveDensity.improper_flat()
        with pytest.raises(ValueError):
            m.scaled(0.0)


class TestLogScore:
    def test_penalty_at_mode(self):
        # -log of the peak density 1/sqrt(2 pi var)
        m = PredictiveDensity(kind="point-null", location=1.3, variance=0.49)
        assert math.isclose(
            log_score(1.3, m), 0.5 * math.log(2.0 * math.pi * 0.49), rel_tol=1e-15
        )

    def test_identity_with_conjugate_bayes_factor(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            p = random_problem(rng)
            prior = AlternativePrior.conjugate(float(rng.uniform(0.05, 5)))
            rep = log_score_compare(p, prior)
            assert abs(rep.diff + math.log(bayes_factor_conjugate(p, prior))) < 1e-12

    def test_paradox_point_identity(self):
        # with tau = sigma the penalty gap recovers log 19.000 at the
        # crossing point
        p = NormalProblem(theta0=0.0, sigma=1.0, n=16818, xbar=1.96 / math.sqrt(16818))
        rep = log_score_compare(p, AlternativePrior.conjugate(1.0))
        assert abs((rep.s1 - rep.s0) - math.log(19.0)) < 1e-4
        assert rep.select_null
        assert not rep.c_dependent

    def test_flat_alternative_matches_improper_bf(self):
        p = NormalProblem(theta0=0.0, sigma=1.0, n=50, xbar=0.2)
        prior = AlternativePrior.flat(c=1.0)
        rep = log_score_compare(p, prior)
        # improper_bf exponentiates and the comparison takes logs again, so
        # bitwise equality dies in the round-trip; a couple of ulps remain
        assert math.isclose(rep.diff, -math.log(improper_bf(p, prior)), abs_tol=1e-14)
        assert rep.c_dependent

    def test_doubling_c_moves_flat_penalty_by_log_two_exactly(self):
        # the arbitrary-constant defect: m1 = c, so its penalty is -log c
        down = log_score(0.3, PredictiveDensity.improper_flat(2.0)) - log_score(
            0.3, PredictiveDensity.improper_flat(1.0)
        )
        assert down == -math.log(2.0)

    def test_doubling_c_moves_comparison_diff_by_log_two(self):
        # the null's relative penalty (and -log B01 with it) rises by log 2;
        # one float addition separates this from bitwise exactness
        p = NormalProblem(theta0=0.0, sigma=1.0, n=50, xbar=0.2)
        d1 = log_score_compare(p, AlternativePrior.flat(c=1.0)).diff
        d2 = log_score_compare(p, AlternativePrior.flat(c=2.0)).diff
        assert math.isclose(d2 - d1, math.log(2.0), rel_tol=1e-12)


class TestHyvarinenScore:
    def test_mode_value(self):
        m = PredictiveDensity(kind="conjugate", location=0.0, variance=1.0)
        assert hyvarinen_score(0.0, m) == -2.0

    def test_quarter_case(self):
        # -2/1 + 1.5^2 = 0.25, dyadic all the way
        m = PredictiveDensity(kind="conjugate", location=0.0, variance=1.0)
        assert hyvarinen_score(1.5, m) == 0.25

    def test_finite_difference_oracle_quarter_case(self):
        m = PredictiveDensity(kind="conjugate", location=0.0, variance=1.0)
        assert abs(fd_hyvarinen(1.5, m) - 0.25) < 1e-6

    def test_finite_difference_oracle_randomized(self):
        rng = np.random.default_rng(100)
        for _ in range(50):
            mu = float(rng.uniform(-3, 3))
            v = float(rng.uniform(0.3, 5))
            x = mu + float(rng.uniform(-3, 3)) * math.sqrt(v)
            m = PredictiveDensity(kind="point-null", location=mu, variance=v)
            assert abs(fd_hyvarinen(x, m) - hyvarinen_score(x, m)) < 1e-6

    @pytest.mark.parametrize("k", [1e-6, 1.0, 1e6])
    def test_exact_scaling_invariance(self, k):
        m = PredictiveDensity(kind="conjugate", location=0.4, variance=2.0)
        assert hyvarinen_score(1.1, m.scaled(k)) == hyvarinen_score(1.1, m)

    def test_flat_scores_zero_for_any_c(self):
        for c in (1e-9, 1.0, 123.0, 1e9):
            assert hyvarinen_score(0.7, PredictiveDensity.improper_flat(c)) == 0.0

    def test_flat_finite_difference_is_zero(self):
        assert fd_hyvarinen(0.5, PredictiveDensity.improper_flat(7.0)) == 0.0


def unscaled_hyvarinen(x, m):
    """The penalty as it was formed before its power-of-two scaling."""
    d = x - m.location
    return -2.0 / m.variance + (d * d) / (m.variance * m.variance)


def is_normal(y):
    return y == 0.0 or sys.float_info.min <= abs(y) <= sys.float_info.max


def binades(lo, hi):
    """Doubles m 2^e with m in [0.5, 1), spread evenly over the exponents."""
    return st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(lo, hi))


def signed(magnitudes):
    signs = st.sampled_from((-1.0, 1.0))
    return st.one_of(st.just(0.0), st.builds(lambda s, y: s * y, signs, magnitudes))


def array_agrees(x, m, got):
    # the sweep scores an array of means with the same elementwise arithmetic
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        element = hyvarinen_score(np.array([x, x]), m)[1]
    assert float(element).hex() == got.hex()


class TestHyvarinenScoreAcrossScales:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(binades(-511, 512), signed(binades(-1074, 1024)), signed(binades(-511, 512)))
    def test_unscaled_form_bit_for_bit_where_both_squares_are_normal(self, v, mu, d):
        x = mu + d
        assume(math.isfinite(x))
        d = x - mu
        assume(is_normal(d * d) and is_normal(v * v))
        m = PredictiveDensity(kind="point-null", location=mu, variance=v)
        got = hyvarinen_score(x, m)
        assert got.hex() == unscaled_hyvarinen(x, m).hex()
        array_agrees(x, m, got)

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(binades(-1073, 1024), signed(binades(-1074, 1024)), signed(binades(-1074, 1024)))
    def test_mpmath_at_every_scale(self, v, mu, d):
        x = mu + d
        assume(math.isfinite(x) and math.isfinite(x - mu))
        m = PredictiveDensity(kind="point-null", location=mu, variance=v)
        got = hyvarinen_score(x, m)
        array_agrees(x, m, got)
        with mpmath.workprec(200):
            diff = mpmath.mpf(x) - mpmath.mpf(mu)
            terms = (-2 / mpmath.mpf(v), diff * diff / (mpmath.mpf(v) ** 2))
            want = terms[0] + terms[1]
            if abs(want) > sys.float_info.max:
                return
            tol = 1e-15 * max(abs(t) for t in terms)
            assert abs(got - want) <= tol, (got, float(want))
            assert abs(want) <= tol or (got > 0.0) == (want > 0.0)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(binades(-1021, 1024), binades(1024, 1024), binades(1022, 1024), st.booleans())
    def test_mpmath_where_x_minus_mu_overflows(self, v, x, mu, x_positive):
        # x - mu leaves the doubles, yet the penalty need not; v stays above
        # 2^-1023, where -2/v is finite (below it, see the next tests)
        x, mu = (x, -mu) if x_positive else (-x, mu)
        assume(math.isinf(x - mu))
        m = PredictiveDensity(kind="point-null", location=mu, variance=v)
        got = hyvarinen_score(x, m)
        array_agrees(x, m, got)
        with mpmath.workprec(200):
            diff = mpmath.mpf(x) - mpmath.mpf(mu)
            want = -2 / mpmath.mpf(v) + diff * diff / (mpmath.mpf(v) ** 2)
        if want > sys.float_info.max:
            assert got == math.inf
        else:
            assert abs(got - want) <= 1e-15 * want, (got, float(want))

    def test_overflowing_difference_is_scored(self):
        # the CLI's --theta0=-1.5e308 --xbar=1.5e308 --sigma=1e154 --n 1:
        # 3e308^2 / 1e308^2 - 2e-308 rounds to 9 (mpmath at 200 bits)
        problem = NormalProblem(theta0=-1.5e308, sigma=1e154, n=1, xbar=1.5e308)
        report = hyvarinen_compare(problem, AlternativePrior.flat())
        assert (report.s0, report.s1, report.selection) == (9.0, 0.0, "H1")

    @pytest.mark.parametrize("v", [5e-324, 1e-320, math.nextafter(2.0**-1023, 0.0)])
    def test_below_two_to_minus_1023_the_penalty_leaves_the_doubles(self, v):
        # -2/v overflows to -inf, and with d^2/v^2 overflowing too, inf - inf is nan
        m = PredictiveDensity(kind="point-null", location=0.0, variance=v)
        assert hyvarinen_score(0.0, m) == -math.inf
        assert math.isnan(hyvarinen_score(1.0, m))
        array_agrees(1.0, m, hyvarinen_score(1.0, m))

    def test_subnormal_variance_above_two_to_minus_1023_is_scored(self):
        v = 1.5 * 2.0**-1023
        m = PredictiveDensity(kind="point-null", location=0.0, variance=v)
        assert hyvarinen_score(0.0, m) == -2.0 / v
        assert math.isfinite(hyvarinen_score(0.0, m))


class TestHyvarinenCompare:
    def test_null_data_selects_null(self):
        rep = hyvarinen_compare(NormalProblem.from_t(0.0, 10), AlternativePrior.flat())
        assert rep.diff == -20.0
        assert rep.selection == "H0"

    def test_exact_tie_on_dyadic_boundary(self):
        # theta0=0, sigma=1, n=2, xbar=1 puts t^2 exactly at 2:
        # s0 = -2*2 + 1*4 = 0 with every intermediate a dyadic float
        rep = hyvarinen_compare(
            NormalProblem(theta0=0.0, sigma=1.0, n=2, xbar=1.0), AlternativePrior.flat()
        )
        assert rep.diff == 0.0
        assert rep.tie
        assert not rep.select_null
        assert rep.selection == "tie"

    def test_tie_via_t_construction(self):
        # from_t(sqrt 2, 2) divides sqrt(2) by itself, so xbar is exactly 1
        rep = hyvarinen_compare(NormalProblem.from_t(math.sqrt(2.0), 2), AlternativePrior.flat())
        assert rep.tie

    def test_knife_edge_off_boundary(self):
        t = math.nextafter(math.sqrt(2.0), 2.0)
        rep = hyvarinen_compare(NormalProblem.from_t(t, 100), AlternativePrior.flat())
        assert not rep.tie
        assert 0.0 < rep.diff < 1e-10

    def test_flat_alternative_closed_form(self):
        # diff = (n / sigma^2) (t^2 - 2)
        rep = hyvarinen_compare(NormalProblem.from_t(1.96, 100), AlternativePrior.flat())
        assert math.isclose(rep.diff, 100.0 * (1.96**2 - 2.0), rel_tol=1e-12)
        assert rep.selection == "H1"

    def test_flat_alternative_closed_form_randomized(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            p = random_problem(rng)
            t = (p.xbar - p.theta0) / p.sem
            rep = hyvarinen_compare(p, AlternativePrior.flat())
            want = (p.n / (p.sigma * p.sigma)) * (t * t - 2.0)
            assert math.isclose(rep.diff, want, rel_tol=1e-9, abs_tol=1e-9)

    def test_conjugate_alternative_uses_its_predictive(self):
        p = NormalProblem(theta0=0.0, sigma=1.0, n=25, xbar=0.5)
        prior = AlternativePrior.conjugate(1.5)
        rep = hyvarinen_compare(p, prior)
        m1 = PredictiveDensity.conjugate(p, prior)
        assert rep.s1 == hyvarinen_score(0.5, m1)
        assert rep.s0 == hyvarinen_score(0.5, PredictiveDensity.point_null(p))

    @pytest.mark.parametrize(
        "sigma, n, xbar, selection",
        [
            # v^2 overflowed and the data term was dropped: s0 = -2e-200, H0
            (1e100, 1, 3e100, "H1"),
            # v^2 was subnormal and lost digits: s0 = 2.50025e159
            (1e-80, 1, 1.5e-80, "H1"),
            # v^2 underflowed to 0 and the penalty was refused
            (1e-100, 4, 0.0, "H0"),
        ],
    )
    def test_extreme_scales_match_mpmath(self, sigma, n, xbar, selection):
        rep = hyvarinen_compare(NormalProblem(0.0, sigma, n, xbar), AlternativePrior.flat())
        v = mpmath.mpf(sigma) ** 2 / n
        want = -2 / v + mpmath.mpf(xbar) ** 2 / v**2
        assert abs(rep.s0 - want) <= 1e-15 * abs(want)
        assert rep.selection == selection

    def test_c_never_matters(self):
        p = NormalProblem(theta0=0.0, sigma=1.0, n=25, xbar=0.5)
        a = hyvarinen_compare(p, AlternativePrior.flat(c=1.0))
        b = hyvarinen_compare(p, AlternativePrior.flat(c=1e6))
        assert a == b


class TestSprengerKlScore:
    P25 = NormalProblem(theta0=0.0, sigma=1.0, n=25, xbar=0.5)

    def test_frozen_anchor(self):
        s = sprenger_kl_score(self.P25, AlternativePrior.conjugate(1.0))
        assert math.isclose(s, SPRENGER_25, rel_tol=1e-12)

    def test_closed_form_components(self):
        # omega^2 = 1/26, mu_n = 0.5 * 25/26 at these inputs
        mu_n, omega2 = conjugate_posterior(self.P25, AlternativePrior.conjugate(1.0))
        assert math.isclose(omega2, 1.0 / 26.0, rel_tol=1e-14)
        assert math.isclose(mu_n, 12.5 / 26.0, rel_tol=1e-14)

    def test_quadrature_oracle(self):
        prior = AlternativePrior.conjugate(1.0)
        s = sprenger_kl_score(self.P25, prior)
        mu_n, omega2 = conjugate_posterior(self.P25, prior)
        w = math.sqrt(omega2)

        def integrand(theta):
            kl_rep = 25.0 * theta * theta / 2.0
            return kl_rep * math.exp(log_normal_pdf(theta, mu_n, omega2))

        q = quadrature(integrand, mu_n - 12.0 * w, mu_n + 12.0 * w, tol=1e-12)
        assert abs(s - q) < 1e-8

    def test_quadrature_oracle_randomized(self):
        rng = np.random.default_rng(102)
        for _ in range(20):
            p = random_problem(rng)
            prior = AlternativePrior.conjugate(float(rng.uniform(0.1, 3)))
            s = sprenger_kl_score(p, prior)
            mu_n, omega2 = conjugate_posterior(p, prior)
            w = math.sqrt(omega2)
            sig2 = p.sigma * p.sigma

            def integrand(theta):
                d = theta - p.theta0
                return p.n * d * d / (2.0 * sig2) * math.exp(
                    log_normal_pdf(theta, mu_n, omega2)
                )

            q = quadrature(integrand, mu_n - 12.0 * w, mu_n + 12.0 * w, tol=1e-11)
            assert abs(s - q) <= 1e-8 * max(1.0, abs(s))

    def test_centered_case_reduces_to_posterior_variance_term(self):
        p = NormalProblem(theta0=0.0, sigma=1.0, n=25, xbar=0.0)
        s = sprenger_kl_score(p, AlternativePrior.conjugate(1.0))
        assert s == 25.0 * (1.0 / 26.0) / 2.0

    def test_vanishes_as_tau_collapses(self):
        s = sprenger_kl_score(self.P25, AlternativePrior.conjugate(1e-9))
        assert 0.0 <= s < 1e-12

    def test_nonnegative_always(self):
        rng = np.random.default_rng(103)
        for _ in range(100):
            p = random_problem(rng)
            prior = AlternativePrior.conjugate(float(rng.uniform(0.01, 10)))
            assert sprenger_kl_score(p, prior) >= 0.0

    def test_rejects_flat_prior(self):
        with pytest.raises(ValueError, match="conjugate"):
            sprenger_kl_score(self.P25, AlternativePrior.flat())

    def test_report_against_zero_baseline(self):
        prior = AlternativePrior.conjugate(1.0)
        rep = sprenger_kl_report(self.P25, prior)
        assert rep.rule == "sprenger-kl"
        assert rep.s0 == sprenger_kl_score(self.P25, prior)
        assert rep.s1 == 0.0
        assert rep.diff == rep.s0
        assert rep.selection == "H1"


class TestScoreReport:
    @pytest.mark.parametrize(
        "s0, s1, selection",
        [
            (1.0, 2.0, "H0"),
            (2.0, 1.0, "H1"),
            (1.0, 1.0, "tie"),
            (-math.inf, 0.0, "H0"),
            (math.inf, 1e308, "H1"),
        ],
    )
    def test_verdict_derives_from_the_penalties(self, s0, s1, selection):
        rep = ScoreReport("log", s0, s1)
        assert rep.diff == s0 - s1
        assert (rep.select_null, rep.tie) == (selection == "H0", selection == "tie")
        assert rep.selection == selection

    @pytest.mark.parametrize(
        "s0, s1", [(math.nan, 0.0), (0.0, math.nan), (math.inf, math.inf), (-math.inf, -math.inf)]
    )
    def test_nan_difference_is_refused_naming_rule_and_penalties(self, s0, s1):
        want = f"hyvarinen penalties s0 = {s0!r} and s1 = {s1!r} have no difference s0 - s1"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            ScoreReport("hyvarinen", s0, s1)

    def test_overflowing_penalties_are_refused_by_compare(self):
        # d^2/v^2 overflows under both predictives: inf - inf
        p = NormalProblem(theta0=0.0, sigma=1e-50, n=4, xbar=1e100)
        with pytest.raises(ValueError, match="s0 = inf and s1 = inf"):
            hyvarinen_compare(p, AlternativePrior.conjugate(1e-50))


class TestScoreConsistencySim:
    def test_null_regime_plateau(self):
        # flat-alternative boundary |t| = sqrt(2) never sharpens: the
        # null-selection rate stays at P(chi-square_1 < 2) at every n
        run = ConsistencyRun(
            theta_true=0.0, theta0=0.0, sigma=1.0, n_grid=(10, 1000), replications=2000, seed=42
        )
        for s in score_consistency_sim(run):
            assert abs(s.select_null_rate - CHI2_BELOW_2) < 0.02
            assert s.tie_rate == 0.0
            assert s.select_null_rate + s.select_alt_rate + s.tie_rate == 1.0

    def test_alternative_regime_selects_alternative(self):
        run = ConsistencyRun(
            theta_true=0.5, theta0=0.0, sigma=1.0, n_grid=(1000,), replications=2000, seed=42
        )
        (s,) = score_consistency_sim(run)
        assert s.select_alt_rate >= 0.999

    def test_deterministic(self):
        run = ConsistencyRun(
            theta_true=0.0, theta0=0.0, sigma=1.0, n_grid=(10, 100), replications=500, seed=7
        )
        assert score_consistency_sim(run) == score_consistency_sim(run)

    def test_single_replicate(self):
        run = ConsistencyRun(
            theta_true=0.0, theta0=0.0, sigma=1.0, n_grid=(10,), replications=1, seed=7
        )
        (s,) = score_consistency_sim(run)
        assert isinstance(s, ScoreSelectionSummary)
        assert s.select_null_rate + s.select_alt_rate + s.tie_rate == 1.0

    def test_conjugate_prior_accepted(self):
        run = ConsistencyRun(
            theta_true=0.0, theta0=0.0, sigma=1.0, n_grid=(100,), replications=200, seed=3
        )
        (s,) = score_consistency_sim(run, prior=AlternativePrior.conjugate(1.0))
        assert 0.0 <= s.select_null_rate <= 1.0

    def test_chi_square_constant_matches_p_value_identity(self):
        # P(chi-square_1 < 2) = 1 - p_value(sqrt 2)
        from pointnull.normal import p_value

        assert math.isclose(CHI2_BELOW_2, 1.0 - p_value(math.sqrt(2.0)), rel_tol=1e-14)
