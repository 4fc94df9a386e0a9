"""Normal point-null core: statistic arithmetic, both Bayes factor routes,
posterior updating, the prior-scale reading, the improper-prior defect read
through the log score, and both verdicts on one problem.

Frozen expectations were computed with an mpmath oracle at 40 digits; the
randomized sweeps re-derive the agreement properties on fresh seeded grids.
"""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pointnull.normal import (
    AlternativePrior,
    HypothesisWeights,
    NormalProblem,
    _bf,
    bayes_factor_conjugate,
    bayes_factor_lindley,
    evaluate_test,
    log_bayes_factor_conjugate,
    log_bayes_factor_lindley,
    log_savage_dickey_bf,
    posterior_prob_null,
    reinterpret_as_prior_scale,
    savage_dickey_bf,
    t_statistic,
)
from pointnull.numerics import p_value
from pointnull.scores import conjugate_posterior, log_score_compare, sprenger_kl_score

BEYOND = "lies beyond the largest double, at 10^"


def random_problem(rng):
    theta0 = float(rng.uniform(-3.0, 3.0))
    sigma = float(rng.uniform(0.2, 4.0))
    n = int(rng.integers(1, 5000))
    t = float(rng.uniform(-5.0, 5.0))
    xbar = theta0 + t * sigma / math.sqrt(n)
    return NormalProblem(theta0, sigma, n, xbar)


class TestNormalProblem:
    def test_from_t_round_trips(self):
        problem = NormalProblem.from_t(1.96, 16, theta0=0.0, sigma=1.0)
        assert problem.xbar == pytest.approx(0.49)
        assert t_statistic(problem) == pytest.approx(1.96, rel=1e-14)

    @pytest.mark.parametrize("n", [0, -4])
    def test_from_t_validates_n_before_dividing(self, n):
        with pytest.raises(ValueError, match="^n must be at least 1$"):
            NormalProblem.from_t(1.0, n)

    def test_from_t_checks_in_constructor_order(self):
        with pytest.raises(ValueError, match="^sigma must be positive$"):
            NormalProblem.from_t(1.0, 0, sigma=-1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_from_t_refuses_non_finite_t_by_its_name(self, t):
        # xbar is derived from t, so "xbar must be finite" named a value never given
        with pytest.raises(ValueError, match="^t must be finite$"):
            NormalProblem.from_t(t, 4)

    @pytest.mark.parametrize(
        "t, n, theta0, sigma",
        [
            (1e10, 10**30, 0.0, 1e300),  # t sigma = 1e310 leaves the doubles, t sem = 1e295 does not
            (2.5, 1, -1.7e308, 1e308),  # t sem = 2.5e308 leaves them, theta0 brings xbar back
            (0.01, 1, 1.79e308, 1e308),  # t sem is a double, theta0 + t sem is not
        ],
    )
    def test_from_t_reads_xbar_on_mantissas_where_a_step_overflows(self, t, n, theta0, sigma):
        with mpmath.workprec(200):
            want = mpmath.mpf(theta0) + mpmath.mpf(t) * mpmath.mpf(sigma) / mpmath.sqrt(n)
        if abs(want) > sys.float_info.max:
            with pytest.raises(ValueError, match=r"^xbar from theta0, t, sigma and n lies beyond"):
                NormalProblem.from_t(t, n, theta0=theta0, sigma=sigma)
        else:
            xbar = NormalProblem.from_t(t, n, theta0=theta0, sigma=sigma).xbar
            assert abs(xbar - want) <= 4.5e-16 * abs(want), (xbar, float(want))

    def test_sem(self):
        assert NormalProblem(0.0, 2.0, 16, 0.1).sem == 0.5

    @pytest.mark.parametrize("n", [int(sys.float_info.max) + 1, 10**400])
    def test_n_above_largest_float_is_refused(self, n):
        # math.sqrt(n) raised OverflowError: int too large to convert to float
        for make in (lambda: NormalProblem(0.0, 1.0, n, 0.0), lambda: NormalProblem.from_t(1.0, n)):
            with pytest.raises(ValueError, match="^n must be at most the largest float, 1.79769e"):
                make()

    def test_largest_float_n_is_accepted(self):
        n = int(sys.float_info.max)
        assert NormalProblem.from_t(1.0, n).sem == 1.0 / math.sqrt(n)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(theta0=math.nan, sigma=1.0, n=4, xbar=0.0),
            dict(theta0=0.0, sigma=0.0, n=4, xbar=0.0),
            dict(theta0=0.0, sigma=1.0, n=0, xbar=0.0),
            dict(theta0=0.0, sigma=1.0, n=4, xbar=math.inf),
            dict(theta0=0.0, sigma=1.0, n=10.5, xbar=0.1),
            dict(theta0=0.0, sigma=1.0, n=math.nan, xbar=0.1),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            NormalProblem(**kwargs)

    @pytest.mark.parametrize("n", [10.5, math.nan, 4.0])
    def test_non_integral_n_is_refused_first(self, n):
        # n=nan used to construct and fail later as "t must be finite"
        for make in (lambda: NormalProblem(math.nan, 1.0, n, 0.1), lambda: NormalProblem.from_t(1.0, n)):
            with pytest.raises(ValueError, match=f"^n must be an integer, got {n!r}$"):
                make()

    def test_numpy_integer_n_is_accepted(self):
        assert NormalProblem(0.0, 2.0, np.int64(16), 0.1).sem == 0.5


class TestAlternativePrior:
    def test_conjugate_needs_tau(self):
        with pytest.raises(ValueError):
            AlternativePrior("conjugate-normal")
        with pytest.raises(ValueError):
            AlternativePrior.conjugate(-1.0)

    def test_flat_rejects_tau_and_bad_c(self):
        with pytest.raises(ValueError):
            AlternativePrior("improper-flat", tau=1.0)
        with pytest.raises(ValueError):
            AlternativePrior.flat(c=0.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            AlternativePrior("cauchy")

    def test_c_is_flat_only(self):
        with pytest.raises(ValueError):
            AlternativePrior("conjugate-normal", tau=1.0, c=2.0)


class TestTStatistic:
    def test_null_centered_is_zero(self):
        assert t_statistic(NormalProblem(0.0, 1.0, 4, 0.0)) == 0.0

    def test_arithmetic(self):
        assert t_statistic(NormalProblem(0.0, 1.0, 16, 0.49)) == pytest.approx(1.96)

    def test_stone_scale(self):
        # binomial example recast with sigma = sqrt(theta0 (1 - theta0))
        problem = NormalProblem(0.2, 0.4, 527135, 0.2016526)
        assert t_statistic(problem) == pytest.approx(3.000, abs=2e-3)

    @pytest.mark.parametrize(
        "theta0, xbar, sigma, n",
        [
            (-1.5e308, 1.5e308, 1e154, 1),
            (1.7e308, -1.2e308, 3.0, 10**6),
            (-1e308, 1e308, 1e10, 4),
            (-1.7976931348623157e308, 1.7976931348623157e308, 2.0, 1),
            (-1.5e308, 1.5e308, 0.5, 1),
        ],
    )
    def test_overflowing_difference(self, theta0, xbar, sigma, n):
        # xbar - theta0 leaves the doubles while t need not: within two ulps
        # of mpmath, and inf exactly where the true t overflows
        with mpmath.workprec(200):
            want = mpmath.sqrt(n) * (mpmath.mpf(xbar) - mpmath.mpf(theta0)) / mpmath.mpf(sigma)
        got = t_statistic(NormalProblem(theta0, sigma, n, xbar))
        if abs(want) > sys.float_info.max:
            assert got == math.copysign(math.inf, want)
        else:
            assert abs(got - want) <= 4.5e-16 * abs(want), (got, float(want))


class TestPValue:
    def test_no_evidence_gives_one(self):
        assert p_value(0.0) == 1.0

    def test_named_values(self):
        assert p_value(1.96) == pytest.approx(0.049995790296440868, abs=1e-15)
        assert p_value(1.96) == pytest.approx(0.05, abs=1e-4)
        assert p_value(3.0) == pytest.approx(0.0026997960632601891, abs=1e-15)
        assert p_value(3.0) == pytest.approx(0.0027, abs=2e-4)

    def test_symmetric(self):
        rng = np.random.default_rng(11)
        for t in rng.uniform(-6.0, 6.0, 100):
            assert p_value(float(t)) == p_value(float(-t))

    def test_strictly_decreasing_in_magnitude(self):
        ts = np.linspace(0.0, 9.0, 200)
        vals = [p_value(float(t)) for t in ts]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            p_value(math.inf)


class TestBayesFactorLindley:
    def test_zero_t_is_sqrt_n_plus_one(self):
        assert bayes_factor_lindley(0.0, 99) == pytest.approx(10.0, rel=1e-12)

    def test_paradox_point(self):
        # mpmath oracle: 19.000141823580723587
        bf = bayes_factor_lindley(1.96, 16818)
        assert bf == pytest.approx(19.000141823580724, rel=1e-13)
        assert bf == pytest.approx(19.000, abs=1e-3)

    def test_ten_to_one_point(self):
        bf = bayes_factor_lindley(1.96, 164)
        assert bf == pytest.approx(1.9037277716482961, rel=1e-13)
        assert bf == pytest.approx(1.9035, abs=5e-4)

    def test_divergence_with_n(self):
        # consistency direction: increasing in n beyond t^2 - 1
        t = 2.5
        values = [log_bayes_factor_lindley(t, n) for n in (10**3, 10**6, 10**9)]
        assert values[0] < values[1] < values[2]

    def test_derivative_sign_and_minimum_against_grid(self):
        # d/dn log BF changes sign at n = t^2 - 1; minimum value
        # |t| e^{-(t^2-1)/2}, checked against a dense grid search
        t = 2.2
        grid = np.linspace(1.0, 40.0, 390001)
        vals = np.array([log_bayes_factor_lindley(t, float(n)) for n in grid])
        k = int(vals.argmin())
        assert grid[k] == pytest.approx(t * t - 1.0, abs=1e-3)
        assert math.exp(vals[k]) == pytest.approx(t * math.exp(-(t * t - 1.0) / 2.0), rel=1e-8)
        n_star = t * t - 1.0
        assert all(
            np.diff(vals[grid < n_star - 1e-3]) < 0.0
        ), "decreasing branch should fall"
        assert all(np.diff(vals[grid > n_star + 1e-3]) > 0.0), "increasing branch should rise"

    def test_rejects_n_below_one(self):
        with pytest.raises(ValueError):
            bayes_factor_lindley(1.0, 0)

    # 2(1 + n) overflows from the double after max/2, about 9e307
    @pytest.mark.parametrize(
        "n", [math.nextafter(sys.float_info.max / 2.0, math.inf), 10**308, sys.float_info.max]
    )
    @pytest.mark.parametrize("t", [0.0, 1e-3, -1.0897, 3.0, 1e100])
    def test_mpmath_where_two_times_one_plus_n_overflows(self, t, n):
        got = log_bayes_factor_lindley(t, n)
        with mpmath.workdps(40):
            n_mp, t_mp = mpmath.mpf(n), mpmath.mpf(t)
            want = mpmath.log1p(n_mp) / 2 - n_mp * t_mp**2 / (2 * (1 + n_mp))
        assert abs(got - want) <= 1e-15 * abs(want), (got, float(want))

    # n t^2 overflows while 2(1 + n) and the quotient stay finite: from
    # n = max/t^2 up, and at any n once |t| passes about 1.3e154
    @pytest.mark.parametrize(
        "t, n",
        [
            (2.0, 5e307), (3.0, 2.1e307), (-1.5, 8.9e307), (1e100, 5e307),
            (1.5e154, 1), (-1e154, 10**40), (1e154, 3e200),
        ],
    )
    def test_mpmath_where_n_t_squared_overflows(self, t, n):
        with np.errstate(over="ignore"):
            assert n * t * t == math.inf
        got = log_bayes_factor_lindley(t, n)
        with np.errstate(over="ignore"):
            (got_array,) = log_bayes_factor_lindley(np.array([t]), n)
        with mpmath.workdps(40):
            n_mp, t_mp = mpmath.mpf(n), mpmath.mpf(t)
            want = mpmath.log1p(n_mp) / 2 - n_mp * t_mp**2 / (2 * (1 + n_mp))
        assert abs(got - want) <= 1e-15 * abs(want), (got, float(want))
        assert got_array == got

    def test_never_rises_with_abs_t_where_n_t_squared_overflows(self):
        a = np.sort(np.abs(np.random.default_rng(43).standard_normal(2001)) * 4.0)
        a = np.concatenate([[0.0], a, [1e154, 1.3e154, 1e200]])
        with np.errstate(over="ignore"):
            vals = log_bayes_factor_lindley(a, 5e307)
        assert np.isfinite(vals[:-1]).all() and vals[-1] == -math.inf
        assert (np.diff(vals) <= 0.0).all()

    def test_never_rises_with_abs_t_where_two_times_one_plus_n_overflows(self):
        # the consistency sweep reads its median at |t|'s middle ranks
        a = np.sort(np.abs(np.random.default_rng(41).standard_normal(2001)) * 4.0)
        a = np.concatenate([[0.0], a, [1e154, 1.3e154, 1e200]])
        with np.errstate(over="ignore"):
            vals = log_bayes_factor_lindley(a, 10**308)
        assert not np.isnan(vals).any()
        assert (np.diff(vals) <= 0.0).all()


class TestBayesFactorConjugate:
    def test_tau_equal_sigma_reproduces_lindley(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            problem = random_problem(rng)
            prior = AlternativePrior.conjugate(problem.sigma)
            via_conjugate = bayes_factor_conjugate(problem, prior)
            via_lindley = bayes_factor_lindley(t_statistic(problem), problem.n)
            assert via_conjugate == pytest.approx(via_lindley, rel=1e-12)

    def test_centered_wide_prior(self):
        # xbar = theta0, tau^2 = 16 sigma^2, n = 1: variance ratio sqrt(17)
        problem = NormalProblem(0.0, 1.0, 1, 0.0)
        prior = AlternativePrior.conjugate(4.0)
        assert bayes_factor_conjugate(problem, prior) == pytest.approx(math.sqrt(17.0), rel=1e-14)

    def test_matches_quadrature_marginal(self):
        problem = NormalProblem(0.0, 1.0, 25, 0.5)
        prior = AlternativePrior.conjugate(2.0)
        # oracle: mpmath.quad of the alternative marginal at 40 digits
        with mpmath.workdps(40):
            xbar = mpmath.mpf(problem.xbar)
            sem = mpmath.mpf(problem.sigma) / mpmath.sqrt(problem.n)
            tau = mpmath.mpf(prior.tau)
            m1 = mpmath.quad(
                lambda th: mpmath.npdf(xbar, th, sem) * mpmath.npdf(th, 0, tau),
                [-mpmath.inf, xbar, mpmath.inf],
            )
            m0 = mpmath.npdf(xbar, 0, sem)
            want = float(m0 / m1)
        assert bayes_factor_conjugate(problem, prior) == pytest.approx(want, rel=1e-14)
        assert bayes_factor_conjugate(problem, prior) == pytest.approx(0.45543642336144708, rel=1e-12)

    def test_requires_conjugate(self):
        with pytest.raises(ValueError):
            bayes_factor_conjugate(NormalProblem(0.0, 1.0, 4, 0.1), AlternativePrior.flat())

    @pytest.mark.parametrize(
        "sigma, tau",
        [(1.0, 1e200), (1.0, 1e-200), (1e200, 1.0), (1e-200, 1.0), (1.3e154, 1.34e154)],
    )
    def test_variance_out_of_range_still_answers(self, sigma, tau):
        # each input is a finite positive double; only a square, or their sum,
        # leaves the range, which the answer does not depend on
        assert_conjugate_matches_mpmath(NormalProblem.from_t(1.96, 100, sigma=sigma), tau)

    def test_variances_at_the_edge_of_range_pass(self):
        # sigma^2/n and tau^2 both subnormal or both near the top: still positive and finite
        problem = NormalProblem(0.0, 1e-160, 1, 0.0)
        prior = AlternativePrior.conjugate(1e-160)
        # xbar = theta0 and tau^2 = sigma^2/n: B01 = sqrt(2)
        assert log_bayes_factor_conjugate(problem, prior) == pytest.approx(0.5 * math.log(2.0))
        problem = NormalProblem(0.0, 1e153, 1, 0.0)
        prior = AlternativePrior.conjugate(1e153)
        assert log_bayes_factor_conjugate(problem, prior) == pytest.approx(0.5 * math.log(2.0))

    @pytest.mark.parametrize("bf", [bayes_factor_conjugate, savage_dickey_bf], ids=lambda f: f.__name__)
    def test_factor_above_the_doubles_is_refused_by_name(self, bf):
        # the Bartlett limit: log B01 is finite, but B01 lies past the largest double
        problem = NormalProblem.from_t(1.96, 10_000)
        prior = AlternativePrior.conjugate(1e308)
        assert 709.8 < log_bayes_factor_conjugate(problem, prior) < 712.0
        with pytest.raises(ValueError) as refusal:
            bf(problem, prior)
        assert str(refusal.value) == f"B01 from t, tau, sigma and n {BEYOND}309.166"

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(st.one_of(st.floats(-1e4, 1e4), st.integers(-1000, 1000)))
    def test_factor_is_exp_and_refused_where_exp_overflows(self, x):
        # B01 is math.exp(log B01) bit for bit, and refused exactly where exp
        # overflows, at its size log B01 / ln 10; an integer steps that many
        # doubles from log of the largest double
        if isinstance(x, int):
            steps, x = x, math.log(sys.float_info.max)
            for _ in range(abs(steps)):
                x = math.nextafter(x, math.copysign(math.inf, steps))
        try:
            want = math.exp(x)
        except OverflowError:
            with pytest.raises(ValueError) as refusal:
                _bf(x)
            size = f"{x / math.log(10.0):.6g}"
            assert str(refusal.value) == f"B01 from t, tau, sigma and n {BEYOND}{size}"
        else:
            assert _bf(x).hex() == want.hex()


class TestSavageDickey:
    def test_centered_case_closed_form(self):
        problem = NormalProblem(1.0, 2.0, 16, 1.0)
        prior = AlternativePrior.conjugate(3.0)
        s2 = problem.sigma**2 / problem.n
        want = math.sqrt((prior.tau**2 + s2) / s2)
        assert savage_dickey_bf(problem, prior) == pytest.approx(want, rel=1e-12)

    def test_paradox_point(self):
        problem = NormalProblem.from_t(1.96, 16818)
        prior = AlternativePrior.conjugate(1.0)
        assert savage_dickey_bf(problem, prior) == pytest.approx(19.000, abs=1e-3)

    def test_agrees_with_marginal_ratio_on_random_grid(self):
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(100):
            problem = random_problem(rng)
            prior = AlternativePrior.conjugate(float(rng.uniform(0.1, 5.0)))
            a = savage_dickey_bf(problem, prior)
            b = bayes_factor_conjugate(problem, prior)
            worst = max(worst, abs(a - b) / b)
        assert worst < 1e-10

    def test_posterior_params(self):
        problem = NormalProblem(0.0, 1.0, 25, 0.5)
        mu_n, omega2 = conjugate_posterior(problem, AlternativePrior.conjugate(1.0))
        assert mu_n == pytest.approx(0.5 * 25 / 26, rel=1e-14)
        assert omega2 == pytest.approx(1.0 / 26.0, rel=1e-14)


def mp_conjugate(problem, tau):
    """The conjugate quantities at 40 digits, where no square leaves the range."""
    with mpmath.workdps(40):
        d = mpmath.mpf(problem.xbar) - mpmath.mpf(problem.theta0)
        s2 = mpmath.mpf(problem.sigma) ** 2 / problem.n
        c2 = mpmath.mpf(tau) ** 2 / (s2 + mpmath.mpf(tau) ** 2)
        log_h = mpmath.log1p(mpmath.mpf(tau) ** 2 / s2) / 2
        return dict(
            d=d,
            log_h=log_h,
            log_bf=log_h - d * d * c2 / (2 * s2),
            mean=problem.theta0 + d * c2,
            var=s2 * c2,
            kl=(s2 * c2 + (d * c2) ** 2) / (2 * s2),
        )


def agrees(got, want, scale, floor=0.0):
    """got within 1e-12 * scale (plus floor) of want, or not finite exactly
    where want is beyond the doubles."""
    if not math.isfinite(got):
        return abs(want) > sys.float_info.max
    return abs(got - want) <= 1e-12 * scale + floor


@st.composite
def conjugate_problems(draw):
    sigma, tau = (10.0 ** draw(st.floats(-300.0, 300.0)) for _ in range(2))
    n = int(10.0 ** draw(st.floats(0.0, 308.25)))
    if draw(st.booleans()):
        theta0 = draw(st.floats(-1e300, 1e300))
        problem = NormalProblem.from_t(draw(st.floats(-1e3, 1e3)), n, theta0=theta0, sigma=sigma)
    else:
        # xbar and theta0 of opposite signs: xbar - theta0 up to twice the largest double
        side = draw(st.sampled_from([-1.0, 1.0])) * sys.float_info.max
        theta0, xbar = (side * draw(st.floats(0.0, 1.0)) for _ in range(2))
        problem = NormalProblem(-theta0, sigma, n, xbar)
    return problem, tau


def assert_conjugate_matches_mpmath(problem, tau):
    # log B01 and the Savage-Dickey route are a difference from log(hypot(sem,
    # tau) / sem), which sets their scale; the posterior mean's is |xbar -
    # theta0| too, where theta0 and the shift nearly cancel. A subnormal
    # answer can be no closer than a few of its spacings, 2^-1074.
    prior = AlternativePrior.conjugate(tau)
    want = mp_conjugate(problem, tau)
    log_scale = max(1.0, abs(want["log_bf"]), want["log_h"])
    assert agrees(log_bayes_factor_conjugate(problem, prior), want["log_bf"], log_scale)
    assert agrees(log_savage_dickey_bf(problem, prior), want["log_bf"], log_scale)
    mean, var = conjugate_posterior(problem, prior)
    assert agrees(mean, want["mean"], max(abs(want["mean"]), abs(want["d"])), 1e-322)
    assert agrees(var, want["var"], want["var"], 1e-322)
    if want["kl"] > sys.float_info.max:
        # refused by name, with its size, as the CLI's last guard once refused an inf
        size = float(mpmath.log10(want["kl"]))
        with pytest.raises(ValueError, match=rf"^sprenger-kl score s0 from .* at 10\^{size:.6g}$"):
            sprenger_kl_score(problem, prior)
    else:
        assert agrees(sprenger_kl_score(problem, prior), want["kl"], want["kl"], 1e-322)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(conjugate_problems())
def test_conjugate_kernel_matches_mpmath_at_every_scale(case):
    assert_conjugate_matches_mpmath(*case)


class TestPosteriorProbNull:
    def test_indifference_point(self):
        assert posterior_prob_null(1.0, HypothesisWeights(0.5)) == 0.5

    def test_paradox_point(self):
        bf = bayes_factor_lindley(1.96, 16818)
        assert posterior_prob_null(bf, HypothesisWeights(0.5)) == pytest.approx(0.9500, abs=1e-4)

    def test_ten_to_one(self):
        bf = bayes_factor_lindley(1.96, 164)
        post = posterior_prob_null(bf, HypothesisWeights(10.0 / 11.0))
        assert post == pytest.approx(0.9501, abs=3e-4)

    def test_monotone_in_bf_and_rho(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            bf = float(rng.uniform(0.01, 50.0))
            rho = float(rng.uniform(0.05, 0.95))
            up_bf = posterior_prob_null(bf * 1.1, HypothesisWeights(rho))
            up_rho = posterior_prob_null(bf, HypothesisWeights(min(rho * 1.05, 0.97)))
            base = posterior_prob_null(bf, HypothesisWeights(rho))
            assert up_bf > base
            assert up_rho > base

    def test_relabeling_invariance(self):
        # swapping hypotheses: (bf, rho) -> (1/bf, 1-rho) flips the probability
        rng = np.random.default_rng(15)
        for _ in range(100):
            bf = float(rng.uniform(0.01, 100.0))
            rho = float(rng.uniform(0.05, 0.95))
            direct = posterior_prob_null(bf, HypothesisWeights(rho))
            flipped = posterior_prob_null(1.0 / bf, HypothesisWeights(1.0 - rho))
            assert direct + flipped == pytest.approx(1.0, abs=1e-12)

    def test_extreme_bf(self):
        assert posterior_prob_null(math.inf, HypothesisWeights(0.5)) == 1.0
        # exp(log B01) underflows to 0 far out in the tail: the posterior is
        # below the smallest double, not an error
        assert posterior_prob_null(0.0, HypothesisWeights(0.5)) == 0.0

    @pytest.mark.parametrize("bf", [-1.0, -5e-324, math.nan, -math.inf])
    def test_rejects_negative_and_nan(self, bf):
        with pytest.raises(ValueError, match="^bf01 must be non-negative$"):
            posterior_prob_null(bf, HypothesisWeights(0.5))

    def test_odds_rounding_to_zero_keeps_the_posterior(self):
        # rho0 * bf01 rounds to 0 although bf01 is the smallest subnormal;
        # the posterior, 2^-1074 / (1 + 2^-1074), rounds to 2^-1074, not 0
        # (report --t 38.85 --n 1 --tau 10 printed post_prob0 0.0 beside bf01 5e-324)
        assert 0.5 * 5e-324 == 0.0
        assert posterior_prob_null(5e-324, HypothesisWeights(0.5)) == 5e-324
        assert posterior_prob_null(5e-324, HypothesisWeights(1e-300)) == 0.0

    def test_positive_bf_keeps_the_odds_formula(self):
        # wherever rho0 bf01 is a normal double; below that, see the next test
        rng = np.random.default_rng(16)
        for log_bf in rng.uniform(-744.0, 709.0, 300):
            bf = math.exp(float(log_bf))
            rho = float(rng.uniform(0.01, 0.99))
            if rho * bf >= sys.float_info.min:
                want = 1.0 / (1.0 + (1.0 - rho) / (rho * bf))
                assert posterior_prob_null(bf, HypothesisWeights(rho)) == want

    @settings(max_examples=2000, deadline=None, derandomize=True, database=None)
    @given(
        st.builds(lambda e: 10.0**e, st.floats(-323.0, -300.0)),
        st.one_of(
            st.builds(lambda e: 10.0**e, st.floats(-300.0, -1e-3)),
            st.builds(lambda e: 1.0 - 10.0**e, st.floats(-15.0, -1.0)),
        ),
    )
    def test_subnormal_odds_within_an_ulp_of_mpmath(self, bf, rho):
        # report --t 40 --n 10 printed post_prob0 0.0 beside bf01 4.679e-316:
        # the odds form rounded through a subnormal rho0 bf01, then to 0
        assume(rho * bf < sys.float_info.min)
        got = posterior_prob_null(bf, HypothesisWeights(rho))
        with mpmath.workprec(300):
            odds = mpmath.mpf(rho) * mpmath.mpf(bf)
            want = odds / (odds + 1 - mpmath.mpf(rho))
            assert abs(mpmath.mpf(got) - want) <= math.ulp(float(want))


class TestPriorScaleReading:
    def test_paradox_point(self):
        single, prior = reinterpret_as_prior_scale(NormalProblem.from_t(1.96, 16818))
        assert single.n == 1
        assert prior.tau == pytest.approx(math.sqrt(16818.0), rel=1e-15)
        assert bayes_factor_conjugate(single, prior) == pytest.approx(19.000, abs=1e-3)

    def test_null_centered(self):
        single, prior = reinterpret_as_prior_scale(NormalProblem(0.0, 1.0, 99, 0.0))
        assert bayes_factor_conjugate(single, prior) == pytest.approx(10.0, rel=1e-12)

    def test_equivalence_sweep(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            problem = random_problem(rng)
            single, prior = reinterpret_as_prior_scale(problem)
            recast = bayes_factor_conjugate(single, prior)
            direct = bayes_factor_lindley(t_statistic(problem), problem.n)
            assert recast == pytest.approx(direct, rel=1e-12)


def flat_factor(problem: NormalProblem, c: float = 1.0) -> float:
    """m0(xbar) / c, the flat prior's factor, as the log score reads it."""
    return math.exp(-log_score_compare(problem, AlternativePrior.flat(c)).diff)


class TestFlatFactor:
    def test_named_value(self):
        # (sqrt(10)/sqrt(2 pi)) exp(-10 * 0.6198^2 / 2), mpmath oracle
        got = flat_factor(NormalProblem(0.0, 1.0, 10, 0.6198))
        assert got == pytest.approx(0.18481384814959942, rel=1e-12)
        assert got == pytest.approx(0.1848, abs=2e-4)

    def test_mode_density(self):
        got = flat_factor(NormalProblem(0.0, 1.0, 10, 0.0))
        assert got == pytest.approx(math.sqrt(10.0 / (2.0 * math.pi)), rel=1e-12)

    @pytest.mark.parametrize("sigma, n", [(1e-200, 100), (1e200, 1), (1e-10, 10**300)])
    def test_answers_where_sigma_squared_over_n_leaves_the_doubles(self, sigma, n):
        # sigma^2/n underflows (it was refused: "variance must be positive"),
        # overflows (m0 read 0.0) or is subnormal; m0(xbar) is read in units of sem
        problem = NormalProblem.from_t(1.5, n, sigma=sigma)
        with mpmath.workprec(200):
            sem = mpmath.mpf(sigma) / mpmath.sqrt(n)
            want = mpmath.npdf(mpmath.mpf(problem.xbar), 0, sem) / 3
        assert flat_factor(problem, c=3.0) == pytest.approx(float(want), rel=1e-13)


EVEN = HypothesisWeights(0.5)


class TestEvaluateTest:
    def test_paradox_point_report(self):
        report = evaluate_test(NormalProblem.from_t(1.96, 16818), AlternativePrior.conjugate(1.0), EVEN)
        assert report.p_value == pytest.approx(0.05, abs=1e-4)
        assert report.bf01 == pytest.approx(19.000, abs=1e-3)
        assert report.post_prob0 == pytest.approx(0.9500, abs=1e-4)
        assert report.reject_frequentist
        assert report.favor_null_bayes
        assert report.paradoxical

    def test_report_invariants(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            problem = random_problem(rng)
            weights = HypothesisWeights(float(rng.uniform(0.1, 0.9)))
            report = evaluate_test(problem, AlternativePrior.conjugate(problem.sigma), weights, 0.05)
            want_post = weights.rho0 * report.bf01 / (weights.rho0 * report.bf01 + 1 - weights.rho0)
            assert report.post_prob0 == pytest.approx(want_post, rel=1e-12)
            assert report.reject_frequentist == (report.p_value <= report.alpha)
            assert report.favor_null_bayes == (report.bf01 >= 1.0)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            evaluate_test(NormalProblem(0.0, 1.0, 4, 0.1), AlternativePrior.conjugate(1.0), EVEN, 1.0)

    def test_flat_prior_is_refused(self):
        # the flat prior's factor m0 / c carries its arbitrary constant, so
        # the verdicts take a proper alternative only; the log score reads it
        problem = NormalProblem(0.0, 1.0, 10, 0.6198)
        with pytest.raises(ValueError, match="^this operation requires a conjugate-normal prior$"):
            evaluate_test(problem, AlternativePrior.flat(c=1.0), EVEN)
