"""Log, Hyvarinen and KL scoring rules, against mpmath at every scale, and
their selection sweeps."""

import contextlib
import io
import json
import math
import re
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pointnull import cli
from pointnull._hyvarinen import _selection_summary
from pointnull.normal import AlternativePrior, NormalProblem, bayes_factor_conjugate
from pointnull.numerics import log_normal_pdf
from pointnull.paradox import ConsistencyRun
from pointnull.scores import (
    ScoreReport,
    ScoreSelectionSummary,
    conjugate_posterior,
    hyvarinen_compare,
    log_score_compare,
    score_consistency_sim,
    sprenger_kl_report,
    sprenger_kl_score,
)

# mpmath oracle (dps 40): 25*(1/26 + (12.5/13)^2)/2
SPRENGER_25 = 3.370007396449704142
# 1 - p_value(sqrt(2)) = P(chi-square_1 < 2) and 1 - p_value(1), mpmath erfc oracle
CHI2_BELOW_2 = 0.84270079294971487
CHI2_BELOW_1 = 0.68268949213708590
# relative bound on the Sprenger KL score against kl_by_quad; the cases
# below reach 2e-16
TOL_QUAD = 1e-14


def random_problem(rng):
    theta0 = float(rng.uniform(-3, 3))
    sigma = float(rng.uniform(0.2, 4))
    n = int(rng.integers(1, 5000))
    t = float(rng.uniform(-5, 5))
    return NormalProblem(
        theta0=theta0, sigma=sigma, n=n, xbar=theta0 + t * sigma / math.sqrt(n)
    )


def kl_by_quad(p, mu_n, omega2):
    """E[n (theta - theta0)^2 / (2 sigma^2)] under N(mu_n, omega2): the
    Sprenger KL score, by mpmath.quad at 30 digits."""
    with mpmath.workdps(30):
        theta0, mu, w = mpmath.mpf(p.theta0), mpmath.mpf(mu_n), mpmath.sqrt(omega2)
        c = p.n / (2 * mpmath.mpf(p.sigma) ** 2)
        return float(
            mpmath.quad(lambda th: c * (th - theta0) ** 2 * mpmath.npdf(th, mu, w),
                        [-mpmath.inf, mu, mpmath.inf])
        )


def fd_hyvarinen(problem, prior, h):
    """Central finite differences of 2 (log m)'' + ((log m)')^2 at xbar, for
    the null's and the alternative's predictive m, with log m(x) read from
    the log score's penalties -log m(x)."""
    def log_m(x):
        rep = log_score_compare(
            NormalProblem(problem.theta0, problem.sigma, problem.n, x), prior
        )
        return np.array([-rep.s0, -rep.s1])

    x = problem.xbar
    lo, mid, hi = log_m(x - h), log_m(x), log_m(x + h)
    second = (hi - 2.0 * mid + lo) / (h * h)
    first = (hi - lo) / (2.0 * h)
    return 2.0 * second + first * first


class TestLogScoreCompare:
    def test_penalty_at_mode(self):
        # -log of the null's peak density 1/sqrt(2 pi sigma^2/n)
        rep = log_score_compare(NormalProblem(1.3, 1.4, 4, 1.3), AlternativePrior.flat())
        assert math.isclose(rep.s0, 0.5 * math.log(2.0 * math.pi * 0.49), rel_tol=1e-15)

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

    @pytest.mark.parametrize("c", [1e-300, 0.5, 2.0, 1e300])
    def test_flat_penalty_is_minus_log_c(self, c):
        # the arbitrary-constant defect: m1 = c, so its penalty is -log c,
        # wherever xbar lies, and the null's penalty does not move with it
        p = NormalProblem(theta0=0.0, sigma=1.0, n=50, xbar=0.2)
        rep = log_score_compare(p, AlternativePrior.flat(c=c))
        assert rep.s1 == -math.log(c)
        assert rep.s0 == log_score_compare(p, AlternativePrior.flat()).s0
        assert rep.c_dependent

    def test_doubling_c_moves_flat_penalty_by_log_two_exactly(self):
        p = NormalProblem(theta0=0.0, sigma=1.0, n=50, xbar=0.3)
        s1 = [log_score_compare(p, AlternativePrior.flat(c=c)).s1 for c in (1.0, 2.0)]
        assert s1[1] - s1[0] == -math.log(2.0)

    def test_penalties_are_minus_log_normal_pdf(self):
        # at ordinary scales the predictives are N(theta0, sem^2) and
        # N(theta0, sem^2 + tau^2), whose log densities numerics forms directly
        rng = np.random.default_rng(104)
        for _ in range(100):
            p = random_problem(rng)
            tau = float(rng.uniform(0.05, 5))
            rep = log_score_compare(p, AlternativePrior.conjugate(tau))
            v = p.sem**2
            for got, var in ((rep.s0, v), (rep.s1, v + tau * tau)):
                want = -log_normal_pdf(p.xbar, p.theta0, var)
                scale = max(1.0, (p.xbar - p.theta0) ** 2 / var, abs(math.log(var)))
                assert abs(got - want) <= 1e-14 * scale

    def test_doubling_c_moves_comparison_diff_by_log_two(self):
        # the null's relative penalty (and -log B01 with it) rises by log 2;
        # one float addition separates this from bitwise exactness
        p = NormalProblem(theta0=0.0, sigma=1.0, n=50, xbar=0.2)
        d1 = log_score_compare(p, AlternativePrior.flat(c=1.0)).diff
        d2 = log_score_compare(p, AlternativePrior.flat(c=2.0)).diff
        assert math.isclose(d2 - d1, math.log(2.0), rel_tol=1e-12)


class TestHyvarinenCompare:
    def test_mode_value(self):
        # -2/V at the mode, V = sem^2 = 1
        rep = hyvarinen_compare(NormalProblem(0.0, 1.0, 1, 0.0), AlternativePrior.flat())
        assert rep.s0 == -2.0

    def test_quarter_case(self):
        # -2/1 + 1.5^2 = 0.25, dyadic all the way
        rep = hyvarinen_compare(NormalProblem(0.0, 1.0, 1, 1.5), AlternativePrior.flat())
        assert rep.s0 == 0.25

    def test_null_data_selects_null(self):
        rep = hyvarinen_compare(NormalProblem.from_t(0.0, 10), AlternativePrior.flat())
        assert rep.diff == -20.0
        assert rep.selection == "H0"

    def test_exact_tie_on_dyadic_boundary(self):
        # theta0=0, sigma=1, n=2, xbar=1 puts t^2 = n (xbar/sigma)^2 exactly
        # at 2, and s0 = (t^2 - 2) n/sigma^2 = 0 with every step exact
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
        # V = sigma^2/n + tau^2 = 0.04 + 2.25: s1 = -2/V + xbar^2/V^2
        p = NormalProblem(theta0=0.0, sigma=1.0, n=25, xbar=0.5)
        rep = hyvarinen_compare(p, AlternativePrior.conjugate(1.5))
        assert math.isclose(rep.s1, -2.0 / 2.29 + 0.25 / 2.29**2, rel_tol=1e-15)
        assert rep.s0 == hyvarinen_compare(p, AlternativePrior.flat()).s0

    @pytest.mark.parametrize("prior", [AlternativePrior.flat(), AlternativePrior.conjugate(1.3)])
    def test_finite_difference_probe(self, prior):
        # 2 (log m)'' + ((log m)')^2 by central differences of the log
        # score's -log m, at a step of 1e-4 sem; a normal log m is
        # quadratic, so only rounding separates the two
        rng = np.random.default_rng(100)
        for _ in range(50):
            p = NormalProblem(
                float(rng.uniform(-1, 1)),
                float(rng.uniform(0.5, 2)),
                int(rng.integers(1, 50)),
                float(rng.uniform(-2, 2)),
            )
            rep = hyvarinen_compare(p, prior)
            fd = fd_hyvarinen(p, prior, 1e-4 * p.sem)
            v = p.sem**2
            scale = max(2.0 / v, ((p.xbar - p.theta0) / v) ** 2)
            assert abs(fd[0] - rep.s0) <= 1e-6 * scale
            # the flat predictive's log m is the constant log c
            assert abs(fd[1] - rep.s1) <= 1e-6 * scale

    @pytest.mark.parametrize("c", [1e-300, 1e-9, 123.0, 1e300])
    def test_c_never_matters(self, c):
        p = NormalProblem(theta0=0.0, sigma=1.0, n=25, xbar=0.5)
        rep = hyvarinen_compare(p, AlternativePrior.flat(c=c))
        assert rep == hyvarinen_compare(p, AlternativePrior.flat())
        assert rep.s1 == 0.0
        assert not rep.c_dependent

    def test_finite_difference_probe_quarter_case(self):
        # the null's predictive is N(0, 1): -2 + 1.5^2 = 0.25
        p = NormalProblem(0.0, 1.0, 1, 1.5)
        assert abs(fd_hyvarinen(p, AlternativePrior.conjugate(1.0), 1e-4)[0] - 0.25) < 1e-6

    def test_flat_finite_difference_is_exactly_zero(self):
        # -log m = -log c at every x, so every difference of it is exactly 0
        p = NormalProblem(0.0, 1.0, 4, 0.5)
        assert fd_hyvarinen(p, AlternativePrior.flat(c=7.0), 1e-4)[1] == 0.0

    @pytest.mark.parametrize("k", [-500, -1, 1, 500])
    def test_rescaling_by_a_power_of_two(self, k):
        # xbar - theta0, sigma and tau in units 2^k: the Hyvarinen penalties
        # are curvatures, so they scale by 2^-2k exactly; the log penalties
        # are -log densities, so they rise by k log 2
        rng = np.random.default_rng(105)
        for _ in range(50):
            p = random_problem(rng)
            prior = AlternativePrior.conjugate(float(rng.uniform(0.05, 5)))
            q = NormalProblem(
                math.ldexp(p.theta0, k), math.ldexp(p.sigma, k), p.n, math.ldexp(p.xbar, k)
            )
            wide = AlternativePrior.conjugate(math.ldexp(prior.tau, k))
            a, b = hyvarinen_compare(p, prior), hyvarinen_compare(q, wide)
            assert (b.s0, b.s1) == (math.ldexp(a.s0, -2 * k), math.ldexp(a.s1, -2 * k))
            a, b = log_score_compare(p, prior), log_score_compare(q, wide)
            shift = k * math.log(2.0)
            for x, y in ((a.s0, b.s0), (a.s1, b.s1)):
                assert abs(y - (x + shift)) <= 1e-15 * max(abs(x), abs(shift), 1.0) * 4

    @pytest.mark.parametrize(
        "sigma, n",
        [(2.0**-511, 1), (1.0, 2**1022), (2.0**-300, 2**422)],
        ids=["sigma", "n", "both"],
    )
    def test_null_penalty_at_two_to_minus_1022_is_finite(self, sigma, n):
        # sem^2 = 2^-1022, the least normal double: -2/sem^2 = -2^1023 exactly
        rep = hyvarinen_compare(NormalProblem(0.0, sigma, n, 0.0), AlternativePrior.flat())
        assert rep.s0 == -(2.0**1023)
        assert rep.selection == "H0"

    @pytest.mark.parametrize("sigma", [5e-324, 1e-160, 2.0**-520], ids=repr)
    def test_below_two_to_minus_1023_the_penalty_leaves_the_doubles(self, sigma):
        # -2/sem^2 at the mode is below -max: s0 is refused by name, with its
        # log10 size, in the library and the CLI alike
        with mpmath.workprec(300):
            assert -2 / mpmath.mpf(sigma) ** 2 < -sys.float_info.max
            size = float(mpmath.log10(2 / mpmath.mpf(sigma) ** 2))
        want = (
            "hyvarinen penalty s0 from t, sigma and n "
            f"lies beyond the largest double, at 10^{size:.6g}"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            hyvarinen_compare(NormalProblem(0.0, sigma, 1, 0.0), AlternativePrior.flat())
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            argv = ["score", "--rule", "hyvarinen", "--xbar", "0", f"--sigma={sigma!r}",
                    "--n", "1", "--alt", "flat"]
            assert cli.main(argv) == 2
        assert err.getvalue() == f"error: {want}\n"

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

    def test_overflowing_difference_is_scored(self):
        # the CLI's --theta0=-1.5e308 --xbar=1.5e308 --sigma=1e154 --n 1:
        # xbar - theta0 = 3e308 overflows, yet (3e308)^2/sigma^4 - 2/sigma^2
        # is 8.99999999999999887 at 300 bits, a tenth of an ulp short of
        # halfway to 9, and the penalty is 9.0, one ulp above its rounding
        problem = NormalProblem(theta0=-1.5e308, sigma=1e154, n=1, xbar=1.5e308)
        report = hyvarinen_compare(problem, AlternativePrior.flat())
        assert (report.s0, report.s1, report.selection) == (9.0, 0.0, "H1")

    @pytest.mark.parametrize(
        "sigma, prior",
        [(1e200, AlternativePrior.flat()), (1e200, AlternativePrior.conjugate(1e210))],
    )
    def test_a_tie_made_by_underflow_is_refused(self, sigma, prior):
        # n/sigma^2 takes both penalties below the doubles, though t = 1.96
        # selects the alternative
        p = NormalProblem.from_t(1.96, 100, sigma=sigma)
        with pytest.raises(ValueError, match="tie only by underflow: their exact values differ$"):
            hyvarinen_compare(p, prior)


@pytest.mark.parametrize("prior", [AlternativePrior.flat(), AlternativePrior.conjugate(2)])
def test_integer_inputs_score_as_their_floats(prior):
    # only the sweep's arrays take numpy's path; a Python int is a number
    for compare in (log_score_compare, hyvarinen_compare):
        got = compare(NormalProblem(0, 1, 10, 1), prior)
        assert got == compare(NormalProblem(0.0, 1.0, 10, 1.0), prior)
        assert type(got.s0) is float and type(got.s1) is float


def mp_penalties(problem, prior):
    """Log and Hyvarinen penalties (s0, s1) at 300 bits, each with the
    largest of the terms it sums."""
    with mpmath.workprec(300):
        d = mpmath.mpf(problem.xbar) - mpmath.mpf(problem.theta0)
        v0 = mpmath.mpf(problem.sigma) ** 2 / problem.n
        out = {"log": [], "hyvarinen": []}
        for v in (v0, v0 + mpmath.mpf(prior.tau) ** 2 if prior.is_conjugate else None):
            if v is None:
                out["log"].append((-mpmath.log(prior.c), abs(mpmath.log(prior.c))))
                out["hyvarinen"].append((mpmath.mpf(0), mpmath.mpf(0)))
                continue
            log_terms = (d * d / (2 * v), mpmath.log(v) / 2, mpmath.log(2 * mpmath.pi) / 2)
            hyv_terms = (-2 / v, d * d / v**2)
            for rule, terms in (("log", log_terms), ("hyvarinen", hyv_terms)):
                out[rule].append((sum(terms), max(abs(x) for x in terms)))
        return out


@st.composite
def scored_problems(draw):
    sigma = 10.0 ** draw(st.floats(-300.0, 300.0))
    n = int(10.0 ** draw(st.floats(0.0, 308.25)))
    if draw(st.booleans()):
        theta0 = draw(st.floats(-1e300, 1e300))
        problem = NormalProblem.from_t(draw(st.floats(-1e3, 1e3)), n, theta0=theta0, sigma=sigma)
    else:
        # xbar and theta0 of opposite signs: xbar - theta0 up to twice the largest double
        side = draw(st.sampled_from([-1.0, 1.0])) * sys.float_info.max
        theta0, xbar = (side * draw(st.floats(0.0, 1.0)) for _ in range(2))
        problem = NormalProblem(-theta0, sigma, n, xbar)
    scale = 10.0 ** draw(st.floats(-300.0, 300.0))
    conjugate = draw(st.booleans())
    prior = AlternativePrior.conjugate(scale) if conjugate else AlternativePrior.flat(c=scale)
    return problem, prior


def cli_argv(rule, problem, prior):
    alt = ["--tau", repr(prior.tau)] if prior.is_conjugate else ["--alt", "flat", "--c", repr(prior.c)]
    return ["score", "--rule", rule, f"--theta0={problem.theta0!r}", f"--xbar={problem.xbar!r}",
            f"--sigma={problem.sigma!r}", "--n", str(problem.n), *alt]


BEYOND = re.compile(
    r"(.+) from t(?:|, sigma and n|, tau, sigma and n) lies beyond the largest double, at 10\^(.+)"
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(scored_problems())
def test_compares_match_mpmath_at_every_scale(case):
    # each penalty lies within 1e-15 of the largest term it sums, or within
    # the smallest subnormal where it underflows. Where one leaves the
    # doubles, the compare refuses by name the quantity that left them, the
    # log score's t^2 or the Hyvarinen penalty, with its log10 size, and the
    # CLI prints that line
    problem, prior = case
    want = mp_penalties(problem, prior)
    with mpmath.workprec(300):
        d = mpmath.mpf(problem.xbar) - mpmath.mpf(problem.theta0)
        t2 = d * d * problem.n / mpmath.mpf(problem.sigma) ** 2
    for rule, compare in (("log", log_score_compare), ("hyvarinen", hyvarinen_compare)):
        (w0, scale0), (w1, scale1) = want[rule]
        try:
            rep = compare(problem, prior)
        except ValueError as exc:
            message = str(exc)
            if message.endswith("tie only by underflow: their exact values differ"):
                # both underflow, and the underflow alone tied them
                assert abs(w0) < 2.0**-1073 and abs(w1) < 2.0**-1073 and w0 != w1
                continue
            quantity, size = BEYOND.fullmatch(message).groups()
            beyond = {"t^2": t2, "hyvarinen penalty s0": w0, "hyvarinen penalty s1": w1}[quantity]
            # the log score leaves the doubles where its t^2 / 2 does
            assert abs(w0 if quantity == "t^2" else beyond) > sys.float_info.max, (rule, message)
            with mpmath.workprec(300):
                assert abs(float(size) - float(mpmath.log10(abs(beyond)))) <= 6e-6 * abs(float(size))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                assert cli.main(cli_argv(rule, problem, prior)) == 2
            assert err.getvalue() == f"error: {message}\n"
            continue
        for name, got, w, scale in (("s0", rep.s0, w0, scale0), ("s1", rep.s1, w1, scale1)):
            assert abs(got - w) <= 1e-15 * scale + 2.0**-1074, (rule, name, got, float(w))


SELECTIONS = {"H0": (1.0, 0.0, 0.0), "H1": (0.0, 1.0, 0.0), "tie": (0.0, 0.0, 1.0)}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.integers(-600, 600),
    st.integers(0, 300),
    st.one_of(st.none(), st.floats(-300.0, 300.0).map(lambda e: 10.0**e)),
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8),
)
def test_sweep_selects_as_the_compare_wherever_its_diff_clears_rounding(k, j, tau, ts):
    # at sigma = 2^k and n = 4^j, sem = 2^(k - j) exactly, so xbar = t sem hands
    # hyvarinen_compare the sweep's t. The compare's diff carries its penalties'
    # rounding, far below 2^-40 of their largest term, n/sigma^2 (t^2 + 2);
    # wherever the diff clears that, the sweep's exact sign selects as it does
    sigma, n = math.ldexp(1.0, k), 4**j
    prior = AlternativePrior.flat() if tau is None else AlternativePrior.conjugate(tau)
    run = ConsistencyRun(0.0, 0.0, sigma, (n,), 1, 0)
    for t in ts:
        if math.ldexp(xbar := math.ldexp(t, k - j), j - k) != t:
            continue  # t sem is no double
        try:
            report = hyvarinen_compare(NormalProblem(0.0, sigma, n, xbar), prior)
        except ValueError:
            continue  # a penalty beyond the doubles, or a tie only underflow made
        if abs(report.diff) <= mpmath.ldexp(mpmath.mpf(t) ** 2 + 2, 2 * (j - k) - 40):
            continue
        summary = _selection_summary(run, prior, n, np.array([t]))
        rates = (summary.select_null_rate, summary.select_alt_rate, summary.tie_rate)
        assert rates == SELECTIONS[report.selection], (t, report)


@pytest.mark.parametrize(
    "argv",
    [
        ["score", "--rule", "log", "--t", "1.96", "--n", "100", "--tau", "1e200"],
        ["score", "--rule", "log", "--t", "1.96", "--n", "100", "--sigma", "1e-200", "--tau", "1"],
    ],
)
def test_penalties_once_refused_for_a_variance_match_mpmath(argv):
    # sigma^2/n + tau^2 overflowed, or sigma^2/n underflowed, and each call
    # was refused, though its penalties are ordinary numbers
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv + ["--format", "json"]) == 0
    results = json.loads(out.getvalue())["results"]
    flags = dict(zip(argv[3::2], argv[4::2]))
    problem = NormalProblem.from_t(1.96, 100, sigma=float(flags.get("--sigma", 1.0)))
    (w0, scale0), (w1, scale1) = mp_penalties(problem, AlternativePrior.conjugate(float(flags["--tau"])))["log"]
    assert abs(results["s0"] - w0) <= 1e-15 * scale0
    assert abs(results["s1"] - w1) <= 1e-15 * scale1


def test_sweep_once_refused_for_a_variance_selects_as_mpmath():
    # sigma^2/n = 2.5e-401 underflowed; n/sigma^2 takes the penalties to
    # +-inf, which the sweep never forms: it selects the null exactly where t^2 < 2
    run = ConsistencyRun(
        theta_true=0.0, theta0=0.0, sigma=1e-200, n_grid=(4,), replications=10, seed=42
    )
    ((n, t),) = run.sweep(lambda *point: point)
    # on the null the centre t is 0, so each t is its draw, and t^2 < 2 selects the null
    want = sum(mpmath.mpf(float(x)) ** 2 < 2 for x in t)
    (summary,) = score_consistency_sim(run, AlternativePrior.flat())
    assert summary.select_null_rate == want / 10 == 0.9
    assert summary.tie_rate == 0.0


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
        assert abs(s - kl_by_quad(self.P25, mu_n, omega2)) <= TOL_QUAD * s

    def test_quadrature_oracle_randomized(self):
        rng = np.random.default_rng(102)
        for _ in range(20):
            p = random_problem(rng)
            prior = AlternativePrior.conjugate(float(rng.uniform(0.1, 3)))
            s = sprenger_kl_score(p, prior)
            mu_n, omega2 = conjugate_posterior(p, prior)
            assert abs(s - kl_by_quad(p, mu_n, omega2)) <= TOL_QUAD * s

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
        # d^2/v^2 overflows under both predictives; the first is named
        p = NormalProblem(theta0=0.0, sigma=1e-50, n=4, xbar=1e100)
        want = "hyvarinen penalty s0 from t, sigma and n lies beyond"
        with pytest.raises(ValueError, match=f"^{re.escape(want)} the largest double, at 10\\^401.204$"):
            hyvarinen_compare(p, AlternativePrior.conjugate(1e-50))


class TestScoreConsistencySim:
    def test_null_regime_plateau(self):
        # flat-alternative boundary |t| = sqrt(2) never sharpens: the
        # null-selection rate stays at P(chi-square_1 < 2) at every n
        run = ConsistencyRun(
            theta_true=0.0, theta0=0.0, sigma=1.0, n_grid=(10, 1000), replications=2000, seed=42
        )
        for s in score_consistency_sim(run, AlternativePrior.flat()):
            assert abs(s.select_null_rate - CHI2_BELOW_2) < 0.02
            assert s.tie_rate == 0.0
            assert s.select_null_rate + s.select_alt_rate + s.tie_rate == 1.0

    @pytest.mark.parametrize("tau, plateau", [(1e-200, CHI2_BELOW_1), (1e200, CHI2_BELOW_2)])
    def test_conjugate_null_plateau_runs_from_chi_square_below_1_to_2(self, tau, plateau):
        # the null selects where t^2 < 2w/(1 + w), w = 1 + r^2: at r -> 0 that
        # is t^2 < 1, and at r -> inf the flat prior's t^2 < 2
        run = ConsistencyRun(
            theta_true=0.0, theta0=0.0, sigma=1.0, n_grid=(10, 1000), replications=2000, seed=42
        )
        for s in score_consistency_sim(run, AlternativePrior.conjugate(tau)):
            assert abs(s.select_null_rate - plateau) < 0.02
            assert s.tie_rate == 0.0

    def test_alternative_regime_selects_alternative(self):
        run = ConsistencyRun(
            theta_true=0.5, theta0=0.0, sigma=1.0, n_grid=(1000,), replications=2000, seed=42
        )
        (s,) = score_consistency_sim(run, AlternativePrior.flat())
        assert s.select_alt_rate >= 0.999

    def test_deterministic(self):
        run = ConsistencyRun(
            theta_true=0.0, theta0=0.0, sigma=1.0, n_grid=(10, 100), replications=500, seed=7
        )
        flat = AlternativePrior.flat()
        assert score_consistency_sim(run, flat) == score_consistency_sim(run, flat)

    def test_single_replicate(self):
        run = ConsistencyRun(
            theta_true=0.0, theta0=0.0, sigma=1.0, n_grid=(10,), replications=1, seed=7
        )
        (s,) = score_consistency_sim(run, AlternativePrior.flat())
        assert isinstance(s, ScoreSelectionSummary)
        assert s.select_null_rate + s.select_alt_rate + s.tie_rate == 1.0

    def test_conjugate_prior_accepted(self):
        run = ConsistencyRun(
            theta_true=0.0, theta0=0.0, sigma=1.0, n_grid=(100,), replications=200, seed=3
        )
        (s,) = score_consistency_sim(run, AlternativePrior.conjugate(1.0))
        assert 0.0 <= s.select_null_rate <= 1.0

    def test_chi_square_constant_matches_p_value_identity(self):
        # P(chi-square_1 < 2) = 1 - p_value(sqrt 2)
        from pointnull.numerics import p_value

        assert math.isclose(CHI2_BELOW_2, 1.0 - p_value(math.sqrt(2.0)), rel_tol=1e-14)
