"""Acceptance gate: one test (and one printed verdict line) per criterion.

Every stated tolerance and time budget is asserted here, end to end, against
the public API. Run with -v for one PASSED/FAILED line per criterion, or -s
to also see the measured values.
"""

import math
import time

import mpmath
import numpy as np
import pytest

from pointnull.binomial import (
    BinomialProblem,
    STONE_EXAMPLE,
    binomial_bf_flat,
    binomial_p_value,
)
from pointnull.cli import main
from pointnull.normal import (
    AlternativePrior,
    HypothesisWeights,
    NormalProblem,
    bayes_factor_conjugate,
    bayes_factor_lindley,
    posterior_prob_null,
    reinterpret_as_prior_scale,
    savage_dickey_bf,
)
from pointnull.numerics import p_value, std_normal_cdf
from pointnull.paradox import (
    ConsistencyRun,
    ParadoxQuery,
    consistency_simulation,
    crossing_sample_size,
    pvalue_uniformity_check,
)
from pointnull.scores import (
    conjugate_posterior,
    hyvarinen_compare,
    log_score_compare,
    score_consistency_sim,
    sprenger_kl_score,
)
from pointnull.severity import severity_at, warranted_discrepancy


def _verdict(num: int, detail: str) -> None:
    print(f"CRITERION {num:02d} PASS: {detail}")


def test_criterion_01_equal_weights_crossing():
    query = ParadoxQuery(t=1.96)
    crossing_sample_size(query)  # warm path once before timing
    start = time.perf_counter()
    n = crossing_sample_size(query)
    elapsed = time.perf_counter() - start
    assert n == 16818
    assert elapsed < 0.010
    _verdict(1, f"equal-weights crossing n = {n} in {elapsed * 1e3:.3f} ms")


def test_criterion_02_ten_to_one_crossing():
    query = ParadoxQuery(t=1.96, weights=HypothesisWeights(10.0 / 11.0))
    crossing_sample_size(query)
    start = time.perf_counter()
    n = crossing_sample_size(query)
    elapsed = time.perf_counter() - start
    assert n == 164
    assert elapsed < 0.010
    _verdict(2, f"ten-to-one crossing n = {n} in {elapsed * 1e3:.3f} ms")


def test_criterion_03_crossing_point_values():
    bf = bayes_factor_lindley(1.96, 16818)
    post = posterior_prob_null(bf, HypothesisWeights(0.5))
    p = p_value(1.96)
    assert abs(bf - 19.000) < 0.001
    assert abs(post - 0.9500) < 0.0001
    assert abs(p - 0.0500) < 0.0001
    _verdict(3, f"bf = {bf:.6f}, post = {post:.6f}, p = {p:.6f}")


def test_criterion_04_count_example_and_validation():
    p = binomial_p_value(STONE_EXAMPLE)
    bf = binomial_bf_flat(STONE_EXAMPLE)
    assert abs(p - 0.0027) < 0.0002
    assert abs(bf - 8.115) < 0.05
    with pytest.raises(ValueError, match="x must lie"):
        BinomialProblem(n=5, x=9, theta0=0.5)
    with pytest.raises(ValueError, match="theta0"):
        BinomialProblem(n=5, x=2, theta0=1.5)
    _verdict(4, f"count-data p = {p:.6f}, bf_flat = {bf:.4f}; bad inputs rejected")


def test_criterion_05_savage_dickey_equivalence():
    rng = np.random.default_rng(20260816)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        # draw t directly so the factor stays in normal float range at any n
        problem = NormalProblem.from_t(
            float(rng.uniform(-5, 5)),
            int(rng.integers(1, 100_000)),
            theta0=float(rng.uniform(-2, 2)),
            sigma=float(rng.uniform(0.1, 3)),
        )
        prior = AlternativePrior.conjugate(float(rng.uniform(0.1, 5)))
        direct = bayes_factor_conjugate(problem, prior)
        sd = savage_dickey_bf(problem, prior)
        worst = max(worst, abs(sd / direct - 1.0))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 1.0
    _verdict(5, f"100 cases, worst relative deviation {worst:.2e} in {elapsed:.3f} s")


def test_criterion_06_prior_scale_reinterpretation():
    rng = np.random.default_rng(616)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 50_000))
        t = float(rng.uniform(-4, 4))
        problem = NormalProblem.from_t(
            t, n, theta0=float(rng.uniform(-1, 1)), sigma=float(rng.uniform(0.2, 4))
        )
        single, wide = reinterpret_as_prior_scale(problem)
        ratio = bayes_factor_conjugate(single, wide) / bayes_factor_lindley(t, n)
        worst = max(worst, abs(ratio - 1.0))
    assert worst < 1e-12
    _verdict(6, f"50 cases, worst relative deviation {worst:.2e}")


def test_criterion_07_monte_carlo_behavior():
    start = time.perf_counter()
    ks = pvalue_uniformity_check(42, 10_000)
    assert ks < 0.0163  # 95% Kolmogorov band at 1e4 draws

    null_run = ConsistencyRun(
        theta_true=0.0,
        theta0=0.0,
        sigma=1.0,
        n_grid=(100, 10_000),
        replications=2000,
        seed=2718,
    )
    small, large = consistency_simulation(null_run)
    assert large.median_log_bf > small.median_log_bf

    alt_run = ConsistencyRun(
        theta_true=0.3,
        theta0=0.0,
        sigma=1.0,
        n_grid=(1000,),
        replications=2000,
        seed=3141,
    )
    (alt,) = consistency_simulation(alt_run)
    assert alt.joint_collapse_rate >= 0.99
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _verdict(
        7,
        f"KS = {ks:.5f}; median log BF {small.median_log_bf:.3f} -> "
        f"{large.median_log_bf:.3f}; joint collapse {alt.joint_collapse_rate:.3f}; "
        f"{elapsed:.2f} s",
    )


def test_criterion_08_severity():
    problem = NormalProblem(theta0=0.0, sigma=1.0, n=100, xbar=0.25)
    assert severity_at(problem, problem.xbar) == 0.5

    rng = np.random.default_rng(888)
    worst = 0.0
    for _ in range(100):
        p = NormalProblem(
            theta0=float(rng.uniform(-2, 2)),
            sigma=float(rng.uniform(0.1, 3)),
            n=int(rng.integers(1, 10_000)),
            xbar=float(rng.uniform(-3, 3)),
        )
        level = float(rng.uniform(0.05, 0.99))
        gamma = warranted_discrepancy(p, level)  # cross-checked internally at 1e-8
        recovered = std_normal_cdf((p.xbar - (p.theta0 + gamma)) / p.sem)
        worst = max(worst, abs(recovered - level))
    assert worst < 1e-8

    # Spanos' case: Stone's counts as a normal problem with the null spread
    stone_normal = NormalProblem(0.2, math.sqrt(0.2 * 0.8), 527135, 106298 / 527135)
    gamma_stone = warranted_discrepancy(stone_normal, 0.9)
    assert abs(gamma_stone - 0.000946) < 0.00001
    _verdict(
        8,
        f"severity(xbar) = 0.5 exact; 100-case level recovery worst {worst:.2e}; "
        f"count-scale gamma(0.9) = {gamma_stone:.6f}",
    )


def test_criterion_09_scoring_rules():
    # scale invariance is exact, not approximate: the flat alternative's
    # constant c never reaches a Hyvarinen penalty
    p = NormalProblem(0.0, 1.0, 4, 0.5)
    for k in (1e-6, 1e6):
        assert hyvarinen_compare(p, AlternativePrior.flat(c=k)) == hyvarinen_compare(
            p, AlternativePrior.flat()
        )

    # finite-difference probe of 2 (log m)'' + ((log m)')^2, with log m the
    # conjugate predictive's, read from the log score's penalty -log m
    def log_m(problem, x, prior):
        moved = NormalProblem(problem.theta0, problem.sigma, problem.n, x)
        return -log_score_compare(moved, prior).s1

    def fd(problem, prior, h=1e-4):
        f = lambda y: log_m(problem, y, prior)
        x = problem.xbar
        d1 = (f(x + h) - f(x - h)) / (2 * h)
        d2 = (f(x + h) - 2 * f(x) + f(x - h)) / (h * h)
        return 2 * d2 + d1 * d1

    rng = np.random.default_rng(909)
    worst_fd = 0.0
    for _ in range(25):
        p = NormalProblem(0.0, float(rng.uniform(0.5, 2)), int(rng.integers(1, 50)),
                          float(rng.uniform(-2, 2)))
        prior = AlternativePrior.conjugate(float(rng.uniform(0.5, 2)))
        worst_fd = max(worst_fd, abs(hyvarinen_compare(p, prior).s1 - fd(p, prior)))
    assert worst_fd < 1e-6

    worst_log = 0.0
    for _ in range(50):
        p = NormalProblem.from_t(
            float(rng.uniform(-4, 4)),
            int(rng.integers(1, 10_000)),
            theta0=float(rng.uniform(-1, 1)),
            sigma=float(rng.uniform(0.2, 3)),
        )
        prior = AlternativePrior.conjugate(float(rng.uniform(0.1, 4)))
        rep = log_score_compare(p, prior)
        worst_log = max(worst_log, abs((rep.s0 - rep.s1) + math.log(bayes_factor_conjugate(p, prior))))
    assert worst_log < 1e-12

    p25 = NormalProblem(0.0, 1.0, 25, 0.5)
    prior = AlternativePrior.conjugate(1.0)
    s = sprenger_kl_score(p25, prior)
    mu_n, omega2 = conjugate_posterior(p25, prior)
    with mpmath.workdps(40):
        mu, w = mpmath.mpf(mu_n), mpmath.sqrt(omega2)
        q = float(
            mpmath.quad(lambda th: 25 * th**2 / 2 * mpmath.npdf(th, mu, w),
                        [-mpmath.inf, mu, mpmath.inf])
        )
    assert abs(s - q) <= 1e-14 * s

    run = ConsistencyRun(
        theta_true=0.0, theta0=0.0, sigma=1.0, n_grid=(1000,), replications=2000, seed=77
    )
    (plateau,) = score_consistency_sim(run, AlternativePrior.flat())
    assert abs(plateau.select_null_rate - 0.843) <= 0.02
    _verdict(
        9,
        f"scaling exact; FD worst {worst_fd:.2e}; log-rule identity worst "
        f"{worst_log:.2e}; KL vs mpmath.quad {abs(s - q):.2e}; plateau "
        f"{plateau.select_null_rate:.4f}",
    )


def test_criterion_10_reference_check_command(capsys):
    code = main(["paper-check"])
    out = capsys.readouterr().out
    assert code == 0
    assert "all_pass = true" in out
    _verdict(10, "reference-anchor command exits 0 on a fresh build")
