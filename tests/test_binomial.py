"""Binomial flat-prior testing: the Stone example anchors, exact Beta
arithmetic and log-beta against a high-precision oracle, Laplace agreement,
and the large-n consistency direction."""

import math

import mpmath
import numpy as np
import pytest

from pointnull.binomial import (
    STONE_EXAMPLE,
    BinomialProblem,
    as_normal_problem,
    binomial_bf_flat,
    binomial_bf_laplace,
    binomial_p_value,
    binomial_z,
    log_beta,
    log_binomial_bf_flat,
)
from pointnull.normal import t_statistic


class TestBinomialProblem:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0, x=0, theta0=0.5),
            dict(n=10, x=11, theta0=0.5),
            dict(n=10, x=-1, theta0=0.5),
            dict(n=10, x=2, theta0=0.0),
            dict(n=10, x=2, theta0=1.0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            BinomialProblem(**kwargs)

    def test_n_above_largest_float_is_refused(self):
        # binomial_z divided by n and raised OverflowError: int too large to convert to float
        with pytest.raises(ValueError, match="^n must be at most the largest float, 1.79769e"):
            BinomialProblem(n=10**400, x=1, theta0=0.5)


class TestBinomialZ:
    def test_exact_null_rate_is_zero(self):
        assert binomial_z(BinomialProblem(100, 20, 0.2)) == 0.0

    def test_simple_arithmetic(self):
        # (0.3 - 0.2) / sqrt(0.2 * 0.8 / 100) = 0.1 / 0.04
        assert binomial_z(BinomialProblem(100, 30, 0.2)) == pytest.approx(2.5, rel=1e-14)

    def test_stone_inputs(self):
        assert binomial_z(STONE_EXAMPLE) == pytest.approx(3.000, abs=2e-3)


class TestBinomialPValue:
    def test_exact_null_rate(self):
        assert binomial_p_value(BinomialProblem(100, 20, 0.2)) == 1.0

    def test_stone_inputs(self):
        p = binomial_p_value(STONE_EXAMPLE)
        assert p == pytest.approx(0.0027, abs=2e-4)
        # mpmath oracle at the exact z
        assert p == pytest.approx(0.0027073981143439527, rel=1e-12)

    def test_z_2_5_case(self):
        assert binomial_p_value(BinomialProblem(100, 30, 0.2)) == pytest.approx(0.01242, abs=1e-4)


class TestBinomialBfFlat:
    def test_single_failure_even_null(self):
        # 0.5 likelihood over a flat marginal of 1/2
        assert binomial_bf_flat(BinomialProblem(1, 0, 0.5)) == pytest.approx(1.0, rel=1e-14)

    def test_stone_inputs(self):
        bf = binomial_bf_flat(STONE_EXAMPLE)
        assert bf == pytest.approx(8.115, abs=0.05)
        # mpmath oracle: 8.1148536001805119; the floor here is one ulp of
        # log(0.2) scaled by x = 106298, about 2.4e-11 in the log
        assert bf == pytest.approx(8.1148536001805119, rel=1e-10)

    def test_small_case_exact_rational(self):
        # 0.2^2 * 0.8^8 / Beta(3, 9), with Beta(3, 9) = 1/495 exactly:
        # 0.04 * 0.16777216 * 495 = 3.321888768
        bf = binomial_bf_flat(BinomialProblem(10, 2, 0.2))
        assert bf == pytest.approx(3.321888768, rel=1e-12)

    def test_mirror_symmetry_exact_on_dyadic_null(self):
        # dyadic theta0 so 1 - theta0 and its complement round-trip exactly
        for n, x, theta0 in [(10, 2, 0.25), (17, 9, 0.5), (40, 3, 0.125), (9, 0, 0.75)]:
            a = log_binomial_bf_flat(BinomialProblem(n, x, theta0))
            b = log_binomial_bf_flat(BinomialProblem(n, n - x, 1.0 - theta0))
            assert a == b

    def test_mirror_symmetry_general(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(1, 3000))
            x = int(rng.integers(0, n + 1))
            theta0 = float(rng.uniform(0.02, 0.98))
            a = log_binomial_bf_flat(BinomialProblem(n, x, theta0))
            b = log_binomial_bf_flat(BinomialProblem(n, n - x, 1.0 - theta0))
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_degenerate_counts_stay_finite(self):
        assert math.isfinite(log_binomial_bf_flat(BinomialProblem(50, 0, 0.99)))
        assert math.isfinite(log_binomial_bf_flat(BinomialProblem(50, 50, 0.01)))

    def test_consistency_direction_under_fixed_alternative(self):
        # fixed phat = 0.3 against theta0 = 0.2: both measures collapse
        log_bfs, ps = [], []
        for n in (100, 1000, 10000):
            problem = BinomialProblem(n, int(0.3 * n), 0.2)
            log_bfs.append(log_binomial_bf_flat(problem))
            ps.append(binomial_p_value(problem))
        assert log_bfs[0] > log_bfs[1] > log_bfs[2]
        assert ps[0] > ps[1] > ps[2]
        assert math.exp(log_bfs[2]) < 1e-6 and ps[2] < 1e-6


class TestBinomialBfLaplace:
    def test_at_null_rate_closed_form(self):
        # Lambda vanishes; sqrt(n / (2 pi theta0 (1 - theta0)))
        got = binomial_bf_laplace(BinomialProblem(1000, 200, 0.2))
        assert got == pytest.approx(math.sqrt(1000.0 / (2.0 * math.pi * 0.16)), rel=1e-12)

    def test_stone_band(self):
        got = binomial_bf_laplace(STONE_EXAMPLE)
        assert 7.9 <= got <= 8.4
        assert got == pytest.approx(binomial_bf_flat(STONE_EXAMPLE), rel=3e-2)

    def test_moderate_n_agreement(self):
        problem = BinomialProblem(1000, 220, 0.2)
        assert binomial_bf_laplace(problem) == pytest.approx(binomial_bf_flat(problem), rel=3e-2)

    def test_agreement_whenever_precondition_holds(self):
        rng = np.random.default_rng(22)
        checked = 0
        while checked < 30:
            n = int(rng.integers(200, 50000))
            theta = float(rng.uniform(0.1, 0.9))
            x = int(rng.binomial(n, theta))
            if not 0 < x < n:
                continue
            problem = BinomialProblem(n, x, float(rng.uniform(0.1, 0.9)))
            if problem.n * problem.phat * (1 - problem.phat) <= 25.0:
                continue
            exact = binomial_bf_flat(problem)
            if not 1e-200 < exact < 1e200:
                continue
            assert binomial_bf_laplace(problem) == pytest.approx(exact, rel=3e-2)
            checked += 1

    def test_precondition_refusal(self):
        with pytest.raises(ValueError, match="approximation invalid"):
            binomial_bf_laplace(BinomialProblem(30, 3, 0.2))
        with pytest.raises(ValueError, match="approximation invalid"):
            binomial_bf_laplace(BinomialProblem(1000, 0, 0.2))


class TestAsNormalProblem:
    def test_spread_is_null_based(self):
        view = as_normal_problem(BinomialProblem(100, 30, 0.2))
        assert view.sigma == pytest.approx(0.4)
        assert view.n == 100
        assert view.xbar == pytest.approx(0.3)

    def test_t_matches_z(self):
        problem = BinomialProblem(527135, 106298, 0.2)
        assert t_statistic(as_normal_problem(problem)) == pytest.approx(
            binomial_z(problem), rel=1e-12
        )


class TestLogBeta:
    def test_beta_1_1_is_exactly_zero(self):
        assert log_beta(1.0, 1.0) == 0.0

    def test_named_values(self):
        # ln(1/12) and ln(1/60), exact rationals via factorials
        assert math.isclose(log_beta(2, 3), -2.4849066497880003102, rel_tol=1e-13)
        assert math.isclose(math.exp(log_beta(3, 4)), 1.0 / 60.0, rel_tol=1e-12)

    def test_large_argument_regime(self):
        # the half-million-trial binomial case; oracle mpmath.beta at 40 digits
        want = -264989.1876164982532
        assert math.isclose(log_beta(106299, 420838), want, rel_tol=1e-12)

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(2)
        pairs = [(1.0, 527136.0), (106299.0, 420838.0), (0.5, 0.5)]
        pairs += [
            (float(a), float(b))
            for a, b in zip(rng.uniform(0.1, 1e6, 50), rng.uniform(0.1, 1e6, 50))
        ]
        for a, b in pairs:
            assert log_beta(a, b) == log_beta(b, a)

    def test_relative_error_across_regimes(self):
        rng = np.random.default_rng(3)
        cases = []
        for _ in range(120):
            kind = rng.integers(0, 3)
            if kind == 0:
                cases.append((rng.uniform(0.1, 9.0), rng.uniform(0.1, 9.0)))
            elif kind == 1:
                cases.append((rng.uniform(0.1, 9.0), rng.uniform(10.0, 1e6)))
            else:
                cases.append((rng.uniform(10.0, 1e6), rng.uniform(10.0, 1e6)))
        for a, b in cases:
            got = log_beta(float(a), float(b))
            with mpmath.workdps(40):
                want = mpmath.log(mpmath.beta(mpmath.mpf(float(a)), mpmath.mpf(float(b))))
            assert abs((got - want) / want) <= 1e-12

    @pytest.mark.parametrize(
        "args",
        [(0.0, 1.0), (1.0, 0.0), (-2.0, 3.0), (2.0, math.nan), (math.nan, 2.0),
         (math.inf, math.inf), (1.0, math.inf), (math.inf, 1.0)],
    )
    def test_domain_errors(self, args):
        bad = "a" if not 0.0 < args[0] < math.inf else "b"
        with pytest.raises(ValueError, match=f"^log_beta needs a finite positive {bad}, got "):
            log_beta(*args)
