"""Crossing solver, the factor's minimum over n, verdict tables, consistency runs."""

import math

import numpy as np
import pytest
from ks_reference import uniform_ks_distance

from pointnull import paradox
from pointnull.normal import (
    HypothesisWeights,
    bayes_factor_lindley,
    log_bayes_factor_lindley,
    posterior_prob_null,
)
from pointnull.paradox import (
    ConsistencyRun,
    ConsistencySummary,
    ParadoxQuery,
    UnreachableTargetError,
    consistency_simulation,
    crossing_sample_size,
    paradox_table,
    pvalue_uniformity_check,
    required_bf,
)

TEN_TO_ONE = HypothesisWeights(rho0=10.0 / 11.0)

# mpmath oracle (dps 40): real root of sqrt(1+n) exp(-n 1.96^2 / (2(1+n))) = 19
REAL_ROOT_EQUAL = 16817.748857995294
# mpmath oracle: posterior null probability at the ten-to-one crossing n=164
POST_AT_164 = 0.95009302091085032


class TestCrossingSampleSize:
    def test_equal_weights_anchor(self):
        assert crossing_sample_size(ParadoxQuery(t=1.96)) == 16818

    def test_ten_to_one_anchor(self):
        q = ParadoxQuery(t=1.96, weights=TEN_TO_ONE)
        assert crossing_sample_size(q) == 164

    def test_t_zero_closed_form(self):
        # sqrt(1+n) >= 19 first holds at n = 19^2 - 1; the float value of
        # the factor at 360 sits one ulp below 19, which the crossing's
        # log-domain slack must absorb
        assert crossing_sample_size(ParadoxQuery(t=0.0)) == 360

    @pytest.mark.parametrize("t", [6.0, -7.0, 8.0, 12.0, 15.0, 26.0, 30.0, -1e154, 1e200, 1.7e308])
    def test_crossing_beyond_float_range_is_unreachable(self, t):
        # t*t overflowed at 1e200 (math.floor(inf)); at 1e154 the solver
        # bracketed [1e308, 1e308] and reported no crossing; the crossings
        # above 2^53 at t=6 to 8 were walked one integer at a time, and those
        # at t=12 to 26 (near 1e65 to 1e296) missed by 200 doublings of step 1
        with pytest.raises(UnreachableTargetError) as info:
            crossing_sample_size(ParadoxQuery(t=t))
        assert f"at |t| = {abs(t):.6g} " in str(info.value)
        assert "above 2^53 = 9007199254740992" in str(info.value)

    def test_largest_exact_crossing(self):
        # t=0: sqrt(1+n) >= c first holds at n = c^2 - 1 = 2^53 - 1, give or
        # take the 1e8 integers that rounding the target to a double moves it
        # (1e-8 in log units); a factor of 1.01 more needs n above 2^53
        c = 2.0**26.5
        n = crossing_sample_size(ParadoxQuery(t=0.0, target_post_prob=c / (1 + c)))
        assert 2**52 < n <= 2**53
        c *= 1.01
        with pytest.raises(UnreachableTargetError, match=r"above 2\^53"):
            crossing_sample_size(ParadoxQuery(t=0.0, target_post_prob=c / (1 + c)))

    def test_bayes_factor_evaluations_are_bounded(self, monkeypatch):
        calls = 0

        def counted(t, n):
            nonlocal calls
            calls += 1
            return log_bayes_factor_lindley(t, n)

        monkeypatch.setattr(paradox, "log_bayes_factor_lindley", counted)
        worst = 0
        for t in (0.0, 0.5, 1.2, 1.5, 1.9, 1.96, 3.0, 5.0, 5.9, 6.0, 8.0, 26.0, 1e154, 1.7e308):
            for target in (0.3, 0.5, 0.95, 0.999999999, 1.0 - 2.0**-53, 2.0**26.5 / (1 + 2.0**26.5)):
                for rho0 in (0.01, 0.5, 0.99):
                    calls = 0
                    q = ParadoxQuery(t=t, target_post_prob=target, weights=HypothesisWeights(rho0))
                    try:
                        crossing_sample_size(q)
                    except UnreachableTargetError:
                        pass
                    worst = max(worst, calls)
        assert 100 <= worst <= 110

    def test_anchor_is_integer_ceiling_of_real_root(self):
        assert math.ceil(REAL_ROOT_EQUAL) == 16818

    @pytest.mark.parametrize(
        "t, weights, n",
        [
            (1.96, HypothesisWeights(), 16818),
            (1.96, TEN_TO_ONE, 164),
            (0.0, HypothesisWeights(), 360),
        ],
    )
    def test_boundary_property_at_anchors(self, t, weights, n):
        # defining property: false at n-1, true at n, still true at 10n
        target = 0.95

        def post(m):
            return posterior_prob_null(bayes_factor_lindley(t, m), weights)

        assert post(n - 1) < target
        assert post(n) >= target
        assert post(10 * n) >= target

    def test_posterior_at_ten_to_one_crossing(self):
        got = posterior_prob_null(bayes_factor_lindley(1.96, 164), TEN_TO_ONE)
        assert math.isclose(got, POST_AT_164, rel_tol=1e-12)

    def test_sign_of_t_is_irrelevant(self):
        assert crossing_sample_size(ParadoxQuery(t=-1.96)) == 16818

    def test_required_bf_equal_weights(self):
        assert math.isclose(required_bf(ParadoxQuery(t=1.96)), 19.0, rel_tol=1e-12)

    def test_required_bf_ten_to_one(self):
        # prior odds 10:1 for the null leave a factor of 1.9 to make up
        q = ParadoxQuery(t=1.96, weights=TEN_TO_ONE)
        assert math.isclose(required_bf(q), 1.9, rel_tol=1e-12)

    def test_unreachable_below_integer_minimum(self):
        # required factor 0.4 sits under the minimum over integers,
        # B(1.96, 3) = 0.47357
        q = ParadoxQuery(t=1.96, target_post_prob=2.0 / 7.0)
        with pytest.raises(UnreachableTargetError, match="unreachable target"):
            crossing_sample_size(q)

    def test_unreachable_is_a_runtime_error(self):
        q = ParadoxQuery(t=1.96, target_post_prob=2.0 / 7.0)
        with pytest.raises(RuntimeError):
            crossing_sample_size(q)

    def test_unreachable_at_small_t_boundary(self):
        # for |t| <= 1 the integer minimum is at n=1; B(0.5, 1) = 1.3286
        q = ParadoxQuery(t=0.5, target_post_prob=1.2 / 2.2)
        with pytest.raises(UnreachableTargetError):
            crossing_sample_size(q)

    def test_just_above_integer_minimum(self):
        # c = 0.48 clears B(1.96,3) = 0.47357 and first holds at n=4
        # where the factor is 0.48098
        q = ParadoxQuery(t=1.96, target_post_prob=0.48 / 1.48)
        assert crossing_sample_size(q) == 4

    @pytest.mark.parametrize(
        "t, target",
        [(0.3, 0.95), (0.5, 0.9), (1.0, 0.8), (1.5, 0.7), (1.96, 0.6), (0.9, 0.99)],
    )
    def test_against_linear_scan(self, t, target):
        q = ParadoxQuery(t=t, target_post_prob=target)
        c = required_bf(q)
        m = math.ceil(max(1.0, t * t - 1.0))
        while bayes_factor_lindley(t, m) < c:
            m += 1
        assert crossing_sample_size(q) == m

    def test_boundary_property_random_sweep(self):
        rng = np.random.default_rng(20260816)
        checked = 0
        for _ in range(200):
            t = float(rng.uniform(0.05, 4.5))
            target = float(rng.uniform(0.55, 0.99))
            q = ParadoxQuery(t=t, target_post_prob=target)
            try:
                n = crossing_sample_size(q)
            except UnreachableTargetError:
                continue
            branch_lo = max(1.0, t * t - 1.0)

            def post(m):
                return posterior_prob_null(bayes_factor_lindley(t, m), q.weights)

            assert post(n) >= target
            assert post(10 * n) >= target
            if n - 1 >= branch_lo:
                assert post(n - 1) < target
            checked += 1
        assert checked >= 190

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"t": math.nan},
            {"t": math.inf},
            {"t": 1.0, "target_post_prob": 0.0},
            {"t": 1.0, "target_post_prob": 1.0},
            {"t": 1.0, "alpha": 0.0},
            {"t": 1.0, "alpha": 1.0},
        ],
    )
    def test_query_validation(self, kwargs):
        with pytest.raises(ValueError):
            ParadoxQuery(**kwargs)


class TestBranchMinimum:
    """At fixed t the factor falls until n = t^2 - 1 and rises after; the
    crossing solver reads its minimum over n off that shape."""

    def test_anchor_value(self):
        assert abs(bayes_factor_lindley(1.96, 1.96 * 1.96 - 1.0) - 0.4733) < 0.0005

    def test_closed_form_at_t_three(self):
        assert math.isclose(bayes_factor_lindley(3.0, 8.0), 3.0 * math.exp(-4.0), rel_tol=1e-15)

    def test_matches_factor_at_own_argument(self):
        for t in (1.5, 1.96, 2.5, 3.7):
            n_star = t * t - 1.0
            want = t * math.exp(-n_star / 2.0)
            assert math.isclose(bayes_factor_lindley(t, n_star), want, rel_tol=1e-12)

    def test_narrow_regime_formula_undercuts_unit_boundary(self):
        # for 1 < |t| < sqrt(2) the analytic minimizer t^2 - 1 = 0.44 lies
        # below n = 1, so the real-branch infimum 1.2 e^{-0.22} undercuts every
        # sample size; the solver refuses a target between the two
        infimum, at_one = 1.2 * math.exp(-0.22), bayes_factor_lindley(1.2, 1)
        assert infimum < at_one
        query = ParadoxQuery(t=1.2, target_post_prob=0.4937)
        assert infimum < required_bf(query) < at_one
        with pytest.raises(UnreachableTargetError, match="does not exceed the minimum 0.986663"):
            crossing_sample_size(query)

    @pytest.mark.parametrize("t", [1.7, 2.0, 3.5])
    def test_grid_search_oracle(self, t):
        n_star = t * t - 1.0
        grid = np.linspace(1.0, 4.0 * n_star, 20001)
        values = [bayes_factor_lindley(t, float(n)) for n in grid]
        i = int(np.argmin(values))
        assert abs(float(grid[i]) - n_star) < 2.0 * float(grid[1] - grid[0])
        assert bayes_factor_lindley(t, n_star) <= min(values) + 1e-12

    @pytest.mark.parametrize("t", [0.0, 0.4, 1.0, -0.7])
    def test_boundary_below_one(self, t):
        # at or below |t| = 1 the factor already rises from n = 1
        values = [bayes_factor_lindley(t, float(n)) for n in np.linspace(1.0, 50.0, 2001)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_even_in_t(self):
        for n in (1, 3.84, 10**6):
            assert bayes_factor_lindley(-2.2, n) == bayes_factor_lindley(2.2, n)


class TestParadoxTable:
    def test_flagged_row_at_crossing(self):
        rows = paradox_table(ParadoxQuery(t=1.96), [10, 164, 16818])
        by_n = {n: r for n, r in rows}
        assert not by_n[10].paradoxical  # BF = 0.58 still favors the alternative
        assert by_n[164].paradoxical  # BF = 1.90 already tips the null
        assert by_n[16818].paradoxical
        assert abs(by_n[16818].post_prob0 - 0.95) < 1e-6

    def test_p_value_column_constant(self):
        rows = paradox_table(ParadoxQuery(t=1.96), [1, 10, 100, 10**6])
        ps = {r.p_value for _, r in rows}
        assert len(ps) == 1

    def test_t_zero_never_paradoxical(self):
        rows = paradox_table(ParadoxQuery(t=0.0), [1, 100, 10**8])
        assert all(r.p_value == 1.0 and not r.paradoxical for _, r in rows)

    def test_rows_match_direct_evaluation(self):
        q = ParadoxQuery(t=2.5, weights=HypothesisWeights(rho0=0.3), alpha=0.01)
        ((n, row),) = paradox_table(q, [500])
        assert n == 500
        bf = bayes_factor_lindley(2.5, 500)
        assert row.bf01 == bf
        assert row.post_prob0 == posterior_prob_null(bf, q.weights)
        assert row.alpha == 0.01
        assert row.favor_null_bayes is (bf >= 1.0)

    def test_fractional_sample_size_is_named(self):
        # int() would report n = 10
        for n in (10.7, 10.0):
            with pytest.raises(ValueError, match=f"^n_list must hold integers, got {n}$"):
                paradox_table(ParadoxQuery(t=1.96), [n])
        ((n, _),) = paradox_table(ParadoxQuery(t=1.96), np.array([10]))
        assert type(n) is int and n == 10



class TestConsistencyRun:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_grid": ()},
            {"n_grid": (0, 5)},
            {"n_grid": (10, 10)},
            {"n_grid": (20, 10)},
            {"n_grid": (10, 10**400)},
            {"replications": 0},
            {"replications": 5.5},
            {"replications": 5.0},
            {"sigma": 0.0},
            {"sigma": -1.0},
            {"theta_true": math.nan},
            {"seed": -1},
            {"seed": 2**64},
            {"n_grid": (10, 20.0)},
        ],
    )
    def test_validation(self, kwargs):
        base = dict(
            theta_true=0.0, theta0=0.0, sigma=1.0, n_grid=(10, 20), replications=5, seed=1
        )
        base.update(kwargs)
        with pytest.raises(ValueError):
            ConsistencyRun(**base)

    def test_grid_point_above_largest_float_is_refused(self):
        # math.sqrt(n) in the sweep driver raised OverflowError
        with pytest.raises(ValueError, match="^sample sizes must be at most the largest float"):
            ConsistencyRun(0.0, 0.0, 1.0, (5, 10**400), replications=2, seed=1)

    def test_grid_coerced_to_ints(self):
        for n_grid, seed in (([10, 20], 0), (np.array([10, 20]), np.uint64(0))):
            run = ConsistencyRun(
                theta_true=0.0, theta0=0.0, sigma=1.0, n_grid=n_grid, replications=1, seed=seed
            )
            assert run.n_grid == (10, 20)
            assert all(type(n) is int for n in run.n_grid)

    def test_fractional_grid_point_and_seed_are_named(self):
        # int() would store n_grid (10,) and seed 1
        with pytest.raises(ValueError, match=r"^n_grid must hold integers, got \(10\.7,\)$"):
            ConsistencyRun(0.0, 0.0, 1.0, (10.7,), 5, 1)
        # numpy would refuse it with a TypeError that names no field
        with pytest.raises(ValueError, match=r"^replications must be an integer, got 5\.5$"):
            ConsistencyRun(0.0, 0.0, 1.0, (10,), 5.5, 1)
        with pytest.raises(ValueError, match=r"^seed must be an unsigned 64-bit integer, got 1\.9$"):
            ConsistencyRun(0.0, 0.0, 1.0, (10,), 5, 1.9)


class TestConsistencySimulation:
    NULL_RUN = ConsistencyRun(
        theta_true=0.0,
        theta0=0.0,
        sigma=1.0,
        n_grid=(100, 1000, 10000),
        replications=2000,
        seed=42,
    )

    def test_deterministic_given_seed(self):
        assert consistency_simulation(self.NULL_RUN) == consistency_simulation(self.NULL_RUN)

    def test_median_log_bf_grows_under_null(self):
        out = consistency_simulation(self.NULL_RUN)
        meds = [s.median_log_bf for s in out]
        assert meds == sorted(meds)
        assert meds[0] > 1.0

    def test_median_log_bf_tracks_chi_square_median(self):
        # median of t^2 under the null is the chi-square(1) median 0.4549
        out = consistency_simulation(self.NULL_RUN)
        for s in out:
            predicted = 0.5 * math.log1p(s.n) - 0.45494 * s.n / (2.0 * (1.0 + s.n))
            assert abs(s.median_log_bf - predicted) < 0.08

    def test_null_regime_rates(self):
        out = consistency_simulation(self.NULL_RUN)
        for s in out:
            assert abs(s.reject_rate - 0.05) < 0.02
            assert abs(s.median_p_value - 0.5) < 0.05
            assert s.bf_collapse_rate == 0.0
            assert s.joint_collapse_rate == 0.0

    def test_alternative_regime_joint_collapse(self):
        # half-sigma offset at n=1000 puts t near 15.8; both measures die
        run = ConsistencyRun(
            theta_true=0.5, theta0=0.0, sigma=1.0, n_grid=(1000,), replications=2000, seed=42
        )
        (s,) = consistency_simulation(run)
        assert s.bf_collapse_rate >= 0.99
        assert s.joint_collapse_rate >= 0.99
        assert s.median_log_bf < -50.0
        assert s.median_p_value < 1e-6

    def test_single_replication(self):
        run = ConsistencyRun(
            theta_true=0.0, theta0=0.0, sigma=1.0, n_grid=(50,), replications=1, seed=7
        )
        (s,) = consistency_simulation(run)
        assert isinstance(s, ConsistencySummary)
        assert s.reject_rate in (0.0, 1.0)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            consistency_simulation(self.NULL_RUN, alpha=1.5)


class TestUniformKsDistance:
    def test_single_value(self):
        assert uniform_ks_distance([0.3]) == pytest.approx(0.7, abs=1e-15)

    def test_symmetric_pair(self):
        assert uniform_ks_distance([0.25, 0.75]) == pytest.approx(0.25, abs=1e-15)

    def test_three_point_hand_case(self):
        # D+ = max(1/3-0.1, 2/3-0.4, 1-0.8) = 4/15, D- = 2/15
        got = uniform_ks_distance([0.1, 0.4, 0.8])
        assert math.isclose(got, 4.0 / 15.0, rel_tol=1e-12)

    def test_values_on_upper_steps(self):
        got = uniform_ks_distance([1.0 / 3.0, 2.0 / 3.0, 1.0])
        assert math.isclose(got, 1.0 / 3.0, rel_tol=1e-12)

    def test_order_invariant(self):
        rng = np.random.default_rng(5)
        v = rng.uniform(size=50)
        shuffled = v.copy()
        rng.shuffle(shuffled)
        assert uniform_ks_distance(v) == uniform_ks_distance(shuffled)

    def test_rejects_out_of_range_and_empty(self):
        for values in ([0.5, 1.2], [-0.1, 0.5], [0.2, math.nan, 0.4], [math.nan], [0.5, math.inf],
                       [-math.inf, 0.5]):
            with pytest.raises(ValueError, match=r"^values must lie in \[0, 1\]$"):
                uniform_ks_distance(values)
        with pytest.raises(ValueError, match="at least one value"):
            uniform_ks_distance([])


class TestPvalueUniformityCheck:
    def test_below_ks_critical_value(self):
        # 1% asymptotic KS critical value at 10^4 draws is 1.63/sqrt(10^4)
        assert pvalue_uniformity_check(42, 10_000) < 0.0163

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_other_seeds_stay_below(self, seed):
        assert pvalue_uniformity_check(seed, 10_000) < 0.0163

    def test_frozen_value_for_default_seed(self):
        # determinism anchor: exact replay of the seeded stream
        got = pvalue_uniformity_check(42, 10_000)
        assert got == pytest.approx(0.0085484532366224, abs=1e-15)

    def test_sanity_inversion_off_the_null(self):
        assert pvalue_uniformity_check(42, 1000, noncentrality=5.0) > 0.9

    @pytest.mark.parametrize(
        "replications, message",
        [
            (99, r"replications must be at least 100"),
            (100.5, r"replications must be an integer, got 100\.5"),
            (100.0, r"replications must be an integer, got 100\.0"),
        ],
    )
    def test_minimum_replications(self, replications, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            pvalue_uniformity_check(42, replications)
