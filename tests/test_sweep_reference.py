"""The array sweeps against per-replicate reference loops.

consistency_simulation, score_consistency_sim and pvalue_uniformity_check
evaluate every replicate with elementwise array arithmetic. The loops below
evaluate one replicate at a time through the scalar kernels, as the sweeps
once did, on the t the driver hands every sweep: t = z + c, c the grid
point's centre t, the t statistic of a sample whose mean is theta_true. The
arithmetic is the same, so the summaries must be equal to the last bit
(compared through repr) and every failure must raise the same exception type
with the same message; a size beyond the doubles is mpmath's. The score
sweep's reference selects each replicate by mpmath's exact sign of s0 - s1.

The p-value sweeps call math.erfc only where a p-value can change an output
and decide the rest from |t|, trusting erfc to fall with its argument up to
_order_stats._erfc_slack. Runs far off the null check that the median then
never maps erfc over every replicate. The last part of this file checks that
bound on this platform's libm and replays crafted draws on the points where
it is tight: erfc's own one-ulp rises, the alpha and 1e-6 thresholds, and
ties.
"""

import functools
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from ks_reference import uniform_ks_distance

from pointnull import _order_stats, paradox
from pointnull.normal import AlternativePrior, NormalProblem, log_bayes_factor_lindley, t_statistic
from pointnull.numerics import RngStream, p_value
from pointnull.paradox import (
    ConsistencyRun,
    ConsistencySummary,
    consistency_simulation,
    pvalue_uniformity_check,
)
from pointnull.scores import ScoreSelectionSummary, score_consistency_sim

# above the block size the array p-values are computed in
ABOVE_CHUNK = (1 << 16) + 5


BEYOND = "lies beyond the largest double, at 10^"
# the fields a sweep's centre t, and so every replicate's t, comes from
FIELDS = "theta_true, theta0, sigma and n_grid"


def beyond(what, exact):
    """The refusal of a quantity whose exact value lies beyond the doubles."""
    return ValueError(f"{what} {BEYOND}{float(mpmath.log10(abs(exact))):.6g}")


def centre_t(run, n):
    """Grid point n's centre t: the t statistic of a sample whose mean is
    theta_true, refused with its exact size where that is no double."""
    t = t_statistic(NormalProblem(run.theta0, run.sigma, n, run.theta_true))
    if math.isinf(t):
        with mpmath.workprec(300):
            exact = (mpmath.mpf(run.theta_true) - run.theta0) * mpmath.sqrt(n) / run.sigma
        raise beyond(f"t from {FIELDS}", exact)
    return t


def replicate_ts(run, i, n):
    """Grid point i's t statistics, z + c, one Python float each."""
    c = centre_t(run, n)
    return [float(z) + c for z in RngStream(run.seed, stream_id=i).normals(run.replications)]


def reference_consistency(run, alpha=0.05):
    log_tol = math.log(1e-6)
    summaries = []
    for i, n in enumerate(run.n_grid):
        ts = replicate_ts(run, i, n)
        log_bfs = np.array([log_bayes_factor_lindley(t, n) for t in ts])
        p_vals = np.array([p_value(t) for t in ts])
        median_log_bf = float(np.median(log_bfs))
        if median_log_bf == -math.inf:
            # the exact median of log B01 over the middle ranks' doubles t
            with mpmath.workprec(300):
                a = sorted(abs(mpmath.mpf(t)) for t in ts)
                middle = a[(len(a) - 1) // 2 : len(a) // 2 + 1]
                exact = mpmath.log1p(n) / 2 - n * sum(x * x for x in middle) / len(middle) / (2 * (1 + n))
                raise beyond(f"median log B01 at n={n} from {FIELDS}", exact)
        below = log_bfs < log_tol
        summaries.append(
            ConsistencySummary(
                n=n,
                median_log_bf=median_log_bf,
                median_p_value=float(np.median(p_vals)),
                reject_rate=float(np.mean(p_vals <= alpha)),
                bf_collapse_rate=float(np.mean(below)),
                joint_collapse_rate=float(np.mean(below & (p_vals < 1e-6))),
            )
        )
    return summaries


def exact(x):
    """A float, an int or an mpf as an mpf, exactly, whatever the working precision."""
    if isinstance(x, int):
        return mpmath.mpf(mpmath.libmp.from_man_exp(x, 0))
    return x if isinstance(x, mpmath.mpf) else mpmath.mpf(x)


def exact_sum(*xs):
    return functools.reduce(lambda a, b: mpmath.fadd(a, b, exact=True), map(exact, xs))


def exact_product(*xs):
    return functools.reduce(lambda a, b: mpmath.fmul(a, b, exact=True), map(exact, xs))


def exact_selection(t, n, sigma, prior):
    """mpmath's exact sign of the Hyvarinen difference s0 - s1 at the double t:
    -1 selects the null, 0 ties. With V0 = sigma^2/n, V1 = V0 + tau^2 and
    d = t sem, each penalty is -2/V + d^2/V^2, so s0 - s1 is
    n (t^2 - 2)/S + n (2 U - t^2 S)/U^2 with S = sigma^2 and U = S + n tau^2,
    and S U^2 / n > 0 times it is a sum of exact products. The flat prior's
    penalty is 0, and s0 = n (t^2 - 2)/S."""
    t2 = exact_product(t, t)
    if not prior.is_conjugate:
        return int(mpmath.sign(exact_sum(t2, -2)))
    s = exact_product(sigma, sigma)
    u = exact_sum(s, exact_product(n, prior.tau, prior.tau))
    data = exact_product(exact_sum(t2, -2), u, u)
    spread = exact_product(exact_sum(exact_product(2, u), exact_product(-1, t2, s)), s)
    return int(mpmath.sign(exact_sum(data, spread)))


def reference_score_consistency(run, prior):
    summaries = []
    for i, n in enumerate(run.n_grid):
        signs = [exact_selection(t, n, run.sigma, prior) for t in replicate_ts(run, i, n)]
        null, ties, reps = signs.count(-1), signs.count(0), run.replications
        summaries.append(
            ScoreSelectionSummary(
                n=n,
                select_null_rate=null / reps,
                select_alt_rate=(reps - null - ties) / reps,
                tie_rate=ties / reps,
            )
        )
    return summaries


def reference_uniformity(seed, replications, noncentrality=0.0):
    draws = RngStream(seed).normals(replications) + noncentrality
    return uniform_ks_distance(np.array([p_value(float(z)) for z in draws]))


def outcome(fn, *args, **kwargs):
    """repr of the result, or the exception's type and message.

    Warnings are raised as errors, so a sweep that would print a numpy
    RuntimeWarning on stderr cannot match a reference that prints nothing.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return repr(fn(*args, **kwargs))
        except Exception as exc:
            return type(exc), str(exc)


def run_of(reps, n_grid=(10, 1000), theta_true=0.0, theta0=0.0, sigma=1.0, seed=42):
    return ConsistencyRun(
        theta_true=theta_true,
        theta0=theta0,
        sigma=sigma,
        n_grid=n_grid,
        replications=reps,
        seed=seed,
    )


RUNS = [
    run_of(1),
    run_of(2),
    run_of(7, seed=3),
    run_of(10, theta_true=0.2),
    run_of(2001, n_grid=(5, 50, 500), theta_true=0.05, seed=9),
    run_of(1000, n_grid=(1000,), theta_true=0.5, seed=42),
    run_of(999, theta0=1.0, theta_true=1.05, sigma=2.0, seed=11),
    run_of(11, n_grid=(1, 10**20), theta_true=1e-9),
    run_of(12, n_grid=(3, 10**20)),
    # (sigma^2 / n)^2 underflows to 0, which the Hyvarinen penalty once refused
    run_of(10, n_grid=(4,), sigma=1e-100),
    # the variance squared overflows, which once turned the penalty's data term to nan
    run_of(10, n_grid=(1,), theta_true=1e160, sigma=1e100),
]
# far off the null: |t| reaches 6 to 30 at the top grid point, where the
# p-values around the median lie far closer together than 2^-40
FAR_RUNS = [
    run_of(1000, n_grid=(100, 3600), theta_true=0.1, seed=4),
    run_of(1001, n_grid=(10, 1000, 10000), theta_true=-0.08, seed=5),
    run_of(999, n_grid=(100, 10000), theta_true=0.3, seed=6),
    run_of(2000, n_grid=(50, 40000), theta_true=-0.1, seed=7),
    run_of(1500, n_grid=(20, 2000), theta0=1.0, theta_true=1.3, sigma=2.0, seed=8),
    run_of(501, n_grid=(1, 250), theta0=-2.0, theta_true=-2.9, sigma=1.5, seed=9),
]
RUNS += FAR_RUNS


@pytest.mark.parametrize("alpha", [0.05, 0.01, 0.1])
@pytest.mark.parametrize("run", RUNS, ids=repr)
def test_consistency_matches_reference(run, alpha):
    got = outcome(consistency_simulation, run, alpha=alpha)
    assert got == outcome(reference_consistency, run, alpha)
    assert isinstance(got, str)


@pytest.mark.parametrize("run", FAR_RUNS, ids=repr)
def test_far_off_the_null_never_maps_erfc_over_every_replicate(run, monkeypatch):
    sizes = []
    exact_p = _order_stats._exact_p

    def recording(x):
        sizes.append(x.size)
        return exact_p(x)

    monkeypatch.setattr(_order_stats, "_exact_p", recording)
    top = run.n_grid[-1]
    assert 6.0 <= abs(run.theta_true - run.theta0) * math.sqrt(top) / run.sigma <= 30.0
    consistency_simulation(run)
    # the median's 17- or 18-element window settles at every grid point
    assert sizes.count(18 - run.replications % 2) >= len(run.n_grid)
    assert max(sizes) < run.replications


@pytest.mark.parametrize("run", [run_of(1001), run_of(2000, theta_true=0.3)] + FAR_RUNS, ids=repr)
def test_consistency_never_maps_log_bf_over_every_replicate(run, monkeypatch):
    array_sizes, scalar_calls = [], 0

    def recording(t, n):
        nonlocal scalar_calls
        if isinstance(t, float):
            scalar_calls += 1
        else:
            array_sizes.append(t.size)
        return log_bayes_factor_lindley(t, n)

    monkeypatch.setattr(paradox, "log_bayes_factor_lindley", recording)
    assert outcome(consistency_simulation, run) == outcome(reference_consistency, run)
    # one array call per grid point, on the median's one or two middle ranks;
    # the scalar calls settle a* from its closed form in a few steps
    assert array_sizes == [2 - run.replications % 2] * len(run.n_grid)
    assert 2 * len(run.n_grid) <= scalar_calls <= 8 * len(run.n_grid)


@pytest.mark.parametrize("on_null", [True, False])
def test_consistency_above_chunk_matches_reference(on_null):
    run = run_of(ABOVE_CHUNK, n_grid=(50, 5000), theta_true=0.0 if on_null else 0.03, seed=5)
    assert outcome(consistency_simulation, run) == outcome(reference_consistency, run)


@pytest.mark.parametrize(
    "prior",
    [AlternativePrior.flat(), AlternativePrior.conjugate(1.0), AlternativePrior.conjugate(0.01)],
    ids=repr,
)
@pytest.mark.parametrize("run", RUNS, ids=repr)
def test_score_consistency_matches_reference(run, prior):
    got = outcome(score_consistency_sim, run, prior)
    assert got == outcome(reference_score_consistency, run, prior)
    assert isinstance(got, str)


@pytest.mark.parametrize(
    "seed, reps, noncentrality",
    [
        (42, 100, 0.0),
        (7, 101, 0.5),
        (42, 10_000, 0.0),
        (5, ABOVE_CHUNK, 0.0),
        (5, ABOVE_CHUNK, 0.25),
        (1, 2 * (1 << 16), -3.0),
    ],
)
def test_uniformity_matches_reference(seed, reps, noncentrality):
    got = outcome(pvalue_uniformity_check, seed, reps, noncentrality=noncentrality)
    assert got == outcome(reference_uniformity, seed, reps, noncentrality)
    assert isinstance(got, str)


FAILING_RUNS = [
    # the centre t overflows to inf: both sweeps refuse it before any draw
    run_of(10, n_grid=(1,), theta_true=1e308, theta0=-1e308),
    # sigma^2 / n underflows to 0, which the score sweeps once refused; n/sigma^2
    # overflows, which the score sweep's selection never forms
    run_of(10, n_grid=(4,), sigma=1e-200),
]
# n/sigma^2 = 1e308: the null's penalty (t^2 - 2) n/sigma^2 overflows once
# |t^2 - 2| > 1.8, which once made it nan and refused the first such replicate
FAILING_RUNS += [run_of(10, n_grid=(1,), sigma=1e-154, seed=s) for s in range(3)]
# centre t 17: the means theta_true + sem z once overflowed in about one
# replicate in six, and no mean is formed now. n/sigma^2 underflows, which
# once tied every replicate's penalties against the flat prior by underflow
FAILING_RUNS += [run_of(40, n_grid=(1, 2), theta_true=1.7e308, sigma=1e307, seed=s) for s in range(6)]
FAILING_RUNS += [
    # centre t 1.8e298: log B01 and its median lie beyond the doubles; against
    # tau = 1 the null's penalty, t^2 n/sigma^2, overflowed and was refused
    run_of(40, n_grid=(1,), theta_true=1e308, theta0=-7.98e307, sigma=1e10),
    run_of(10, n_grid=(1,), theta_true=1e170, sigma=1e10),
    # sem z once overflowed in the first replicate, whose mean was a double
    run_of(10, n_grid=(1,), theta_true=-1e308, sigma=1e308, seed=4),
]


@pytest.mark.parametrize("run", FAILING_RUNS, ids=repr)
def test_failures_match_reference(run):
    assert outcome(consistency_simulation, run) == outcome(reference_consistency, run)
    for prior in (AlternativePrior.flat(), AlternativePrior.conjugate(1.0)):
        got = outcome(score_consistency_sim, run, prior)
        assert got == outcome(reference_score_consistency, run, prior)
        # the score sweep refuses nothing of its own, only the driver's centre t
        assert isinstance(got, str) or got[1].startswith("t from ")


# sigma = 1e-154: sem^2 = 1e-308 and tau = sigma, where the null's penalty
# was once nan for |t| > 1.34 and refused the run. sigma = 1e-160: n/sigma^2
# = 1e320 took both penalties beyond the doubles, and the first replicate
# whose penalties had the same sign (t^2 < 2 or t^2 > 4) was refused by name
ONCE_REFUSED = [(1e-154, seed) for seed in range(3)] + [(1e-160, 6), (1e-160, 23)]


@pytest.mark.parametrize("sigma, seed", ONCE_REFUSED)
def test_runs_once_refused_select_as_mpmath(sigma, seed):
    # each replicate selects the hypothesis whose exact penalty -2/V + d^2/V^2
    # is smaller, here at 300 bits from the penalties themselves
    run = run_of(10, n_grid=(1,), sigma=sigma, seed=seed)
    prior = AlternativePrior.conjugate(sigma)
    got = outcome(score_consistency_sim, run, prior)
    assert got == outcome(reference_score_consistency, run, prior)
    ((n, t),) = run.sweep(lambda *point: point)
    with mpmath.workprec(300):
        v0 = mpmath.mpf(run.sigma) ** 2 / n
        v1 = v0 + mpmath.mpf(prior.tau) ** 2
        null = 0
        for x in t:
            d2 = mpmath.mpf(float(x)) ** 2 * v0
            s0, s1 = -2 / v0 + d2 / v0**2, -2 / v1 + d2 / v1**2
            assert s0 != s1
            null += s0 < s1
    (summary,) = score_consistency_sim(run, prior)
    assert summary.select_null_rate == null / 10
    assert summary.tie_rate == 0.0


def test_failure_runs_reach_every_error():
    errors = set()
    for run in FAILING_RUNS:
        for got in (
            outcome(consistency_simulation, run),
            outcome(score_consistency_sim, run, AlternativePrior.flat()),
            outcome(score_consistency_sim, run, AlternativePrior.conjugate(1.0)),
        ):
            if not isinstance(got, str):
                errors.add(got)
    assert errors == {
        # theta_true - theta0 = 2e308: the centre's t, refused before any draw
        (ValueError, f"t from {FIELDS} {BEYOND}308.301"),
        # centre t 1.8e298 and 1e160: the median log B01, n t^2 / 4 at n = 1
        (ValueError, f"median log B01 at n=1 from {FIELDS} {BEYOND}595.908"),
        (ValueError, f"median log B01 at n=1 from {FIELDS} {BEYOND}319.398"),
    }


@pytest.mark.parametrize("noncentrality", [math.inf, -math.inf, math.nan, 1.7976931348623157e308])
def test_uniformity_failures_match_reference(noncentrality):
    got = outcome(pvalue_uniformity_check, 3, 100, noncentrality=noncentrality)
    want = outcome(reference_uniformity, 3, 100, noncentrality)
    if math.isfinite(noncentrality):
        assert got == want
    else:
        # refused by its own name before any draw, where the loop meets a t that is not finite
        assert (got, want) == ((ValueError, "noncentrality must be finite"), (ValueError, "t must be finite"))


def test_zero_standard_error_answers_as_at_unit_sigma():
    # sigma/sqrt(n) underflows to 0, which the sweep once refused: on the
    # null the centre t is 0 whatever sigma, so every t is its draw
    run = run_of(10, n_grid=(10_000,), sigma=1e-322)
    got = outcome(consistency_simulation, run)
    unit = run_of(10, n_grid=(10_000,))
    assert got == outcome(reference_consistency, run) == outcome(consistency_simulation, unit)
    assert isinstance(got, str)


def test_every_sweep_draws_through_the_driver(monkeypatch):
    run = run_of(5, n_grid=(10, 1000), theta_true=0.1, seed=8)
    points = run.sweep(lambda *point: point)
    assert [n for n, _ in points] == [10, 1000]
    for i, (n, t) in enumerate(points):
        z = RngStream(8, stream_id=i).normals(5)
        # the centre t, 0.1 sqrt(n), is the t statistic of a sample whose mean is 0.1
        c = t_statistic(NormalProblem(0.0, 1.0, n, 0.1))
        assert t.tolist() == [float(v) + c for v in z]
    # each kind makes every stream inside the driver, from the run it hands it
    inside, streams, sweep, stream = [], [], ConsistencyRun.sweep, paradox.RngStream

    def driver(self, summarise):
        inside.append(self)
        try:
            return sweep(self, summarise)
        finally:
            inside.pop()

    def making(seed, stream_id=0):
        streams.append((seed, stream_id, inside[-1] if inside else None))
        return stream(seed, stream_id)

    monkeypatch.setattr(ConsistencyRun, "sweep", driver)
    monkeypatch.setattr(paradox, "RngStream", making)
    consistency_simulation(run)
    score_consistency_sim(run, AlternativePrior.flat())
    pvalue_uniformity_check(8, 100, noncentrality=0.1)
    uniformity = ConsistencyRun(0.1, 0.0, 1.0, (1,), 100, 8)
    assert streams == [(8, i, run) for i in (0, 1)] * 2 + [(8, 0, uniformity)]


# ------------------------------------------------- location and scale

# The sweeps read theta_true, theta0 and sigma only through each grid point's
# centre t, formed on mantissas, so where the problem sits and its scale
# leave every row's bytes alone.
LOCATIONS = st.one_of(
    st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-300.0, 300.0)).map(lambda se: se[0] * 10.0 ** se[1]),
    st.just(1e16),
)
PRIORS = [AlternativePrior.flat(), AlternativePrior.conjugate(0.5)]


def rows_of(run):
    """The consistency and score sweeps' outcomes for run, and the t its driver hands."""
    got = [outcome(consistency_simulation, run)] + [outcome(score_consistency_sim, run, p) for p in PRIORS]
    return got + [[t.tolist() for t in run.sweep(lambda n, t: t)]]


def uniformity_from_driver(run):
    """The uniformity check's KS distance over the t the driver hands run at
    its first grid point, n = 1, whose centre t is its noncentrality."""
    c = t_statistic(NormalProblem(run.theta0, run.sigma, 1, run.theta_true))
    got = outcome(pvalue_uniformity_check, run.seed, run.replications, noncentrality=c)
    t = run.sweep(lambda n, t: t.copy())[0]
    assert got == repr(uniform_ks_distance(np.array([p_value(v) for v in t.tolist()])))
    return got


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(LOCATIONS, st.sampled_from([1.0, 1e-3, 7.5, 1e200]), st.integers(0, 2**32))
def test_a_null_run_gives_the_rows_of_the_run_at_zero(location, sigma, seed):
    at = run_of(101, n_grid=(1, 100, 10**6), theta_true=location, theta0=location, sigma=sigma, seed=seed)
    zero = run_of(101, n_grid=(1, 100, 10**6), sigma=sigma, seed=seed)
    assert rows_of(at) == rows_of(zero)
    assert uniformity_from_driver(at) == uniformity_from_driver(zero)


# magnitudes at which every operand, and a prior's tau = 0.5, scaled by 2^k
# for |k| <= 1000 stays a normal double
MAGNITUDES = st.one_of(st.just(0.0), st.floats(2.0**-20, 4.0), st.floats(-4.0, -(2.0**-20)))


@st.composite
def scaled_runs(draw):
    """A run off the null and the same run with theta_true, theta0 and sigma
    scaled by 2^k, |k| <= 1000."""
    theta_true, theta0 = draw(MAGNITUDES), draw(MAGNITUDES)
    # a difference below 2^-20 could round differently once scaled into the subnormals
    assume(theta_true == theta0 or abs(theta_true - theta0) >= 2.0**-20)
    sigma, k, seed = draw(st.floats(0.25, 4.0)), draw(st.integers(-1000, 1000)), draw(st.integers(0, 2**32))
    run = run_of(101, n_grid=(1, 10, 100), theta_true=theta_true, theta0=theta0, sigma=sigma, seed=seed)
    scaled = run_of(
        101, n_grid=run.n_grid, theta_true=math.ldexp(theta_true, k), theta0=math.ldexp(theta0, k),
        sigma=math.ldexp(sigma, k), seed=seed,
    )
    return run, scaled, k


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(scaled_runs())
def test_scaling_every_operand_by_a_power_of_two_keeps_the_rows(case):
    # the score sweep's selection carries no unit, so tau scales with the rest
    run, scaled, k = case
    assert outcome(consistency_simulation, scaled) == outcome(consistency_simulation, run)
    assert [t.tolist() for t in scaled.sweep(lambda n, t: t)] == [t.tolist() for t in run.sweep(lambda n, t: t)]
    assert uniformity_from_driver(scaled) == uniformity_from_driver(run)
    for tau in (None, 0.5):
        prior = AlternativePrior.flat() if tau is None else AlternativePrior.conjugate(tau)
        scaled_prior = prior if tau is None else AlternativePrior.conjugate(math.ldexp(tau, k))
        got = outcome(score_consistency_sim, scaled, scaled_prior)
        assert got == outcome(score_consistency_sim, run, prior)
        assert isinstance(got, str)


# ---------------------------------------------------------------- erfc slack

SLACK = _order_stats._ERFC_SLACK


def adjacent_doubles(x, count):
    """x and the count doubles on each side of it, ascending."""
    below, above = [x], [x]
    for _ in range(count):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return np.array(below[:0:-1] + above)


def erfc_rises(xs):
    """(x, rise, p) wherever math.erfc goes up from one element of ascending
    xs to the next: the later x, the rise, and erfc at the earlier x."""
    p = np.array([math.erfc(x) for x in xs.tolist()])
    rise = np.diff(p)
    up = rise > 0.0
    return xs[1:][up], rise[up], p[:-1][up]


# libm's rises next to x = 1.25: math.erfc(x) > math.erfc(previous double)
WOBBLE_X, WOBBLE_RISE, WOBBLE_P = erfc_rises(adjacent_doubles(1.25, 200_000))


def test_erfc_rises_stay_far_below_the_slack():
    """The sweeps decide p-values from |t| alone with margin _erfc_slack(p),
    2^-40 of p with a floor for subnormal p; a libm whose erfc rises by more
    than a thousandth of it fails here. The scan runs through the subnormal
    p-values, and past x = 27.3 where erfc reaches 0."""
    scans = [adjacent_doubles(1.25, 200_000), np.linspace(0.0, 27.5, 1_000_001)]
    scans += [adjacent_doubles(float(x), 2_000) for x in np.linspace(0.0, 27.5, 276)]
    worst = largest_relative = 0.0
    for xs in scans:
        _, rise, p = erfc_rises(xs)
        slack = np.array([_order_stats._erfc_slack(v) for v in p.tolist()])
        worst = max(worst, float((rise / slack).max(initial=0.0)))
        normal = p >= sys.float_info.min
        largest_relative = max(largest_relative, float((rise[normal] / p[normal]).max(initial=0.0)))
    assert worst < 1e-3
    # as p <= 1, the absolute margin the bands and KS bounds use holds too
    assert all(_order_stats._erfc_slack(p) <= SLACK for p in (1.0, 0.5, 1e-300, 5e-324, 0.0))
    # the scan does see the known rises, so it is not vacuous: the largest
    # relative rise is about 1.8e-16, next to x = 1.25
    assert len(WOBBLE_X) > 0 and largest_relative >= float((WOBBLE_RISE / WOBBLE_P).max()) > 1e-16


class CraftedStream:
    """Stands in for RngStream: every stream yields the class's draws."""

    draws: list[float] = []

    def __init__(self, seed, stream_id=0):
        pass

    def normals(self, size):
        assert size == len(self.draws)
        return np.array(self.draws, dtype=float)


def craft(monkeypatch, draws):
    """Make the sweep and the reference loops above draw the given values."""
    stream = type("Crafted", (CraftedStream,), {"draws": list(draws)})
    monkeypatch.setattr(paradox, "RngStream", stream)
    monkeypatch.setattr(sys.modules[__name__], "RngStream", stream)


@pytest.fixture
def crafted(monkeypatch):
    return lambda draws: craft(monkeypatch, draws)


def t_on(x):
    """A t with |t| / sqrt(2) == x, the argument p_value hands erfc."""
    t = x * paradox._SQRT2
    assert abs(t) / paradox._SQRT2 == x
    return t


def first_t_at_most(level):
    """A double t >= 0 with p_value(t) <= level and p_value above level at
    the double below it, by bisection."""
    lo, hi = 0.0, 40.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (lo, mid) if p_value(mid) <= level else (mid, hi)
    return hi


def around(t, k=3):
    return [float(v) for v in adjacent_doubles(t, k)]


# t on each side of every rise; p differs by about 1e-17 across the set
WOBBLE_T = [t_on(x) for rise in WOBBLE_X.tolist() for x in (math.nextafter(rise, 0.0), rise)]
T_ALPHA = first_t_at_most(0.05)
T_TOL = first_t_at_most(math.nextafter(1e-6, 0.0))
THRESHOLD_T = around(T_ALPHA) + around(T_TOL) + [-t for t in around(T_ALPHA)] + [6.0, 7.5, 40.0]
TIE_RNG = np.random.default_rng(17)
CRAFTED = {
    "wobble": WOBBLE_T + [-t for t in WOBBLE_T[::3]],
    "wobble-odd": WOBBLE_T[:-1],
    "thresholds": THRESHOLD_T,
    "threshold-alpha-only": around(T_ALPHA, 50),
    "all-equal-1": [1.96],
    "all-equal-2": [1.96, -1.96],
    "all-equal-100": [T_ALPHA] * 100,
    "all-equal-101": [0.3] * 101,
    "heavy-ties": TIE_RNG.choice([0.0, 0.5, T_ALPHA, -T_ALPHA, T_TOL, 9.0], 1001).tolist(),
    "ties-around-median": [1.0] * 60 + [1.5] * 41 + [2.0] * 60,
    "uniform-with-ties": np.repeat(TIE_RNG.standard_normal(500), 3).tolist(),
}
# Both sides of one rise straddle the median of 41 draws, so p's median is the
# lone side's p-value, which sits on the wrong side of the tied ones were p
# ordered by |t| alone: above the middle window (x_rise lone, among the
# largest x) and below it (x_before lone, among the smallest).
X_BEFORE, X_RISE = math.nextafter(float(WOBBLE_X[0]), 0.0), float(WOBBLE_X[0])
CRAFTED["wobble-median-above"] = [0.05 * i for i in range(20)] + [t_on(X_BEFORE)] * 20 + [t_on(X_RISE)]
CRAFTED["wobble-median-below"] = (
    [t_on(X_BEFORE)] + [t_on(X_RISE)] * 20 + [3.0 + 0.1 * i for i in range(20)]
)
# alphas sitting exactly on a replicate's p-value, on both sides of a rise
CRAFTED_ALPHAS = [0.05, p_value(T_ALPHA), p_value(math.nextafter(T_ALPHA, 0.0))]
CRAFTED_ALPHAS += [p_value(t) for t in WOBBLE_T[:4]]


@pytest.mark.parametrize("alpha", CRAFTED_ALPHAS)
@pytest.mark.parametrize("name", CRAFTED)
def test_crafted_consistency_matches_reference(crafted, name, alpha):
    crafted(CRAFTED[name])
    # on the null the centre t is 0, so every t is its draw exactly
    run = run_of(len(CRAFTED[name]), n_grid=(1, 50))
    got = outcome(consistency_simulation, run, alpha=alpha)
    assert got == outcome(reference_consistency, run, alpha)
    assert isinstance(got, str)


@pytest.mark.parametrize("name", [k for k, v in CRAFTED.items() if len(v) >= 100])
def test_crafted_uniformity_matches_reference(crafted, name):
    crafted(CRAFTED[name])
    reps = len(CRAFTED[name])
    got = outcome(pvalue_uniformity_check, 1, reps)
    assert got == outcome(reference_uniformity, 1, reps)
    assert isinstance(got, str)


# The score sweep's selection boundary: |t| = 1, where 2 (t^2 - 1) vanishes;
# fl(sqrt(2)), the flat prior's |t| = sqrt(2); and fl(sqrt(4/3)), the root of
# 2 (t^2 - 1) + r^2 (t^2 - 2) at r^2 = 1; each with its neighbours, either sign.
# r^2 = n tau^2 / sigma^2 is 1 at sigma = tau with n = 1, and at sigma = 2 with
# n = 4. At n = 126, sigma = 7 and tau = 1, r^2 = 18/7 and |t| = 1.25 is a root.
BOUNDARY_T = [
    sign * x
    for sign in (1.0, -1.0)
    for root in (1.0, math.sqrt(2.0), math.sqrt(4.0 / 3.0))
    for x in around(root, 2)
]
BOUNDARY_T += around(1.25, 1)
BOUNDARY_PROBLEMS = [(1.0, 1, None), (1.0, 1, 1.0), (2.0, 4, 1.0), (7.0, 126, 1.0)]


@pytest.mark.parametrize("sigma, n, tau", BOUNDARY_PROBLEMS)
@pytest.mark.parametrize("t", BOUNDARY_T, ids=float.hex)
def test_crafted_boundary_replicates_select_as_mpmath(crafted, t, sigma, n, tau):
    # on the null the centre t is 0, so the one replicate's t is its draw exactly
    crafted([t])
    run = run_of(1, n_grid=(n,), sigma=sigma)
    prior = AlternativePrior.flat() if tau is None else AlternativePrior.conjugate(tau)
    got = outcome(score_consistency_sim, run, prior)
    assert got == outcome(reference_score_consistency, run, prior)
    assert isinstance(got, str)


# (sigma, n, tau, boundary) where the closed-form root lands one double above
# the least double with a positive sign, and two below it: the sweep walks
# from there to the boundary
WALKED = [
    (1.0, 6, 0.004476538114102673, 1.0000300568315348),
    (7.0, 424, 0.0011447244068624068, 1.0000028347097187),
]


@pytest.mark.parametrize("sigma, n, tau, boundary", WALKED)
def test_replicates_around_a_walked_boundary_select_as_mpmath(crafted, sigma, n, tau, boundary):
    draws = around(boundary)
    crafted(draws + [-t for t in draws])
    run, prior = run_of(2 * len(draws), n_grid=(n,), sigma=sigma), AlternativePrior.conjugate(tau)
    got = outcome(score_consistency_sim, run, prior)
    assert got == outcome(reference_score_consistency, run, prior)
    assert isinstance(got, str)


def test_a_replicate_on_a_root_ties(crafted):
    crafted(around(1.25, 1) + [-1.25])
    (summary,) = score_consistency_sim(run_of(4, n_grid=(126,), sigma=7.0), AlternativePrior.conjugate(1.0))
    assert summary == ScoreSelectionSummary(126, 0.25, 0.25, 0.5)


def test_ties_across_the_median_widen_its_window_not_map_every_replicate(crafted, monkeypatch):
    # 300 replicates tie at |t|'s median, so its first 18-element window of
    # p cannot settle; widened eightfold, it settles once it passes the ties
    reps = 100_000
    draws = np.random.default_rng(31).standard_normal(reps)
    order = np.argsort(np.abs(draws), kind="stable")
    middle = order[reps // 2 - 150 : reps // 2 + 150]
    draws[middle] = np.copysign(abs(draws[order[reps // 2]]), draws[middle])
    crafted(draws.tolist())
    run = run_of(reps, n_grid=(1,))
    want = outcome(reference_consistency, run)
    sizes = []
    exact_p = _order_stats._exact_p

    def recording(x):
        sizes.append(x.size)
        return exact_p(x)

    monkeypatch.setattr(_order_stats, "_exact_p", recording)
    assert outcome(consistency_simulation, run) == want
    assert isinstance(want, str)
    assert 18 in sizes and 300 < max(sizes) < reps


def first_abs_t_below_tol(n):
    """The least double |t| at which log B01 at n is below log 1e-6, by
    bisection over the values, apart from the sweep's own search."""
    lo, hi = 0.0, sys.float_info.max
    while (mid := lo + (hi - lo) / 2) not in (lo, hi):
        lo, hi = (lo, mid) if log_bayes_factor_lindley(mid, n) < math.log(1e-6) else (mid, hi)
    return hi


# 2(1 + n) overflows at the last two, where log B01 takes its other branch
A_STAR = {n: first_abs_t_below_tol(n) for n in (1, 2, 2**1023, int(sys.float_info.max))}


@st.composite
def ties_at_a_star(draw):
    """(n, draws): runs of ties at a* and the doubles beside it, among |t|
    log-uniform up to 1e308, where log B01 is -inf."""
    n = draw(st.sampled_from(list(A_STAR)))
    t = [v for v in around(A_STAR[n], 2) for _ in range(draw(st.integers(0, 6)))]
    t += draw(st.lists(st.floats(-300.0, 308.0).map(lambda e: 10.0**e), max_size=25))
    t += [A_STAR[n]] * (not t)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return n, (rng.permutation(t) * rng.choice([-1.0, 1.0], len(t))).tolist()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(ties_at_a_star())
def test_collapse_threshold_matches_the_full_log_bf_map(case):
    n, draws = case
    assert A_STAR[n] > 5.0 and log_bayes_factor_lindley(1e308, n) == -math.inf
    # on the null the centre t is 0, so every t is its draw
    run = run_of(len(draws), n_grid=(n,))
    with pytest.MonkeyPatch.context() as monkeypatch:
        craft(monkeypatch, draws)
        assert outcome(consistency_simulation, run) == outcome(reference_consistency, run)


# every n up to 1000, which holds a*'s minimum near n = 31, then four
# points a decade up to the largest float
COLLAPSE_NS = list(range(1, 1001)) + [int(10.0 ** (k / 4)) for k in range(12, 1233)]
COLLAPSE_NS += [int(sys.float_info.max)]


def test_every_collapsed_replicate_has_p_below_1e6():
    # so joint_collapse_rate is bf_collapse_rate's count: a replicate with
    # |t| >= a*(n) has x = |t|/sqrt(2) >= a*(n)/sqrt(2), past the upper edge
    # of the band where erfc may still reach 1e-6 through libm's rises
    x_hi = _order_stats._erfc_band(math.nextafter(1e-6, 0.0))[1]
    clearance = [paradox._collapse_threshold(n) / paradox._SQRT2 for n in COLLAPSE_NS]
    assert min(clearance) >= x_hi
    assert 3.45 < x_hi < 3.47 and 4.0 < min(clearance) < 4.02
    assert 25 <= COLLAPSE_NS[int(np.argmin(clearance))] <= 40


@pytest.mark.parametrize("reps", [1, 2, 3, 32, 33, 34, 64, 65, 129])
def test_small_and_odd_even_reps_match_reference(reps):
    run = run_of(reps, n_grid=(2, 20, 2000), theta_true=0.01, seed=reps)
    assert outcome(consistency_simulation, run) == outcome(reference_consistency, run)


@pytest.mark.parametrize("reps", [100, 101, (1 << 16) + 5, 1_000_000])
@pytest.mark.parametrize("noncentrality", [0.0, 0.5, 8.0])
def test_uniformity_grid_matches_reference(reps, noncentrality):
    got = outcome(pvalue_uniformity_check, 23, reps, noncentrality=noncentrality)
    assert got == outcome(reference_uniformity, 23, reps, noncentrality)
    assert isinstance(got, str)


# x = |t|/sqrt(2): the wobble points, the thresholds, ties, and spreads from
# the null to p-values packed far closer than the slack
SPECIAL_X = [float(x) for x in WOBBLE_X] + [abs(t) / paradox._SQRT2 for t in THRESHOLD_T]


@st.composite
def erfc_args(draw):
    size = draw(st.integers(1, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shift = draw(st.sampled_from([0.0, 0.3, 1.25, 3.0, 8.0]))
    x = np.abs(rng.standard_normal(size) + shift)
    if draw(st.booleans()):
        # overwrite a share with special points, repeated, so ties abound
        k = draw(st.integers(1, size))
        x[rng.integers(0, size, k)] = rng.choice(SPECIAL_X, k)
    return x


LEVELS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True) | st.sampled_from(
    [0.05, 1e-6, math.nextafter(1e-6, 0.0), 1e-300, 1.0 - 2.0**-53]
    + [math.erfc(x) for x in SPECIAL_X]
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(erfc_args(), LEVELS)
def test_helpers_match_the_full_erfc_map(x, level):
    # the band's own ends, where x alone decides, are replicates too
    band = _order_stats._erfc_band(level)
    ends = [v for v in band if 0.0 <= v < math.inf]
    x = np.sort(np.concatenate([x, ends]))
    p = np.array([math.erfc(v) for v in x.tolist()])
    # the sweeps bisect each level's band once per call and reuse it
    assert _order_stats._count_p_at_most(x, level, band) == int(np.count_nonzero(p <= level))
    median = _order_stats._p_ranks(x[::-1], (x.size - 1) // 2, x.size // 2).mean()
    assert repr(float(median)) == repr(float(np.median(p)))
    assert repr(_order_stats._ks_distance_p(x)) == repr(uniform_ks_distance(p))
