"""The array sweeps against per-replicate reference loops.

consistency_simulation, score_consistency_sim and pvalue_uniformity_check
evaluate every replicate with elementwise array arithmetic. The loops below
evaluate one replicate at a time through the scalar kernels, as the sweeps
once did; the arithmetic is the same, so the summaries must be equal to the
last bit (compared through repr) and every failure must raise the same
exception type with the same message.
"""

import math
import warnings

import numpy as np
import pytest

from pointnull.normal import (
    AlternativePrior,
    NormalProblem,
    log_bayes_factor_lindley,
    p_value,
)
from pointnull.numerics import RngStream
from pointnull.paradox import (
    ConsistencyRun,
    ConsistencySummary,
    consistency_simulation,
    pvalue_uniformity_check,
    uniform_ks_distance,
)
from pointnull.scores import ScoreSelectionSummary, hyvarinen_compare, score_consistency_sim

# above the block size the array p-values are computed in
ABOVE_CHUNK = (1 << 16) + 5


def reference_consistency(run, alpha=0.05):
    log_tol = math.log(1e-6)
    summaries = []
    for i, n in enumerate(run.n_grid):
        stream = RngStream(run.seed, stream_id=i)
        sem = run.sigma / math.sqrt(n)
        log_bfs = np.empty(run.replications)
        p_vals = np.empty(run.replications)
        for j, z in enumerate(stream.normals(run.replications)):
            xbar = run.theta_true + sem * float(z)
            t = (xbar - run.theta0) / sem
            log_bfs[j] = log_bayes_factor_lindley(t, n)
            p_vals[j] = p_value(t)
        below = log_bfs < log_tol
        summaries.append(
            ConsistencySummary(
                n=n,
                median_log_bf=float(np.median(log_bfs)),
                median_p_value=float(np.median(p_vals)),
                reject_rate=float(np.mean(p_vals <= alpha)),
                bf_collapse_rate=float(np.mean(below)),
                joint_collapse_rate=float(np.mean(below & (p_vals < 1e-6))),
            )
        )
    return summaries


def reference_score_consistency(run, prior=None):
    if prior is None:
        prior = AlternativePrior.flat()
    summaries = []
    for i, n in enumerate(run.n_grid):
        stream = RngStream(run.seed, stream_id=i)
        sem = run.sigma / math.sqrt(n)
        null = ties = 0
        for z in stream.normals(run.replications):
            problem = NormalProblem(
                theta0=run.theta0, sigma=run.sigma, n=n, xbar=run.theta_true + sem * float(z)
            )
            report = hyvarinen_compare(problem, prior)
            if report.tie:
                ties += 1
            elif report.select_null:
                null += 1
        reps = run.replications
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
]


@pytest.mark.parametrize("alpha", [0.05, 0.01, 0.1])
@pytest.mark.parametrize("run", RUNS, ids=repr)
def test_consistency_matches_reference(run, alpha):
    got = outcome(consistency_simulation, run, alpha=alpha)
    assert got == outcome(reference_consistency, run, alpha)
    assert isinstance(got, str)


@pytest.mark.parametrize("on_null", [True, False])
def test_consistency_above_chunk_matches_reference(on_null):
    run = run_of(ABOVE_CHUNK, n_grid=(50, 5000), theta_true=0.0 if on_null else 0.03, seed=5)
    assert outcome(consistency_simulation, run) == outcome(reference_consistency, run)


@pytest.mark.parametrize(
    "prior", [None, AlternativePrior.conjugate(1.0), AlternativePrior.conjugate(0.01)], ids=repr
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
    # t overflows to inf
    run_of(10, n_grid=(1,), theta_true=1e308, theta0=-1e308),
    # sigma^2 / n underflows to 0
    run_of(10, n_grid=(4,), sigma=1e-200),
    # (sigma^2 / n)^2 underflows to 0
    run_of(10, n_grid=(4,), sigma=1e-100),
    # (xbar - theta0)^2 and the variance squared both overflow: diff is nan
    run_of(10, n_grid=(1,), theta_true=1e160, sigma=1e100),
]
# xbar overflows in about one replicate in six, sigma^2 in all: whether the
# first replicate overflows decides which error comes first
FAILING_RUNS += [run_of(40, n_grid=(1, 2), theta_true=1.7e308, sigma=1e307, seed=s) for s in range(6)]


@pytest.mark.parametrize("run", FAILING_RUNS, ids=repr)
def test_failures_match_reference(run):
    assert outcome(consistency_simulation, run) == outcome(reference_consistency, run)
    for prior in (None, AlternativePrior.conjugate(1.0)):
        got = outcome(score_consistency_sim, run, prior)
        assert got == outcome(reference_score_consistency, run, prior)


def test_failure_runs_reach_every_error():
    errors = set()
    for run in FAILING_RUNS:
        for got in (
            outcome(consistency_simulation, run),
            outcome(score_consistency_sim, run),
            outcome(score_consistency_sim, run, AlternativePrior.conjugate(1.0)),
        ):
            if not isinstance(got, str):
                errors.add(got)
    assert errors == {
        (ValueError, "t must be finite"),
        (ValueError, "variance must be positive and finite"),
        (ValueError, "variance too small to score: its square underflows to 0"),
        (ValueError, "diff must equal s0 - s1"),
        (ValueError, "xbar must be finite"),
    }


@pytest.mark.parametrize("noncentrality", [math.inf, -math.inf, math.nan, 1.7976931348623157e308])
def test_uniformity_failures_match_reference(noncentrality):
    got = outcome(pvalue_uniformity_check, 3, 100, noncentrality=noncentrality)
    assert got == outcome(reference_uniformity, 3, 100, noncentrality)


def test_zero_standard_error_is_a_value_error():
    # the per-replicate loop divided by sem = 0 and ended in ZeroDivisionError
    run = run_of(10, n_grid=(10_000,), sigma=1e-322)
    assert outcome(reference_consistency, run)[0] is ZeroDivisionError
    with pytest.raises(ValueError, match=r"sigma/sqrt\(n\) underflows to 0 at n=10000"):
        consistency_simulation(run)


def test_both_sweeps_draw_through_sample_means():
    run = run_of(5, n_grid=(10, 1000), theta_true=0.1, seed=8)
    means = list(run.sample_means())
    assert [n for n, _, _ in means] == [10, 1000]
    for i, (n, sem, xbar) in enumerate(means):
        z = RngStream(8, stream_id=i).normals(5)
        assert sem == 1.0 / math.sqrt(n)
        assert xbar.tolist() == [0.1 + sem * float(v) for v in z]
