"""The integer crossing search against the float-root implementation it replaced.

crossing_sample_size searches Python ints by doubling and bisection. The
function below is the implementation it replaced: a float root from
find_crossing, rounded up, then walked one integer at a time in each
direction. Wherever that walk ends (every crossing below 1e14 here), both
must give the same int, or raise the same exception type with the same
message.
"""

import math
import sys

import numpy as np
import pytest

from pointnull import paradox
from pointnull.normal import HypothesisWeights, log_bayes_factor_lindley
from pointnull.numerics import find_crossing
from pointnull.paradox import (
    ParadoxQuery,
    UnreachableTargetError,
    crossing_sample_size,
    log_required_bf,
)

_LOG_SLACK = paradox._LOG_SLACK


def reference_crossing(query):
    # find_crossing's fixed tolerance is the 1e-13 this call once passed as tol=
    t = abs(query.t)
    log_c = log_required_bf(query)
    # n/(1+n) rounds to 1 at the largest float n, so this is log B01 there; the
    # branch rises, so a target above it is crossed only beyond the float range
    if 0.5 * math.log1p(sys.float_info.max) - 0.5 * t * t < log_c:
        raise UnreachableTargetError(
            f"unreachable target: at |t| = {t:.6g} the crossing sample size lies "
            f"beyond the float range (above {sys.float_info.max:.6g})"
        )
    n_star = t * t - 1.0
    candidates = {1.0}
    if n_star > 1.0:
        candidates.update((math.floor(n_star), math.ceil(n_star)))
    floor_log_bf = min(log_bayes_factor_lindley(t, n) for n in candidates)
    if log_c <= floor_log_bf:
        raise UnreachableTargetError(
            f"unreachable target: required Bayes factor {math.exp(log_c):.6g} does not "
            f"exceed the minimum {math.exp(floor_log_bf):.6g} over sample sizes"
        )
    branch_lo = max(1.0, n_star)
    root = find_crossing(lambda n: log_bayes_factor_lindley(t, n), log_c, branch_lo)
    n = max(1, math.ceil(root - 1e-9))
    while log_bayes_factor_lindley(t, n) < log_c - _LOG_SLACK:
        n += 1
    while n - 1 >= branch_lo and log_bayes_factor_lindley(t, n - 1) >= log_c - _LOG_SLACK:
        n -= 1
    return n


def outcome(solve, query):
    try:
        return solve(query)
    except UnreachableTargetError as exc:
        return type(exc), str(exc)


def seeded_queries(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield ParadoxQuery(
            t=float(rng.uniform(-4.0, 4.0)),
            target_post_prob=float(rng.uniform(0.5, 0.99)),
            weights=HypothesisWeights(float(rng.uniform(0.05, 0.95))),
        )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_matches_reference_below_1e14(seed):
    answers = refusals = 0
    for query in seeded_queries(seed, 2000):
        got = outcome(crossing_sample_size, query)
        assert got == outcome(reference_crossing, query), query
        if isinstance(got, int):
            assert got < 1e14
            answers += 1
        else:
            refusals += 1
    # both kinds of outcome are exercised
    assert answers >= 1000 and refusals >= 100


@pytest.mark.parametrize("t", [1.96, -2.5, 3.9, 0.0])
def test_matches_reference_at_the_slack_targets(t):
    # targets whose required factor is a crossing's own Bayes factor, so the
    # 1e-12 log slack decides the answer
    for n in (2, 17, 360, 16818, 10**6, 10**12):
        if n < t * t - 1.0:
            continue
        for nudge in (-1e-13, 0.0, 1e-13):
            log_c = log_bayes_factor_lindley(t, n) + nudge
            query = ParadoxQuery(t=t, target_post_prob=1.0 / (1.0 + math.exp(-log_c)))
            assert outcome(crossing_sample_size, query) == outcome(reference_crossing, query)
