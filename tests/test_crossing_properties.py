"""Property test: every crossing query ends quickly, exact or refused."""

from datetime import timedelta

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from pointnull.normal import HypothesisWeights, log_bayes_factor_lindley  # noqa: E402
from pointnull.paradox import (  # noqa: E402
    ParadoxQuery,
    UnreachableTargetError,
    crossing_sample_size,
    log_required_bf,
)

# the narrow ranges give a share of the draws (about a sixth) a crossing to
# check rather than a refusal
T = st.floats(-6.0, 6.0) | st.floats(-1e6, 1e6) | st.sampled_from(
    [1e154, -1e154, 1.7e308, -1.7e308]
)
OPEN_UNIT = st.floats(0.01, 0.99) | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@settings(max_examples=400, deadline=timedelta(milliseconds=200), derandomize=True, database=None)
@given(T, OPEN_UNIT, OPEN_UNIT)
def test_crossing_is_exact_or_refused(t, target, rho0):
    query = ParadoxQuery(t=t, target_post_prob=target, weights=HypothesisWeights(rho0))
    try:
        n = crossing_sample_size(query)
    except UnreachableTargetError as exc:
        assert str(exc).startswith("unreachable target: ") and "\n" not in str(exc)
        return
    log_c = log_required_bf(query)

    def reaches(m):
        return log_bayes_factor_lindley(t, m) >= log_c - 1e-12

    assert type(n) is int and 1 <= n <= 2**53
    assert reaches(n)
    if n - 1 >= max(1.0, t * t - 1.0):
        assert not reaches(n - 1)
