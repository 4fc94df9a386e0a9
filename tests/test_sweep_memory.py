"""Peak memory of the p-value sweeps, as tracemalloc counts it.

numpy reports its array buffers to tracemalloc, so the traced peak during a
sweep is, to within a few kilobytes, the arrays it holds at once. Each grid
point of a sweep works in the one buffer its stream draws (8 bytes per
replicate); these bounds fail if a second array of that size comes back.
"""

import tracemalloc

import numpy as np
import pytest
from ks_reference import uniform_ks_distance

from pointnull import _order_stats
from pointnull.paradox import (
    ConsistencyRun,
    consistency_simulation,
    pvalue_uniformity_check,
)


def peak_mb(fn, *args, **kwargs):
    """Largest traced allocation, in MB, above what was live when fn started.

    Callers run a small sweep first, so the modules numpy loads lazily on
    first use are not counted.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return (tracemalloc.get_traced_memory()[1] - before) / 1e6
    finally:
        if started:
            tracemalloc.stop()


def consistency_run(reps, theta_true):
    return ConsistencyRun(
        theta_true=theta_true,
        theta0=0.0,
        sigma=1.0,
        n_grid=(100, 1000, 10000),
        replications=reps,
        seed=3,
    )


def test_uniformity_holds_one_array_of_the_draws():
    pvalue_uniformity_check(1, 1000, noncentrality=0.3)
    # the 1e6 draws take 8 MB; a copy of them (as |t| or a sorted x) would
    # take the peak past 16 MB. 8.52 MB measured with numpy 2.4 over seeds
    # 1, 5 and 9 at noncentrality 0, 0.3 and 1: the draws and the KS step's
    # four arrays of one double per block of 64 ranks, freed before any
    # window gets erfc. Keeping them alive through the windows would take
    # it to about 8.75 MB.
    assert peak_mb(pvalue_uniformity_check, 5, 1_000_000, noncentrality=0.3) < 8.7


@pytest.mark.parametrize("noncentrality", [0.0, 0.3])
def test_uniformity_maps_erfc_once_over_the_block_starts(noncentrality, monkeypatch):
    sizes = []
    exact_p = _order_stats._exact_p

    def recording(x):
        sizes.append(x.size)
        return exact_p(x)

    monkeypatch.setattr(_order_stats, "_exact_p", recording)
    n = 1_000_000
    pvalue_uniformity_check(5, n, noncentrality=noncentrality)
    # the first rank of each of the n/64 blocks, and the last rank; the
    # windows around the candidate blocks are all shorter
    assert [size for size in sizes if size >= n / 64] == [n // 64 + 1]


def test_consistency_holds_few_arrays_of_the_draws():
    # 1.6 MB on the null and off it, measured with numpy 2.4 at 0.8 MB per
    # array of 1e5 doubles: the buffer and the previous grid point's buffer,
    # which the loop still names while the next one is drawn. |t| is sorted
    # in place, so the counts are binary searches and build no mask. log B01
    # runs on the middle ranks only; an array of it over every replicate
    # would break the bound.
    for theta_true in (0.0, 0.3):
        consistency_simulation(consistency_run(1000, theta_true))
        assert peak_mb(consistency_simulation, consistency_run(100_000, theta_true)) < 2.0


def test_uniform_ks_distance_leaves_its_input_alone():
    values = np.random.default_rng(3).random(1001)
    before = values.copy()
    uniform_ks_distance(values)
    assert np.array_equal(values, before)
