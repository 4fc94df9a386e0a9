"""The order-statistics engine of paradox's p-value sweeps.

consistency_simulation and pvalue_uniformity_check import it when they run,
as they import numpy, so that no other call compiles it. _abs_t sorts |t|
once; the other helpers take x = |t|/sqrt(2), so that p = erfc(x) is
p_value(t), and run math.erfc only where a p-value can change the answer.
"""

import math
from typing import Callable

import numpy as np

# math.erfc falls as its argument grows, apart from one-ulp rises in libm
# (the largest known is 1.8e-16 of p, near x = 1.25): for x1 <= x2,
# erfc(x2) <= erfc(x1) + _erfc_slack(erfc(x1)), which is _ERFC_SLACK times
# p, and never less than _ERFC_SLACK_FLOOR, since a subnormal p's ulp is
# large relative to p. As p <= 1, _ERFC_SLACK is also an absolute bound.
# Every sweep decision taken from x = |t|/sqrt(2) alone holds with this
# margin; a test in tests/test_sweep_reference.py fails loudly on a libm
# that breaks it.
_ERFC_SLACK = 2.0**-40
_ERFC_SLACK_FLOOR = 2.0**-1062

# math.erfc is exactly 0.0 from here on.
_ERFC_ZERO = 30.0

# The KS step bounds p's order statistics in blocks of this many ranks.
_KS_BLOCK = 64

# p's exact order statistics are read with this many ranks of margin on each
# side of the ranks sought, widened eightfold until they settle.
_RANK_MARGIN = 8

# math.erfc is mapped over at most this many elements at a time, so no list
# of Python floats longer than 4096 (128 KB with its floats) is ever built.
_ERFC_CHUNK = 1 << 12


def _abs_t(t: np.ndarray) -> np.ndarray:
    """|t| elementwise, sorted ascending, in place; refused unless every t is
    finite. The one sort of both p-value sweeps."""
    a = np.abs(t, out=t)
    a.sort()
    # the sort puts any nan last, where this comparison fails too
    if not a[-1] < math.inf:
        raise ValueError("t must be finite")
    return a


def _erfc_slack(p: float) -> float:
    """How far math.erfc can rise above p = erfc(x1) at any x2 >= x1."""
    return max(p * _ERFC_SLACK, _ERFC_SLACK_FLOOR)


def _exact_p(x: np.ndarray) -> np.ndarray:
    """math.erfc of each element, one exact libm call each, rather than any
    vectorised erfc whose last bits could differ from p_value's."""
    p = np.empty(x.size)
    for lo in range(0, x.size, _ERFC_CHUNK):
        chunk = x[lo : lo + _ERFC_CHUNK]
        p[lo : lo + chunk.size] = np.fromiter(map(math.erfc, chunk.tolist()), float, chunk.size)
    return p


def _erfc_band(level: float) -> tuple[float, float]:
    """(x_lo, x_hi) with erfc(x) > level for every x <= x_lo and
    erfc(x) < level for every x >= x_hi.

    Bisected with math.erfc to erfc(x_lo) > level + slack and
    erfc(x_hi) < level - slack, so the bounds hold through libm's rises.
    """

    def last_true(holds: Callable[[float], bool]) -> tuple[float, float]:
        # holds(0.0) is true and holds(_ERFC_ZERO) false; ends on adjacent doubles
        a, b = 0.0, _ERFC_ZERO
        while a < (m := 0.5 * (a + b)) < b:
            a, b = (m, b) if holds(m) else (a, m)
        return a, b

    up, down = level + _ERFC_SLACK, level - _ERFC_SLACK
    x_lo = last_true(lambda x: math.erfc(x) > up)[0] if math.erfc(0.0) > up else -math.inf
    x_hi = last_true(lambda x: math.erfc(x) >= down)[1] if down > 0.0 else math.inf
    return x_lo, x_hi


def _count_p_at_most(x: np.ndarray, level: float, band: tuple[float, float]) -> int:
    """How many elements of x, sorted ascending, have erfc(x) <= level; erfc
    runs only inside band = _erfc_band(level)."""
    # x[lo:hi] is the band's inside, x > x_lo and x < x_hi; x[hi:] is at or past x_hi
    lo, hi = int(x.searchsorted(band[0], "right")), int(x.searchsorted(band[1]))
    return x.size - hi + int(np.count_nonzero(_exact_p(x[lo:hi]) <= level))


def _p_ranks(xd: np.ndarray, i: int, j: int) -> np.ndarray:
    """Ranks i..j of the sorted erfc(xd), for xd sorted descending.

    erfc falls as x grows, so p's ranks sit at xd's, up to libm's rises.
    erfc runs on xd's ranks a..b, _RANK_MARGIN ranks each side of i..j at
    first, widened eightfold until no element outside can sort among the
    ranks: by the slack bound an element before the window, with x >= xd[a],
    has p at most erfc(xd[a]) plus _erfc_slack of it, and one after it has p
    at least erfc(xd[b]) less _erfc_slack of it. The slack is relative to p,
    so p-values far off the null, packed far closer than 2^-40, still
    settle; the whole array always does.
    """
    n, margin = xd.size, _RANK_MARGIN
    while True:
        a, b = max(0, i - margin), min(n - 1, j + margin)
        p = _exact_p(xd[a : b + 1])
        ranks = np.sort(p)[i - a : j - a + 1]
        if (a == 0 or p[0] + _erfc_slack(p[0]) <= ranks[0]) and (
            b == n - 1 or p[-1] - _erfc_slack(p[-1]) >= ranks[-1]
        ):
            return ranks
        margin *= 8


def _ks_distance_p(x: np.ndarray) -> float:
    """The two-sided KS distance of erfc(x) from Uniform(0,1), for x sorted
    ascending: the largest max((k+1)/n - p_k, p_k - k/n) over p's sorted
    values p_k.

    With x sorted descending, p's k-th smallest value lies within the slack
    of erfc(x[k]). erfc at the first rank of each block of ranks, and at the
    last rank, then bounds every block's KS term from above and the maximum
    from below; only the blocks whose bound reaches the maximum get exact
    order statistics.
    """
    n = x.size
    xd = x[::-1]
    blocks = _ks_candidate_blocks(xd)
    gaps = np.flatnonzero(np.diff(blocks) > 1)
    best = 0.0
    for b0, b1 in zip(blocks[np.r_[0, gaps + 1]], blocks[np.r_[gaps, blocks.size - 1]]):
        i, j = int(b0) * _KS_BLOCK, min((int(b1) + 1) * _KS_BLOCK, n) - 1
        v = _p_ranks(xd, i, j)
        steps = np.arange(i + 1, j + 2, dtype=float) / n
        best = max(best, float(np.maximum(steps - v, v - (steps - 1.0 / n)).max()))
    return best


def _ks_candidate_blocks(xd: np.ndarray) -> np.ndarray:
    """The blocks b, holding ranks 64b to 64b+63 of xd (sorted descending),
    whose KS term of erfc(xd) can reach the largest.

    Its arrays of one double per block are freed on return, before any
    block's window gets erfc.
    """
    n = xd.size
    # q[b] is erfc at rank 64b, the first of block b, and q[-1] at rank n-1,
    # so block b's p-values lie between q[b] and q[b+1], up to the slack
    q = _exact_p(np.append(xd[::_KS_BLOCK], xd[-1]))
    starts = np.arange(0, n, _KS_BLOCK, dtype=float)
    starts /= n
    # the term at rank k is max((k+1)/n - v_k, v_k - k/n); the exact terms
    # at the block starts and at the last rank bound the maximum from below
    d = q[:-1] - starts
    lower = max(d.max(), 1.0 / n - d.min(), 1.0 - q[-1], q[-1] - (n - 1) / n)
    # a block spans at most 64 ranks, so its terms are at most 64/n - d[b]
    # and q[b+1] - starts[b], up to the slack
    upper = q[1:] - starts
    np.maximum(upper, np.subtract(_KS_BLOCK / n, d, out=d), out=upper)
    # each bound may be off by the slack, and by the rounding of its terms,
    # which a second slack covers: two slacks on each side, moved onto the
    # scalar so that no other array of the blocks' size is made
    return np.flatnonzero(upper >= lower - 4.0 * _ERFC_SLACK)
