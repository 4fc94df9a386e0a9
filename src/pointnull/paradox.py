"""Where the two verdicts split.

Crossing sample sizes at which the posterior reaches a target null
probability while the p-value stays significant, the Bayes factor's
minimum over n, side-by-side verdict tables, and seeded Monte Carlo checks
of the large-n consistency story: under the null the Bayes factor's median
grows without bound while p-values stay uniform, and off the null both
measures collapse together.
"""

import math
import sys
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from . import _EXPORTS
from ._record import Record
from .normal import (
    EQUAL_WEIGHTS,
    HypothesisWeights,
    TestReport,
    bayes_factor_lindley,
    log_bayes_factor_lindley,
    p_value,
    posterior_prob_null,
)
# find_crossing has no caller here; the benchmark's tracer wraps paradox.find_crossing
# _SQRT2 is p_value's divisor, so the sweeps' p-values are the doubles it returns
from .numerics import _SQRT2, RngStream, find_crossing

if TYPE_CHECKING:
    # numpy itself is imported inside the sweep functions, the only ones
    # that use arrays, so the closed forms load without it
    import numpy as np

__all__ = _EXPORTS["paradox"]

# Replicates whose Bayes factor falls below this count as collapsed in the
# consistency sweep; their p-values all lie below it too.
_COLLAPSE_TOL = 1e-6

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

# The medians read ranks (n-1)//2 and n//2 with this many ranks of margin
# on each side.
_MEDIAN_MARGIN = 8

# math.erfc is mapped over at most this many elements at a time, so no list
# of Python floats as long as the sweep is ever built.
_ERFC_CHUNK = 1 << 16

# Integer threshold comparisons happen in log units with this slack so that
# exact-odds targets (t=0 with posterior target .95 means sqrt(1+n) = 19 at
# exactly n=360) land on the closed-form integer instead of one past it.
# The nearest genuine misses sit ~1e-3 log units away, nine orders clear.
_LOG_SLACK = 1e-12

# Largest crossing reported: every integer up to 2^53 is exact as a double.
_MAX_EXACT_N = 2**53


class UnreachableTargetError(RuntimeError):
    """The required Bayes factor never rises to the requested target."""


class ParadoxQuery(Record):
    """A fixed t statistic plus the posterior target the null must reach."""

    t: float
    target_post_prob: float = 0.95
    weights: HypothesisWeights = EQUAL_WEIGHTS
    alpha: float = 0.05

    def __post_init__(self) -> None:
        if not math.isfinite(self.t):
            raise ValueError("t must be finite")
        if not 0.0 < self.target_post_prob < 1.0:
            raise ValueError("target_post_prob must lie strictly between 0 and 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")


def _logit(p: float) -> float:
    return math.log(p) - math.log1p(-p)


def log_required_bf(query: ParadoxQuery) -> float:
    """Log Bayes factor needed for the posterior to reach the target."""
    return _logit(query.target_post_prob) - _logit(query.weights.rho0)


def required_bf(query: ParadoxQuery) -> float:
    return math.exp(log_required_bf(query))


def crossing_sample_size(query: ParadoxQuery) -> int:
    """Smallest n on the increasing branch where the posterior holds the target.

    The Bayes factor at fixed t falls until n = t^2 - 1 and rises forever
    after, so the crossing is defined on that increasing branch; the
    condition then holds for every larger n. Found over Python ints by
    doubling from the branch's first integer up to 2^53, then bisecting (at
    most 110 Bayes factors). Raises UnreachableTargetError when the crossing
    lies above 2^53, or when the required factor never clears the minimum
    over integer n (which also covers targets so low they hold everywhere).

    The integer is exact through about 1e12. Above that, float rounding of
    log B01 and the 1e-12 log slack (worth about 2e-12 n integers) can move
    it: t = 5.5 gives 4953535496854869, not necessarily the exact crossing.
    """
    t = abs(query.t)
    log_c = log_required_bf(query)

    def reaches(n: int) -> bool:
        return log_bayes_factor_lindley(t, n) >= log_c - _LOG_SLACK

    # first, so an overflowing t*t never reaches math.floor below
    if not reaches(_MAX_EXACT_N):
        raise UnreachableTargetError(
            f"unreachable target: at |t| = {t:.6g} the crossing sample size lies "
            f"above 2^53 = {_MAX_EXACT_N}, past the integers a double holds exactly"
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
    # hi always reaches; lo fails, or equals hi when the branch starts reached
    lo = hi = max(1, math.ceil(n_star))
    while not reaches(hi):
        lo, hi = hi, min(2 * hi, _MAX_EXACT_N)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if reaches(mid) else (mid, hi)
    return hi


def bf_branch_minimum(t: float) -> tuple[float, float]:
    """Sample size minimizing the Bayes factor at fixed t, with its value.

    Interior minimum (t^2 - 1, |t| e^{-(t^2-1)/2}) for |t| > 1; at or below
    |t| = 1 the factor already rises at the n >= 1 boundary, so the pair is
    (1, value there).
    """
    a = abs(t)
    if a <= 1.0:
        return 1.0, bayes_factor_lindley(t, 1)
    return a * a - 1.0, a * math.exp(-(a * a - 1.0) / 2.0)


def paradox_table(query: ParadoxQuery, n_list: Iterable[int]) -> list[tuple[int, TestReport]]:
    """One report per sample size at the query's fixed t and alpha.

    The p-value column is constant by construction; rows where the
    frequentist rejects while the Bayes factor favors the null are the
    paradox zone (TestReport.paradoxical).
    """
    p = p_value(query.t)
    rows: list[tuple[int, TestReport]] = []
    for n in n_list:
        n = int(n)
        bf = bayes_factor_lindley(query.t, n)
        post = posterior_prob_null(bf, query.weights)
        rows.append((n, TestReport(query.t, p, bf, post, query.alpha)))
    return rows


class ConsistencyRun(Record):
    """Seeded Monte Carlo sweep over sample sizes.

    theta_true equal to theta0 exercises the null regime; anything else
    exercises the alternative. One independent stream per grid point keeps
    the outputs bit-identical however the work is scheduled.
    """

    theta_true: float
    theta0: float
    sigma: float
    n_grid: tuple[int, ...]
    replications: int
    seed: int

    def __post_init__(self) -> None:
        # as RngStream does for its seed, a float grid point is refused, not truncated
        n_grid = tuple(self.n_grid)
        if not all(hasattr(n, "__index__") for n in n_grid):
            raise ValueError(f"n_grid must hold integers, got {n_grid!r}")
        object.__setattr__(self, "n_grid", tuple(map(int, n_grid)))
        if not self.n_grid:
            raise ValueError("n_grid must be non-empty")
        if self.n_grid[0] < 1:
            raise ValueError("sample sizes must be at least 1")
        if max(self.n_grid) > sys.float_info.max:
            raise ValueError(f"sample sizes must be at most the largest float, {sys.float_info.max:.6g}")
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ValueError("n_grid must be strictly increasing")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError("sigma must be positive")
        if not (math.isfinite(self.theta_true) and math.isfinite(self.theta0)):
            raise ValueError("theta_true and theta0 must be finite")
        if not (hasattr(self.seed, "__index__") and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")

    def sample_means(self) -> Iterator[tuple[int, float, "np.ndarray"]]:
        """(n, sem, xbar) for each grid point, in grid order.

        xbar holds the replicates' sample means theta_true + sem * z, with z
        drawn from grid point i's own stream (seed, stream_id=i), built in the
        draws' own buffer, which the caller may reuse. Every sweep over a run
        draws through here, so the same seed gives identical draws.
        """
        import numpy as np

        for i, n in enumerate(self.n_grid):
            stream = RngStream(self.seed, stream_id=i)
            sem = self.sigma / math.sqrt(n)
            xbar = stream.normals(self.replications)
            with np.errstate(over="ignore"):
                xbar *= sem
                xbar += self.theta_true
            yield n, sem, xbar


class ConsistencySummary(Record):
    """Per-sample-size aggregates of one consistency sweep."""

    n: int
    median_log_bf: float
    median_p_value: float
    reject_rate: float
    bf_collapse_rate: float
    joint_collapse_rate: float


def consistency_simulation(run: ConsistencyRun, *, alpha: float = 0.05) -> list[ConsistencySummary]:
    """Summarize Bayes factors and p-values across the grid, seed-determined.

    bf_collapse_rate counts replicates with BF below 1e-6;
    joint_collapse_rate additionally requires the p-value below it, the
    both-measures-agree reading of consistency under the alternative. Every
    replicate whose BF collapses meets that too, at every n (a*/sqrt(2) is
    at least 4.01, past where erfc falls below 1e-6, about 3.46), so the
    two rates are one count.

    Each summary is the double that mapping log_bayes_factor_lindley and
    p_value over every replicate would give. A grid point works in the one
    buffer its stream draws: xbar, t, |t| and x = |t|/sqrt(2) replace each
    other in place. One partition of |t| puts its middle ranks in place,
    and both medians read them there: log B01 is even in t and never rises
    with |t|, exactly, and p falls as x grows, up to libm's rises. So log
    B01 runs on |t|'s one or two middle ranks, and a replicate's factor is
    below 1e-6 exactly where |t| >= a*, the first double at which the
    scalar kernel puts it there. math.erfc runs only where a p-value can
    change a summary: on x's middle ranks (on every replicate if one
    outside them might sort among them, as ties can), and on a narrow band
    of |t| around alpha's threshold.
    """
    import numpy as np

    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    alpha_band = _erfc_band(alpha)
    summaries = []
    for n, sem, t in run.sample_means():
        if sem == 0.0:
            raise ValueError(f"the standard error sigma/sqrt(n) underflows to 0 at n={n}")
        # t may overflow to inf, which _abs_t refuses; Python float
        # arithmetic never warned about it, so numpy must not either
        with np.errstate(over="ignore"):
            t -= run.theta0
            t /= sem
        a = _abs_t(t)
        _sort_middle(a)
        # the t term is even in t and every step rounds monotonically, so
        # log B01 never rises with |t| and its middle ranks sit at |t|'s
        with np.errstate(over="ignore"):
            middle_log_bfs = log_bayes_factor_lindley(a[(a.size - 1) // 2 : a.size // 2 + 1], n)
        collapsed = int(np.count_nonzero(a >= _collapse_threshold(n))) / a.size
        x = a
        x /= _SQRT2
        summaries.append(
            ConsistencySummary(
                n=n,
                median_log_bf=_median(middle_log_bfs),
                median_p_value=_median_p(x),
                reject_rate=_count_p_at_most(x, alpha, alpha_band) / x.size,
                bf_collapse_rate=collapsed,
                joint_collapse_rate=collapsed,
            )
        )
    return summaries


def _collapse_threshold(n: int) -> float:
    """a*: the first double |t| at which log_bayes_factor_lindley(|t|, n)
    falls below log 1e-6, from the closed form, then settled on the doubles."""
    log_tol = math.log(_COLLAPSE_TOL)
    a_star = math.sqrt((0.5 * math.log1p(n) - log_tol) * 2.0 * (1.0 + 1.0 / n))
    while log_bayes_factor_lindley(a_star, n) < log_tol:
        a_star = math.nextafter(a_star, 0.0)
    while not log_bayes_factor_lindley(a_star, n) < log_tol:
        a_star = math.nextafter(a_star, math.inf)
    return a_star


def uniform_ks_distance(values: Sequence[float]) -> float:
    """Two-sided Kolmogorov-Smirnov distance against Uniform(0,1)."""
    import numpy as np

    v = np.sort(np.asarray(values, dtype=float))
    if v.size == 0:
        raise ValueError("need at least one value")
    # the sort puts any nan last, where the upper check refuses it
    if not (v[0] >= 0.0 and v[-1] <= 1.0):
        raise ValueError("values must lie in [0, 1]")
    steps = np.arange(1, v.size + 1, dtype=float) / v.size
    return float(np.maximum(steps - v, v - (steps - 1.0 / v.size)).max())


def pvalue_uniformity_check(seed: int, replications: int, *, noncentrality: float = 0.0) -> float:
    """KS distance of simulated p-values from Uniform(0,1).

    Under the null (noncentrality 0) the t statistic is standard normal at
    every n, so the p-values are uniform and the distance small; a nonzero
    noncentrality shifts the draws off the null and drives the distance
    toward 1, the sanity inversion.

    The result is the double uniform_ks_distance gives on p_value of every
    draw, but math.erfc runs at the ends of each block of 64 ranks and on
    windows around the few blocks whose bound can reach the maximum. The
    draws' buffer is the only array of their size: the shift, |t|, the
    division by sqrt(2) and the sort all happen in it.
    """
    if replications < 100:
        raise ValueError("replications must be at least 100")
    t = RngStream(seed).normals(replications)
    t += noncentrality
    x = _abs_t(t)
    x /= _SQRT2
    return _ks_distance_p(x)


# The helpers below take x = |t|/sqrt(2), so that p = erfc(x) is p_value(t).


def _abs_t(t: "np.ndarray") -> "np.ndarray":
    """|t| elementwise, in place, refused unless every t is finite."""
    import numpy as np

    a = np.abs(t, out=t)
    # a nan fails this comparison too, and no boolean array of t's size is built
    if not a.max() < math.inf:
        raise ValueError("t must be finite")
    return a


def _erfc_slack(p: float) -> float:
    """How far math.erfc can rise above p = erfc(x1) at any x2 >= x1."""
    return max(p * _ERFC_SLACK, _ERFC_SLACK_FLOOR)


def _exact_p(x: "np.ndarray") -> "np.ndarray":
    """math.erfc of each element, one exact libm call each, rather than any
    vectorised erfc whose last bits could differ from p_value's."""
    import numpy as np

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


def _count_p_at_most(x: "np.ndarray", level: float, band: tuple[float, float]) -> int:
    """How many elements have erfc(x) <= level; erfc runs only inside band = _erfc_band(level)."""
    import numpy as np

    x_lo, x_hi = band
    undecided = x[(x > x_lo) & (x < x_hi)]
    return int(np.count_nonzero(x >= x_hi)) + int(np.count_nonzero(_exact_p(undecided) <= level))


def _settled_ranks(window: "np.ndarray", lo: int, hi: int, above: bool, below: bool) -> "np.ndarray | None":
    """Ranks lo..hi of the sorted erfc(window), or None when an element
    outside the window might sort among them.

    window[0] must be the window's largest x and window[-1] its smallest.
    above (below) says some element outside has x >= window[0]
    (x <= window[-1]): by the slack bound its p is at most
    erfc(window[0]) + _erfc_slack of it (at least erfc(window[-1]) less
    _erfc_slack of it), which must not pass the ranks' values for them to
    be ranks of the whole array. The slack is relative to p, so p-values
    far off the null, packed far closer than 2^-40, still settle.
    """
    import numpy as np

    p = _exact_p(window)
    ranks = np.sort(p)[lo : hi + 1]
    if above and p[0] + _erfc_slack(p[0]) > ranks[0]:
        return None
    if below and p[-1] - _erfc_slack(p[-1]) < ranks[-1]:
        return None
    return ranks


def _median_window(n: int) -> tuple[int, int]:
    """(lo, hi): ranks lo..hi-1 of n values hold the median ranks
    (n-1)//2 and n//2 with _MEDIAN_MARGIN ranks each side, or all n."""
    return max(0, (n - 1) // 2 - _MEDIAN_MARGIN), min(n, n // 2 + _MEDIAN_MARGIN + 1)


def _sort_middle(a: "np.ndarray") -> None:
    """Partition a in place so that a[lo:hi] holds a's ranks lo..hi-1 in
    ascending order, for (lo, hi) = _median_window(a.size)."""
    lo, hi = _median_window(a.size)
    if hi - lo < a.size:
        # one kth at a time: numpy partitions at two kth five times slower
        a.partition(lo)
        a[lo:].partition(hi - 1 - lo)
    a[lo:hi].sort()


def _median_p(x: "np.ndarray") -> float:
    """np.median of erfc(x), as the same double, from erfc on x's middle ranks.

    x must have been through _sort_middle. erfc falls as x grows, so p's
    middle ranks are x's middle ranks mirrored, and erfc runs on those with
    their margin. Where that window is not settled (an element outside
    might sort inside it, as ties can) erfc maps the whole array instead.
    """
    n = x.size
    lo, hi = _median_window(n)
    # reversed, so the window's largest x comes first; the n - hi elements
    # above the window hold p's lowest ranks
    middle = _settled_ranks(
        x[lo:hi][::-1], (n - 1) // 2 - (n - hi), n // 2 - (n - hi), above=hi < n, below=lo > 0
    )
    return _median(_exact_p(x) if middle is None else middle)


def _median(v: "np.ndarray") -> float:
    """np.median of v, which holds no nan, as the same double: the mean of
    its one or two middle ranks. np.median's nan check imports numpy.ma."""
    k = ((v.size - 1) // 2, v.size // 2)
    v.partition(k)
    return float(v[k[0] : k[1] + 1].mean())


def _ks_distance_p(x: "np.ndarray") -> float:
    """uniform_ks_distance of erfc(x), as the same double; sorts x in place.

    With x sorted descending, p's k-th smallest value lies within the slack
    of erfc(x[k]). erfc at the two ends of each block of ranks then bounds
    every block's KS term from above and the maximum from below; only the
    blocks whose bound reaches the maximum get exact order statistics.
    """
    import numpy as np

    n = x.size
    x.sort()
    xd = x[::-1]
    starts = np.arange(0, n, _KS_BLOCK)
    ends = np.minimum(starts + (_KS_BLOCK - 1), n - 1)
    q0, q1 = _exact_p(xd[starts]), _exact_p(xd[ends])
    # the term at rank k is max((k+1)/n - v_k, v_k - k/n); the second
    # slack covers the rounding of these bounds
    margin = 2.0 * _ERFC_SLACK
    upper = np.maximum((ends + 1) / n - q0, q1 - starts / n) + margin
    lower = max(
        np.maximum((starts + 1) / n - q0, q0 - starts / n).max(),
        np.maximum((ends + 1) / n - q1, q1 - ends / n).max(),
    ) - margin
    blocks = np.flatnonzero(upper >= lower)
    gaps = np.flatnonzero(np.diff(blocks) > 1)
    best = 0.0
    for b0, b1 in zip(blocks[np.r_[0, gaps + 1]], blocks[np.r_[gaps, blocks.size - 1]]):
        i, j = int(starts[b0]), int(ends[b1])
        margin_ranks = _KS_BLOCK
        while True:
            a, b = max(0, i - margin_ranks), min(n - 1, j + margin_ranks)
            v = _settled_ranks(xd[a : b + 1], i - a, j - a, above=a > 0, below=b < n - 1)
            if v is not None:
                break
            margin_ranks *= 8
        steps = np.arange(i + 1, j + 2, dtype=float) / n
        best = max(best, float(np.maximum(steps - v, v - (steps - 1.0 / n)).max()))
    return best
