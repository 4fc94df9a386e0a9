"""Where the two verdicts split.

Crossing sample sizes at which the posterior reaches a target null
probability while the p-value stays significant, side-by-side verdict
tables, and seeded Monte Carlo checks of the large-n consistency story:
under the null the Bayes factor's median grows without bound while
p-values stay uniform, and off the null both measures collapse together.
Every sweep draws through ConsistencyRun.sweep, the one driver, which
imports numpy when it runs, as the p-value sweeps import their order
statistics from pointnull._order_stats: the closed forms load neither.
"""

import math
import sys
from typing import Callable, Iterable

from . import _EXPORTS
from ._record import Record
from .normal import HypothesisWeights, NormalProblem, TestReport, _finite, _frexp, _ldexp, _over_sem
from .normal import bayes_factor_lindley, log_bayes_factor_lindley, posterior_prob_null
# find_crossing has no caller here; the benchmark's tracer wraps paradox.find_crossing
# _SQRT2 is p_value's divisor, so the sweeps' p-values are the doubles it returns
from .numerics import _SQRT2, RngStream, find_crossing, p_value

__all__ = _EXPORTS["paradox"]

# Replicates whose Bayes factor falls below this count as collapsed in the
# consistency sweep; their p-values all lie below it too.
_COLLAPSE_TOL = 1e-6

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
    weights: HypothesisWeights = HypothesisWeights()
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


def paradox_table(query: ParadoxQuery, n_list: Iterable[int]) -> list[tuple[int, TestReport]]:
    """One report per sample size at the query's fixed t and alpha.

    The p-value column is constant by construction; rows where the
    frequentist rejects while the Bayes factor favors the null are the
    paradox zone (TestReport.paradoxical).
    """
    p = p_value(query.t)
    rows: list[tuple[int, TestReport]] = []
    for n in n_list:
        # as ConsistencyRun does for its grid, a float sample size is refused, not truncated
        if not hasattr(n, "__index__"):
            raise ValueError(f"n_list must hold integers, got {n!r}")
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
        if not hasattr(self.replications, "__index__"):
            raise ValueError(f"replications must be an integer, got {self.replications!r}")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError("sigma must be positive")
        if not (math.isfinite(self.theta_true) and math.isfinite(self.theta0)):
            raise ValueError("theta_true and theta0 must be finite")
        if not (hasattr(self.seed, "__index__") and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")

    def sweep(self, summarise: Callable) -> list:
        """summarise(n, t) for each grid point, in grid order, with t = z + c:
        z drawn from grid point i's own stream (seed, stream_id=i), and c the
        point's centre t, (theta_true - theta0) / sem on mantissas, refused by
        name beyond the doubles. No mean is formed, and z + c rounds to c long
        before it could overflow. t is built in the draws' own buffer, which
        summarise may reuse. Every sweep draws here, so the same seed gives
        identical draws."""
        import numpy as np

        summaries = []
        # a value beyond the doubles is +-inf and one with none nan, silently, as
        # Python floats were: each kind judges its own, and refuses by name
        with np.errstate(over="ignore", invalid="ignore"):
            for i, n in enumerate(self.n_grid):
                centre = NormalProblem(self.theta0, self.sigma, n, self.theta_true)
                exact = _over_sem(self.theta_true, self.theta0, centre)
                c = _finite(exact, "t", "theta_true", "theta0", "sigma", "n_grid")
                t = RngStream(self.seed, stream_id=i).normals(self.replications)
                t += c
                summaries.append(summarise(n, t))
        return summaries


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
    p_value over every replicate's t would give; a median log B01 beyond the
    doubles is refused by name. A grid point works in the one buffer its
    stream draws: t, |t| and x = |t|/sqrt(2) replace each other in place,
    and |t| is sorted there once. log B01 is even in t and never rises with
    |t|, exactly, and p falls as x grows, up to libm's rises. So log B01
    runs on |t|'s one or two middle ranks, and a replicate's factor is below
    1e-6 exactly where |t| >= a*, the first double at which the scalar
    kernel puts it there, which a binary search counts. math.erfc runs only
    where a p-value can change a summary: on a window around x's middle
    ranks, widened until no element outside it can sort among them, and on
    the narrow band of x around alpha's threshold.
    """
    from ._order_stats import _abs_t, _count_p_at_most, _erfc_band, _p_ranks

    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    alpha_band = _erfc_band(alpha)

    def summarise(n, t):
        a = _abs_t(t)
        # the t term is even in t and every step rounds monotonically, so
        # log B01 never rises with |t| and its middle ranks sit at |t|'s
        middle = a[(a.size - 1) // 2 : a.size // 2 + 1]
        median_log_bf = float(log_bayes_factor_lindley(middle, n).mean())
        if median_log_bf == -math.inf:  # -n t^2 / (2(1 + n)), on the largest middle t's mantissa
            e, top = _frexp(float(middle[-1]))[1], middle.tolist()
            q = sum(x * x for x in (_ldexp(v, -e) for v in top)) / len(top) / (2.0 + 2.0 / n)
            quantity = f"median log B01 at n={n}"
            median_log_bf = _finite((-q, 2 * e), quantity, "theta_true", "theta0", "sigma", "n_grid")
        collapsed = (a.size - int(a.searchsorted(_collapse_threshold(n)))) / a.size
        # the division rounds monotonically, so x stays sorted
        x = a
        x /= _SQRT2
        return ConsistencySummary(
            n=n,
            median_log_bf=median_log_bf,
            median_p_value=float(_p_ranks(x[::-1], (x.size - 1) // 2, x.size // 2).mean()),
            reject_rate=_count_p_at_most(x, alpha, alpha_band) / x.size,
            bf_collapse_rate=collapsed,
            joint_collapse_rate=collapsed,
        )

    return run.sweep(summarise)


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


def pvalue_uniformity_check(seed: int, replications: int, *, noncentrality: float = 0.0) -> float:
    """KS distance of simulated p-values from Uniform(0,1).

    Under the null (noncentrality 0) the t statistic is standard normal at
    every n, so the p-values are uniform and the distance small; a nonzero
    noncentrality shifts the draws off the null and drives the distance
    toward 1, the sanity inversion.

    The result is the double the two-sided KS distance of p_value over
    every draw gives, but math.erfc runs at the first rank of each block of
    64 ranks and at the last rank, then on windows around the few blocks
    whose bound can reach the maximum. The draws' buffer is the only array
    of their size: the shift, |t|, its one sort and the division by sqrt(2)
    all happen in it.
    """
    if replications < 100:
        raise ValueError("replications must be at least 100")
    if not math.isfinite(noncentrality):
        raise ValueError("noncentrality must be finite")
    from ._order_stats import _abs_t, _ks_distance_p

    def ks_distance(n, t):
        x = _abs_t(t)
        x /= _SQRT2
        return _ks_distance_p(x)

    # one grid point, n = 1 at sigma 1 about theta0 0, whose centre t is noncentrality exactly
    return ConsistencyRun(noncentrality, 0.0, 1.0, (1,), replications, seed).sweep(ks_distance)[0]
