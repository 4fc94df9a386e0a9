"""The replicate a sweep refuses, named by the sweep's flags and its size.

consistency_simulation and score_consistency_sim import this module only
when a replicate has left the doubles, so no answering call compiles it.
By then a sweep has sorted or scaled its draws in place, so the refused
grid point is drawn again through the sweep driver, which makes every
stream, and the first replicate the sweep refuses, in draw order, is the
one named. Each runs inside a summary, under the driver's errstate.
"""

import math

import numpy as np

from .normal import AlternativePrior, NormalProblem, _difference, _finite, _frexp, _ldexp, _over_sem
from .paradox import ConsistencyRun

# the flags a replicate's t, and its null penalty, come from
_FLAGS = "--theta-true, --theta0, --sigma and --n-grid"


def _draws(run: ConsistencyRun, n: int) -> "np.ndarray":
    """Grid point n's standard normals z, in draw order: the grid up to n
    drawn again at sem = 1 about 0, where the driver's means are z itself."""
    grid = run.n_grid[: run.n_grid.index(n) + 1]
    again = ConsistencyRun(0.0, 0.0, math.sqrt(n), grid, run.replications, run.seed)
    return again.sweep(lambda m, sem, z: z if m == n else None)[-1]


def _mean(run: ConsistencyRun, n: int, j: int, z: float) -> float:
    """Replicate j's mean theta_true + sem z, the double the driver forms from
    its draw z; refused by name where that is inf and the exact mean, summed
    on mantissas, lies beyond the doubles too."""
    sem, (mz, ez) = run.sigma / math.sqrt(n), _frexp(z)
    xbar = z * sem + run.theta_true
    if math.isinf(xbar):
        m, e = _frexp(mz * sem)
        what = f"mean of replicate {j + 1} at n={n} from --theta-true, --sigma and --n-grid"
        _finite((m + _ldexp(run.theta_true, -e - ez), e + ez), what)
    return xbar


def refuse_t(run: ConsistencyRun, n: int) -> None:
    """Refuse by name the first replicate of grid point n whose t, formed as
    the consistency sweep forms it, (xbar - theta0) / sem, is not finite:
    the first of its mean, xbar - theta0 and t that lies beyond the doubles.
    Returns where each exact value is a double and only rounding made inf."""
    z, sem = _draws(run, n), run.sigma / math.sqrt(n)
    j = int(np.flatnonzero(np.isinf((z * sem + run.theta_true - run.theta0) / sem))[0])
    if math.isfinite(xbar := _mean(run, n, j, float(z[j]))):
        where = f"of replicate {j + 1} at n={n} from {_FLAGS}"
        if math.isinf(xbar - run.theta0):
            _finite(_difference(xbar, run.theta0), f"xbar - theta0 {where}")
        problem = NormalProblem(run.theta0, run.sigma, n, xbar)
        _finite(_over_sem(xbar, run.theta0, problem), f"t {where}")


def refuse_score(run: ConsistencyRun, n: int, j: int, xbar: float, prior: AlternativePrior) -> None:
    """Refuse by name replicate j of grid point n, whose mean is xbar, as the
    score sweep refuses it: its mean or a penalty beyond the doubles, or
    penalties that tie only by underflow, with hyvarinen_compare's text."""
    from ._hyvarinen import _hyvarinen_penalties
    from .scores import hyvarinen_compare

    if math.isinf(xbar):
        xbar = _mean(run, n, j, float(_draws(run, n)[j]))
    # an xbar still inf here is one only the driver's rounding made: NormalProblem refuses it
    problem = NormalProblem(run.theta0, run.sigma, n, xbar)
    p0, p1, _ = _hyvarinen_penalties(problem, prior)
    where = f"of replicate {j + 1} at n={n} from"
    _finite(p0, f"hyvarinen penalty s0 {where} {_FLAGS}")
    _finite(p1, f"hyvarinen penalty s1 {where} --theta-true, --theta0, --sigma, --n-grid and --tau")
    hyvarinen_compare(problem, prior)
