"""Numeric substrate shared by every other module.

Normal special functions (the quantile is statistics.NormalDist's C
routine, loaded without statistics), the two-sided p-value, which binomial
reads without loading the normal layer, seeded random streams, and
find_crossing, a bracketed root finder that no library function calls: the
tests solve with it as a reference, and the benchmark's tracer wraps it.
"""

import math
from typing import TYPE_CHECKING, Callable

from . import _EXPORTS

if TYPE_CHECKING:
    import numpy as np

__all__ = _EXPORTS["numerics"]

_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


class NoCrossingError(RuntimeError):
    """Bracket expansion exhausted without the function crossing the target."""


def std_normal_cdf(x: float) -> float:
    """Phi(x), evaluated through erfc so both tails keep full precision."""
    return 0.5 * math.erfc(-x / _SQRT2)


def p_value(t: float) -> float:
    """Two-sided tail probability 2(1 - Phi(|t|)) of an observed t."""
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    # erfc form: equals 2(1 - Phi(|t|)) but keeps the far tail from rounding
    return math.erfc(abs(t) / _SQRT2)


def std_normal_quantile(p: float) -> float:
    """Inverse of std_normal_cdf on (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile needs 0 < p < 1, got {p}")
    # NormalDist().inv_cdf's routine, taken from where statistics takes it:
    # severity, its one caller, then loads neither statistics nor fractions
    try:
        from _statistics import _normal_dist_inv_cdf
    except ImportError:
        from statistics import _normal_dist_inv_cdf
    return _normal_dist_inv_cdf(p, 0.0, 1.0)


def log_normal_pdf(x: float, mean: float, var: float) -> float:
    """Log density of N(mean, var) at x."""
    if not var > 0.0:
        raise ValueError("variance must be positive")
    d = x - mean
    return -0.5 * (d * d / var + math.log(var)) - _LOG_SQRT_2PI


# Bracket doublings before find_crossing gives up: the step reaches 2^200
# times the initial one, far past any finite crossing of interest. Bisection
# then stops once f is within _TOL of the target.
_MAX_DOUBLINGS = 200
_TOL = 1e-13


def find_crossing(
    f: Callable[[float], float], target: float, lo: float, *, initial_step: float = 1.0
) -> float:
    """Solve f(x) = target for monotone f on [lo, infinity).

    Geometric bracket expansion followed by bisection: robust and cheap,
    which is all the target functions here need. Raises NoCrossingError when
    the expansion runs out of doublings without straddling the target (f
    bounded away from it, or not monotone as promised). Returns once the
    image is within _TOL of the target or the bracket collapses to adjacent
    floats.
    """
    if not math.isfinite(lo):
        raise ValueError("lo must be finite")
    if not initial_step > 0.0:
        raise ValueError("initial_step must be positive")
    g_lo = f(lo) - target
    if g_lo == 0.0:
        return lo
    step = initial_step
    x_prev, g_prev = lo, g_lo
    for _ in range(_MAX_DOUBLINGS):
        x_next = x_prev + step
        g_next = f(x_next) - target
        if g_next == 0.0:
            return x_next
        if (g_next < 0.0) != (g_lo < 0.0):
            break
        x_prev, g_prev = x_next, g_next
        step *= 2.0
    else:
        raise NoCrossingError(
            f"no crossing of {target} in [{lo}, {x_prev}] after {_MAX_DOUBLINGS} doublings"
        )
    a, b, g_a = x_prev, x_next, g_prev
    while True:
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            return mid
        g_mid = f(mid) - target
        if abs(g_mid) <= _TOL:
            return mid
        if (g_mid < 0.0) == (g_a < 0.0):
            a, g_a = mid, g_mid
        else:
            b = mid


class RngStream:
    """Deterministic standard-normal source keyed by (seed, stream_id).

    Counter-based generator (numpy Philox) under a spawn key: the same pair
    always replays the same sequence, and distinct stream_ids from one seed
    behave as independent streams. Simulations hand one stream to each grid
    point so fan-out cannot perturb reproducibility.
    """

    def __init__(self, seed: int, stream_id: int = 0) -> None:
        # numpy loads with the first stream, so closed-form callers never pay for it
        import numpy as np

        # an int or a numpy integer; int() would truncate a float seed 1.9 to 1
        if not (hasattr(seed, "__index__") and 0 <= seed < 2**64):
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
        if not (hasattr(stream_id, "__index__") and stream_id >= 0):
            raise ValueError(f"stream_id must be a non-negative integer, got {stream_id!r}")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        key = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        self._gen = np.random.Generator(np.random.Philox(key))

    def normals(self, size: int) -> "np.ndarray":
        return self._gen.standard_normal(size)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"

