"""Numeric substrate shared by every other module.

Normal special functions, log-beta, bracketed root finding, adaptive
quadrature, and seeded random streams. Everything here is deterministic
and self-contained.
"""

from __future__ import annotations

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


class QuadratureError(RuntimeError):
    """Adaptive refinement hit the depth limit before reaching the tolerance."""


def std_normal_cdf(x: float) -> float:
    """Phi(x), evaluated through erfc so both tails keep full precision."""
    return 0.5 * math.erfc(-x / _SQRT2)


def std_normal_quantile(p: float) -> float:
    """Inverse of std_normal_cdf on (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile needs 0 < p < 1, got {p}")
    # imported here: severity is its only caller, and the other subcommands
    # should not pay for loading statistics at start-up
    import statistics

    return statistics.NormalDist().inv_cdf(p)


def log_normal_pdf(x: float, mean: float, var: float) -> float:
    """Log density of N(mean, var) at x."""
    if not var > 0.0:
        raise ValueError("variance must be positive")
    d = x - mean
    return -0.5 * (d * d / var + math.log(var)) - _LOG_SQRT_2PI


# Stirling tail of log-gamma: coefficients of 1/z^(2k-1) in B_2k/(2k(2k-1)).
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
)


def _stirling_tail(z: float) -> float:
    r = 1.0 / (z * z)
    s = 0.0
    for c in reversed(_STIRLING[1:]):
        s = (s + c) * r
    return (s + _STIRLING[0]) / z


def _log_beta_both_large(a: float, b: float) -> float:
    # Both arguments in the Stirling regime. The direct lgamma difference
    # cancels three huge values and loses ~1e-11 relative at half-million
    # arguments; this arrangement keeps every term modest and same-signed.
    s = a + b
    ratio = a / s
    # log1p on the large side: b/s sits within an ulp of 1 when a << b, and
    # a bare log there throws away the digits that (b - 0.5) then magnifies
    return (
        (a - 0.5) * math.log(ratio)
        + (b - 0.5) * math.log1p(-ratio)
        - 0.5 * math.log(s)
        + 0.5 * math.log(2.0 * math.pi)
        + _stirling_tail(a)
        + _stirling_tail(b)
        - _stirling_tail(s)
    )


def log_beta(a: float, b: float) -> float:
    """log Beta(a, b), exactly symmetric in (a, b) and 1e-12-accurate
    through the half-million-argument regime the binomial tests hit."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("log_beta needs positive arguments")
    if a > b:
        a, b = b, a
    if b < 10.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    # lift the small argument into the Stirling regime one unit at a time:
    # Beta(a, b) = Beta(a+1, b) * (a+b)/a
    shift = 0.0
    while a < 10.0:
        shift += math.log((a + b) / a)
        a += 1.0
    return _log_beta_both_large(a, b) + shift


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


# Halvings of one of quadrature's 16 starting panels before it gives up; the
# finest panel then spans 2^-52 of [a, b].
_MAX_DEPTH = 48


def quadrature(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
) -> float:
    """Integrate f over [a, b] by adaptive Simpson refinement.

    The interval starts as 16 uniform panels so narrow features cannot hide
    from the first error estimate; each panel then halves until its share of
    tol is met, with the usual |S_half - S| / 15 Richardson control.
    QuadratureError flags an integrand the refinement cannot settle
    (singular, wildly oscillatory, or NaN somewhere in the interval).
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("quadrature needs finite endpoints")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if a == b:
        return 0.0
    sign = 1.0
    if a > b:
        a, b, sign = b, a, -1.0
    panels = 16
    edges = [a + (b - a) * i / panels for i in range(panels + 1)]
    edges[-1] = b
    total = 0.0
    share = tol / panels
    for x0, x1 in zip(edges, edges[1:]):
        xm = 0.5 * (x0 + x1)
        f0, fm, f1 = f(x0), f(xm), f(x1)
        whole = _simpson(f0, fm, f1, x1 - x0)
        total += _refine(f, x0, f0, x1, f1, xm, fm, whole, share, _MAX_DEPTH)
    return sign * total


def _simpson(fa: float, fm: float, fb: float, h: float) -> float:
    return h * (fa + 4.0 * fm + fb) / 6.0


def _refine(f, a, fa, b, fb, m, fm, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth <= 0:
        raise QuadratureError(f"refinement depth exhausted on [{a}, {b}]")
    half = 0.5 * tol
    return _refine(f, a, fa, m, fm, lm, flm, left, half, depth - 1) + _refine(
        f, m, fm, b, fb, rm, frm, right, half, depth - 1
    )


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

        seed = int(seed)
        stream_id = int(stream_id)
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if stream_id < 0:
            raise ValueError("stream_id must be non-negative")
        self.seed = seed
        self.stream_id = stream_id
        key = np.random.SeedSequence(seed, spawn_key=(stream_id,))
        self._gen = np.random.Generator(np.random.Philox(key))

    def normals(self, size: int) -> np.ndarray:
        return self._gen.standard_normal(size)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"

