"""The Hyvarinen rule in exact integers: the penalties of scores.hyvarinen_compare, and the
one sign of s0 - s1 that it and scores.score_consistency_sim select by. Both import it when
they run, as scores.sprenger_kl_score does for the exact t^2 and r^2 it shares."""

import math

from .normal import AlternativePrior, NormalProblem, _difference, _finite
from .scores import ScoreSelectionSummary


def _squared(x: tuple, sigma: float, n: int) -> tuple:
    """n (x / sigma)^2 as an integer ratio, for x an integer ratio (p, q)."""
    (p, q), (sp, sq) = x, sigma.as_integer_ratio()
    return n * (p * sq) ** 2, (q * sp) ** 2


def _t2(problem: NormalProblem) -> tuple:
    """t^2 = n ((xbar - theta0) / sigma)^2 as an integer ratio."""
    (xp, xq), (cp, cq) = problem.xbar.as_integer_ratio(), problem.theta0.as_integer_ratio()
    return _squared((xp * cq - cp * xq, xq * cq), problem.sigma, problem.n)


def _r2(prior: AlternativePrior, sigma: float, n: int) -> tuple:
    """r^2 = n (tau / sigma)^2 as an integer ratio; the flat prior is its limit, (1, 0)."""
    return _squared(prior.tau.as_integer_ratio(), sigma, n) if prior.is_conjugate else (1, 0)


def _sign(t2: tuple, r2: tuple) -> int:
    """The sign of s0 - s1 at t^2 = P/Q and r^2 = num/den.
    In units of sem, s0 - s1 = (n/sigma^2) (1 - 1/w) (t^2 (1 + 1/w) - 2) with w = 1 + r^2,
    which has the sign of 2 den (P - Q) + num (P - 2Q)."""
    (p, q), (num, den) = t2, r2
    v = 2 * den * (p - q) + num * (p - 2 * q)
    return (v > 0) - (v < 0)


def _quotient(a: int, b: int, quantity: str, *operands: str) -> float:
    """a / b rounded once; beyond the doubles, refused by name, with (m, e) from the bit lengths."""
    try:
        return a / b
    except OverflowError:
        e = a.bit_length() - b.bit_length()
        return _finite((a / (b << e), e), quantity, *operands)


def _hyvarinen_scores(problem: NormalProblem, prior: AlternativePrior) -> tuple:
    """s0, s1, their difference and the sign of s0 - s1. For a predictive N(theta0, V) the
    penalty 2 (log m)'' + ((log m)')^2 is -2/V + d^2/V^2 at d = xbar - theta0: (n/sigma^2) (t^2 - 2)
    for the point null and (n/(sigma^2 w)) (t^2/w - 2) for the conjugate alternative,
    w = 1 + r^2, while the improper flat predictive scores exactly 0, whatever its constant.
    d, t^2 and r^2 are exact integer ratios of the inputs, so each penalty is rounded once, and a
    penalty, or their difference, beyond the doubles is refused by name."""
    (p, q), (num, den) = _t2(problem), _r2(prior, problem.sigma, problem.n)
    # n/sigma^2 = k/l and w = (den + num)/den
    (k, l), w = _squared((1, 1), problem.sigma, problem.n), den + num
    s0 = _quotient(k * (p - 2 * q), l * q, "hyvarinen penalty s0", "t", "sigma", "n")
    s1 = _quotient(
        k * den * (p * den - 2 * q * w), l * q * w * w, "hyvarinen penalty s1", "t", "tau", "sigma", "n"
    )
    diff = _finite(_difference(s0, s1), "hyvarinen diff", "t", "tau", "sigma", "n")
    return s0, s1, diff, _sign((p, q), (num, den))


def _selection_summary(run, prior: AlternativePrior, n: int, t) -> ScoreSelectionSummary:
    """Selection rates of a run's replicates t at grid point n, by _sign. Both its forms rise
    with |t|: H1 takes |t| >= a, the least double where the sign is positive, and a tie is a
    |t| on a root, the double below a."""
    import numpy as np

    num, den = r2 = _r2(prior, run.sigma, n)

    def sign(x: float) -> int:
        p, q = x.as_integer_ratio()
        return _sign((p * p, q * q), r2)

    # from the root a^2 = 2w/(1 + w) = 2 (den + num)/(2 den + num) in [1, 2], an ulp or two off;
    # the sign is -1 at a = 1
    a = math.sqrt(2 * (den + num) / (2 * den + num))
    while sign(below := math.nextafter(a, 0.0)) > 0:
        a = below
    while sign(a) <= 0:
        a = math.nextafter(a, math.inf)
    below, t = math.nextafter(a, 0.0), np.abs(t, out=t)
    alt = int(np.count_nonzero(t >= a))
    ties = int(np.count_nonzero(t == below)) if sign(below) == 0 else 0
    return ScoreSelectionSummary(n, (t.size - alt - ties) / t.size, alt / t.size, ties / t.size)
