"""The Hyvarinen penalty kernel, in units of sem, and the score sweep's exact selection:
scores.hyvarinen_compare and scores.score_consistency_sim import it when they run."""

import math

from .normal import AlternativePrior, NormalProblem, _finite, _frexp, _ldexp
from .scores import ScoreSelectionSummary, _spread


def _product(a: float, b: float) -> tuple:
    """a * b as hi + lo exactly (Dekker, with Veltkamp's split), where no step leaves the doubles."""
    p = a * b
    ca, cb = 134217729.0 * a, 134217729.0 * b
    ah, bh = ca - (ca - a), cb - (cb - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _hyvarinen_penalty(problem: NormalProblem, d: tuple, w: tuple) -> tuple:
    """-2/V + d^2/V^2 for V = sem^2 w and d = (m, e) = xbar - theta0, as
    (m, e): n (n d^2 - 2 sigma^2 w) / (sigma^2 w)^2 on mantissas.

    n d^2 and 2 sigma^2 w are formed to twice double precision, so their
    difference keeps its digits where they nearly cancel, at the selection
    boundary t^2 = 2 w. Past 2^60 times the second, the second lies below
    half an ulp of the first, so the first's exponent is capped there and
    the rest carried with the scale's.
    """
    (mx, ex), (wm, we) = d, w
    (ms, es), (mn, en) = _frexp(problem.sigma), _frexp(problem.n)
    d2, d2_lo = _product(mx, mx)
    nd2, nd2_lo = _product(d2, mn)
    nd2_lo += d2_lo * mn
    s2, s2_lo = _product(ms, ms)
    v, v_lo = _product(s2, wm)
    v_lo += s2_lo * wm
    e = 2 * (ex - es) + en - we
    # capped past 60 only where there is a difference: exactly 0 carries no exponent
    over = e - 60 if e > 60 and mx != 0.0 else 0
    top = (_ldexp(nd2, e - over) - _ldexp(2.0 * v, -over)) + (
        _ldexp(nd2_lo, e - over) - _ldexp(2.0 * v_lo, -over)
    )
    return top * mn / (v * v), over + en - 2 * es - we


def _hyvarinen_scores(problem: NormalProblem, prior: AlternativePrior, d: tuple) -> tuple:
    """s0 and s1 at d = (m, e) = xbar - theta0. For a predictive N(theta0, V) the penalty
    2 (log m)'' + ((log m)')^2 is -2/V + d^2/V^2: (t^2 - 2) n/sigma^2 for the point null and
    (t^2/w - 2) n/(sigma^2 w) for the conjugate alternative, w = 1 + r^2, while the improper
    flat predictive scores exactly 0, whatever its constant. A penalty beyond the doubles is
    refused by name, and so is a tie only underflow made: each power of two, applied last,
    is exact unless it underflows."""
    p0, p1 = _hyvarinen_penalty(problem, d, (1.0, 0)), (0.0, 0)
    if prior.is_conjugate:
        p1 = _hyvarinen_penalty(problem, d, _spread(problem, prior))
    s0 = _finite(p0, "hyvarinen penalty s0", "t", "sigma", "n")
    s1 = _finite(p1, "hyvarinen penalty s1", "t", "tau", "sigma", "n")
    (m0, e0), (m1, e1) = _frexp(p0[0]), _frexp(p1[0])
    if s0 == s1 and (m0 != m1 or (m0 != 0.0 and e0 + p0[1] != e1 + p1[1])):
        raise ValueError(
            f"hyvarinen penalties s0 = {s0!r} and s1 = {s1!r} tie only by underflow: "
            "their exact values differ"
        )
    return s0, s1


def _selection_summary(run, prior: AlternativePrior, n: int, t) -> ScoreSelectionSummary:
    """Selection rates of a run's replicates t at grid point n, by the exact sign of s0 - s1:
    in units of sem, (n/sigma^2) (1 - 1/w) (t^2 (1 + 1/w) - 2), so that of
    2 (t^2 - 1) + r^2 (t^2 - 2), or of t^2 - 2 against the flat prior. Both rise with |t|:
    H1 takes |t| >= a, the least double where the sign, taken in integers, is positive, and
    a tie is a |t| on a root, the double below a."""
    import numpy as np

    num, den, r2 = 1, 0, math.inf  # r^2 = num/den = n (tau/sigma)^2; the flat prior is its limit
    if prior.is_conjugate:
        (tp, tq), (sp, sq) = prior.tau.as_integer_ratio(), run.sigma.as_integer_ratio()
        num, den, r2 = n * (tp * sq) ** 2, (tq * sp) ** 2, (rho := prior.tau / run.sigma) * rho * n

    def sign(x: float) -> int:
        p, q = x.as_integer_ratio()
        v = 2 * den * (p * p - q * q) + num * (p * p - 2 * q * q)
        return (v > 0) - (v < 0)

    # from the root a^2 = 2w/(1 + w) in [1, 2], a few ulps off; the sign is -1 at a = 1
    a = math.sqrt(2.0 - 2.0 / (2.0 + r2))
    while sign(below := math.nextafter(a, 0.0)) > 0:
        a = below
    while sign(a) <= 0:
        a = math.nextafter(a, math.inf)
    below, t = math.nextafter(a, 0.0), np.abs(t, out=t)
    alt = int(np.count_nonzero(t >= a))
    ties = int(np.count_nonzero(t == below)) if sign(below) == 0 else 0
    return ScoreSelectionSummary(n, (t.size - alt - ties) / t.size, alt / t.size, ties / t.size)
