"""The Hyvarinen penalty kernel, in units of sem: scores.hyvarinen_compare
and scores.score_consistency_sim import it when they run, and no other call."""

import math

from .normal import AlternativePrior, NormalProblem, _finite, _frexp, _ldexp
from .scores import ScoreSelectionSummary, _spread


def _product(a, b) -> tuple:
    """a * b as hi + lo exactly (Dekker, with Veltkamp's split), for
    doubles or elementwise for arrays, where no step leaves the doubles."""
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
    # max(e - 60, 0), where a difference of exactly 0 carries no exponent to cap
    over = (e - 60) * ((e > 60) & (mx != 0.0))
    top = (_ldexp(nd2, e - over) - _ldexp(2.0 * v, -over)) + (
        _ldexp(nd2_lo, e - over) - _ldexp(2.0 * v_lo, -over)
    )
    return top * mn / (v * v), over + en - 2 * es - we


def _hyvarinen_penalties(problem: NormalProblem, prior: AlternativePrior, d: tuple) -> tuple:
    """Penalties s0 and s1 at d = (m, e) = xbar - theta0, elementwise for arrays,
    as (m, e) pairs, and whether their exact values differ: the last power of
    two is exact unless it underflows, so a tie of unequal values is underflow's.

    For a predictive N(theta0, V) the penalty 2 (log m)'' + ((log m)')^2 is
    -2/V + (xbar - theta0)^2/V^2: in units of sem, (t^2 - 2) n/sigma^2 for
    the point null and (t^2/w - 2) n/(sigma^2 w) for the conjugate
    alternative, w = 1 + r^2. The improper flat predictive scores exactly 0,
    whatever its constant. Each power of two is applied last.
    """
    p0, p1 = _hyvarinen_penalty(problem, d, (1.0, 0)), (0.0, 0)
    if prior.is_conjugate:
        p1 = _hyvarinen_penalty(problem, d, _spread(problem, prior))
    (m0, e0), (m1, e1) = _frexp(p0[0]), _frexp(p1[0])
    return p0, p1, (m0 != m1) | ((m0 != 0.0) & (e0 + p0[1] != e1 + p1[1]))


def _hyvarinen_scores(problem: NormalProblem, prior: AlternativePrior, d: tuple, at, *operands) -> tuple:
    """s0 and s1 at d as doubles. One beyond them is refused by name, placed by at (a
    sweep's replicate, or ""): s1 comes from the operands, s0 from all but tau. So is
    a tie only underflow made."""
    p0, p1, differ = _hyvarinen_penalties(problem, prior, d)
    s0 = _finite(p0, f"hyvarinen penalty s0{at}", *[name for name in operands if name != "tau"])
    s1 = _finite(p1, f"hyvarinen penalty s1{at}", *operands)
    if s0 == s1 and differ:
        raise ValueError(
            f"hyvarinen penalties s0 = {s0!r} and s1 = {s1!r} tie only by underflow: "
            "their exact values differ"
        )
    return s0, s1


def _selection_summary(run, prior: AlternativePrior, n: int, t) -> ScoreSelectionSummary:
    """Selection rates of a run's replicates t at grid point n, at d = t sem on
    mantissas, so no mean is formed. An infinite penalty selects by its sign;
    the first replicate with no difference, or an underflow tie, is refused."""
    import numpy as np

    problem = NormalProblem(run.theta0, run.sigma, n, run.theta0)  # carries theta0, sigma and n
    (mt, et), (ms, es) = _frexp(t), _frexp(run.sigma)
    m, e = _frexp(mt * ms / math.sqrt(n))
    p0, p1, differ = _hyvarinen_penalties(problem, prior, (m, e := e + et + es))
    diff = (s0 := _ldexp(*p0)) - (s1 := _ldexp(*p1))
    for j in np.flatnonzero(np.isnan(diff) | (s0 == s1) & differ)[:1].tolist():
        at, d = f" of replicate {j + 1} at n={n}", (m.item(j), e.item(j))
        _hyvarinen_scores(problem, prior, d, at, "theta_true", "theta0", "tau", "sigma", "n_grid")
    null, ties, reps = int(np.count_nonzero(diff < 0.0)), int(np.count_nonzero(diff == 0.0)), t.size
    return ScoreSelectionSummary(n, null / reps, (reps - null - ties) / reps, ties / reps)
