"""The Hyvarinen penalty kernel, in units of sem: scores.hyvarinen_compare
and scores.score_consistency_sim import it when they run, and no other call."""

from .normal import AlternativePrior, NormalProblem, _difference, _frexp, _ldexp
from .scores import _spread


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


def _hyvarinen_penalties(problem: NormalProblem, prior: AlternativePrior, xbar=None) -> tuple:
    """Hyvarinen penalties s0 and s1 at xbar, the problem's by default or
    elementwise for an array, as (m, e) pairs, which each caller rounds to
    doubles, refusing what leaves them, and whether their exact values
    differ: the last power of two is exact unless it underflows, so a tie of
    the doubles whose exact values differ is one that underflow made.

    For a predictive N(theta0, V) the penalty 2 (log m)'' + ((log m)')^2 is
    -2/V + (xbar - theta0)^2/V^2: in units of sem, (t^2 - 2) n/sigma^2 for
    the point null and (t^2/w - 2) n/(sigma^2 w) for the conjugate
    alternative, w = 1 + r^2. The improper flat predictive scores exactly 0,
    whatever its constant. Each power of two is applied last.
    """
    d = _difference(problem.xbar if xbar is None else xbar, problem.theta0)
    p0, p1 = _hyvarinen_penalty(problem, d, (1.0, 0)), (0.0, 0)
    if prior.is_conjugate:
        p1 = _hyvarinen_penalty(problem, d, _spread(problem, prior))
    (m0, e0), (m1, e1) = _frexp(p0[0]), _frexp(p1[0])
    return p0, p1, (m0 != m1) | ((m0 != 0.0) & (e0 + p0[1] != e1 + p1[1]))
