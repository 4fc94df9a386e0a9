"""Scoring-rule alternatives to the Bayes factor.

Penalties of the point null and of the conjugate or improper flat alternative at the observed
mean: the log score, whose difference is the log Bayes factor; the Hyvarinen score, which
depends only on derivatives of the log density and so survives the arbitrary constant of an
improper prior; and the posterior-expected Kullback-Leibler score, beside the conjugate
posterior it reads. Each rule reads both hypotheses in units of sem, so it answers at every
scale where its numbers are doubles, and refuses by name what leaves them. Every rule is a
penalty: smaller is better, a negative difference selects the null, and the zero boundary is
a tie rather than broken by fiat. The Hyvarinen rule is pointnull._hyvarinen, which its
comparison and sweep import, as the KL score does for the exact t^2 and r^2 it shares.
"""

import math

from . import _EXPORTS
from ._record import Record
from .normal import AlternativePrior, NormalProblem, _difference, _finite, _frexp, _ldexp, _shrinkage
from .normal import log_bayes_factor_conjugate
from .numerics import (
    _LOG_SQRT_2PI,
    RngStream,  # no caller here; the benchmark's tracer wraps scores.RngStream
    log_normal_pdf,  # no caller here; the benchmark's tracer wraps scores.log_normal_pdf
)

__all__ = _EXPORTS["scores"]

_SQRT_HALF = math.sqrt(0.5)


class ScoreReport(Record):
    """Two penalties under one rule, the difference the rule forms, and the selection it makes.

    Penalty convention throughout: smaller is better, so sign = -1 selects
    the null and 0 is a tie; a nonzero diff never has the other sign. The
    gain form of the log score is the negation; the sign bridge lives here
    and nowhere else. c_dependent warns that the numbers move with an
    improper prior's arbitrary constant.
    """

    rule: str
    s0: float
    s1: float
    diff: float
    sign: int
    c_dependent: bool = False

    def __post_init__(self) -> None:
        if math.isnan(self.s0 - self.s1):
            raise ValueError(
                f"{self.rule} penalties s0 = {self.s0!r} and s1 = {self.s1!r} "
                "have no difference s0 - s1"
            )

    @property
    def select_null(self) -> bool:
        return self.sign < 0

    @property
    def tie(self) -> bool:
        return self.sign == 0

    @property
    def selection(self) -> str:
        return ("H0", "tie", "H1")[self.sign + 1]


def _square_over_sem2(x: tuple, problem: NormalProblem) -> tuple:
    """x^2 / sem^2 = n (x / sigma)^2 for x as (m, e), not a rounded x / sem squared."""
    (mx, ex), (ms, es), (mn, en) = x, _frexp(problem.sigma), _frexp(problem.n)
    return mx * mx / (ms * ms) * mn, 2 * (ex - es) + en


def _spread(problem: NormalProblem, prior: AlternativePrior) -> tuple:
    """w = 1 + r^2 as (m, e), r = tau / sem: in units of sem the conjugate
    predictive N(theta0, sem^2 + tau^2) is N(0, w), and 1/w = 1 - c^2."""
    r2m, r2e = _square_over_sem2(_frexp(prior.tau), problem)
    if r2e > 128:  # 1 + r^2 rounds to r^2
        return r2m, r2e
    return 1.0 + _ldexp(r2m, r2e), 0


def _log_score(problem: NormalProblem, w: tuple = (1.0, 0)) -> float:
    """-log N(xbar; theta0, sem^2 w), the log-score penalty of a predictive
    centred at theta0, read in units of sem as t^2 / (2 w) + log(sem^2 w) / 2
    + log sqrt(2 pi). w = 1 + r^2 as (m, e); the default, w = 1, is the point
    null's sampling density m0."""
    (t2m, t2e), (wm, we) = _square_over_sem2(_difference(problem.xbar, problem.theta0), problem), w
    # t^2 = n ((xbar - theta0) / sigma)^2, not a rounded t squared: t^2 = 2 stays exact
    half_t2 = _ldexp(0.5 * t2m / wm, t2e - we)
    if math.isinf(half_t2):  # t^2 / (2 w) leaves the doubles only where t^2 does
        _finite((t2m, t2e), "t^2", "t")
    # log(sem^2 w) from a mantissa in [sqrt(1/2), sqrt(2)), which keeps its digits near 1
    (ms, es), (mn, en) = _frexp(problem.sigma), _frexp(problem.n)
    m, e = _frexp(ms * ms * wm / mn)
    if m < _SQRT_HALF:
        m, e = 2.0 * m, e - 1
    return half_t2 + (0.5 * (math.log(m) + (e + 2 * es + we - en) * math.log(2.0)) + _LOG_SQRT_2PI)


def log_score_compare(problem: NormalProblem, prior: AlternativePrior) -> ScoreReport:
    """Log-score penalties -log m(xbar) of null and alternative.

    s0 - s1 is -log B01, so diff is read from the conjugate kernel, with no log sem to cancel,
    and the rule reproduces Bayes-factor selection for finite predictives. Against the
    improper flat alternative, whose predictive is the constant c, s1 = -log c, B01 itself is
    m0 / c and diff is s0 - s1: the rule inherits the arbitrary-constant defect.
    """
    s0 = _log_score(problem)
    if prior.is_conjugate:
        s1 = _log_score(problem, _spread(problem, prior))
        diff = 0.0 - log_bayes_factor_conjugate(problem, prior)  # 0.0, not -0.0, where log B01 is 0
    else:
        diff = s0 - (s1 := -math.log(prior.c))
    return ScoreReport("log", s0, s1, diff, (diff > 0.0) - (diff < 0.0), c_dependent=not prior.is_conjugate)


def hyvarinen_compare(problem: NormalProblem, prior: AlternativePrior) -> ScoreReport:
    """Hyvarinen penalties of null and alternative at the observed mean.

    Against the flat alternative the difference collapses to
    (n/sigma^2) (t^2 - 2): an emergent selection boundary at |t| = sqrt(2),
    reported as-is. The selection is the exact sign of s0 - s1, and the
    magnitude carries no absolute calibration, so no bound applies here.
    """
    from ._hyvarinen import _hyvarinen_scores

    return ScoreReport("hyvarinen", *_hyvarinen_scores(problem, prior))


# no caller here; the benchmark's tracer wraps scores.conjugate_posterior
def conjugate_posterior(problem: NormalProblem, prior: AlternativePrior) -> tuple[float, float]:
    """Posterior mean and variance of theta under the conjugate alternative:
    theta0 + (xbar - theta0) c^2 and (sem c)^2, c^2 = tau^2 / (sem^2 + tau^2)."""
    _, (rm, re), (cm, ce) = _shrinkage(problem, prior)
    ms, es = _frexp(problem.sigma)
    sm, se = _frexp(ms / math.sqrt(problem.n))  # sem = sm * 2**(se + es)
    var = _ldexp(sm * sm * cm, 2 * (se + es) + ce)
    d, c2 = problem.xbar - problem.theta0, _ldexp(cm, ce)
    if math.isinf(d):  # opposite signs: a weighted mean of the two stays in range
        return problem.theta0 * _ldexp(cm / (rm * rm), ce - 2 * re) + problem.xbar * c2, var
    return problem.theta0 + d * c2, var


def sprenger_kl_score(problem: NormalProblem, prior: AlternativePrior) -> float:
    """Posterior-expected KL divergence of the null from a size-n replicate.

    n (omega^2 + (mu_n - theta0)^2) / (2 sigma^2) with the conjugate posterior mean mu_n and
    variance omega^2, read in units of sem as (c^2 + (t c^2)^2) / 2 with c^2 = r^2 / (1 + r^2),
    from the exact t^2 and r^2 and rounded once. Nonnegative, approaching zero only as tau
    collapses the posterior onto theta0. The replication unit is a full sample of n; divide by
    n for the single-observation reading.
    """
    if not prior.is_conjugate:
        raise ValueError("posterior-expected KL score needs a conjugate prior")
    from ._hyvarinen import _quotient, _r2, _t2

    # c^2 = num / w and t^2 = p / q, w = den + num: s0 = num (q w + p num) / (2 q w^2), rounded once
    (p, q), (num, den) = _t2(problem), _r2(prior, problem.sigma, problem.n)
    w = den + num
    return _quotient(num * (q * w + p * num), 2 * q * w * w, "sprenger-kl score s0", "t", "tau", "sigma", "n")


def sprenger_kl_report(problem: NormalProblem, prior: AlternativePrior) -> ScoreReport:
    """The KL score framed as the null's penalty against a zero baseline.

    There is no second predictive here: the score already measures the
    information lost by acting as if theta0 held, so s1 = 0 and any positive
    value nominally points away from the null: s0 > 0 for tau > 0, so sign = 1.
    Where to draw the bound is exactly the calibration the rule does not supply.
    """
    return ScoreReport("sprenger-kl", s0 := sprenger_kl_score(problem, prior), 0.0, s0, 1)


class ScoreSelectionSummary(Record):
    """Selection rates for one sample size of a scored simulation sweep."""

    n: int
    select_null_rate: float
    select_alt_rate: float
    tie_rate: float


def score_consistency_sim(run, prior: AlternativePrior) -> list[ScoreSelectionSummary]:
    """Hyvarinen-score selection rates across a seeded simulation sweep.

    Draws through run.sweep(), as the Bayes-factor consistency sweep does, so the two see
    the same t for the same run. A replicate selects H1 where 2 (t^2 - 1) + r^2 (t^2 - 2) > 0,
    r = tau/sem, or t^2 > 2 against the flat prior, so on the null the null-selection rate
    sits on the plateau P(t^2 < 2w/(1 + w)), w = 1 + r^2: from P(chi-square_1 < 1) = 0.6827
    as r -> 0 to the flat prior's P(chi-square_1 < 2) = 0.8427. Off the null H1 takes over.
    """
    from ._hyvarinen import _selection_summary

    return run.sweep(lambda n, t: _selection_summary(run, prior, n, t))
