"""Scoring-rule alternatives to the Bayes factor.

Prior predictive densities for the point null, the conjugate alternative,
and the improper flat alternative; the log score whose pairwise difference
is exactly the log Bayes factor; the Hyvarinen score, which depends only on
derivatives of the log density and so survives the arbitrary constant of an
improper prior; and the posterior-expected Kullback-Leibler score. Every
rule is reported as a penalty: smaller is better, negative difference
s0 - s1 selects the null, and the zero boundary is reported as a tie rather
than broken by fiat.
"""

import math

from . import _EXPORTS
from ._record import Record
from .normal import AlternativePrior, NormalProblem, _ldexp, _shrinkage
from .normal import conjugate_posterior  # no caller here; the benchmark's tracer wraps it
from .numerics import (
    RngStream,  # no caller here; the benchmark's tracer wraps scores.RngStream
    log_normal_pdf,
)

__all__ = _EXPORTS["scores"]

_KINDS = ("point-null", "conjugate", "improper-flat")


class PredictiveDensity(Record):
    """Prior predictive for the sample mean under one hypothesis.

    Finite kinds are normal with a location and variance; improper-flat is
    the constant density c that a flat prior with arbitrary multiplier c
    induces on the sample mean. c also acts as a plain multiplier on the
    finite kinds so that scale invariance of a rule is a testable statement,
    not a vacuous one.
    """

    kind: str
    location: float | None = None
    variance: float | None = None
    c: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if not (math.isfinite(self.c) and self.c > 0.0):
            raise ValueError("c must be positive and finite")
        if self.kind == "improper-flat":
            if self.location is not None or self.variance is not None:
                raise ValueError("improper-flat carries no location or variance")
        else:
            if self.location is None or self.variance is None:
                raise ValueError(f"{self.kind} needs a location and a variance")
            if not (math.isfinite(self.variance) and self.variance > 0.0):
                raise ValueError("variance must be positive and finite")

    @classmethod
    def point_null(cls, problem: NormalProblem) -> "PredictiveDensity":
        """Sampling density of the mean with theta pinned at theta0."""
        variance = problem.sampling_var
        if not 0.0 < variance < math.inf:
            raise ValueError(
                f"the point-null predictive variance sigma^2/n is {variance} at "
                f"sigma = {problem.sigma:.6g}, n = {problem.n}"
            )
        return cls(kind="point-null", location=problem.theta0, variance=variance)

    @classmethod
    def conjugate(cls, problem: NormalProblem, prior: AlternativePrior) -> "PredictiveDensity":
        """Marginal density of the mean under the conjugate alternative."""
        if not prior.is_conjugate:
            raise ValueError("this operation requires a conjugate-normal prior")
        variance = problem.sampling_var + prior.tau * prior.tau
        if not 0.0 < variance < math.inf:
            raise ValueError(
                f"the conjugate predictive variance sigma^2/n + tau^2 is {variance} at "
                f"sigma = {problem.sigma:.6g}, n = {problem.n}, tau = {prior.tau:.6g}"
            )
        return cls(kind="conjugate", location=problem.theta0, variance=variance)

    @classmethod
    def improper_flat(cls, c: float = 1.0) -> "PredictiveDensity":
        """Constant density c induced by the flat prior with multiplier c."""
        return cls(kind="improper-flat", c=c)

    @classmethod
    def from_prior(cls, problem: NormalProblem, prior: AlternativePrior) -> "PredictiveDensity":
        if prior.is_conjugate:
            return cls.conjugate(problem, prior)
        return cls.improper_flat(c=prior.c)

    def scaled(self, k: float) -> "PredictiveDensity":
        """The same shape with density multiplied by k > 0."""
        if not (math.isfinite(k) and k > 0.0):
            raise ValueError("scale factor must be positive and finite")
        return type(self)(self.kind, self.location, self.variance, self.c * k)

    def log_density(self, x: float) -> float:
        if self.kind == "improper-flat":
            return math.log(self.c)
        base = log_normal_pdf(x, self.location, self.variance)
        return base if self.c == 1.0 else base + math.log(self.c)

    @property
    def c_dependent(self) -> bool:
        """Whether log-score output moves with the arbitrary constant c."""
        return self.kind == "improper-flat"


class ScoreReport(Record):
    """Two penalties under one rule, and the selection their difference makes.

    Penalty convention throughout: smaller is better, so diff = s0 - s1 < 0
    selects the null and diff = 0 is a tie. The gain form of the log score
    is the negation; the sign bridge lives here and nowhere else.
    c_dependent warns that the numbers move with an improper prior's
    arbitrary constant.
    """

    rule: str
    s0: float
    s1: float
    c_dependent: bool = False

    def __post_init__(self) -> None:
        if math.isnan(self.s0 - self.s1):
            raise ValueError(
                f"{self.rule} penalties s0 = {self.s0!r} and s1 = {self.s1!r} "
                "have no difference s0 - s1"
            )

    @property
    def diff(self) -> float:
        return self.s0 - self.s1

    @property
    def select_null(self) -> bool:
        return self.diff < 0.0

    @property
    def tie(self) -> bool:
        return self.diff == 0.0

    @property
    def selection(self) -> str:
        if self.tie:
            return "tie"
        return "H0" if self.select_null else "H1"


def log_score(x: float, m: PredictiveDensity) -> float:
    """Penalty -log m(x). Depends on c when m is improper-flat."""
    return -m.log_density(x)


def log_score_compare(problem: NormalProblem, prior: AlternativePrior) -> ScoreReport:
    """Log-score penalties of null and alternative at the observed mean.

    diff equals -log B01 exactly: the rule reproduces Bayes-factor selection
    for finite predictives, and inherits the arbitrary-constant defect
    against the improper flat alternative, where B01 itself is m0 / c.
    """
    # the alternative first: a conjugate one names its variance and inputs
    # where it leaves the doubles, which the point null would only call invalid
    m1 = PredictiveDensity.from_prior(problem, prior)
    m0 = PredictiveDensity.point_null(problem)
    return ScoreReport(
        "log",
        log_score(problem.xbar, m0),
        log_score(problem.xbar, m1),
        c_dependent=m1.c_dependent,
    )


def hyvarinen_score(x: float, m: PredictiveDensity) -> float:
    """Penalty 2 (log m)''(x) + ((log m)'(x))^2.

    Built from derivatives of log m, so any positive multiple of m scores
    identically; the improper flat predictive scores exactly zero no matter
    its constant. For a normal predictive the value is -2/v + (x - mu)^2/v^2.
    x may be an array of means: the arithmetic is elementwise.
    """
    if m.kind == "improper-flat":
        return 0.0
    # d and v are scaled by the power of two that brings v into [0.5, 1):
    # exact, and d^2/v^2 is unchanged, but d^2 now overflows only where the
    # quotient does and underflows only where it is below 2^-1020, and v^2
    # never leaves the doubles. Where both unscaled squares are normal the
    # quotient is the same double. Below v = 2^-1023 the power itself would
    # overflow; -2/v is -inf there, so the power is capped.
    k = math.ldexp(1.0, min(-math.frexp(m.variance)[1], 1023))
    d = _scaled_difference(x, m.location, k)
    v = m.variance * k
    return -2.0 / m.variance + (d * d) / (v * v)


def _scaled_difference(x, mu: float, k: float):
    """(x - mu) * k for a float or elementwise for an array x.

    Where x - mu overflows, x and mu have opposite signs and are both at
    least 2^970 in size, so x * k and mu * k are exact (or overflow only
    where the scaled difference does) and their difference is taken instead.
    """
    d = x - mu
    if isinstance(d, float):
        return d * k if math.isfinite(d) else x * k - mu * k
    import numpy as np

    over = np.isinf(d)
    d *= k
    if over.any():
        d[over] = x[over] * k - mu * k
    return d


def hyvarinen_compare(problem: NormalProblem, prior: AlternativePrior) -> ScoreReport:
    """Hyvarinen penalties of null and alternative at the observed mean.

    Against the flat alternative the difference collapses to
    (n/sigma^2) (t^2 - 2): an emergent selection boundary at |t| = sqrt(2),
    reported as-is. The magnitude carries no absolute calibration, so no
    acceptance bound is applied here.
    """
    m1 = PredictiveDensity.from_prior(problem, prior)
    m0 = PredictiveDensity.point_null(problem)
    return ScoreReport(
        "hyvarinen",
        hyvarinen_score(problem.xbar, m0),
        hyvarinen_score(problem.xbar, m1),
    )


def sprenger_kl_score(problem: NormalProblem, prior: AlternativePrior) -> float:
    """Posterior-expected KL divergence of the null from a size-n replicate.

    n (omega^2 + (mu_n - theta0)^2) / (2 sigma^2) with the conjugate
    posterior mean mu_n and variance omega^2, read in units of sem as
    (c^2 + (t c^2)^2) / 2 with c^2 = tau^2 / (sem^2 + tau^2), so it answers
    at every scale. Nonnegative, approaching zero only as tau collapses the
    posterior onto theta0. The replication unit is a full sample of n;
    divide by n for the single-observation reading.
    """
    if not prior.is_conjugate:
        raise ValueError("posterior-expected KL score needs a conjugate prior")
    (tm, te), _, (cm, ce) = _shrinkage(problem, prior)
    mean = _ldexp(tm * cm, te + ce)
    return 0.5 * math.ldexp(cm, ce) + 0.5 * mean * mean


def sprenger_kl_report(problem: NormalProblem, prior: AlternativePrior) -> ScoreReport:
    """The KL score framed as the null's penalty against a zero baseline.

    There is no second predictive here: the score already measures the
    information lost by acting as if theta0 held, so s1 = 0 and any positive
    value nominally points away from the null. Where to draw the acceptance
    bound is exactly the calibration the rule does not supply.
    """
    return ScoreReport("sprenger-kl", sprenger_kl_score(problem, prior), 0.0)


class ScoreSelectionSummary(Record):
    """Selection rates for one sample size of a scored simulation sweep."""

    n: int
    select_null_rate: float
    select_alt_rate: float
    tie_rate: float


def score_consistency_sim(
    run,
    prior: AlternativePrior | None = None,
) -> list[ScoreSelectionSummary]:
    """Hyvarinen-score selection rates across a seeded simulation sweep.

    Accepts the same run description as the Bayes-factor consistency sweep
    and draws through the same run.sample_means(), so the two simulations see
    identical draws for the same seed. Under the null with the flat
    alternative the null-selection rate sits on the intrinsic plateau
    P(chi-square_1 < 2) = 0.8427: the |t| = sqrt(2) boundary does not
    sharpen with n. Off the null the alternative takes over completely.
    """
    import numpy as np

    if prior is None:
        prior = AlternativePrior.flat()
    summaries = []
    for n, _, xbar in run.sample_means():
        # the first replicate's problem and the two predictives run the checks
        # a per-replicate hyvarinen_compare would meet first, in its order
        problem = NormalProblem(theta0=run.theta0, sigma=run.sigma, n=n, xbar=float(xbar[0]))
        m1 = PredictiveDensity.from_prior(problem, prior)
        m0 = PredictiveDensity.point_null(problem)
        # inf and nan are judged below, silently, as Python floats were
        with np.errstate(over="ignore", invalid="ignore"):
            s0, s1 = np.broadcast_arrays(hyvarinen_score(xbar, m0), hyvarinen_score(xbar, m1))
            diff = s0 - s1
        # m0's finite variance bounds sem, so every xbar is finite here; the
        # first replicate whose difference is nan is refused by its report
        nan = np.flatnonzero(np.isnan(diff))
        if nan.size:
            ScoreReport("hyvarinen", float(s0[nan[0]]), float(s1[nan[0]]))
        null = int(np.count_nonzero(diff < 0.0))
        ties = int(np.count_nonzero(diff == 0.0))
        reps = run.replications
        summaries.append(
            ScoreSelectionSummary(
                n=n,
                select_null_rate=null / reps,
                select_alt_rate=(reps - null - ties) / reps,
                tie_rate=ties / reps,
            )
        )
    return summaries
