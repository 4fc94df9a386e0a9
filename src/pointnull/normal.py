"""Normal-mean point-null tests with known variance.

Covers the t statistic, the two-sided p-value, the sample-size Bayes factor
and its conjugate generalization, the Savage-Dickey density-ratio route,
posterior null probabilities, the single-observation prior-scale reading,
the improper-flat breakdown, and density-matched hypothesis weights. Every
Bayes factor is computed in the log domain first; sample sizes up to 1e9
appear in the consistency sweeps.
"""

import math
import sys

from . import _EXPORTS
from ._record import Record
from .numerics import _SQRT2, log_normal_pdf

__all__ = _EXPORTS["normal"]


class NormalProblem(Record):
    """Observed mean of n draws from N(theta, sigma^2), against null theta0."""

    theta0: float
    sigma: float
    n: int
    xbar: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.theta0):
            raise ValueError("theta0 must be finite")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError("sigma must be positive")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.n > sys.float_info.max:
            raise ValueError(f"n must be at most the largest float, {sys.float_info.max:.6g}")
        if not math.isfinite(self.xbar):
            raise ValueError("xbar must be finite")

    @classmethod
    def from_t(
        cls, t: float, n: int, *, theta0: float = 0.0, sigma: float = 1.0
    ) -> "NormalProblem":
        """Problem whose observed mean sits t standard errors above theta0."""
        # validate theta0, sigma and n, in the constructor's order, before sqrt(n)
        cls(theta0, sigma, n, theta0)
        if not math.isfinite(t):
            raise ValueError("t must be finite")
        return cls(theta0, sigma, n, theta0 + t * sigma / math.sqrt(n))

    @property
    def sem(self) -> float:
        """Standard error of the mean, sigma / sqrt(n)."""
        return self.sigma / math.sqrt(self.n)

    @property
    def sampling_var(self) -> float:
        return self.sigma * self.sigma / self.n


class AlternativePrior(Record):
    """Prior on theta under the alternative.

    Either a conjugate normal centered at the null with scale tau, or the
    improper flat prior with its explicit arbitrary constant c. The flat
    case exists to exhibit what the missing normalizer does to a Bayes
    factor, so c is always spelled out rather than silently set to 1.
    """

    kind: str
    tau: float | None = None
    c: float = 1.0

    def __post_init__(self) -> None:
        if self.kind == "conjugate-normal":
            if self.tau is None or not (math.isfinite(self.tau) and self.tau > 0.0):
                raise ValueError("conjugate prior needs tau > 0")
            if self.c != 1.0:
                raise ValueError("c applies only to the improper-flat kind")
        elif self.kind == "improper-flat":
            if self.tau is not None:
                raise ValueError("improper-flat prior takes no tau")
            if not (math.isfinite(self.c) and self.c > 0.0):
                raise ValueError("c must be positive")
        else:
            raise ValueError(f"unknown prior kind {self.kind!r}")

    @classmethod
    def conjugate(cls, tau: float) -> "AlternativePrior":
        return cls("conjugate-normal", tau=tau)

    @classmethod
    def flat(cls, c: float = 1.0) -> "AlternativePrior":
        return cls("improper-flat", c=c)

    @property
    def is_conjugate(self) -> bool:
        return self.kind == "conjugate-normal"


class HypothesisWeights(Record):
    """Prior probability mass on the point null."""

    rho0: float = 0.5

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rho0) and 0.0 < self.rho0 < 1.0):
            raise ValueError("rho0 must lie strictly between 0 and 1")


EQUAL_WEIGHTS = HypothesisWeights(0.5)


class TestReport(Record):
    """Frequentist and Bayesian verdicts on one observed mean."""

    t: float
    p_value: float
    bf01: float
    post_prob0: float
    alpha: float

    @property
    def reject_frequentist(self) -> bool:
        return self.p_value <= self.alpha

    @property
    def favor_null_bayes(self) -> bool:
        return self.bf01 >= 1.0

    @property
    def paradoxical(self) -> bool:
        """Significant by the p-value yet the Bayes factor backs the null."""
        return self.reject_frequentist and self.favor_null_bayes


def t_statistic(problem: NormalProblem) -> float:
    d = problem.xbar - problem.theta0
    if math.isinf(d):
        # both are finite and at least 2^970 in size, so their halves are
        # exact; each later step can overflow only where t itself does
        half = 0.5 * problem.xbar - 0.5 * problem.theta0
        return half / problem.sigma * math.sqrt(problem.n) * 2.0
    return math.sqrt(problem.n) * d / problem.sigma


def p_value(t: float) -> float:
    """Two-sided tail probability 2(1 - Phi(|t|)) of an observed t."""
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    # erfc form: equals 2(1 - Phi(|t|)) but keeps the far tail from rounding
    return math.erfc(abs(t) / _SQRT2)


def log_bayes_factor_lindley(t: float, n: float) -> float:
    """log of sqrt(1+n) exp(-n t^2 / (2(1+n))), the tau = sigma Bayes factor.

    t may be an array: the arithmetic around log1p(n) is elementwise.
    At fixed t the value diverges with n, which is the whole paradox.
    """
    if not n >= 1:
        raise ValueError("n must be at least 1")
    denom = 2.0 * (1.0 + n)
    if denom == math.inf:
        # n above about 9e307: 1 + 1/n rounds to 1, so n / (2(1 + n)) is one half
        return 0.5 * math.log1p(n) - t * 0.5 * t
    # n t^2 overflows where the quotient need not. Scaling n and 2(1 + n) by
    # the same power of two keeps every rounding of n t t / (2(1 + n)), bar
    # a subnormal step, which only a t term far below log1p(n)'s ulp takes.
    frac, exp = math.frexp(denom)
    return 0.5 * math.log1p(n) - math.ldexp(n, -exp) * t * t / frac


def bayes_factor_lindley(t: float, n: float) -> float:
    """Null-over-alternative Bayes factor under the unit-information prior."""
    return math.exp(log_bayes_factor_lindley(t, n))


def _conjugate_variances(problem: NormalProblem, prior: AlternativePrior) -> tuple[float, float]:
    """(sigma^2/n, tau^2), refused when either, or their sum, leaves the
    positive doubles.

    Each input is finite and positive, yet its square can overflow to inf or
    underflow to 0; the message names the inputs and the direction, where
    the arithmetic downstream would only see an invalid variance.
    """
    if not prior.is_conjugate:
        raise ValueError("this operation requires a conjugate-normal prior")
    s2 = problem.sampling_var
    if s2 == 0.0 or s2 == math.inf:
        way = "underflows to 0" if s2 == 0.0 else "overflows to inf"
        raise ValueError(f"sigma^2/n {way} at sigma = {problem.sigma:.6g}, n = {problem.n}")
    tau2 = prior.tau * prior.tau
    if tau2 == 0.0 or tau2 == math.inf:
        way = "underflows to 0" if tau2 == 0.0 else "overflows to inf"
        raise ValueError(f"tau^2 {way} at tau = {prior.tau:.6g}")
    if s2 + tau2 == math.inf:
        raise ValueError(
            f"sigma^2/n + tau^2 overflows to inf at sigma = {problem.sigma:.6g}, "
            f"n = {problem.n}, tau = {prior.tau:.6g}"
        )
    return s2, tau2


def log_bayes_factor_conjugate(problem: NormalProblem, prior: AlternativePrior) -> float:
    s2, tau2 = _conjugate_variances(problem, prior)
    log_m0 = log_normal_pdf(problem.xbar, problem.theta0, s2)
    log_m1 = log_normal_pdf(problem.xbar, problem.theta0, s2 + tau2)
    return log_m0 - log_m1


def bayes_factor_conjugate(problem: NormalProblem, prior: AlternativePrior) -> float:
    """Marginal-likelihood ratio m0(xbar) / m1(xbar).

    m0 is N(theta0, sigma^2/n), m1 is N(theta0, sigma^2/n + tau^2); with
    tau = sigma this reproduces bayes_factor_lindley(t, n).
    """
    return math.exp(log_bayes_factor_conjugate(problem, prior))


def conjugate_posterior(problem: NormalProblem, prior: AlternativePrior) -> tuple[float, float]:
    """Posterior mean and variance of theta under the conjugate alternative."""
    s2, tau2 = _conjugate_variances(problem, prior)
    denom = tau2 + s2
    mu_n = (tau2 * problem.xbar + s2 * problem.theta0) / denom
    omega2 = s2 * tau2 / denom
    return mu_n, omega2


def log_savage_dickey_bf(problem: NormalProblem, prior: AlternativePrior) -> float:
    mu_n, omega2 = conjugate_posterior(problem, prior)
    log_post_at_null = log_normal_pdf(problem.theta0, mu_n, omega2)
    log_prior_at_null = log_normal_pdf(problem.theta0, problem.theta0, prior.tau * prior.tau)
    return log_post_at_null - log_prior_at_null


def savage_dickey_bf(problem: NormalProblem, prior: AlternativePrior) -> float:
    """Posterior-to-prior density ratio at theta0.

    An algebraically independent route to the conjugate Bayes factor, kept
    as a cross-check throughout the tests. Uses the continuous version of
    the alternative prior density at theta0; the ratio is only defined up
    to that versioning choice.
    """
    return math.exp(log_savage_dickey_bf(problem, prior))


def posterior_prob_null(bf01: float, weights: HypothesisWeights) -> float:
    """Posterior probability of the null from its Bayes factor and weights."""
    if not bf01 >= 0.0:
        raise ValueError("bf01 must be non-negative")
    # arranged so bf01 = inf maps cleanly to 1.0, and odds that underflow to
    # 0 (exp(log B01) underflowed, or its product with rho0 did) to 0.0, as
    # the division below already does once (1 - rho0) / odds overflows
    odds = weights.rho0 * bf01
    if odds == 0.0:
        return 0.0
    return 1.0 / (1.0 + (1.0 - weights.rho0) / odds)


def reinterpret_as_prior_scale(
    problem: NormalProblem,
) -> tuple[NormalProblem, AlternativePrior]:
    """Recast n observations as one observation with prior scale tau^2 = n sigma^2.

    The single-observation problem keeps the same t statistic, and its
    conjugate Bayes factor equals bayes_factor_lindley(t, n): the sample
    size can be read as a prior scale factor instead of a data volume.
    """
    t = t_statistic(problem)
    single = NormalProblem(problem.theta0, problem.sigma, 1, problem.theta0 + t * problem.sigma)
    prior = AlternativePrior.conjugate(problem.sigma * math.sqrt(problem.n))
    return single, prior


def improper_bf(problem: NormalProblem, prior: AlternativePrior) -> float:
    """Null marginal density at xbar divided by the flat prior's constant c.

    Scales exactly as 1/c, so the number carries no evidential meaning on
    its own; the operation exists to exhibit that breakdown, and every
    surface that prints it flags the c-dependence.
    """
    if prior.kind != "improper-flat":
        raise ValueError("improper_bf requires an improper-flat prior")
    return math.exp(log_normal_pdf(problem.xbar, problem.theta0, problem.sampling_var)) / prior.c


def weight_compensation(pi1_at_theta0: float) -> HypothesisWeights:
    """Null weight that offsets the alternative's density at theta0.

    Solves rho0 = (1 - rho0) * pi1(theta0), so the point mass and the
    continuous prior carry matched weight at the null value.
    """
    if not (math.isfinite(pi1_at_theta0) and pi1_at_theta0 > 0.0):
        raise ValueError("pi1_at_theta0 must be positive")
    return HypothesisWeights(pi1_at_theta0 / (1.0 + pi1_at_theta0))


def evaluate_test(
    problem: NormalProblem,
    prior: AlternativePrior | None = None,
    weights: HypothesisWeights | None = None,
    alpha: float = 0.05,
) -> TestReport:
    """Both verdicts on one problem; the prior defaults to conjugate tau = sigma."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if prior is None:
        prior = AlternativePrior.conjugate(problem.sigma)
    if weights is None:
        weights = EQUAL_WEIGHTS
    t = t_statistic(problem)
    p = p_value(t)
    if prior.is_conjugate:
        bf01 = bayes_factor_conjugate(problem, prior)
    else:
        bf01 = improper_bf(problem, prior)
    return TestReport(
        t=t,
        p_value=p,
        bf01=bf01,
        post_prob0=posterior_prob_null(bf01, weights),
        alpha=alpha,
    )
