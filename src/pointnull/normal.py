"""Normal-mean point-null tests with known variance.

Covers the t statistic, the sample-size Bayes factor and its conjugate
generalization, the Savage-Dickey density-ratio route, posterior null
probabilities, the single-observation prior-scale reading, and both
verdicts on one problem. Every Bayes factor is computed in the log domain
first; sample sizes up to 1e9 appear in the consistency sweeps.
"""

import math
import sys

from . import _EXPORTS
from ._record import Record
from .numerics import log_normal_pdf, p_value  # log_normal_pdf: the benchmark's tracer wraps it

__all__ = _EXPORTS["normal"]


class NormalProblem(Record):
    """Observed mean of n draws from N(theta, sigma^2), against null theta0."""

    theta0: float
    sigma: float
    n: int
    xbar: float

    def __post_init__(self) -> None:
        if not hasattr(self.n, "__index__"):
            raise ValueError(f"n must be an integer, got {self.n!r}")
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
    def from_t(cls, t: float, n: int, *, theta0: float = 0.0, sigma: float = 1.0) -> "NormalProblem":
        """Problem whose observed mean sits t standard errors above theta0."""
        sem = cls(theta0, sigma, n, theta0).sem  # checks theta0, sigma and n, in the constructor's order
        if not math.isfinite(t):
            raise ValueError("t must be finite")
        xbar = theta0 + t * sigma / math.sqrt(n)
        if math.isinf(xbar):  # a step overflowed: summed on mantissas, xbar may yet be a double
            mt, et = _frexp(t)
            m, e = _frexp(mt * sem)
            xbar = _finite((m + _ldexp(theta0, -e - et), e + et), "xbar", "theta0", "t", "sigma", "n")
        return cls(theta0, sigma, n, xbar)

    @property
    def sem(self) -> float:
        """Standard error of the mean, sigma / sqrt(n)."""
        return self.sigma / math.sqrt(self.n)


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


# The exact-scaling layer: a number as (m, e), worth m * 2**e, where a step may leave the doubles;
# _ldexp rounds one back, +-inf past the largest. Each takes floats; _ldexp also, elementwise,
# numpy arrays, as the consistency sweep's median refusal hands it.


def _frexp(x: float) -> tuple:
    return math.frexp(x)


def _ldexp(m, e):
    if getattr(m, "ndim", 0) or getattr(e, "ndim", 0):
        return sys.modules["numpy"].ldexp(m, e)
    try:
        return math.ldexp(m, e)
    except OverflowError:
        return math.copysign(math.inf, m)


def _difference(a: float, b: float) -> tuple:
    """a - b as (m, e); where it overflows, from the halves of a and b, exact at 2^970 and up."""
    if half := math.isinf(d := a - b):
        d = 0.5 * a - 0.5 * b
    m, e = _frexp(d)
    return m, e + half


def _over_sem(a: float, b: float, problem: NormalProblem) -> tuple:
    """(a - b) / sem = sqrt(n) (a - b) / sigma as (m, e), rounded on mantissas."""
    (mx, ex), (ms, es) = _difference(a, b), _frexp(problem.sigma)
    m, e = _frexp(mx * math.sqrt(problem.n) / ms)
    return m, e + ex - es


def _bf(log_bf: float) -> float:
    """exp(log B01); past the largest double, refused by name as e^r 2^k, k = floor(log B01 / log 2)."""
    if log_bf <= math.log(sys.float_info.max) or not math.isfinite(log_bf):  # where exp answers
        return math.exp(log_bf)
    k, r = divmod(log_bf, math.log(2.0))  # k >= 1024 and r >= 0: e^r 2^k lies past 2^1024
    return _finite((math.exp(r), int(k)), "B01", "t", "tau", "sigma", "n")


def _finite(x: tuple, quantity: str, *operands: str) -> float:
    """x = (m, e) as a double; beyond them, refused by quantity, the fields it comes from, and its size."""
    if math.isinf(value := _ldexp(*x)):
        size = math.log10(abs(x[0])) + x[1] * math.log10(2.0)
        fields = " and ".join(filter(None, (", ".join(operands[:-1]), operands[-1])))
        raise ValueError(f"{quantity} from {fields} lies beyond the largest double, at 10^{size:.6g}")
    return value


def t_statistic(problem: NormalProblem) -> float:
    return _ldexp(*_over_sem(problem.xbar, problem.theta0, problem))


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
    # n t^2 overflows where the quotient need not. n and 2(1 + n) share one power of two, which
    # keeps every rounding bar a subnormal step, which only a t term far below log1p(n)'s ulp takes.
    frac, exp = _frexp(denom)
    return 0.5 * math.log1p(n) - _ldexp(n, -exp) * t * t / frac


def bayes_factor_lindley(t: float, n: float) -> float:
    """Null-over-alternative Bayes factor under the unit-information prior."""
    return math.exp(log_bayes_factor_lindley(t, n))


def _shrinkage(problem: NormalProblem, prior: AlternativePrior) -> tuple:
    """t, r = tau / sem and c^2 = tau^2 / (sem^2 + tau^2) as (m, e) pairs. In units of sem
    the prior is N(0, r^2) and the posterior N(t c^2, c^2), so the conjugate algebra meets
    the scale only through t and r."""
    if not prior.is_conjugate:
        raise ValueError("this operation requires a conjugate-normal prior")
    rm, re = _over_sem(prior.tau, 0.0, problem)
    # past r = 2^64, c^2 = r^2 / (1 + r^2) rounds to 1 and log1p(r^2) / 2 to log r
    c2 = (rm * rm / (1.0 + _ldexp(rm * rm, 2 * re)), 2 * re) if re <= 64 else (1.0, 0)
    return _over_sem(problem.xbar, problem.theta0, problem), (rm, re), c2


def log_bayes_factor_conjugate(problem: NormalProblem, prior: AlternativePrior) -> float:
    (tm, te), (rm, re), (cm, ce) = _shrinkage(problem, prior)
    # log(hypot(sem, tau) / sem) - (t c)^2 / 2, where hypot(sem, tau) / sem = hypot(1, r)
    log_h = 0.5 * math.log1p(_ldexp(rm * rm, 2 * re)) if re <= 64 else math.log(rm) + re * math.log(2.0)
    return log_h - _ldexp(0.5 * tm * tm * cm, 2 * te + ce)


def bayes_factor_conjugate(problem: NormalProblem, prior: AlternativePrior) -> float:
    """Marginal-likelihood ratio m0(xbar) / m1(xbar).

    m0 is N(theta0, sigma^2/n), m1 is N(theta0, sigma^2/n + tau^2); with
    tau = sigma this reproduces bayes_factor_lindley(t, n).
    """
    return _bf(log_bayes_factor_conjugate(problem, prior))


def log_savage_dickey_bf(problem: NormalProblem, prior: AlternativePrior) -> float:
    (tm, te), (rm, re), (cm, ce) = _shrinkage(problem, prior)
    # in units of sem: the posterior's mean t c^2 over its sd c, and log(r / c)
    sd_m, sd_e = math.sqrt(cm), ce // 2
    z = _ldexp(tm * cm / sd_m, te + ce - sd_e)
    return math.log(rm / sd_m) + (re - sd_e) * math.log(2.0) - 0.5 * z * z


def savage_dickey_bf(problem: NormalProblem, prior: AlternativePrior) -> float:
    """Posterior-to-prior density ratio at theta0.

    An algebraically independent route to the conjugate Bayes factor, kept
    as a cross-check throughout the tests; it reads the posterior through
    its mean and sd. Uses the continuous version of the alternative prior
    density at theta0; the ratio is only defined up to that versioning choice.
    """
    return _bf(log_savage_dickey_bf(problem, prior))


def posterior_prob_null(bf01: float, weights: HypothesisWeights) -> float:
    """Posterior probability of the null from its Bayes factor and weights."""
    if not bf01 >= 0.0:
        raise ValueError("bf01 must be non-negative")
    # arranged so bf01 = inf maps cleanly to 1.0
    odds, rest = weights.rho0 * bf01, 1.0 - weights.rho0
    if odds < sys.float_info.min:
        # a subnormal or zero odds carries its rounding into the odds form,
        # which rounds the posterior to 0 once rest / odds overflows; the
        # posterior is rho0 bf01 / rest to far below its ulp, and 0 for bf01 = 0
        return weights.rho0 * (bf01 / rest)
    return 1.0 / (1.0 + rest / odds)


def reinterpret_as_prior_scale(problem: NormalProblem) -> tuple[NormalProblem, AlternativePrior]:
    """Recast n observations as one observation with prior scale tau^2 = n sigma^2.

    The single-observation problem keeps the same t statistic, and its
    conjugate Bayes factor equals bayes_factor_lindley(t, n): the sample
    size can be read as a prior scale factor instead of a data volume.
    """
    single = NormalProblem.from_t(t_statistic(problem), 1, theta0=problem.theta0, sigma=problem.sigma)
    return single, AlternativePrior.conjugate(problem.sigma * math.sqrt(problem.n))


def evaluate_test(
    problem: NormalProblem, prior: AlternativePrior, weights: HypothesisWeights, alpha: float = 0.05
) -> TestReport:
    """Both verdicts on one problem under a conjugate-normal alternative."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    t = _finite(_over_sem(problem.xbar, problem.theta0, problem), "t", "xbar", "theta0", "sigma", "n")
    bf01 = bayes_factor_conjugate(problem, prior)
    return TestReport(t, p_value(t), bf01, posterior_prob_null(bf01, weights), alpha)
