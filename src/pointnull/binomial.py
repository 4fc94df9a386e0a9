"""Flat-prior Bayes factor and normal-approximation p-value for a binomial
point null, kept in the log domain so half-million-trial inputs stay finite,
with the log-beta function that the Bayes factor's alternative marginal
needs."""

import math
import sys

from . import _EXPORTS
from ._record import Record
from .numerics import p_value

__all__ = _EXPORTS["binomial"]


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
    if not 0.0 < a < math.inf:
        raise ValueError(f"log_beta needs a finite positive a, got {a!r}")
    if not 0.0 < b < math.inf:
        raise ValueError(f"log_beta needs a finite positive b, got {b!r}")
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


class BinomialProblem(Record):
    """x successes in n trials against a point null success probability."""

    n: int
    x: int
    theta0: float

    def __post_init__(self) -> None:
        for name, value in (("n", self.n), ("x", self.x)):
            if not hasattr(value, "__index__"):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.n > sys.float_info.max:
            raise ValueError(f"n must be at most the largest float, {sys.float_info.max:.6g}")
        if not 0 <= self.x <= self.n:
            raise ValueError("x must lie in [0, n]")
        if not (math.isfinite(self.theta0) and 0.0 < self.theta0 < 1.0):
            raise ValueError("theta0 must lie strictly between 0 and 1")

    @property
    def phat(self) -> float:
        return self.x / self.n


# Counts adopted from Stone (1997). The reference checks validate that they
# jointly reproduce the published anchors z ~ 3.0, p ~ .0027, B01 ~ 8.115;
# they are inputs to be confirmed, not trusted numbers.
STONE_EXAMPLE = BinomialProblem(n=527135, x=106298, theta0=0.2)


def binomial_z(problem: BinomialProblem) -> float:
    """Normal-approximation z statistic (phat - theta0) / sqrt(theta0(1-theta0)/n)."""
    spread = math.sqrt(problem.theta0 * (1.0 - problem.theta0) / problem.n)
    if spread == 0.0:
        raise ValueError(
            f"the null spread sqrt(theta0(1-theta0)/n) underflows to 0 at "
            f"theta0={problem.theta0:.6g}, n={problem.n:.6g}"
        )
    return (problem.phat - problem.theta0) / spread


def binomial_p_value(problem: BinomialProblem) -> float:
    """Two-sided normal-approximation p-value; exact tail sums are out of scope."""
    return p_value(binomial_z(problem))


def log_binomial_bf_flat(problem: BinomialProblem) -> float:
    # plain log for both theta0 and 1 - theta0: the same function applied to
    # the same floats keeps the (x, theta0) <-> (n-x, 1-theta0) mirror exact
    n, x, theta0 = problem.n, problem.x, problem.theta0
    return (
        x * math.log(theta0)
        + (n - x) * math.log(1.0 - theta0)
        - log_beta(x + 1.0, n - x + 1.0)
    )


def binomial_bf_flat(problem: BinomialProblem) -> float:
    """Exact null-over-alternative Bayes factor under the flat Beta(1,1) prior.

    The alternative marginal is the Beta integral of the likelihood, so
    B01 = theta0^x (1-theta0)^(n-x) / Beta(x+1, n-x+1).
    """
    return math.exp(log_binomial_bf_flat(problem))


def binomial_bf_laplace(problem: BinomialProblem) -> float:
    """Laplace approximation to binomial_bf_flat, the analytic cross-check.

    exp(-Lambda/2) sqrt(n / (2 pi phat (1-phat))) with Lambda the likelihood
    ratio statistic; only trustworthy when n phat (1-phat) > 25, and refused
    otherwise.
    """
    phat = problem.phat
    spread = problem.n * phat * (1.0 - phat)
    if not spread > 25.0:
        raise ValueError(
            f"approximation invalid: needs n*phat*(1-phat) > 25, got {spread:.6g}"
        )
    theta0 = problem.theta0
    lam = 2.0 * problem.n * (
        phat * math.log(phat / theta0)
        + (1.0 - phat) * math.log((1.0 - phat) / (1.0 - theta0))
    )
    return math.exp(-lam / 2.0) * math.sqrt(problem.n / (2.0 * math.pi * phat * (1.0 - phat)))

