"""Flat-prior Bayes factor and normal-approximation p-value for a binomial
point null, kept in the log domain so half-million-trial inputs stay finite."""

from __future__ import annotations

import math
import sys

from . import _EXPORTS
from ._record import Record
from .normal import NormalProblem, p_value
from .numerics import log_beta

__all__ = _EXPORTS["binomial"]


class BinomialProblem(Record):
    """x successes in n trials against a point null success probability."""

    n: int
    x: int
    theta0: float

    def __post_init__(self) -> None:
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


def as_normal_problem(problem: BinomialProblem) -> NormalProblem:
    """Normal-approximation view with the null-based spread sqrt(theta0(1-theta0)).

    Matches binomial_z above. A theta1- or phat-based spread is the other
    defensible convention; severity numbers computed downstream carry this
    choice with them.
    """
    sigma = math.sqrt(problem.theta0 * (1.0 - problem.theta0))
    return NormalProblem(problem.theta0, sigma, problem.n, problem.phat)
