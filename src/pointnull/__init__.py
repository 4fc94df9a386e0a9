"""Point-null testing calculus: p-values, Bayes factors, paradox crossing
points, post-data severity, and scoring-rule alternatives.

The library is organised around one normal-location testing problem and the
disagreement between its frequentist and Bayesian verdicts as the sample
grows. Everything needed to reproduce, explore, or stress that disagreement
is importable from this flat namespace; the ``pointnull`` console command
exposes the same calculus to the shell.
"""

from . import binomial, normal, numerics, paradox, scores, severity
from .binomial import *
from .normal import *
from .numerics import *
from .paradox import *
from .scores import *
from .severity import *

__version__ = "0.1.0"

__all__ = [
    *numerics.__all__,
    *normal.__all__,
    *binomial.__all__,
    *paradox.__all__,
    *severity.__all__,
    *scores.__all__,
]
