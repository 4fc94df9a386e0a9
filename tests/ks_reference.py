"""The KS distance the uniformity sweep is checked against.

pvalue_uniformity_check must give the double this gives on p_value of
every draw; the sweep itself never builds that array of p-values.
"""

from typing import Sequence

import numpy as np


def uniform_ks_distance(values: Sequence[float]) -> float:
    """Two-sided Kolmogorov-Smirnov distance against Uniform(0,1)."""
    v = np.sort(np.asarray(values, dtype=float))
    if v.size == 0:
        raise ValueError("need at least one value")
    # the sort puts any nan last, where the upper check refuses it
    if not (v[0] >= 0.0 and v[-1] <= 1.0):
        raise ValueError("values must lie in [0, 1]")
    steps = np.arange(1, v.size + 1, dtype=float) / v.size
    return float(np.maximum(steps - v, v - (steps - 1.0 / v.size)).max())
