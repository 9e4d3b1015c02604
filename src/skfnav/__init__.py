"""Onset detection for corrupted navigation measurements.

A branched switching filter (unscented prediction and an exact linear
measurement update, with the corruption parameters appended to the state)
scores competing hypotheses about when an observation stream turned bad,
alongside the simulation scenarios and experiment harness used to exercise it.
"""

from .biasmodels import BiasSpec
from .gaussfilt import linear_update, predict, sigma_points
from .kernels import BACKEND
from .switching import (
    SwitchingFilter,
    estimate,
    prune,
    reports_no_corruption,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "BiasSpec",
    "sigma_points",
    "predict",
    "linear_update",
    "SwitchingFilter",
    "prune",
    "estimate",
    "reports_no_corruption",
    "__version__",
]
