"""Onset detection for corrupted navigation measurements.

A branched switching filter (unscented, with the corruption parameters
appended to the state) scores competing hypotheses about when an observation
stream turned bad, alongside the simulation scenarios and experiment harness
used to exercise it.
"""

from .biasmodels import BiasSpec, SwitchSpec, augment, bias_eval, observe
from .gaussfilt import (
    GaussianBelief,
    PredictedObservation,
    SigmaPointParams,
    predict,
    sigma_points,
    update,
)
from .kernels import BACKEND
from .switching import (
    Branch,
    BranchSet,
    SwitchingFilter,
    estimate,
    model_average,
    prune,
    reports_no_corruption,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "BiasSpec",
    "SwitchSpec",
    "bias_eval",
    "observe",
    "augment",
    "GaussianBelief",
    "SigmaPointParams",
    "PredictedObservation",
    "sigma_points",
    "predict",
    "update",
    "Branch",
    "BranchSet",
    "SwitchingFilter",
    "prune",
    "estimate",
    "model_average",
    "reports_no_corruption",
    "__version__",
]
