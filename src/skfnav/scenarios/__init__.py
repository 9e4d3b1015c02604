"""Truth and measurement generators for the two simulation scenarios."""

from .balloon import BalloonConfig, BalloonTruth, build_balloon_filter, simulate_balloon
from .fields import AnalyticField, GriddedField, load_field_csv
from .shuttle import (
    SCALING_FACTORS,
    ShuttleConfig,
    ShuttleTruth,
    build_shuttle_filter,
    generate_reference,
    scale_noise,
    simulate_shuttle,
)

__all__ = [
    "AnalyticField",
    "GriddedField",
    "load_field_csv",
    "BalloonConfig",
    "BalloonTruth",
    "simulate_balloon",
    "build_balloon_filter",
    "ShuttleConfig",
    "ShuttleTruth",
    "simulate_shuttle",
    "build_shuttle_filter",
    "generate_reference",
    "scale_noise",
    "SCALING_FACTORS",
]
