"""Run-quality metrics: relative RMSE and the outcome classification."""

from __future__ import annotations

from typing import Optional

import numpy as np

GREEN, YELLOW, RED = "green", "yellow", "red"


def relative_rmse(estimates: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per-state ``sqrt(sum((m_k - X_k)^2) / sum(X_k^2))``.

    States whose truth series is identically zero come back as NaN so callers
    can exclude them from aggregates.
    """
    estimates = np.atleast_2d(np.asarray(estimates, dtype=float))
    truth = np.atleast_2d(np.asarray(truth, dtype=float))
    if estimates.shape != truth.shape:
        raise ValueError(f"shape mismatch {estimates.shape} vs {truth.shape}")
    denom = np.sum(truth**2, axis=0)
    num = np.sum((estimates - truth) ** 2, axis=0)
    out = np.full(denom.shape, np.nan)
    ok = denom > 0
    out[ok] = np.sqrt(num[ok] / denom[ok])
    return out


def classify(
    est_step: Optional[int],
    true_step: Optional[int],
    *,
    bias_free: bool,
    no_corruption_reported: bool,
) -> str:
    """Outcome color for one run.

    Corrupted truth: green within one step of the onset, yellow within ten,
    red otherwise (including a filter that reports no corruption).  Clean
    truth: green exactly when the filter reports no corruption.
    """
    if bias_free or true_step is None:
        return GREEN if no_corruption_reported else RED
    if est_step is None:
        return RED
    error = abs(int(est_step) - int(true_step))
    if error <= 1:
        return GREEN
    if error <= 10:
        return YELLOW
    return RED
