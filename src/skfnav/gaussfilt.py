"""Gaussian filtering on arrays: unscented prediction, and the exact Kalman
update for a linear observation map, which also returns the constant-free
marginal log-likelihood increment used to score competing observation models.

A belief is a mean and a covariance, or a stack of them (means ``(B, d)``,
covariances ``(B, d, d)``): a stack takes one batched factorisation and one
call of each map, and each slice goes through the same LAPACK/BLAS routine
as a single belief, so the results are bit-for-bit the per-belief ones.
Dynamics maps take ``(n, d)`` points (a stack's flattened row-wise).

The Cholesky factorisations and the update's solves call the batched LAPACK
gufuncs behind ``np.linalg.cholesky`` and ``np.linalg.solve`` directly, under
the floating-point error state that ``numpy.linalg`` sets around them, so
the factors and solutions are the same bits without its per-call wrapper,
which costs about as much as the LAPACK work on the small stacks of a step.
A failed factorisation or solve shows as the ``invalid`` flag, raised here as
``FloatingPointError`` where ``numpy.linalg`` raises ``LinAlgError``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.linalg import _umath_linalg

from .exceptions import (
    CovarianceError,
    DynamicsDivergedError,
    InvalidMeasurementError,
    SingularInnovationError,
)

# Scaled unscented-transform tuning (Wan & van der Merwe, 2000).
ALPHA, BETA, KAPPA = 0.1, 2.0, 0.0

_EIG_FLOOR = -1e-9  # least eigenvalue that still counts as semi-definite


def _lapack_errstate() -> np.errstate:
    """The error state ``numpy.linalg`` sets around its gufuncs, with the
    ``invalid`` flag of a failed factorisation or solve raised: a fresh one
    for each use, as numpy cannot re-enter an ``errstate``."""
    return np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore")


def _T(mat: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes (of each matrix in a stack)."""
    return mat.swapaxes(-1, -2)


def symmetrize(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + _T(mat))


def _scaled_dim(dim: int) -> float:
    """alpha^2 (d + kappa), the squared spread of the points around the mean."""
    return ALPHA**2 * (dim + KAPPA)


@lru_cache(maxsize=32)
def _weights(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance weights for ``2 d + 1`` points, computed once per
    ``dim`` and shared: the arrays are read-only."""
    lam = _scaled_dim(dim) - dim
    wm = np.full(2 * dim + 1, 1.0 / (2.0 * (dim + lam)))
    wc = wm.copy()
    wm[0] = lam / (dim + lam)
    wc[0] = wm[0] + (1.0 - ALPHA**2 + BETA)
    wm.flags.writeable = wc.flags.writeable = False
    return wm, wc


def _sqrt_factor(cov: np.ndarray) -> np.ndarray:
    """Matrix S with S S^T = cov.

    Tries Cholesky, then, because an exact update with R = 0 leaves a
    semi-definite posterior, ``eigh`` with eigenvalues above ``_EIG_FLOOR``
    clipped to zero.  Any other matrix raises CovarianceError.  A stack whose
    batched Cholesky fails is factored one matrix at a time, so each member
    still gets its own factor bit for bit.
    """
    try:
        with _lapack_errstate():
            return _umath_linalg.cholesky_lo(cov, signature="d->d")
    except FloatingPointError:
        pass
    if cov.ndim > 2:
        return np.stack([_sqrt_factor(c) for c in cov])
    try:
        eigvals, eigvecs = np.linalg.eigh(symmetrize(cov))
    except np.linalg.LinAlgError:
        eigvals = np.array([-np.inf])
    if np.isfinite(eigvals).all() and eigvals.min() >= _EIG_FLOOR:
        return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
    raise CovarianceError("covariance not PSD")


def sigma_points(
    mean: np.ndarray, cov: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted point set ``(points (..., 2d+1, d), mean weights, cov weights)``."""
    dim = mean.shape[-1]
    scale = _scaled_dim(dim)
    factor = _sqrt_factor(cov)
    spread = math.sqrt(scale) * _T(factor)  # rows are scaled factor columns
    centre = mean[..., None, :]
    points = np.empty(mean.shape[:-1] + (2 * dim + 1, dim))
    points[..., 0, :] = mean
    points[..., 1 : dim + 1, :] = centre + spread
    points[..., dim + 1 :, :] = centre - spread
    wm, wc = _weights(dim)
    return points, wm, wc


def predict(
    mean: np.ndarray,
    cov: np.ndarray,
    dynamics: Callable[[np.ndarray], np.ndarray],
    Q: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Unscented prediction through ``dynamics`` with additive noise ``Q``.

    ``Q`` must be symmetric: it is added to the propagated covariance, which
    is exactly symmetric, so the result is exactly symmetric only if ``Q``
    is.  A stack's sigma points go through ``dynamics`` in one call."""
    points, wm, wc = sigma_points(mean, cov)
    rows = points.reshape(-1, mean.shape[-1])
    propagated = np.asarray(dynamics(rows), dtype=float).reshape(points.shape)
    if not np.isfinite(propagated).all():
        raise DynamicsDivergedError("dynamics diverged: non-finite propagated state")
    mean = wm @ propagated
    dev = propagated - mean[..., None, :]
    cov = symmetrize((_T(dev) * wc) @ dev)
    return mean, cov + Q


def linear_update(
    mean: np.ndarray, cov: np.ndarray, H: np.ndarray, y: np.ndarray, R: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact Kalman update for the linear map ``y = H x + v``, ``v ~ N(0, R)``
    (a stack's ``H`` is ``(B, m, d)``).  Returns the posterior mean and
    covariance and the constant-free log-likelihood increment ``-log|D| -
    (y-mu)^T D^{-1} (y-mu)`` of ``y`` under its prediction ``N(mu, D)``, taken
    from the same innovation factor that forms the gain.  The increment is
    comparable across filters sharing an observation stream; it is not a
    calibrated probability."""
    mu = (H @ mean[..., None])[..., 0]
    cross = cov @ _T(H)
    D = symmetrize(H @ cross + R)
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size != mu.shape[-1] or not np.isfinite(y).all():
        raise InvalidMeasurementError(f"measurement {y}: need {mu.shape[-1]} finite entries")
    resid = (y - mu)[..., None]
    try:
        with _lapack_errstate():
            # the innovation factor, K = cross D^{-1} via two solves with it,
            # and the whitened residual, under one error state
            chol = _umath_linalg.cholesky_lo(D, signature="d->d")
            gain = _T(_solve(_T(chol), _solve(chol, _T(cross))))
            white = _solve(chol, resid)
    except FloatingPointError as exc:
        raise SingularInnovationError("innovation covariance singular") from exc
    diag = chol.diagonal(axis1=-2, axis2=-1)
    lo, hi = diag.min(axis=-1), diag.max(axis=-1)
    # The checks run outside the error state: inside it, a factor whose
    # diagonal is all infinite would raise on inf / inf, where the check has
    # always let it through.  ``lo > 0.0`` is False for the NaN factor that
    # a NaN in D gives without failing the factorisation.
    if not (lo > 0.0).all() or ((hi / lo) ** 2 > 1e14).any():
        raise SingularInnovationError("innovation covariance singular")
    mean = mean + (gain @ resid)[..., 0]
    cov = cov - gain @ D @ _T(gain)
    log_det = 2.0 * np.log(diag).sum(axis=-1)
    log_lik = -log_det - (_T(white) @ white)[..., 0, 0]
    return mean, symmetrize(cov), log_lik


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _umath_linalg.solve(a, b, signature="dd->d")

