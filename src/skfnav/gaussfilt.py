"""Gaussian filtering with the scaled unscented transform.

Prediction and update over arbitrary nonlinear state/observation maps; the
update also returns the constant-free marginal log-likelihood increment used
to score competing observation models.

Beliefs may be stacked (means ``(B, d)``, covariances ``(B, d, d)``): a stack
takes one batched factorisation and one call of each map, and each slice goes
through the same LAPACK/BLAS routine as a single belief, so the results are
bit-for-bit the per-belief ones.  Dynamics maps take ``(n, d)`` points (a
stack's flattened row-wise); observation maps take the sigma points as shaped
``(..., 2d+1, d)`` and return ``(..., 2d+1, m)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import (
    CovarianceError,
    DynamicsDivergedError,
    InvalidMeasurementError,
    SingularInnovationError,
)

# Diagonal jitter ladder applied before declaring a covariance non-PSD.
_JITTERS = tuple(1e-12 * 10.0**i for i in range(7))  # 1e-12 .. 1e-6
_EIG_FLOOR = -1e-9


def _T(mat: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes (of each matrix in a stack)."""
    return np.swapaxes(mat, -1, -2)


def symmetrize(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + _T(mat))


@dataclass(frozen=True)
class GaussianBelief:
    """Gaussian state estimate: mean vector and symmetric covariance, or a
    stack of them along a leading axis."""

    mean: np.ndarray
    cov: np.ndarray

    @classmethod
    def create(cls, mean, cov) -> "GaussianBelief":
        mean = np.asarray(mean, dtype=float).reshape(-1)
        cov = symmetrize(np.asarray(cov, dtype=float))
        if cov.shape != (mean.size, mean.size):
            raise ValueError(
                f"covariance shape {cov.shape} does not match state dimension {mean.size}"
            )
        return cls(mean=mean, cov=cov)

    @classmethod
    def stack(cls, beliefs) -> "GaussianBelief":
        return cls(
            mean=np.stack([b.mean for b in beliefs]),
            cov=np.stack([b.cov for b in beliefs]),
        )

    def unstack(self) -> list["GaussianBelief"]:
        return [GaussianBelief(mean=m, cov=c) for m, c in zip(self.mean, self.cov)]

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]


@dataclass(frozen=True)
class SigmaPointParams:
    """Scaled unscented-transform tuning (alpha, beta, kappa)."""

    alpha: float = 0.1
    beta: float = 2.0
    kappa: float = 0.0

    def scaled_dim(self, dim: int) -> float:
        """alpha^2 (d + kappa); must be positive for finite weights."""
        scale = self.alpha**2 * (dim + self.kappa)
        if scale <= 0.0:
            raise ValueError(f"alpha^2 (d + kappa) = {scale} must be positive")
        return scale

    def weights(self, dim: int) -> tuple[np.ndarray, np.ndarray]:
        """Mean and covariance weights for ``2 d + 1`` points."""
        lam = self.scaled_dim(dim) - dim
        wm = np.full(2 * dim + 1, 1.0 / (2.0 * (dim + lam)))
        wc = wm.copy()
        wm[0] = lam / (dim + lam)
        wc[0] = wm[0] + (1.0 - self.alpha**2 + self.beta)
        return wm, wc


@dataclass(frozen=True)
class PredictedObservation:
    """Predicted measurement mean, innovation covariance (noise included) and
    the constant-free log-likelihood increment ``-log|D| - (y-mu)^T D^{-1}
    (y-mu)`` of the measurement.  The increment is comparable across filters
    sharing an observation stream; it is not a calibrated probability."""

    mu: np.ndarray
    D: np.ndarray
    log_lik: np.ndarray


def _sqrt_factor(cov: np.ndarray) -> np.ndarray:
    """Matrix S with S S^T = cov, tolerating slightly indefinite inputs.

    Tries Cholesky first, then an eigenvalue factorization with negative
    eigenvalues above ``_EIG_FLOOR`` clipped to zero, then Cholesky with an
    escalating diagonal jitter.  Raises CovarianceError when all fail.  A
    stack whose batched Cholesky fails is factored one matrix at a time.
    """
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        pass
    if cov.ndim > 2:
        return np.stack([_sqrt_factor(c) for c in cov])
    try:
        eigvals, eigvecs = np.linalg.eigh(symmetrize(cov))
    except np.linalg.LinAlgError:
        eigvals = np.array([-np.inf])
    if np.all(np.isfinite(eigvals)) and eigvals.min() >= _EIG_FLOOR:
        return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
    for jitter in _JITTERS:
        try:
            return np.linalg.cholesky(cov + jitter * np.eye(cov.shape[0]))
        except np.linalg.LinAlgError:
            continue
    raise CovarianceError("covariance not PSD")


def sigma_points(
    belief: GaussianBelief, params: SigmaPointParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted point set ``(points (..., 2d+1, d), mean weights, cov weights)``."""
    dim = belief.dim
    scale = params.scaled_dim(dim)
    factor = _sqrt_factor(belief.cov)
    spread = np.sqrt(scale) * _T(factor)  # rows are scaled factor columns
    mean = belief.mean[..., None, :]
    points = np.empty(belief.mean.shape[:-1] + (2 * dim + 1, dim))
    points[..., 0, :] = belief.mean
    points[..., 1 : dim + 1, :] = mean + spread
    points[..., dim + 1 :, :] = mean - spread
    wm, wc = params.weights(dim)
    return points, wm, wc


def _moments(
    points: np.ndarray, wm: np.ndarray, wc: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    mean = wm @ points
    dev = points - mean[..., None, :]
    cov = (_T(dev) * wc) @ dev
    return mean, symmetrize(cov)


def predict(
    belief: GaussianBelief,
    dynamics: Callable[[np.ndarray], np.ndarray],
    Q: np.ndarray,
    params: SigmaPointParams,
) -> GaussianBelief:
    """Unscented prediction through ``dynamics`` with additive noise ``Q``.

    A stack's sigma points go through ``dynamics`` in one call."""
    points, wm, wc = sigma_points(belief, params)
    rows = points.reshape(-1, belief.dim)
    propagated = np.asarray(dynamics(rows), dtype=float).reshape(points.shape)
    if not np.all(np.isfinite(propagated)):
        raise DynamicsDivergedError("dynamics diverged: non-finite propagated state")
    mean, cov = _moments(propagated, wm, wc)
    return GaussianBelief(mean=mean, cov=symmetrize(cov + Q))


def update(
    belief: GaussianBelief,
    observation: Callable[[np.ndarray], np.ndarray],
    y: np.ndarray,
    R: np.ndarray,
    params: SigmaPointParams,
) -> tuple[GaussianBelief, PredictedObservation]:
    """Unscented measurement update; returns the posterior and the predicted
    observation, whose ``log_lik`` scores ``y`` from the same innovation
    factor that forms the gain."""
    y = np.asarray(y, dtype=float).reshape(-1)
    if not np.all(np.isfinite(y)):
        raise InvalidMeasurementError("invalid measurement: non-finite entries")
    points, wm, wc = sigma_points(belief, params)
    obs_points = np.asarray(observation(points), dtype=float)
    if obs_points.shape[-1] != y.size:
        raise InvalidMeasurementError(
            f"measurement dimension {y.size} does not match observation map "
            f"output {obs_points.shape[-1]}"
        )
    mu = wm @ obs_points
    dev_y = obs_points - mu[..., None, :]
    D = symmetrize((_T(dev_y) * wc) @ dev_y + R)
    dev_x = points - belief.mean[..., None, :]
    cross = (_T(dev_x) * wc) @ dev_y
    chol = _cholesky_innovation(D)
    # K = cross D^{-1} via two triangular solves
    gain = _T(_cho_solve(chol, _T(cross)))
    resid = (y - mu)[..., None]
    mean = belief.mean + (gain @ resid)[..., 0]
    cov = belief.cov - gain @ D @ _T(gain)
    white = np.linalg.solve(chol, resid)
    log_det = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
    log_lik = -log_det - (_T(white) @ white)[..., 0, 0]
    return (
        GaussianBelief(mean=mean, cov=symmetrize(cov)),
        PredictedObservation(mu=mu, D=D, log_lik=log_lik),
    )


def _cholesky_innovation(D: np.ndarray) -> np.ndarray:
    try:
        chol = np.linalg.cholesky(D)
    except np.linalg.LinAlgError as exc:
        raise SingularInnovationError("innovation covariance singular") from exc
    diag = np.diagonal(chol, axis1=-2, axis2=-1)
    lo, hi = diag.min(axis=-1), diag.max(axis=-1)
    if np.any(lo <= 0.0) or np.any((hi / lo) ** 2 > 1e14):
        raise SingularInnovationError("innovation covariance singular")
    return chol


def _cho_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    z = np.linalg.solve(chol, b)
    return np.linalg.solve(_T(chol), z)
