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
A failed factorisation or solve sets the ``invalid`` flag, which is recorded
here where ``numpy.linalg`` raises ``LinAlgError``, and fills its member
with NaN, as batched LAPACK returns one ``info`` per problem.

So a stack's failing rows need no run of their own.  A failing check raises
for a single belief, and for a stack too unless the caller passes
``failed``, an empty dict: each failing row then goes there with the type
of its first failing check, the error a run of that row alone raises, and
keeps its belief, while the other rows get the bits of a stack without it.

The checks here are of numerics only.  Inputs are taken as given, as the
caller checked them: ``predict``'s ``Q`` is symmetric, and ``linear_update``'s
measurement is an ``(m,)`` float vector of finite entries.
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
    SingularInnovationError,
    SkfnavError,
)

# Scaled unscented-transform tuning (Wan & van der Merwe, 2000).
ALPHA, BETA, KAPPA = 0.1, 2.0, 0.0

_EIG_FLOOR = -1e-9  # least eigenvalue that still counts as semi-definite


def _lapack_errstate(failures: list) -> np.errstate:
    """The error state ``numpy.linalg`` sets around its gufuncs, with the
    ``invalid`` flag of a failed factorisation or solve appended to
    ``failures``: a fresh one for each use, as numpy cannot re-enter an
    ``errstate``.  A gufunc fills each member that it fails with NaN."""
    return np.errstate(call=lambda *_: failures.append(True), invalid="call",
                       over="ignore", divide="ignore", under="ignore")


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


def _sqrt_factor(cov: np.ndarray, failed: dict | None = None) -> np.ndarray:
    """Matrix S with S S^T = cov, for each matrix of a stack.

    Tries Cholesky, then, for the matrices that it fails (which the gufunc
    fills with NaN, where any other factor is zero above its diagonal),
    because an exact update with R = 0 leaves a semi-definite posterior,
    ``eigh`` with eigenvalues above ``_EIG_FLOOR`` clipped to zero, as one
    stack.  Any other matrix raises CovarianceError, or, given ``failed``,
    puts its index there with that type, its factor meaning nothing.  (At
    d = 1 a factor that is NaN for a NaN covariance also goes to ``eigh``,
    which finds it not semi-definite.)
    """
    failures: list = []
    with _lapack_errstate(failures):
        factor = _umath_linalg.cholesky_lo(cov, signature="d->d")
    if not failures:
        return factor
    members = factor.reshape((-1,) + cov.shape[-2:])
    tried = np.flatnonzero(np.isnan(members[:, 0, -1]))
    with _lapack_errstate(failures):
        eigvals, eigvecs = _umath_linalg.eigh_lo(
            symmetrize(cov.reshape(members.shape)[tried]), signature="d->dd")
    members[tried] = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))[:, None, :]
    semi = np.isfinite(eigvals).all(axis=-1) & (eigvals.min(axis=-1) >= _EIG_FLOOR)
    if not semi.all():
        if failed is None:
            raise CovarianceError("covariance not PSD")
        failed.update(dict.fromkeys(tried[~semi].tolist(), CovarianceError))
    return factor


def sigma_points(
    mean: np.ndarray, cov: np.ndarray, failed: dict | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted point set ``(points (..., 2d+1, d), mean weights, cov weights)``.
    A failing covariance raises, or, given ``failed``, is reported there
    (``_sqrt_factor``), its row's points meaning nothing."""
    dim = mean.shape[-1]
    scale = _scaled_dim(dim)
    factor = _sqrt_factor(cov, failed)
    spread = math.sqrt(scale) * _T(factor)  # rows are scaled factor columns
    centre = mean[..., None, :]
    points = np.empty(mean.shape[:-1] + (2 * dim + 1, dim))
    points[..., 0, :] = mean
    points[..., 1 : dim + 1, :] = centre + spread
    points[..., dim + 1 :, :] = centre - spread
    wm, wc = _weights(dim)
    return points, wm, wc


def _propagate(points: np.ndarray, dynamics: Callable, failed: dict | None):
    """Run ``dynamics`` on the points of the rows of ``points`` (a stack's
    ``(B, 2d+1, d)``, or one belief's, which takes no ``failed``) that are
    not in ``failed``, and return those rows, ``slice(None)`` for all, and
    their propagated points.  An error of ``dynamics`` raises, or, given
    ``failed``, fails the rows of the points that it names with its type
    (every row in the call, when it names none), and the dynamics runs once
    more on the other rows.
    """
    rows, chosen = slice(None), points
    while True:
        if failed:
            keep = np.ones(len(points), dtype=bool)
            keep[list(failed)] = False
            rows = np.flatnonzero(keep)
            chosen = points[rows]
            if not rows.size:
                return rows, chosen
        try:
            out = dynamics(chosen.reshape(-1, chosen.shape[-1]))
            return rows, np.asarray(out, dtype=float).reshape(chosen.shape)
        except SkfnavError as exc:
            if failed is None:
                raise
            in_call = np.arange(len(points))[rows]
            named = in_call if exc.points is None else in_call[exc.points // points.shape[-2]]
            failed.update(dict.fromkeys(named.tolist(), type(exc)))


def predict(
    mean: np.ndarray,
    cov: np.ndarray,
    dynamics: Callable[[np.ndarray], np.ndarray],
    Q: np.ndarray,
    failed: dict | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Unscented prediction through ``dynamics`` with additive noise ``Q``.

    ``Q`` must be symmetric: it is added to the propagated covariance, which
    is exactly symmetric, so the result is exactly symmetric only if ``Q``
    is.  A stack's sigma points go through ``dynamics`` in one call.

    A failing check raises.  Given ``failed``, an empty dict, a stack
    reports its failing rows there instead, each with the type of its first
    failing check, the one a prediction of that row alone raises: the
    covariance (``sigma_points``), an error of ``dynamics`` (``_propagate``;
    the rows that failed before are not propagated), and a non-finite
    propagated point.  A failing row keeps its belief, and the other rows
    get the bits of a stack without it."""
    points, wm, wc = sigma_points(mean, cov, failed)
    rows, propagated = _propagate(points, dynamics, failed)
    if not np.isfinite(propagated).all():
        if failed is None:
            raise DynamicsDivergedError("dynamics diverged: non-finite propagated state")
        finite = np.isfinite(propagated).all(axis=(-2, -1))
        rows = np.arange(len(points))[rows]
        failed.update(dict.fromkeys(rows[~finite].tolist(), DynamicsDivergedError))
        rows, propagated = rows[finite], propagated[finite]
    new_mean = wm @ propagated
    dev = propagated - new_mean[..., None, :]
    new_cov = symmetrize((_T(dev) * wc) @ dev) + Q
    if not failed:
        return new_mean, new_cov
    mean, cov = mean.copy(), cov.copy()
    mean[rows], cov[rows] = new_mean, new_cov
    return mean, cov


def linear_update(
    mean: np.ndarray,
    cov: np.ndarray,
    H: np.ndarray,
    y: np.ndarray,
    R: np.ndarray,
    failed: dict | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact Kalman update for the linear map ``y = H x + v``, ``v ~ N(0, R)``
    (a stack's ``H`` is ``(B, m, d)``).  Returns the posterior mean and
    covariance and the constant-free log-likelihood increment ``-log|D| -
    (y-mu)^T D^{-1} (y-mu)`` of ``y`` under its prediction ``N(mu, D)``, taken
    from the same innovation factor that forms the gain.  The increment is
    comparable across filters sharing an observation stream; it is not a
    calibrated probability.

    ``y`` must be an ``(m,)`` float vector of finite entries: it is taken as
    given, and it broadcasts against each row's prediction ``mu``.  An
    innovation covariance that cannot be inverted, or whose factor's
    diagonal is not positive with a squared ratio of its extremes at most
    1e14, raises SingularInnovationError.  Given ``failed``, an empty dict,
    a stack reports its failing rows there instead; a failing row keeps its
    belief and scores 0, and the other rows get the bits of a stack without
    it."""
    mu = (H @ mean[..., None])[..., 0]
    cross = cov @ _T(H)
    D = symmetrize(H @ cross + R)
    resid = (y - mu)[..., None]
    failures: list = []
    with _lapack_errstate(failures):
        # the innovation factor, K = cross D^{-1} via two solves with it,
        # the whitened residual, and the check of the factor's diagonal,
        # which fails on NaN: a factor that Cholesky fails is NaN throughout,
        # a NaN in D gives a NaN factor without failing it, and a diagonal
        # all infinite gives inf / inf
        chol = _umath_linalg.cholesky_lo(D, signature="d->d")
        gain = _T(_solve(_T(chol), _solve(chol, _T(cross))))
        white = _solve(chol, resid)
        diag = chol.diagonal(axis1=-2, axis2=-1)
        lo, hi = diag.min(axis=-1), diag.max(axis=-1)
        ok = (lo > 0.0) & ((hi / lo) ** 2 <= 1e14)
    if not failures and ok.all():
        return _posterior(mean, cov, gain, D, resid, diag, white)
    if failed is None:
        raise SingularInnovationError("innovation covariance singular")
    # a solve that fails fills its member with NaN
    ok &= ~(np.isnan(gain[..., 0, 0]) | np.isnan(white[..., 0, 0]))
    bad = ~ok
    failed.update(dict.fromkeys(np.flatnonzero(bad).tolist(), SingularInnovationError))
    with np.errstate(all="ignore"):  # the failing rows' arithmetic means nothing
        new_mean, new_cov, log_lik = _posterior(mean, cov, gain, D, resid, diag, white)
    new_mean[bad], new_cov[bad], log_lik[bad] = mean[bad], cov[bad], 0.0
    return new_mean, new_cov, log_lik


def _posterior(mean, cov, gain, D, resid, diag, white):
    """``linear_update``'s posterior mean and covariance and score from the
    gain, the innovation covariance and factor diagonal, and the residual
    and its whitened form."""
    mean = mean + (gain @ resid)[..., 0]
    cov = cov - gain @ D @ _T(gain)
    log_det = 2.0 * np.log(diag).sum(axis=-1)
    log_lik = -log_det - (_T(white) @ white)[..., 0, 0]
    return mean, symmetrize(cov), log_lik


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _umath_linalg.solve(a, b, signature="dd->d")

