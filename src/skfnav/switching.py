"""Branched switching filter for corruption-onset detection.

One never-pruned nominal branch runs the clean observation model.  At every
observation epoch the nominal branch is updated twice: once with the clean
model (staying nominal) and once with the corrupted model anchored at the
current epoch, which spawns a new corrupted branch.  Existing corrupted
branches update with their own onset hypothesis.  Each branch accumulates the
constant-free log-likelihood of its observation stream, and the population of
corrupted branches is pruned to a fixed capacity by discarding the lowest
accumulated score (the nominal branch is exempt).

The filter keeps its branches as one ``Bank`` of stacked rows between steps,
so that prediction makes one factorisation and one dynamics call, and the
measurement update, exact because the observation map is linear in the
augmented state, is one scored update.  A branch whose numerics fail freezes
alone: when the stack raises, that stage is re-run one row at a time.  A
branch spawned at an epoch is a copy of the nominal until the next epoch's
update, so it is not predicted: it takes the nominal's prediction
(``Bank.twin``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .biasmodels import offset_columns, write_offset_basis
from .exceptions import ConfigError, InvalidMeasurementError, SkfnavError
from .gaussfilt import linear_update, predict, symmetrize


class Bank:
    """All branches as rows of stacks that persist between steps: the nominal
    in row 0, then the corrupted branches in spawn order.  ``mean`` (B, d),
    ``cov`` (B, d, d) and ``log_lik`` are views of the first B rows of
    buffers sized for ``size`` rows; the prior ``(mean, cov)`` starts row 0.
    The lists hold per row the onset step ``s_index`` (0 for the nominal), and
    in ``cause`` the type of the exception that froze the row, or None while
    it is live (a frozen row keeps its belief and score and no longer updates
    or spawns).  ``snapshots`` holds one entry per step, ``(means,
    variances, scores, onsets)`` of the rows then in the bank, from which
    ``trajectory`` rebuilds any row's; ``record`` appends it."""

    def __init__(self, mean: np.ndarray, cov: np.ndarray, size: int):
        self._mean = np.zeros((size, mean.size))
        self._cov = np.zeros((size, mean.size, mean.size))
        self._log_lik = np.zeros(size)
        self._mean[0], self._cov[0] = mean, cov
        self.s_index: list = [0]
        self.cause: list = [None]
        self.snapshots: list = []
        self._trimmed = 0  # the snapshots before this step hold the nominal only

    def __len__(self) -> int:
        return len(self.s_index)

    mean = property(lambda self: self._mean[: len(self.s_index)])
    cov = property(lambda self: self._cov[: len(self.s_index)])
    log_lik = property(lambda self: self._log_lik[: len(self.s_index)])

    def _buffers(self):
        return self._mean, self._cov, self._log_lik

    def live(self) -> list[int]:
        """The rows that no failure has frozen."""
        return [row for row, cause in enumerate(self.cause) if cause is None]

    def twin(self, since: int) -> bool:
        """Whether the last row is a corrupted row spawned at step ``since``
        or later, live like row 0.  A spawn copies row 0 after its update, so
        until the spawned row's own first update it holds row 0's bits and
        its prediction is row 0's: the filter asks before predicting step
        ``k``, with ``since = k - delta``, predicts the other rows and copies
        row 0's result into it.  Only the last row can qualify, as each
        epoch spawns at most one row."""
        n = len(self.s_index)
        return (n > 1 and self.s_index[n - 1] >= since
                and self.cause[0] is None and self.cause[n - 1] is None)

    def copy_to_twin(self) -> None:
        """Copy row 0's belief and cause into the last row, its twin: a row 0
        that froze in the predict freezes its twin too."""
        n = len(self.s_index)
        self._mean[n - 1], self._cov[n - 1] = self._mean[0], self._cov[0]
        self.cause[n - 1] = self.cause[0]

    def spawn(self, s_index: int) -> None:
        """Append a copy of row 0, which must be live, with onset ``s_index``."""
        n = len(self)
        for buf in self._buffers():
            buf[n] = buf[0]
        self.s_index.append(s_index)
        self.cause.append(None)

    def drop(self, rows) -> None:
        """Remove ``rows``, keeping the order of the others."""
        for row in sorted(rows, reverse=True):
            n = len(self)
            for buf in self._buffers():
                buf[row : n - 1] = buf[row + 1 : n]
            del self.s_index[row], self.cause[row]

    def record(self) -> None:
        """Append this step's snapshot of every row.  A snapshot older than
        every corrupted row's onset is read, by the rows in the bank and by
        any later spawn, for its nominal row only, so it is replaced by one
        that holds that row alone."""
        n = len(self.s_index)
        self.snapshots.append((self._mean[:n].copy(),
                               self._cov[:n].diagonal(axis1=1, axis2=2).copy(),
                               self._log_lik[:n].tolist(), tuple(self.s_index)))
        oldest = min(self.s_index[1:], default=len(self.snapshots))
        for t in range(self._trimmed, oldest):
            mean, var, scores, onsets = self.snapshots[t]
            self.snapshots[t] = (mean[:1].copy(), var[:1].copy(), scores[:1], onsets[:1])
        self._trimmed = oldest

    def trajectory(self, row: int) -> list[tuple]:
        """Row ``row``'s ``(mean, variances, score)`` after every step: the
        nominal's before the row's onset, and its own from the onset on."""
        s = self.s_index[row]
        entries = []
        for t, (mean, var, scores, onsets) in enumerate(self.snapshots):
            i = 0 if t < s else onsets.index(s)
            entries.append((mean[i], var[i], scores[i]))
        return entries


@dataclass(frozen=True)
class SwitchEstimate:
    """The bank row of the most likely onset hypothesis, its onset step, and
    the onsets and posterior weights of all rows."""

    row: int
    s_index: int
    s_indices: np.ndarray
    weights: np.ndarray

    @property
    def is_nominal(self) -> bool:
        return self.row == 0


@dataclass(slots=True)
class StepDiagnostics:
    """Bookkeeping emitted by one filter step (for tests and reporting).

    ``frozen`` lists the onset of every frozen branch, and ``frozen_causes``
    the type of the exception that froze each of them, in the same order."""

    k: int
    epoch: bool
    spawned_s: Optional[int] = None
    pruned: tuple = ()
    scores_before_prune: tuple = ()
    n_branches: int = 1
    frozen: tuple = ()
    frozen_causes: tuple = ()


def _run_live(bank: Bank, stage: Callable, n: int) -> None:
    """Run ``stage(rows)``, which writes its results into ``bank``'s rows, on
    the live rows among the first ``n`` as one stack (``rows`` is
    ``slice(n)`` when none of them is frozen, so that no row is copied, and a
    list of rows otherwise).  When it raises for the stack, it is re-run one
    row at a time, and a row that fails alone freezes, keeping the type of
    its exception."""
    live = [row for row in bank.live() if row < n] if any(bank.cause) else range(n)
    if not live:
        return
    try:
        stage(slice(n) if len(live) == n else live)
        return
    except SkfnavError:
        pass
    for row in live:
        try:
            stage([row])
        except SkfnavError as exc:
            bank.cause[row] = type(exc)


def prune(log_lik, s_index, capacity: int) -> list[int]:
    """Rows to drop, lowest score first, so that a bank with scores
    ``log_lik`` and onsets ``s_index`` fits its capacity.

    Ties discard the latest hypothesis (least evidence so far).  Row 0, the
    nominal branch, is never discarded.
    """
    ranked = sorted(range(1, len(log_lik)), key=lambda i: (log_lik[i], -s_index[i]))
    return ranked[: max(len(log_lik) - capacity, 0)]


def estimate(log_lik, s_index) -> SwitchEstimate:
    """Select the highest-score row of a bank with scores ``log_lik`` and
    onsets ``s_index`` (the nominal branch in row 0) and weight all rows.

    Weights are ``exp(score - max score)`` normalized over the rows; exact
    ties resolve to the nominal branch.
    """
    scores = np.array(log_lik, dtype=float)
    s_indices = np.array(s_index)
    row = int(np.argmax(scores))
    shifted = np.exp(scores - scores.max())
    return SwitchEstimate(
        row=row, s_index=int(s_indices[row]), s_indices=s_indices,
        weights=shifted / shifted.sum(),
    )


def reports_no_corruption(est: SwitchEstimate, n_steps: int) -> bool:
    """End-of-timeline convention: a winning hypothesis in the final 5% of
    the run (or the nominal branch itself) means no corruption detected."""
    return est.is_nominal or est.s_index >= 0.95 * n_steps


class SwitchingFilter:
    """Runs the branched filter over a measurement stream.

    The state is the physical state ``x`` (of ``x0``'s size ``d_x``) with the
    ``d_theta`` offset coefficients ``theta`` appended; every branch starts
    from ``x0``, ``C0`` and a zero-mean, unit-variance ``theta``.
    ``dynamics(points, k)`` propagates an ``(n, d_x)`` array of physical
    states from step ``k - 1`` to ``k`` and returns the ``(n, d_x)`` result;
    the filter carries ``theta`` through unchanged.  The process noise is
    block-diagonal: ``Q_x`` (``d_x`` x ``d_x``) on the physical state and
    ``q_p`` per coefficient, a random walk.  The observation model selects
    ``observed`` state columns; a corrupted branch with onset ``s`` adds the
    offset ``Phi((k - s) dt) @ theta``, laid out by ``offset_columns``.  A fix
    with a non-finite entry is skipped: every branch predicts, and none is
    updated.
    """

    def __init__(
        self,
        *,
        dynamics: Callable[[np.ndarray, int], np.ndarray],
        observed: np.ndarray,
        d_theta: int,
        Q_x: np.ndarray,
        q_p: float,
        R: np.ndarray,
        x0: np.ndarray,
        C0: np.ndarray,
        dt: float,
        delta: int = 1,
        capacity: int = 10,
    ):
        if delta < 1:
            raise ConfigError("sampling period must be at least 1 step")
        if q_p < 0.0:
            raise ConfigError("parameter process noise must be non-negative")
        if capacity < 2:
            raise ConfigError("branch capacity must be at least 2")
        x0 = np.asarray(x0, dtype=float).reshape(-1)
        C0 = np.asarray(C0, dtype=float)
        self.d_x = d_x = x0.size
        if C0.shape != (d_x, d_x):
            raise ConfigError(
                f"initial covariance shape {C0.shape} does not match state size {d_x}"
            )
        self.dynamics = dynamics
        self.observed = np.asarray(observed, dtype=int)
        self.d_theta = d_theta
        self._offset_columns = offset_columns(self.observed.size, d_theta)
        # observation maps by bank row, written in place at each epoch: row 0,
        # the nominal's, is the column selector, and the corrupted rows' theta
        # blocks are gathered by lag k - s from ``_phi_by_lag``
        # (``_observation_maps``)
        self._H = np.repeat(np.eye(d_x + d_theta)[None, self.observed], capacity + 1, axis=0)
        self._phi_by_lag = np.zeros((0, self.observed.size, d_theta))
        self.Q_aug = np.zeros((d_x + d_theta, d_x + d_theta))
        self.Q_aug[:d_x, :d_x] = Q_x
        self.Q_aug[d_x:, d_x:] = q_p * np.eye(d_theta)
        self.R = np.asarray(R, dtype=float)
        self.dt = dt
        self.delta = delta
        self.capacity = capacity
        cov = np.zeros((d_x + d_theta, d_x + d_theta))
        cov[:d_x, :d_x] = C0
        cov[d_x:, d_x:] = np.eye(d_theta)
        mean = np.concatenate([x0, np.zeros(d_theta)])
        self.bank = Bank(mean, symmetrize(cov), size=capacity + 1)
        self.bank.record()
        self.k = 0

    # -- stepping ---------------------------------------------------------
    def _observation_maps(self, n: int) -> np.ndarray:
        """The observation maps of the first ``n`` bank rows at this step: the
        nominal's column selector, then each corrupted row's with Phi at
        ``tau = (k - s) dt``.  The Phi blocks are gathered by lag from a table
        whose taus are ``np.arange(size) * dt``, the bits of ``(k - s) * dt``;
        the table doubles when row 1's lag, the largest as the corrupted rows
        are in spawn order, outgrows it."""
        H = self._H[:n]
        if n > 1:
            lags = self.k - np.array(self.bank.s_index[1:n])
            if lags[0] >= len(self._phi_by_lag):
                size = max(2 * len(self._phi_by_lag), lags[0] + 1)
                phi = np.zeros((size,) + self._phi_by_lag.shape[1:])
                write_offset_basis(phi, self._offset_columns, np.arange(size) * self.dt)
                self._phi_by_lag = phi
            H[1:, :, self.d_x :] = self._phi_by_lag[lags]
        return H

    def step(self, y: Optional[np.ndarray] = None) -> StepDiagnostics:
        """Advance one step; ``y`` must be supplied exactly at observation
        epochs (every ``delta``-th step) and omitted elsewhere.  The stages
        read and write the bank's row buffers in place."""
        self.k += 1
        k = self.k
        is_epoch = (k % self.delta) == 0
        if y is not None:
            if not is_epoch:
                raise ConfigError(f"measurement supplied at non-epoch step {k}")
            y = np.asarray(y, dtype=float).reshape(-1)
            if y.size != self.observed.size:
                raise InvalidMeasurementError(
                    f"measurement dimension {y.size} != {self.observed.size}"
                )
            if not np.isfinite(y).all():
                y = None

        bank = self.bank
        means, covs, scores = bank._buffers()
        d_x = self.d_x

        def dynamics(points):
            out = points.copy()
            out[:, :d_x] = self.dynamics(points[:, :d_x], k)
            return out

        def predict_rows(rows):
            means[rows], covs[rows] = predict(means[rows], covs[rows], dynamics, self.Q_aug)

        twin = bank.twin(k - self.delta)
        _run_live(bank, predict_rows, len(bank) - twin)
        if twin:
            bank.copy_to_twin()

        spawned_s = None
        pruned_info: tuple = ()
        scores_before: tuple = ()
        if y is not None:
            n = len(bank)
            H = self._observation_maps(n)

            def update_rows(rows):
                means[rows], covs[rows], log_lik = linear_update(
                    means[rows], covs[rows], H[rows], y, self.R)
                scores[rows] += log_lik

            _run_live(bank, update_rows, n)
            if bank.cause[0] is None:
                # the spawn's observation map at s == k adds no offset, so its
                # update is the nominal branch's; a nominal that is frozen,
                # before or in this update, spawns nothing
                bank.spawn(k)
                spawned_s = k

            listed = scores[: len(bank)].tolist()
            scores_before = tuple(zip(bank.s_index[1:], listed[1:]))
            removed = prune(listed, bank.s_index, self.capacity)
            pruned_info = tuple(scores_before[i - 1] for i in removed)
            bank.drop(removed)
        # the rows that this prune dropped leave no entry at this step
        bank.record()

        frozen = [(s, cause) for s, cause in zip(bank.s_index, bank.cause)
                  if cause is not None] if any(bank.cause) else []
        return StepDiagnostics(
            k=k,
            epoch=is_epoch,
            spawned_s=spawned_s,
            pruned=pruned_info,
            scores_before_prune=scores_before,
            n_branches=len(bank),
            frozen=tuple(s for s, _ in frozen),
            frozen_causes=tuple(cause for _, cause in frozen),
        )

    def run(self, measurements: dict[int, np.ndarray], n_steps: int) -> list[StepDiagnostics]:
        """Step on from the current step through ``k = n_steps``, pulling
        measurements by step index (``k = 1..n_steps`` on a new filter)."""
        return [self.step(measurements.get(k)) for k in range(self.k + 1, n_steps + 1)]

    def estimate(self) -> SwitchEstimate:
        return estimate(self.bank.log_lik, self.bank.s_index)
