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
alone: when the stack raises, that stage is re-run one row at a time.
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
        self.snapshots.append((self.mean.copy(), self.cov.diagonal(axis1=1, axis2=2).copy(),
                               self.log_lik.tolist(), tuple(self.s_index)))
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


@dataclass(frozen=True)
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


def _run_live(bank: Bank, stage: Callable) -> None:
    """Run ``stage(rows)``, which writes its results into ``bank``'s rows, on
    all live rows as one stack (``rows`` is ``slice(None)`` when none is
    frozen, so that no row is copied, and a list of rows otherwise).  When it
    raises for the stack, it is re-run one row at a time, and a row that
    fails alone freezes, keeping the type of its exception."""
    live = bank.live() if any(bank.cause) else range(len(bank))
    if not live:
        return
    try:
        stage(slice(None) if len(live) == len(bank) else live)
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
        # the nominal's, is the column selector, and every corrupted row gets
        # its theta block at this epoch's tau from write_offset_basis
        self._H = np.repeat(np.eye(d_x + d_theta)[None, self.observed], capacity + 1, axis=0)
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
    def step(self, y: Optional[np.ndarray] = None) -> StepDiagnostics:
        """Advance one step; ``y`` must be supplied exactly at observation
        epochs (every ``delta``-th step) and omitted elsewhere."""
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

        def dynamics(points):
            out = points.copy()
            out[:, : self.d_x] = self.dynamics(points[:, : self.d_x], k)
            return out

        def predict_rows(rows):
            bank.mean[rows], bank.cov[rows] = predict(
                bank.mean[rows], bank.cov[rows], dynamics, self.Q_aug)

        _run_live(bank, predict_rows)

        spawned_s = None
        pruned_info: tuple = ()
        scores_before: tuple = ()
        if y is not None:
            n = len(bank)
            taus = (k - np.array(bank.s_index[1:])) * self.dt
            write_offset_basis(self._H[1:n, :, self.d_x :], self._offset_columns, taus)

            def update_rows(rows):
                bank.mean[rows], bank.cov[rows], log_lik = linear_update(
                    bank.mean[rows], bank.cov[rows], self._H[:n][rows], y, self.R)
                bank.log_lik[rows] += log_lik

            _run_live(bank, update_rows)
            if bank.cause[0] is None:
                # the spawn's observation map at s == k adds no offset, so its
                # update is the nominal branch's; a nominal that is frozen,
                # before or in this update, spawns nothing
                bank.spawn(k)
                spawned_s = k

            scores = bank.log_lik.tolist()
            scores_before = tuple(zip(bank.s_index[1:], scores[1:]))
            removed = prune(scores, bank.s_index, self.capacity)
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
