"""Branched switching filter for corruption-onset detection.

One never-pruned nominal branch runs the clean observation model.  At every
observation epoch the nominal branch is updated twice: once with the clean
model (staying nominal) and once with the corrupted model anchored at the
current epoch, which spawns a new corrupted branch.  Existing corrupted
branches update with their own onset hypothesis.  Each branch accumulates the
constant-free log-likelihood of its observation stream, and the population of
corrupted branches is pruned to a fixed capacity by discarding the lowest
accumulated score (the nominal branch is exempt).

Each step works on all live branches at once: their beliefs are stacked so
that prediction makes one factorisation and one dynamics call, and the
measurement update, exact because the observation map is linear in the
augmented state, is one scored update.  A branch whose numerics fail freezes
alone: when the stack raises, that stage is re-run one branch at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .biasmodels import offset_matrix
from .exceptions import ConfigError, InvalidMeasurementError, SkfnavError
from .gaussfilt import GaussianBelief, SigmaPointParams, linear_update, predict


@dataclass
class Branch:
    """One onset hypothesis: assumed switch step, accumulated score, belief.

    A branch whose numerics diverge (hostile measurements can drive the
    nominal model into singular territory) is frozen: it keeps its last
    belief and score but no longer updates, spawns, or accumulates evidence.
    ``SwitchingFilter.step`` updates its branches in place.
    """

    s_index: int
    t_s: float
    log_lik: float
    belief: GaussianBelief
    is_nominal: bool = False
    frozen: bool = False
    history: list = field(default_factory=list)

    def record(self):
        self.history.append(
            (self.belief.mean.copy(), self.belief.cov.diagonal().copy(), self.log_lik)
        )


@dataclass
class BranchSet:
    """Nominal branch plus up to ``capacity - 1`` corrupted branches."""

    nominal: Branch
    corrupted: list[Branch] = field(default_factory=list)
    capacity: int = 10

    def __post_init__(self):
        if self.capacity < 2:
            raise ConfigError("branch capacity must be at least 2")

    def all_branches(self) -> list[Branch]:
        return [self.nominal] + list(self.corrupted)

    def __len__(self) -> int:
        return 1 + len(self.corrupted)


@dataclass(frozen=True)
class SwitchEstimate:
    """Most likely onset hypothesis and posterior weights over survivors."""

    best: Branch
    s_indices: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class StepDiagnostics:
    """Bookkeeping emitted by one filter step (for tests and reporting)."""

    k: int
    epoch: bool
    spawned_s: Optional[int] = None
    pruned: tuple = ()
    scores_before_prune: tuple = ()
    n_branches: int = 1
    frozen: tuple = ()


def init(
    x0: np.ndarray,
    C0: np.ndarray,
    d_theta: int,
    capacity: int = 10,
) -> BranchSet:
    """Fresh branch set: nominal hypothesis with zero-mean unit-variance
    corruption parameters appended to the state."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    C0 = np.asarray(C0, dtype=float)
    if C0.shape != (x0.size, x0.size):
        raise ConfigError(
            f"initial covariance shape {C0.shape} does not match state size {x0.size}"
        )
    mean = np.concatenate([x0, np.zeros(d_theta)])
    cov = np.zeros((x0.size + d_theta, x0.size + d_theta))
    cov[: x0.size, : x0.size] = C0
    cov[x0.size :, x0.size :] = np.eye(d_theta)
    belief = GaussianBelief.create(mean, cov)
    nominal = Branch(s_index=0, t_s=0.0, log_lik=0.0, belief=belief, is_nominal=True)
    nominal.record()
    return BranchSet(nominal=nominal, corrupted=[], capacity=capacity)


def _live_results(branches: list[Branch], stage) -> list[tuple[int, object]]:
    """``(index, result)`` for every live branch in ``branches``.

    ``stage(group)`` returns one result per branch of ``group``, computed on
    one stack.  When it raises for the whole stack, it is re-run one branch
    at a time, and a branch that fails alone gets ``None``.
    """
    live = [i for i, b in enumerate(branches) if not b.frozen]
    if not live:
        return []
    try:
        return list(zip(live, stage([branches[i] for i in live])))
    except SkfnavError:
        pass
    results = []
    for i in live:
        try:
            results.append((i, stage([branches[i]])[0]))
        except SkfnavError:
            results.append((i, None))
    return results


def prune(branches: BranchSet) -> tuple[BranchSet, list[Branch]]:
    """Drop lowest-score corrupted branches until the set fits its capacity.

    Ties discard the latest hypothesis (least evidence so far).  The nominal
    branch is never discarded.
    """
    survivors = list(branches.corrupted)
    removed = []
    while len(survivors) > branches.capacity - 1:
        victim = min(survivors, key=lambda b: (b.log_lik, -b.s_index))
        survivors.remove(victim)
        removed.append(victim)
    return (
        BranchSet(nominal=branches.nominal, corrupted=survivors, capacity=branches.capacity),
        removed,
    )


def estimate(branches: BranchSet) -> SwitchEstimate:
    """Select the highest-score branch and weight all survivors.

    Weights are ``exp(score - max score)`` normalized over the surviving
    branches; exact ties resolve to the nominal branch.
    """
    all_branches = branches.all_branches()
    scores = np.array([b.log_lik for b in all_branches])
    best = all_branches[int(np.argmax(scores))]
    shifted = np.exp(scores - scores.max())
    weights = shifted / shifted.sum()
    return SwitchEstimate(
        best=best,
        s_indices=np.array([b.s_index for b in all_branches]),
        weights=weights,
    )


def reports_no_corruption(est: SwitchEstimate, n_steps: int) -> bool:
    """End-of-timeline convention: a winning hypothesis in the final 5% of
    the run (or the nominal branch itself) means no corruption detected."""
    if est.best.is_nominal:
        return True
    return est.best.s_index >= 0.95 * n_steps


class SwitchingFilter:
    """Runs the branched filter over a measurement stream.

    The state is the physical state ``x`` (of ``x0``'s size ``d_x``) with the
    ``d_theta`` offset coefficients ``theta`` appended.  ``dynamics(points,
    k)`` propagates an ``(n, d_x)`` array of physical states from step
    ``k - 1`` to ``k`` and returns the ``(n, d_x)`` result; the filter
    carries ``theta`` through unchanged.  The process noise is
    block-diagonal: ``Q_x`` (``d_x`` x ``d_x``) on the physical state and
    ``q_p`` per coefficient, a random walk.  The observation model selects
    ``observed`` state columns; a corrupted branch with onset ``s`` adds the
    offset ``offset_matrix((k - s) dt) @ theta``.  A fix with a non-finite
    entry is skipped: every branch predicts, and none is updated.
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
        self.dynamics = dynamics
        self.observed = np.asarray(observed, dtype=int)
        self.d_x = d_x = np.size(x0)
        self.d_theta = d_theta
        offset_matrix(0.0, self.observed.size, d_theta)  # ConfigError on a bad width
        self._select = np.eye(d_x + d_theta)[self.observed]
        self.Q_aug = np.zeros((d_x + d_theta, d_x + d_theta))
        self.Q_aug[:d_x, :d_x] = Q_x
        self.Q_aug[d_x:, d_x:] = q_p * np.eye(d_theta)
        self.R = np.asarray(R, dtype=float)
        self.dt = dt
        self.delta = delta
        self.params = SigmaPointParams()
        self.branches = init(x0, C0, d_theta, capacity=capacity)
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
            if not np.all(np.isfinite(y)):
                y = None

        branches = self.branches.all_branches()

        def dynamics(points):
            out = points.copy()
            out[:, : self.d_x] = self.dynamics(points[:, : self.d_x], k)
            return out

        def predict_group(group):
            stacked = GaussianBelief.stack([b.belief for b in group])
            return predict(stacked, dynamics, self.Q_aug, self.params).unstack()

        for i, belief in _live_results(branches, predict_group):
            if belief is None:
                branches[i].frozen = True
            else:
                branches[i].belief = belief

        spawned_s = None
        pruned_info: tuple = ()
        scores_before: tuple = ()
        if y is not None:

            def update_group(group):
                # the nominal branch, first when present, has a zero theta block
                H = np.repeat(self._select[None], len(group), axis=0)
                first = int(group[0].is_nominal)
                taus = np.array([(k - b.s_index) * self.dt for b in group[first:]])
                H[first:, :, self.d_x :] = offset_matrix(taus, self.observed.size, self.d_theta)
                stacked = GaussianBelief.stack([b.belief for b in group])
                posterior, pred = linear_update(stacked, H, y, self.R)
                return list(zip(posterior.unstack(), pred.log_lik.tolist()))

            nominal_live = not branches[0].frozen
            for i, result in _live_results(branches, update_group):
                if result is None:
                    branches[i].frozen = True
                else:
                    branches[i].belief, increment = result
                    branches[i].log_lik += increment
            if nominal_live:
                # the spawn's observation map at s == k adds no offset, so its
                # update (or freeze) is the nominal branch's
                nominal = branches[0]
                branches.append(replace(
                    nominal,
                    s_index=k,
                    t_s=k * self.dt,
                    is_nominal=False,
                    history=list(nominal.history),
                ))
                spawned_s = k

        self.branches = BranchSet(
            nominal=branches[0], corrupted=branches[1:], capacity=self.branches.capacity
        )
        if y is not None:
            scores_before = tuple((b.s_index, b.log_lik) for b in self.branches.corrupted)
            self.branches, removed = prune(self.branches)
            pruned_info = tuple((b.s_index, b.log_lik) for b in removed)

        for branch in self.branches.all_branches():
            branch.record()
        return StepDiagnostics(
            k=k,
            epoch=is_epoch,
            spawned_s=spawned_s,
            pruned=pruned_info,
            scores_before_prune=scores_before,
            n_branches=len(self.branches),
            frozen=tuple(
                b.s_index for b in self.branches.all_branches() if b.frozen
            ),
        )

    def run(self, measurements: dict[int, np.ndarray], n_steps: int) -> list[StepDiagnostics]:
        """Step through ``k = 1..n_steps`` pulling measurements by step index."""
        return [self.step(measurements.get(k)) for k in range(1, n_steps + 1)]

    def estimate(self) -> SwitchEstimate:
        return estimate(self.branches)
