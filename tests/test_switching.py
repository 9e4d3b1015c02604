import hashlib
import pickle
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import pytest

from skfnav.configio import load_config, parse_single
from skfnav.exceptions import (
    ConfigError,
    CovarianceError,
    DynamicsDivergedError,
    SingularInnovationError,
    SkfnavError,
)
from skfnav.gaussfilt import linear_update, predict, sigma_points
from skfnav.switching import SwitchingFilter, estimate, prune, reports_no_corruption

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def random_walk_filter(n_theta=3, delta=1, capacity=10, q_x=1e-4, q_p=1e-4, r=1e-4,
                       dt=0.1):
    """Minimal 1-D random-walk plant with both channels observed."""
    return SwitchingFilter(
        dynamics=lambda pts, k: pts,
        observed=np.array([0]),
        d_theta=n_theta,
        Q_x=np.array([[q_x]]),
        q_p=q_p,
        R=np.array([[r]]),
        x0=np.array([0.0]),
        C0=np.eye(1),
        dt=dt,
        delta=delta,
        capacity=capacity,
    )


def fresh_filter(x0, C0, d_theta):
    """A filter before its first step; one (A, B, C) triple per channel."""
    m = d_theta // 3
    return SwitchingFilter(
        dynamics=lambda pts, k: pts, observed=np.arange(m), d_theta=d_theta,
        Q_x=np.zeros((x0.size, x0.size)), q_p=0.0, R=np.eye(m), x0=x0, C0=C0, dt=1.0,
    )


class TestInit:
    def test_balloon_style_augmentation(self):
        bank = fresh_filter(np.array([-35.0, 25.0]), np.eye(2), 3).bank
        assert bank.mean.shape[-1] == 5
        assert bank.mean[0].tolist() == [-35.0, 25.0, 0.0, 0.0, 0.0]
        assert np.abs(bank.cov[0] - np.eye(5)).max() == 0.0
        assert bank.log_lik[0] == 0.0
        assert not bank.s_index[1:]

    def test_shuttle_style_variances(self):
        C0 = 0.001 * np.eye(15)
        diag = np.diag(fresh_filter(np.zeros(15), C0, 9).bank.cov[0])
        assert diag[:15] == pytest.approx([0.001] * 15)
        assert diag[15:] == pytest.approx([1.0] * 9)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            fresh_filter(np.zeros(3), np.eye(2), 3)


class TestPrune:
    """``prune`` takes a bank's scores and onsets, the nominal in row 0, and
    returns the rows to drop."""

    def test_removes_lowest_score(self):
        s_index = np.array([0, 1, 2, 3])
        removed = prune(np.array([-100.0, -5.0, -3.0, -10.0]), s_index, capacity=3)
        assert s_index[removed].tolist() == [3]
        assert sorted(np.delete(s_index, removed)[1:].tolist()) == [1, 2]
        assert 0 not in removed  # nominal survives its terrible score

    def test_tie_discards_latest_hypothesis(self):
        s_index = np.array([0, 1, 4, 2])
        removed = prune(np.array([0.0, -5.0, -5.0, -5.0]), s_index, capacity=3)
        assert s_index[removed].tolist() == [4]

    def test_noop_within_capacity(self):
        removed = prune(np.array([0.0, -5.0]), np.array([0, 1]), capacity=3)
        assert not removed
        assert len(np.delete(np.array([0, 1]), removed)[1:]) == 1


class TestEstimate:
    """``estimate`` takes a bank's scores and onsets, the nominal in row 0."""

    def test_single_nominal(self):
        est = estimate(np.array([0.0]), [0])
        assert est.is_nominal
        assert est.weights == pytest.approx([1.0])

    def test_argmax_includes_nominal(self):
        est = estimate(np.array([10.0, 2.0]), [0, 3])
        assert est.is_nominal

    def test_weights_normalized_and_ordered(self):
        est = estimate(np.array([0.0, -1.0, -2.0]), [0, 1, 2])
        assert est.weights.sum() == pytest.approx(1.0)
        assert est.weights[0] > est.weights[1] > est.weights[2]

    def test_exact_tie_prefers_nominal(self):
        assert estimate(np.array([5.0, 5.0]), [0, 9]).is_nominal


class TestStepping:
    def test_non_epoch_step_only_predicts(self):
        filt = random_walk_filter(delta=5)
        diag = filt.step(None)
        assert diag.spawned_s is None
        assert not diag.epoch
        assert len(filt.bank) == 1
        assert filt.bank.log_lik[0] == 0.0

    def test_measurement_at_non_epoch_rejected(self):
        filt = random_walk_filter(delta=5)
        with pytest.raises(ConfigError):
            filt.step(np.array([0.0]))

    def test_one_sigma_point_set_per_step(self, monkeypatch):
        # prediction only: the measurement update is the exact linear one,
        # called once per epoch through the name that the stage timers wrap
        import skfnav.gaussfilt as gaussfilt
        import skfnav.switching as switching

        calls = []

        def counted(name, real):
            return lambda *args: calls.append(name) or real(*args)

        monkeypatch.setattr(gaussfilt, "sigma_points",
                            counted("sigma_points", gaussfilt.sigma_points))
        monkeypatch.setattr(switching, "linear_update",
                            counted("linear_update", switching.linear_update))
        filt = random_walk_filter(delta=2)
        for k in range(1, 11):
            filt.step(np.array([0.01 * k]) if k % 2 == 0 else None)
        assert calls.count("sigma_points") == 10
        assert calls.count("linear_update") == 5

    def test_bad_theta_width_rejected_at_construction(self):
        # 4 fits neither one shared (A, B, C) triple nor one per channel
        with pytest.raises(ConfigError, match="width 4"):
            SwitchingFilter(
                dynamics=lambda pts, k: pts, observed=np.array([0, 1]), d_theta=4,
                Q_x=1e-4 * np.eye(2), q_p=1e-4, R=1e-4 * np.eye(2),
                x0=np.zeros(2), C0=np.eye(2), dt=0.1,
            )

    def test_measurement_dimension_checked(self):
        from skfnav.exceptions import InvalidMeasurementError

        filt = random_walk_filter()
        with pytest.raises(InvalidMeasurementError):
            filt.step(np.array([0.0, 1.0]))

    def test_first_epoch_spawns_one_branch(self):
        filt = random_walk_filter()
        diag = filt.step(np.array([0.1]))
        assert diag.spawned_s == 1
        assert len(filt.bank) == 2
        assert filt.bank.s_index[1:] == [1]

    def test_capacity_arithmetic(self):
        filt = random_walk_filter(capacity=3)
        rng = np.random.default_rng(0)
        for _ in range(4):
            filt.step(rng.standard_normal(1) * 0.01)
        assert len(filt.bank.s_index[1:]) == 2
        assert len(filt.bank) <= 3

    def test_spawn_equals_nominal_at_spawn_epoch(self):
        filt = random_walk_filter()
        rng = np.random.default_rng(1)
        for k in range(1, 20):
            filt.step(rng.standard_normal(1) * 0.01)
            bank = filt.bank
            spawned = [i for i in range(1, len(bank)) if bank.s_index[i] == k]
            assert len(spawned) == 1
            i = spawned[0]
            assert np.abs(bank.mean[i] - bank.mean[0]).max() <= 1e-12
            assert np.abs(bank.cov[i] - bank.cov[0]).max() <= 1e-12
            assert bank.log_lik[i] == pytest.approx(bank.log_lik[0], abs=1e-12)

    def test_score_changes_only_at_epochs(self):
        filt = random_walk_filter(delta=3)
        rng = np.random.default_rng(2)
        scores = [filt.bank.log_lik[0]]
        for k in range(1, 13):
            y = rng.standard_normal(1) * 0.01 if k % 3 == 0 else None
            filt.step(y)
            scores.append(filt.bank.log_lik[0])
        changes = [i for i in range(1, len(scores)) if scores[i] != scores[i - 1]]
        assert changes == [3, 6, 9, 12]

    def test_nominal_theta_block_inert(self):
        filt = random_walk_filter()
        rng = np.random.default_rng(3)
        for _ in range(40):
            filt.step(rng.standard_normal(1) * 0.01)
            assert np.abs(filt.bank.mean[0, 1:]).max() < 1e-9
            assert np.abs(filt.bank.cov[0, 0, 1:]).max() < 1e-9

    def test_history_lengths_aligned(self):
        filt = random_walk_filter()
        rng = np.random.default_rng(4)
        for _ in range(15):
            filt.step(rng.standard_normal(1) * 0.01)
        for row in range(len(filt.bank)):
            assert len(filt.bank.trajectory(row)) == 16  # steps 0..15

    def test_determinism_same_inputs(self):
        def trace():
            filt = random_walk_filter()
            rng = np.random.default_rng(5)
            out = []
            for _ in range(25):
                filt.step(rng.standard_normal(1) * 0.01)
                out.append(list(zip(filt.bank.s_index, filt.bank.log_lik.tolist())))
            return out

        assert trace() == trace()

    def test_run_steps_on_from_the_current_step(self, assert_banks_equal):
        from skfnav.scenarios.balloon import build_balloon_filter, simulate_balloon

        _, cfg, field = parse_single({**load_config(CONFIGS / "table3_test3.json"),
                                      "n_steps": 120, "true_switch_step": 50})
        measurements = simulate_balloon(cfg, field).measurement_map()
        whole = build_balloon_filter(cfg, field)
        whole.run(measurements, 120)
        split = build_balloon_filter(cfg, field)
        first = split.run(measurements, 60)
        checkpoint = pickle.dumps(split.bank)
        rest = split.run(measurements, 120)
        assert [d.k for d in first + rest] == list(range(1, 121))
        assert_banks_equal(split.bank, whole.bank)
        # the bank pickled at step 60 resumes as if it had never stopped
        resumed = build_balloon_filter(cfg, field)
        resumed.k, resumed.bank = 60, pickle.loads(checkpoint)
        resumed.run(measurements, 120)
        assert_banks_equal(resumed.bank, whole.bank)

    def test_dynamics_sees_physical_columns_and_theta_passes_through(self, monkeypatch):
        import skfnav.switching as switching

        calls, propagated = [], []

        def dynamics(pts, k):
            calls.append(pts.shape)
            return pts + 0.1 * np.sin(pts)

        def spy(mean, cov, dynamics, Q):
            rows = sigma_points(mean, cov)[0].reshape(-1, mean.shape[-1])
            propagated.append((rows, dynamics(rows)))
            return predict(mean, cov, dynamics, Q)

        monkeypatch.setattr(switching, "predict", spy)
        filt = SwitchingFilter(
            dynamics=dynamics, observed=np.array([0, 1]), d_theta=3,
            Q_x=1e-4 * np.eye(2), q_p=1e-4, R=1e-4 * np.eye(2),
            x0=np.array([0.3, -0.2]), C0=0.1 * np.eye(2), dt=0.1,
        )
        for y in ([0.31, -0.19], [0.33, -0.18], [0.36, -0.17]):
            filt.step(np.array(y))
        # the row spawned at the step before takes row 0's prediction
        assert calls[::2] == [(11, 2), (11, 2), (22, 2)]
        for rows, out in propagated:
            assert np.array_equal(out[:, :2], rows[:, :2] + 0.1 * np.sin(rows[:, :2]))
            assert np.array_equal(out[:, 2:], rows[:, 2:])
        # including a centre row whose theta has moved off the zero prior mean
        assert np.abs(propagated[-1][0].reshape(2, 11, 5)[1, 0, 2:]).min() > 0.0

    @staticmethod
    def twin_filter(calls, delta=1):
        def dynamics(pts, k):
            calls.append((k, len(pts)))
            return pts + 0.1 * np.sin(pts)

        return SwitchingFilter(
            dynamics=dynamics, observed=np.array([0, 1]), d_theta=3,
            Q_x=1e-4 * np.eye(2), q_p=1e-4, R=1e-4 * np.eye(2),
            x0=np.array([0.3, -0.2]), C0=0.1 * np.eye(2), dt=0.1, delta=delta,
        )

    def test_a_fresh_branch_takes_the_nominal_prediction(self):
        # fixes every second step: the row spawned at an epoch holds row 0's
        # bytes through the next epoch's predict and is left out of the
        # predicts of both steps
        calls = []
        filt = self.twin_filter(calls, delta=2)
        twins = []
        for k in range(1, 8):
            filt.step(None if k % 2 else np.array([0.3 + 0.01 * k, -0.2]))
            bank = filt.bank
            twins.append([bank.s_index[row] for row in range(1, len(bank))
                          if bank.mean[row].tobytes() == bank.mean[0].tobytes()
                          and bank.cov[row].tobytes() == bank.cov[0].tobytes()])
        assert twins == [[], [2], [2], [4], [4], [6], [6]]
        assert filt.bank.s_index == [0, 2, 4, 6]
        # 11 sigma points a row
        assert [n // 11 for _, n in calls] == [1, 1, 1, 1, 2, 2, 3]

    def test_a_skipped_epoch_predicts_the_fresh_branch_in_the_stack(self):
        # a NaN fix at step 2 leaves the row spawned at step 1 un-updated, and
        # so still row 0's bytes, but it no longer counts as a twin: it is
        # predicted with row 0, to the same bytes
        calls = []
        filt = self.twin_filter(calls)
        for y in ([0.31, -0.19], [np.nan, 0.0], None):
            filt.step(None if y is None else np.array(y))
        bank = filt.bank
        assert bank.s_index == [0, 1]
        assert bank.mean[1].tobytes() == bank.mean[0].tobytes()
        assert bank.cov[1].tobytes() == bank.cov[0].tobytes()
        assert [n // 11 for _, n in calls] == [1, 1, 2]

    def test_twin_prediction_equals_predicting_the_row(self, monkeypatch):
        import skfnav.switching as switching

        runs = []
        for twin in (switching.Bank.twin, lambda bank, since: False):
            monkeypatch.setattr(switching.Bank, "twin", twin)
            filt = self.twin_filter([])
            rng = np.random.default_rng(2)
            for _ in range(12):
                filt.step(0.3 + 0.01 * rng.standard_normal(2))
            runs.append(filt.bank)
        ours, stacked = runs
        assert ours.s_index == stacked.s_index and len(ours) == 10
        for name in ("mean", "cov", "log_lik"):
            assert getattr(ours, name).tobytes() == getattr(stacked, name).tobytes(), name
        for mine, theirs in zip(ours.snapshots, stacked.snapshots):
            assert pickle.dumps(mine) == pickle.dumps(theirs)

    def test_the_twin_of_a_nominal_that_freezes_freezes_with_its_cause(self):
        calls = []

        def dynamics(pts, k):
            calls.append((k, len(pts)))
            return pts * np.nan if k == 2 else pts

        filt = SwitchingFilter(
            dynamics=dynamics, observed=np.array([0]), d_theta=3,
            Q_x=1e-4 * np.eye(1), q_p=1e-4, R=np.array([[1e-4]]),
            x0=np.array([0.0]), C0=np.eye(1), dt=0.1,
        )
        filt.step(np.array([0.0]))  # spawns onset 1
        diag = filt.step(np.array([0.0]))
        bank = filt.bank
        assert bank.s_index == [0, 1]
        assert bank.cause == [DynamicsDivergedError] * 2
        assert diag.frozen == (0, 1) and diag.frozen_causes == (DynamicsDivergedError,) * 2
        assert bank.mean[1].tobytes() == bank.mean[0].tobytes()
        assert bank.cov[1].tobytes() == bank.cov[0].tobytes()
        # row 0 as the stack, then row 0 alone: the twin is never predicted
        assert [n for k, n in calls if k == 2] == [9, 9]

    def test_non_finite_fix_is_a_skipped_epoch(self):
        filt = random_walk_filter()
        rng = np.random.default_rng(6)
        for _ in range(3):
            filt.step(rng.standard_normal(1) * 0.01)
        before = list(zip(filt.bank.s_index, filt.bank.log_lik.tolist()))
        diag = filt.step(np.array([np.nan]))
        assert diag.epoch and diag.spawned_s is None and diag.pruned == ()
        assert diag.frozen == ()
        assert list(zip(filt.bank.s_index, filt.bank.log_lik.tolist())) == before
        assert all(len(filt.bank.trajectory(row)) == 5 for row in range(len(filt.bank)))
        # detection goes on: the next finite fix updates and spawns as usual
        diag = filt.step(np.array([0.02]))
        assert diag.spawned_s == 5 and diag.frozen == ()
        assert all(score != old for score, (_, old) in
                   zip(filt.bank.log_lik.tolist(), before))


class TestDivergenceFreeze:
    def test_branches_freeze_on_bad_dynamics(self):
        def dynamics(pts, k):
            # poison every branch after a few steps
            if k >= 3:
                return pts * np.nan
            return pts

        filt = SwitchingFilter(
            dynamics=dynamics, observed=np.array([0]), d_theta=3,
            Q_x=1e-4 * np.eye(1), q_p=1e-4, R=np.array([[1e-4]]),
            x0=np.array([0.0]), C0=np.eye(1), dt=0.1,
        )
        filt.step(np.array([0.0]))
        filt.step(np.array([0.0]))
        diag = filt.step(np.array([0.0]))
        assert filt.bank.cause[0] is not None
        assert diag.frozen
        # frozen branches stop accumulating score
        before = filt.bank.log_lik[0]
        filt.step(np.array([0.0]))
        assert filt.bank.log_lik[0] == before


def test_unbiased_survivors_cluster_at_timeline_end():
    # with clean data the surviving hypotheses are the freshest spawns and
    # their scores stay close to the nominal branch's
    from skfnav.scenarios.balloon import BalloonConfig, build_balloon_filter, simulate_balloon

    cfg = BalloonConfig(n_steps=200, q_x=1e-6, q_p=1e-6, r=1e-6, seed=3)
    truth = simulate_balloon(cfg)
    filt = build_balloon_filter(cfg)
    filt.run(truth.measurement_map(), cfg.n_steps)
    survivors = filt.bank.s_index[1:]
    assert survivors
    assert min(survivors) >= 0.9 * cfg.n_steps
    nominal = filt.bank.log_lik[0]
    spread = max(abs(score - nominal) for score in filt.bank.log_lik[1:])
    assert spread < 0.01 * abs(nominal)


class TestNoCorruptionConvention:
    def test_nominal_win_reports_clean(self):
        assert reports_no_corruption(estimate(np.array([1.0]), [0]), n_steps=500)

    def test_tail_hypothesis_reports_clean(self):
        est = estimate(np.array([0.0, 5.0]), [0, 499])
        assert reports_no_corruption(est, n_steps=500)

    def test_mid_run_hypothesis_is_detection(self):
        est = estimate(np.array([0.0, 5.0]), [0, 200])
        assert not reports_no_corruption(est, n_steps=500)


# -- stacked step against the per-branch step ---------------------------------


@dataclass
class ReferenceBranch:
    """One onset hypothesis of the reference: onset step (0 for the nominal),
    accumulated score, belief mean and covariance, and the ``(mean,
    variances, score)`` it held after each step.  A frozen branch no longer
    updates, spawns or scores."""

    s_index: int
    log_lik: float
    mean: np.ndarray
    cov: np.ndarray
    is_nominal: bool = False
    frozen: bool = False
    history: list = field(default_factory=list)


class PerBranchReference:
    """The per-branch step, independent of the filter's bank: every branch is
    predicted, updated and scored on its own single belief, a branch whose
    numerics fail freezes, a nominal that is live after its update spawns,
    and the lowest-score corrupted branches are discarded one at a time.
    ``branches`` holds the nominal first, then the corrupted branches in
    spawn order.  It starts from row 0 of ``model``'s bank and reads only its
    model: dynamics, noise, observed columns, step and capacity."""

    def __init__(self, model):
        self.model = model
        bank = model.bank
        self.branches = [ReferenceBranch(
            0, float(bank.log_lik[0]), bank.mean[0].copy(), bank.cov[0].copy(),
            is_nominal=True, history=bank.trajectory(0),
        )]
        self.k = 0

    def step(self, y=None):
        filt = self.model
        self.k += 1
        k = self.k

        def dynamics(pts):
            # the physical columns through the scenario's map, theta passed through
            return np.hstack([filt.dynamics(pts[:, :filt.d_x], k), pts[:, filt.d_x:]])

        def predict_branch(branch):
            if branch.frozen:
                return branch
            try:
                mean, cov = predict(branch.mean, branch.cov, dynamics, filt.Q_aug)
            except SkfnavError:
                return replace(branch, frozen=True)
            return replace(branch, mean=mean, cov=cov)

        def observation_matrix(s_index):
            m = filt.observed.size
            H = np.zeros((m, filt.d_x + filt.d_theta))
            H[np.arange(m), filt.observed] = 1.0
            if s_index is not None and k > s_index:
                tau = (k - s_index) * filt.dt
                basis = np.array([[1.0, tau, tau * tau]])
                H[:, filt.d_x:] = (np.repeat(basis, m, axis=0) if filt.d_theta == 3
                                   else np.kron(np.eye(m), basis))
            return H

        def update_branch(branch, s_index, is_nominal):
            history = branch.history
            if not is_nominal and s_index == k:
                history = list(history)
            try:
                mean, cov, increment = linear_update(
                    branch.mean, branch.cov,
                    observation_matrix(None if is_nominal else s_index), y, filt.R,
                )
                log_lik, frozen = branch.log_lik + float(increment), False
            except SkfnavError:
                mean, cov, log_lik, frozen = branch.mean, branch.cov, branch.log_lik, True
            return ReferenceBranch(s_index, log_lik, mean, cov, is_nominal, frozen, history)

        nominal, *corrupted = (predict_branch(b) for b in self.branches)
        if y is not None:
            y = np.asarray(y, dtype=float).reshape(-1)
            spawned = None
            if not nominal.frozen:
                spawned = update_branch(nominal, k, False)
                nominal = update_branch(nominal, 0, True)
            corrupted = [b if b.frozen else update_branch(b, b.s_index, False)
                         for b in corrupted]
            if not nominal.frozen:
                corrupted.append(spawned)
            while len(corrupted) > filt.capacity - 1:
                corrupted.remove(min(corrupted, key=lambda b: (b.log_lik, -b.s_index)))
        self.branches = [nominal, *corrupted]
        for b in self.branches:
            b.history.append((b.mean.copy(), b.cov.diagonal().copy(), b.log_lik))


def assert_same_branches(bank, branches, history_from=-1):
    """Every row of ``bank`` equals the reference branch at its position."""
    assert len(bank) == len(branches)
    for i, y in enumerate(branches):
        assert (bank.s_index[i], i == 0, bank.cause[i] is not None) == (
            y.s_index, y.is_nominal, y.frozen)
        assert bank.log_lik[i] == y.log_lik
        assert np.array_equal(bank.mean[i], y.mean)
        assert np.array_equal(bank.cov[i], y.cov)
        trajectory = bank.trajectory(i)
        assert len(trajectory) == len(y.history)
        for hx, hy in zip(trajectory[history_from:], y.history[history_from:]):
            assert np.array_equal(hx[0], hy[0]) and np.array_equal(hx[1], hy[1])
            assert hx[2] == hy[2]


def step_both(stacked, reference, measurements, n_steps, poison=None):
    """Step the filter and its per-branch reference, comparing every branch
    after each step and every branch's whole history at the end; returns the
    filter's diagnostics.  ``poison = (k, fn)`` calls ``fn(stacked,
    reference)`` before step ``k``."""
    diags = []
    for k in range(1, n_steps + 1):
        if poison is not None and k == poison[0]:
            poison[1](stacked, reference)
        diags.append(stacked.step(measurements.get(k)))
        reference.step(measurements.get(k))
        assert_same_branches(stacked.bank, reference.branches)
    assert_same_branches(stacked.bank, reference.branches, history_from=0)
    return diags


def poisoned_pair(stage, row, capacity=10):
    """A filter and its reference with two observed channels and tiny noise,
    and a poison that gives bank row ``row`` a covariance that breaks its
    prediction (not PSD) or its update (innovation too ill-conditioned to
    invert)."""
    def make():
        return SwitchingFilter(
            dynamics=lambda pts, k: pts, observed=np.array([0, 1]), d_theta=3,
            Q_x=1e-10 * np.eye(2), q_p=1e-10, R=1e-8 * np.eye(2),
            x0=np.zeros(2), C0=np.eye(2), dt=0.1, capacity=capacity,
        )

    bad = np.diag([1.0, -1.0, 1.0, 1.0, 1.0]) if stage == "predict" else (
        np.diag([1e8, 0.0, 0.0, 0.0, 0.0]))

    def poison(stacked, reference):
        stacked.bank.cov[row] = bad
        reference.branches[row] = replace(reference.branches[row], cov=bad)

    return make(), PerBranchReference(make()), poison


class TestStackedStepEquivalence:
    # with r = 0 a stack mixes rows that Cholesky factors with semi-definite
    # rows that it cannot, so each stack is factored one matrix at a time
    @pytest.mark.parametrize("noise", [{}, {"r": 0.0}], ids=["config-r", "r0"])
    def test_balloon_run(self, noise):
        from skfnav.scenarios.balloon import build_balloon_filter, simulate_balloon

        _, cfg, field = parse_single({**load_config(CONFIGS / "table3_test3.json"),
                                      "n_steps": 260, **noise})
        truth = simulate_balloon(cfg, field)
        stacked = build_balloon_filter(cfg, field)
        reference = PerBranchReference(build_balloon_filter(cfg, field))
        step_both(stacked, reference, truth.measurement_map(), cfg.n_steps)
        assert len(stacked.bank) == cfg.capacity

    @pytest.mark.parametrize("noise", [{}, {"r": 0.0}], ids=["config-r", "r0"])
    def test_short_shuttle_run(self, noise):
        from skfnav.scenarios.shuttle import build_shuttle_filter, simulate_shuttle

        _, cfg, _ = parse_single({**load_config(CONFIGS / "table5_test22.json"),
                                  "n_steps": 40, "true_switch_step": 25, **noise})
        truth = simulate_shuttle(cfg)
        stacked = build_shuttle_filter(cfg, truth)
        reference = PerBranchReference(build_shuttle_filter(cfg, truth))
        step_both(stacked, reference, truth.measurement_map(), cfg.n_steps)
        assert len(stacked.bank) == cfg.capacity

    @pytest.mark.parametrize("stage", ["predict", "update"])
    def test_one_failing_branch_freezes_alone(self, stage):
        # at step 6 the third corrupted branch (onset 3, bank row 3) is poisoned
        stacked, reference, poison = poisoned_pair(stage, row=3)
        rng = np.random.default_rng(7)
        measurements = {k: 1e-3 * rng.standard_normal(2) for k in range(1, 9)}
        diags = step_both(stacked, reference, measurements, 8, poison=(6, poison))
        frozen = [s for s, cause in zip(stacked.bank.s_index, stacked.bank.cause)
                  if cause is not None]
        assert frozen == [3]
        cause = CovarianceError if stage == "predict" else SingularInnovationError
        assert [(d.frozen, d.frozen_causes) for d in diags[5:]] == [((3,), (cause,))] * 3

    def test_updates_after_a_freeze_and_a_drop(self):
        # onset 1 (bank row 1) freezes at step 6, and the drops of onsets 2
        # and 3 at steps 9 and 10 move the rows after it up: each later update
        # stacks the live rows only, with observation-map rows that held other
        # onsets' tau at the epoch before
        stacked, reference, poison = poisoned_pair("update", row=1, capacity=4)
        rng = np.random.default_rng(3)
        measurements = {k: 1e-3 * rng.standard_normal(2) for k in range(1, 15)}
        diags = step_both(stacked, reference, measurements, 14, poison=(6, poison))
        assert [d.frozen for d in diags[5:]] == [(1,)] * 9
        assert [[s for s, _ in d.pruned] for d in diags[8:10]] == [[2], [3]]

    def test_snapshots_before_the_oldest_onset_hold_the_nominal_only(self):
        stacked = random_walk_filter(capacity=3)
        reference = PerBranchReference(random_walk_filter(capacity=3))
        rng = np.random.default_rng(0)
        measurements = {k: 0.01 * rng.standard_normal(1) + 0.1 * (k >= 10)
                        for k in range(1, 41)}
        # every live row's trajectory equals its reference branch's history
        diags = step_both(stacked, reference, measurements, 40)
        # the rows that took the jump at step 10 lead for a while, then go
        assert [(d.k, s) for d in diags for s, _ in d.pruned if d.k - s > 2] == [
            (19, 8), (33, 9)]
        bank = stacked.bank
        oldest = min(bank.s_index[1:])
        assert oldest == 39
        for t, (mean, var, scores, onsets) in enumerate(bank.snapshots):
            if t < oldest:
                assert (mean.shape, var.shape, len(scores), onsets) == ((1, 4), (1, 4), 1, (0,))
            else:
                assert {s for s in bank.s_index if s <= t} <= set(onsets)

    @pytest.mark.parametrize("stage, row, pruned, frozen", [
        ("predict", 3, 6, (3,)),  # a corrupted branch freezes; the spawn is pruned at birth
        ("update", 0, None, (0,)),  # the nominal freezes in its update and spawns nothing
    ])
    def test_freeze_spawn_and_prune_in_one_step(self, stage, row, pruned, frozen):
        stacked, reference, poison = poisoned_pair(stage, row=row, capacity=4)
        rng = np.random.default_rng(7)
        measurements = {k: 1e-3 * rng.standard_normal(2) for k in range(1, 9)}
        diags = step_both(stacked, reference, measurements, 8, poison=(6, poison))
        assert not any(d.frozen for d in diags[:5])
        # the bank is full, so a spawn at step 6 is the branch pruned at birth
        assert diags[5].spawned_s == pruned
        assert [s for s, _ in diags[5].pruned] == ([] if pruned is None else [pruned])
        assert diags[5].frozen == frozen
        assert len(stacked.bank) == 4


def bookkeeping_digest(filt, diags) -> str:
    """sha256 prefix of a run's bookkeeping: every ``StepDiagnostics``, with
    the frozen causes by name, every ``bank.snapshots`` entry, and the final
    bank's rows, onsets and causes."""
    h = hashlib.sha256()
    for d in diags:
        h.update(repr((d.k, d.epoch, d.spawned_s, d.pruned, d.scores_before_prune,
                       d.n_branches, d.frozen,
                       tuple(cause.__name__ for cause in d.frozen_causes))).encode())
    bank = filt.bank
    for mean, var, scores, onsets in bank.snapshots:
        h.update(repr((mean.shape, var.shape, scores, onsets)).encode())
        h.update(mean.tobytes() + var.tobytes())
    h.update(bank.mean.tobytes() + bank.cov.tobytes() + bank.log_lik.tobytes())
    h.update(repr((bank.s_index, [c and c.__name__ for c in bank.cause])).encode())
    return h.hexdigest()[:16]


class TestBookkeepingDigest:
    """A whole run's bookkeeping is pinned bit for bit, so that a reordered
    row or a changed bit fails here and not only in the snapshot outputs.
    The digests were taken when the step read the bank through its
    ``mean``/``cov``/``log_lik`` views and wrote each epoch's offset basis
    channel by channel; ``table5_test22`` freezes rows (GimbalLockError in
    242 of its steps)."""

    def test_balloon_run(self):
        from skfnav.scenarios.balloon import build_balloon_filter, simulate_balloon

        _, cfg, field = parse_single(load_config(CONFIGS / "table3_test3.json"))
        filt = build_balloon_filter(cfg, field)
        diags = filt.run(simulate_balloon(cfg, field).measurement_map(), cfg.n_steps)
        assert bookkeeping_digest(filt, diags) == "0fc185c8967a7003"

    def test_shuttle_run_that_freezes_rows(self):
        from skfnav.scenarios.shuttle import build_shuttle_filter, simulate_shuttle

        _, cfg, _ = parse_single(load_config(CONFIGS / "table5_test22.json"))
        truth = simulate_shuttle(cfg)
        filt = build_shuttle_filter(cfg, truth)
        diags = filt.run(truth.measurement_map(), cfg.n_steps)
        assert sum(bool(d.frozen) for d in diags) == 242
        assert bookkeeping_digest(filt, diags) == "8d5fbfc7c46328c0"


class TestOnsetLeadUnderParameterNoise:
    """A static jump's true-onset row loses its lead over the nominal when
    the coefficients random-walk (``q_p > 0``): a corrupted row reads them
    through (1, tau, tau^2), so its predicted innovation variance grows with
    tau^4 while the nominal's does not.  With ``q_p = 0`` the lead holds.
    These are the figures of today's filter, not a target."""

    @staticmethod
    def lead(q_p):
        """The onset-200 row's score minus the nominal's after each step of
        ``table3_test3`` (a 0.2 jump at step 200, r = 1e-6)."""
        from skfnav import harness

        data = {**load_config(CONFIGS / "table3_test3.json"), "q_p": q_p}
        bank = harness.execute_case(data)[1].bank
        onset_row = [entry[2] for entry in bank.trajectory(bank.s_index.index(200))]
        nominal = [entry[2] for entry in bank.trajectory(0)]
        return np.subtract(onset_row, nominal)

    def test_lead_decays_when_the_coefficients_random_walk(self):
        lead = self.lead(1e-4)
        assert lead[200] == 0.0  # the row shares the nominal's scores through its onset
        assert lead[201] == pytest.approx(774.4, abs=0.1)
        assert lead[300] == pytest.approx(704.1, abs=0.1)
        assert lead[500] == pytest.approx(144.3, abs=0.1)
        assert np.all(np.diff(lead[201::50]) < 0)  # step by step, noise may lift it

    def test_lead_holds_when_the_coefficients_are_fixed(self):
        lead = self.lead(0.0)
        assert lead[201] == pytest.approx(774.4, abs=0.1)
        assert 760.0 < lead[201:].min() and lead[201:].max() < 775.0
