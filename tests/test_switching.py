from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from skfnav.biasmodels import quadratic_offsets
from skfnav.configio import load_config, parse_single
from skfnav.exceptions import ConfigError, SkfnavError
from skfnav.gaussfilt import GaussianBelief, predict, update
from skfnav.switching import (
    Branch,
    BranchSet,
    SwitchingFilter,
    estimate,
    init,
    model_average,
    prune,
    reports_no_corruption,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def random_walk_filter(n_theta=3, delta=1, capacity=10, q_x=1e-4, q_p=1e-4, r=1e-4,
                       dt=0.1, keep_history=True):
    """Minimal 1-D random-walk plant with both channels observed."""
    Q = np.diag([q_x] + [q_p] * n_theta)
    return SwitchingFilter(
        dynamics=lambda pts, k: pts,
        observed=np.array([0]),
        d_x=1,
        d_theta=n_theta,
        Q_aug=Q,
        R=np.array([[r]]),
        x0=np.array([0.0]),
        C0=np.eye(1),
        dt=dt,
        delta=delta,
        capacity=capacity,
        keep_history=keep_history,
    )


def make_branch(s, loglik, dim=2, nominal=False):
    return Branch(
        s_index=s, t_s=float(s), log_lik=loglik,
        belief=GaussianBelief.create(np.zeros(dim), np.eye(dim)),
        is_nominal=nominal,
    )


class TestInit:
    def test_balloon_style_augmentation(self):
        branches = init(np.array([-35.0, 25.0]), np.eye(2), 3)
        nom = branches.nominal
        assert nom.belief.dim == 5
        assert nom.belief.mean.tolist() == [-35.0, 25.0, 0.0, 0.0, 0.0]
        assert np.abs(nom.belief.cov - np.eye(5)).max() == 0.0
        assert nom.log_lik == 0.0
        assert not branches.corrupted

    def test_shuttle_style_variances(self):
        C0 = 0.001 * np.eye(15)
        branches = init(np.zeros(15), C0, 9)
        diag = np.diag(branches.nominal.belief.cov)
        assert diag[:15] == pytest.approx([0.001] * 15)
        assert diag[15:] == pytest.approx([1.0] * 9)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            init(np.zeros(3), np.eye(2), 3)


class TestPrune:
    def test_removes_lowest_score(self):
        branches = BranchSet(
            nominal=make_branch(0, -100.0, nominal=True),
            corrupted=[make_branch(1, -5.0), make_branch(2, -3.0), make_branch(3, -10.0)],
            capacity=3,
        )
        out, removed = prune(branches)
        assert [b.s_index for b in removed] == [3]
        assert sorted(b.s_index for b in out.corrupted) == [1, 2]
        assert out.nominal.s_index == 0  # nominal survives its terrible score

    def test_tie_discards_latest_hypothesis(self):
        branches = BranchSet(
            nominal=make_branch(0, 0.0, nominal=True),
            corrupted=[make_branch(1, -5.0), make_branch(4, -5.0), make_branch(2, -5.0)],
            capacity=3,
        )
        out, removed = prune(branches)
        assert [b.s_index for b in removed] == [4]

    def test_noop_within_capacity(self):
        branches = BranchSet(
            nominal=make_branch(0, 0.0, nominal=True),
            corrupted=[make_branch(1, -5.0)],
            capacity=3,
        )
        out, removed = prune(branches)
        assert not removed
        assert len(out.corrupted) == 1


class TestEstimate:
    def test_single_nominal(self):
        branches = init(np.zeros(1), np.eye(1), 1)
        est = estimate(branches)
        assert est.best.is_nominal
        assert est.t_s is None
        assert est.weights == pytest.approx([1.0])

    def test_argmax_includes_nominal(self):
        branches = BranchSet(
            nominal=make_branch(0, 10.0, nominal=True),
            corrupted=[make_branch(3, 2.0)],
        )
        est = estimate(branches)
        assert est.best.is_nominal
        assert est.t_s is None

    def test_weights_normalized_and_ordered(self):
        branches = BranchSet(
            nominal=make_branch(0, 0.0, nominal=True),
            corrupted=[make_branch(1, -1.0), make_branch(2, -2.0)],
        )
        est = estimate(branches)
        assert est.weights.sum() == pytest.approx(1.0)
        assert est.weights[0] > est.weights[1] > est.weights[2]

    def test_exact_tie_prefers_nominal(self):
        branches = BranchSet(
            nominal=make_branch(0, 5.0, nominal=True),
            corrupted=[make_branch(9, 5.0)],
        )
        assert estimate(branches).best.is_nominal


class TestModelAverage:
    def test_single_branch_identity(self):
        branches = init(np.array([1.0, 2.0]), np.eye(2), 1)
        avg = model_average(branches)
        assert avg.mean == pytest.approx([1.0, 2.0, 0.0])

    def test_two_equal_branches_mixture_moments(self):
        b1 = Branch(1, 1.0, 0.0, GaussianBelief.create([1.0], [[0.0]]))
        b2 = Branch(2, 2.0, 0.0, GaussianBelief.create([-1.0], [[0.0]]),
                    is_nominal=True)
        branches = BranchSet(nominal=b2, corrupted=[b1])
        avg = model_average(branches)
        assert avg.mean == pytest.approx([0.0])
        assert avg.cov.ravel() == pytest.approx([1.0])

    def test_degenerate_weights_select_winner(self):
        b1 = Branch(1, 1.0, -1e9, GaussianBelief.create([1.0], [[2.0]]))
        nom = Branch(0, 0.0, 0.0, GaussianBelief.create([5.0], [[3.0]]), is_nominal=True)
        avg = model_average(BranchSet(nominal=nom, corrupted=[b1]))
        assert avg.mean == pytest.approx([5.0])
        assert avg.cov.ravel() == pytest.approx([3.0])


class TestStepping:
    def test_non_epoch_step_only_predicts(self):
        filt = random_walk_filter(delta=5)
        diag = filt.step(None)
        assert diag.spawned_s is None
        assert not diag.epoch
        assert len(filt.branches) == 1
        assert filt.branches.nominal.log_lik == 0.0

    def test_measurement_at_non_epoch_rejected(self):
        filt = random_walk_filter(delta=5)
        with pytest.raises(ConfigError):
            filt.step(np.array([0.0]))

    def test_measurement_dimension_checked(self):
        from skfnav.exceptions import InvalidMeasurementError

        filt = random_walk_filter()
        with pytest.raises(InvalidMeasurementError):
            filt.step(np.array([0.0, 1.0]))

    def test_first_epoch_spawns_one_branch(self):
        filt = random_walk_filter()
        diag = filt.step(np.array([0.1]))
        assert diag.spawned_s == 1
        assert len(filt.branches) == 2
        assert [b.s_index for b in filt.branches.corrupted] == [1]

    def test_capacity_arithmetic(self):
        filt = random_walk_filter(capacity=3)
        rng = np.random.default_rng(0)
        for _ in range(4):
            filt.step(rng.standard_normal(1) * 0.01)
        assert len(filt.branches.corrupted) == 2
        assert len(filt.branches) <= 3

    def test_spawn_equals_nominal_at_spawn_epoch(self):
        filt = random_walk_filter()
        rng = np.random.default_rng(1)
        for k in range(1, 20):
            filt.step(rng.standard_normal(1) * 0.01)
            nom = filt.branches.nominal
            spawned = [b for b in filt.branches.corrupted if b.s_index == k]
            assert len(spawned) == 1
            assert np.abs(spawned[0].belief.mean - nom.belief.mean).max() <= 1e-12
            assert np.abs(spawned[0].belief.cov - nom.belief.cov).max() <= 1e-12
            assert spawned[0].log_lik == pytest.approx(nom.log_lik, abs=1e-12)

    def test_score_changes_only_at_epochs(self):
        filt = random_walk_filter(delta=3)
        rng = np.random.default_rng(2)
        scores = [filt.branches.nominal.log_lik]
        for k in range(1, 13):
            y = rng.standard_normal(1) * 0.01 if k % 3 == 0 else None
            filt.step(y)
            scores.append(filt.branches.nominal.log_lik)
        changes = [i for i in range(1, len(scores)) if scores[i] != scores[i - 1]]
        assert changes == [3, 6, 9, 12]

    def test_nominal_theta_block_inert(self):
        filt = random_walk_filter()
        rng = np.random.default_rng(3)
        for _ in range(40):
            filt.step(rng.standard_normal(1) * 0.01)
            nom = filt.branches.nominal.belief
            assert np.abs(nom.mean[1:]).max() < 1e-9
            assert np.abs(nom.cov[0, 1:]).max() < 1e-9

    def test_history_lengths_aligned(self):
        filt = random_walk_filter()
        rng = np.random.default_rng(4)
        for _ in range(15):
            filt.step(rng.standard_normal(1) * 0.01)
        for b in filt.branches.all_branches():
            assert len(b.history) == 16  # steps 0..15

    def test_determinism_same_inputs(self):
        def trace():
            filt = random_walk_filter()
            rng = np.random.default_rng(5)
            out = []
            for _ in range(25):
                filt.step(rng.standard_normal(1) * 0.01)
                out.append([(b.s_index, b.log_lik) for b in filt.branches.all_branches()])
            return out

        assert trace() == trace()


class TestDivergenceFreeze:
    def test_branches_freeze_on_bad_dynamics(self):
        def dynamics(pts, k):
            # poison every branch after a few steps
            if k >= 3:
                return pts * np.nan
            return pts

        filt = SwitchingFilter(
            dynamics=dynamics, observed=np.array([0]), d_x=1, d_theta=3,
            Q_aug=1e-4 * np.eye(4), R=np.array([[1e-4]]),
            x0=np.array([0.0]), C0=np.eye(1), dt=0.1,
        )
        filt.step(np.array([0.0]))
        filt.step(np.array([0.0]))
        diag = filt.step(np.array([0.0]))
        assert filt.branches.nominal.frozen
        assert diag.frozen
        # frozen branches stop accumulating score
        before = filt.branches.nominal.log_lik
        filt.step(np.array([0.0]))
        assert filt.branches.nominal.log_lik == before


def test_unbiased_survivors_cluster_at_timeline_end():
    # with clean data the surviving hypotheses are the freshest spawns and
    # their scores stay close to the nominal branch's
    from skfnav.scenarios.balloon import BalloonConfig, build_balloon_filter, simulate_balloon

    cfg = BalloonConfig(n_steps=200, q_x=1e-6, q_p=1e-6, r=1e-6, seed=3)
    truth = simulate_balloon(cfg)
    filt = build_balloon_filter(cfg)
    filt.run(truth.measurement_map(), cfg.n_steps)
    survivors = filt.branches.corrupted
    assert survivors
    assert min(b.s_index for b in survivors) >= 0.9 * cfg.n_steps
    nominal = filt.branches.nominal.log_lik
    spread = max(abs(b.log_lik - nominal) for b in survivors)
    assert spread < 0.01 * abs(nominal)


class TestNoCorruptionConvention:
    def test_nominal_win_reports_clean(self):
        branches = BranchSet(nominal=make_branch(0, 1.0, nominal=True), corrupted=[])
        assert reports_no_corruption(estimate(branches), n_steps=500)

    def test_tail_hypothesis_reports_clean(self):
        branches = BranchSet(
            nominal=make_branch(0, 0.0, nominal=True),
            corrupted=[make_branch(499, 5.0)],
        )
        assert reports_no_corruption(estimate(branches), n_steps=500)

    def test_mid_run_hypothesis_is_detection(self):
        branches = BranchSet(
            nominal=make_branch(0, 0.0, nominal=True),
            corrupted=[make_branch(200, 5.0)],
        )
        assert not reports_no_corruption(estimate(branches), n_steps=500)


# -- stacked step against the per-branch step ---------------------------------


def reference_step(filt, y=None):
    """The per-branch step: every branch is predicted, updated and scored on
    its own single belief, and a branch whose numerics fail freezes."""
    filt.k += 1
    k = filt.k

    def predict_branch(branch):
        if branch.frozen:
            return branch
        try:
            belief = predict(branch.belief, lambda pts: filt.dynamics(pts, k),
                             filt.Q_aug, filt.params)
        except SkfnavError:
            return replace(branch, frozen=True)
        return replace(branch, belief=belief)

    def observe(points, s_index):
        z = points[:, filt.observed].copy()
        if s_index is not None and k > s_index:
            z += quadratic_offsets(points[:, filt.d_x:], (k - s_index) * filt.dt,
                                   filt.observed.size)
        return z

    def update_branch(branch, s_index, is_nominal):
        history = branch.history
        if not is_nominal and s_index == k and history is not None:
            history = list(history)
        try:
            belief, pred = update(
                branch.belief, lambda pts: observe(pts, None if is_nominal else s_index),
                y, filt.R, filt.params,
            )
            log_lik, frozen = branch.log_lik + float(pred.log_lik), False
        except SkfnavError:
            belief, log_lik, frozen = branch.belief, branch.log_lik, True
        return Branch(s_index, s_index * filt.dt, log_lik, belief, is_nominal, frozen, history)

    nominal = predict_branch(filt.branches.nominal)
    corrupted = [predict_branch(b) for b in filt.branches.corrupted]
    if y is not None:
        y = np.asarray(y, dtype=float).reshape(-1)
        spawned = None
        if not nominal.frozen:
            spawned = update_branch(nominal, k, False)
            nominal = update_branch(nominal, 0, True)
        corrupted = [b if b.frozen else update_branch(b, b.s_index, False) for b in corrupted]
        if spawned is not None:
            corrupted.append(spawned)
        filt.branches, _ = prune(BranchSet(nominal, corrupted, filt.branches.capacity))
    else:
        filt.branches = BranchSet(nominal, corrupted, filt.branches.capacity)
    for branch in filt.branches.all_branches():
        branch.record()


def assert_same_branches(a, b, history_from=-1):
    assert len(a) == len(b)
    for x, y in zip(a.all_branches(), b.all_branches()):
        assert (x.s_index, x.is_nominal, x.frozen) == (y.s_index, y.is_nominal, y.frozen)
        assert x.log_lik == y.log_lik
        assert np.array_equal(x.belief.mean, y.belief.mean)
        assert np.array_equal(x.belief.cov, y.belief.cov)
        assert len(x.history) == len(y.history)
        for hx, hy in zip(x.history[history_from:], y.history[history_from:]):
            assert np.array_equal(hx[0], hy[0]) and np.array_equal(hx[1], hy[1])
            assert hx[2] == hy[2]


def step_both(stacked, reference, measurements, n_steps, poison=None):
    """Step both filters, comparing every branch after each step and every
    branch's whole history at the end."""
    for k in range(1, n_steps + 1):
        if poison is not None and k == poison[0]:
            for filt in (stacked, reference):
                poison[1](filt.branches)
        stacked.step(measurements.get(k))
        reference_step(reference, measurements.get(k))
        assert_same_branches(stacked.branches, reference.branches)
    assert_same_branches(stacked.branches, reference.branches, history_from=0)


class TestStackedStepEquivalence:
    def test_balloon_run(self):
        from skfnav.scenarios.balloon import build_balloon_filter, simulate_balloon

        _, cfg, field = parse_single({**load_config(CONFIGS / "table3_test3.json"),
                                      "n_steps": 260})
        truth = simulate_balloon(cfg, field)
        stacked, reference = (build_balloon_filter(cfg, field) for _ in range(2))
        step_both(stacked, reference, truth.measurement_map(), cfg.n_steps)
        assert len(stacked.branches) == cfg.capacity

    def test_short_shuttle_run(self):
        from skfnav.scenarios.shuttle import build_shuttle_filter, simulate_shuttle

        _, cfg, _ = parse_single({**load_config(CONFIGS / "table5_test22.json"),
                                  "n_steps": 40, "true_switch_step": 25})
        truth = simulate_shuttle(cfg)
        stacked, reference = (build_shuttle_filter(cfg, truth) for _ in range(2))
        step_both(stacked, reference, truth.measurement_map(), cfg.n_steps)
        assert len(stacked.branches) == cfg.capacity

    @pytest.mark.parametrize("stage", ["predict", "update"])
    def test_one_failing_branch_freezes_alone(self, stage):
        # two observed channels with tiny noise; at step 6 the third corrupted
        # branch gets a covariance that breaks its prediction (not PSD) or its
        # update (innovation too ill-conditioned to invert)
        def make():
            return SwitchingFilter(
                dynamics=lambda pts, k: pts, observed=np.array([0, 1]), d_x=2, d_theta=3,
                Q_aug=1e-10 * np.eye(5), R=1e-8 * np.eye(2),
                x0=np.zeros(2), C0=np.eye(2), dt=0.1,
            )

        bad = np.diag([1.0, -1.0, 1.0, 1.0, 1.0]) if stage == "predict" else (
            np.diag([1e8, 0.0, 0.0, 0.0, 0.0]))

        def poison(branches):
            victim = branches.corrupted[2]
            branches.corrupted[2] = replace(
                victim, belief=GaussianBelief.create(victim.belief.mean, bad))

        rng = np.random.default_rng(7)
        measurements = {k: 1e-3 * rng.standard_normal(2) for k in range(1, 9)}
        stacked, reference = make(), make()
        step_both(stacked, reference, measurements, 8, poison=(6, poison))
        frozen = [b.s_index for b in stacked.branches.all_branches() if b.frozen]
        assert frozen == [3]
