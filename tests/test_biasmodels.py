import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skfnav.biasmodels import (
    BiasSpec,
    gated_offsets,
    offset_columns,
    write_offset_basis,
)
from skfnav.exceptions import ConfigError
from skfnav.scenarios.balloon import BalloonConfig, simulate_balloon
from skfnav.scenarios.shuttle import ShuttleConfig, simulate_shuttle
from skfnav.switching import SwitchingFilter

finite = st.floats(min_value=-10, max_value=10)
times = st.floats(min_value=0, max_value=50)


def offset_at(spec: BiasSpec, t_s: float, t_k: float, n_channels: int = 1) -> np.ndarray:
    """The offset of a fix at time ``t_k`` for an onset at ``t_s``."""
    return gated_offsets(spec, t_s, 1.0, np.array([t_k]), n_channels)[0]


class TestBiasEval:
    """The offset polynomial and its cap, one epoch at a time."""

    def test_quadratic_at_onset_is_static_part(self):
        spec = BiasSpec("quadratic", A=0.1, B=0.0, C=0.01)
        assert offset_at(spec, 2.0, 2.0 + 1e-9) == pytest.approx([0.1])

    def test_zero_parameters_zero_offset(self):
        for kind in ("static", "linear", "quadratic"):
            spec = BiasSpec(kind)
            assert offset_at(spec, 0.0, 17.3) == pytest.approx([0.0])

    def test_cap_clamps_quadratic(self):
        spec = BiasSpec("quadratic", A=0.0, B=0.0, C=1.0, cap=1000.0)
        assert offset_at(spec, 0.0, 40.0) == pytest.approx([1000.0])

    def test_cap_preserves_sign(self):
        spec = BiasSpec("quadratic", A=0.0, B=-300.0, C=0.0, cap=1000.0)
        assert offset_at(spec, 0.0, 10.0) == pytest.approx([-1000.0])

    def test_before_onset_reads_zero(self):
        spec = BiasSpec("static", A=1.0)
        assert offset_at(spec, 5.0, 4.0).tolist() == [0.0]
        assert offset_at(spec, 5.0, 5.0).tolist() == [0.0]

    def test_per_channel_coefficients(self):
        spec = BiasSpec("linear", A=[1.0, 2.0, 3.0], B=[0.0, 1.0, 0.0])
        assert offset_at(spec, 0.0, 2.0, 3) == pytest.approx([1.0, 4.0, 3.0])

    @given(finite, finite, times)
    @settings(max_examples=60, deadline=None)
    def test_nesting_linear_in_quadratic(self, a, b, tau):
        quad = offset_at(BiasSpec("quadratic", A=a, B=b, C=0.0), 0.0, tau)
        lin = offset_at(BiasSpec("linear", A=a, B=b), 0.0, tau)
        assert quad.tolist() == lin.tolist()

    @given(finite, times)
    @settings(max_examples=60, deadline=None)
    def test_nesting_static_in_linear(self, a, tau):
        lin = offset_at(BiasSpec("linear", A=a, B=0.0), 0.0, tau)
        stat = offset_at(BiasSpec("static", A=a), 0.0, tau)
        assert lin.tolist() == stat.tolist()

    @given(finite, finite, st.floats(min_value=0.01, max_value=10), times)
    @settings(max_examples=60, deadline=None)
    def test_cap_monotone(self, a, b, cap, tau):
        capped = offset_at(BiasSpec("quadratic", A=a, B=b, C=0.1, cap=cap), 0.0, tau)
        free = offset_at(BiasSpec("quadratic", A=a, B=b, C=0.1), 0.0, tau)
        assert np.all(np.abs(capped) <= cap + 1e-12)
        if np.all(np.abs(free) < cap):
            assert capped.tolist() == free.tolist()


def offsets_per_epoch(spec: BiasSpec, switch_step, dt: float, epochs, n_channels: int):
    """The offsets with the coefficient matrix rebuilt at every epoch."""
    offsets = np.zeros((len(epochs), n_channels))
    t_s = switch_step * dt
    for i, t_k in enumerate(np.asarray(epochs) * dt):
        if t_k > t_s:
            tau = t_k - t_s
            theta = spec.theta
            offset = theta @ np.array([1.0, tau, tau * tau][: theta.shape[1]])
            if spec.cap is not None:
                offset = np.clip(offset, -spec.cap, spec.cap)
            offsets[i] = offset
    return offsets


@pytest.mark.parametrize("cap", [None, 0.4])
@pytest.mark.parametrize("spec, n_channels", [
    (BiasSpec("static", A=0.3), 2),
    (BiasSpec("linear", A=0.1, B=-0.2), 2),
    (BiasSpec("quadratic", A=0.1, B=0.2, C=0.3), 2),
    (BiasSpec("static", A=[0.3, -0.5, 0.1]), 3),
    (BiasSpec("linear", A=[0.1, -0.3], B=0.2), 2),
    (BiasSpec("quadratic", A=0.1, B=[0.2, -0.1, 0.05], C=[0.3, 0.0, -0.7]), 3),
], ids=["static", "linear", "quadratic", "static-lists", "linear-lists", "quadratic-lists"])
def test_gated_offsets_match_per_epoch_offsets(spec, n_channels, cap):
    spec = dataclasses.replace(spec, cap=cap)
    epochs = np.arange(3, 501, 3)
    assert np.array_equal(gated_offsets(spec, 37, 0.01, epochs, n_channels),
                          offsets_per_epoch(spec, 37, 0.01, epochs, n_channels))


class TestObserve:
    """Onset gating of the fixes the filter sees, as the truth generators
    produce them: the onset epoch reads clean, and every observed channel
    carries the offset after it."""

    @staticmethod
    def balloon_offsets(bias, onset):
        cfg = BalloonConfig(n_steps=20, dt=0.1, q_x=0.0, r=0.0, seed=0,
                            bias=bias, true_switch_step=onset)
        truth = simulate_balloon(cfg)
        return truth.measurements - truth.states[truth.epochs]  # epochs 1..20

    def test_boundary_epoch_is_clean(self):
        offsets = self.balloon_offsets(BiasSpec("static", A=5.0), onset=10)
        assert offsets[9].tolist() == [0.0, 0.0]

    def test_first_epoch_after_onset_is_biased(self):
        offsets = self.balloon_offsets(BiasSpec("static", A=5.0), onset=10)
        assert offsets[10] == pytest.approx([5.0, 5.0])

    def test_identity_selection_no_bias(self):
        offsets = self.balloon_offsets(BiasSpec("quadratic"), onset=0)
        assert np.abs(offsets).max() == 0.0

    def test_channel_slice_with_offset(self):
        cfg = ShuttleConfig(n_steps=5, r=0.0, bias=BiasSpec("static", A=100.0),
                            true_switch_step=1, seed=0)
        truth = simulate_shuttle(cfg)
        offsets = truth.gps - truth.inertial_states[truth.epochs, :3]
        assert offsets[0].tolist() == [0.0, 0.0, 0.0]
        assert offsets[1] == pytest.approx([100.0] * 3)


class TestAugment:
    """The filter appends the coefficients to the state as a random walk:
    its process noise is block-diagonal ``diag(Q_x, q_p I)``."""

    @staticmethod
    def augmented_noise(x0, Q_x, q_p, d_theta=3):
        return SwitchingFilter(
            dynamics=lambda pts, k: pts, observed=np.arange(d_theta // 3),
            d_theta=d_theta, Q_x=Q_x, q_p=q_p, R=np.eye(d_theta // 3),
            x0=x0, C0=np.eye(x0.size), dt=0.1,
        ).Q_aug

    def test_balloon_block_structure(self):
        Q = self.augmented_noise(np.array([-35.0, 25.0]), 1e-4 * np.eye(2), 1e-6)
        assert Q.shape == (5, 5)
        assert np.diag(Q) == pytest.approx([1e-4, 1e-4, 1e-6, 1e-6, 1e-6])
        assert np.abs(Q - np.diag(np.diag(Q))).max() == 0.0

    def test_zero_parameter_noise(self):
        Q = self.augmented_noise(np.zeros(2), np.eye(2), 0.0)
        assert np.abs(Q[2:, 2:]).max() == 0.0

    def test_shuttle_dimension_count(self):
        Q = self.augmented_noise(np.zeros(15), np.eye(15), 1e-12, d_theta=9)
        assert Q.shape == (24, 24)
        assert np.diag(Q)[15:] == pytest.approx([1e-12] * 9)

    def test_negative_noise_rejected(self):
        with pytest.raises(ConfigError):
            self.augmented_noise(np.zeros(2), np.eye(2), -1.0)


class TestSpecValidation:
    def test_kind_restricts_coefficients(self):
        with pytest.raises(ConfigError):
            BiasSpec("static", A=1.0, B=2.0)
        with pytest.raises(ConfigError):
            BiasSpec("linear", A=1.0, C=2.0)

    def test_cap_must_be_positive(self):
        with pytest.raises(ConfigError):
            BiasSpec("static", A=1.0, cap=0.0)

    def test_json_round_trip(self):
        spec = BiasSpec("quadratic", A=0.1, B=0.0, C=0.01, cap=1000.0)
        again = BiasSpec.from_dict(spec.to_dict())
        assert again == spec
        assert spec.to_dict() == {"kind": "quadratic", "A": 0.1, "B": 0.0, "C": 0.01, "cap": 1000.0}

    def test_theta_shape_per_kind(self):
        assert BiasSpec("static", A=1.0).theta.shape == (1, 1)
        assert BiasSpec("linear", A=1.0, B=2.0).theta.shape == (1, 2)
        assert BiasSpec("quadratic", A=[1, 2, 3], B=0.0, C=0.0).theta.shape == (3, 3)

    def test_switch_spec_validation(self):
        for config in (BalloonConfig, ShuttleConfig):
            n_steps = config().n_steps
            config(true_switch_step=0)
            config(true_switch_step=n_steps)
            with pytest.raises(ConfigError, match="outside"):
                config(true_switch_step=n_steps + 1)


def offset_matrix(tau, n_channels, d_theta):
    """Phi(tau): zero apart from the basis written at the layout's entries."""
    phi = np.zeros(np.shape(tau) + (n_channels, d_theta))
    write_offset_basis(phi, offset_columns(n_channels, d_theta), tau)
    return phi


class TestQuadraticOffsets:
    def test_shared_layout_repeats_channels(self):
        theta = np.array([1.0, 2.0, 3.0])
        out = offset_matrix(2.0, 2, 3) @ theta
        assert out == pytest.approx([17.0, 17.0])

    def test_per_channel_layout(self):
        theta = np.zeros(9)
        theta[0] = 1.0   # channel 0 static
        theta[4] = 2.0   # channel 1 linear
        theta[8] = 3.0   # channel 2 quadratic
        out = offset_matrix(2.0, 3, 9) @ theta
        assert out == pytest.approx([1.0, 4.0, 12.0])

    def test_bad_width_rejected(self):
        with pytest.raises(ConfigError):
            offset_matrix(1.0, 2, 5)

    @pytest.mark.parametrize("width,channels", [(3, 2), (9, 3)])
    def test_stack_with_one_tau_per_slice(self, width, channels):
        theta = np.random.default_rng(width).standard_normal((4, 7, width))
        taus = np.array([0.5, 1.0, 2.5, 7.0])
        phi = offset_matrix(taus, channels, width)
        assert phi.shape == (4, channels, width)
        out = theta @ np.swapaxes(phi, -1, -2)
        assert out.shape == (4, 7, channels)
        for b, tau in enumerate(taus):
            assert np.array_equal(out[b], theta[b] @ offset_matrix(float(tau), channels, width).T)
