import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skfnav.biasmodels import (
    BiasSpec,
    SwitchSpec,
    augment,
    bias_eval,
    observe,
    quadratic_offsets,
)
from skfnav.exceptions import ConfigError

finite = st.floats(min_value=-10, max_value=10)
times = st.floats(min_value=0, max_value=50)


class TestBiasEval:
    def test_quadratic_at_onset_is_static_part(self):
        spec = BiasSpec("quadratic", A=0.1, B=0.0, C=0.01)
        assert bias_eval(spec, 2.0, 2.0) == pytest.approx([0.1])

    def test_zero_parameters_zero_offset(self):
        for kind in ("static", "linear", "quadratic"):
            spec = BiasSpec(kind)
            assert bias_eval(spec, 0.0, 17.3) == pytest.approx([0.0])

    def test_cap_clamps_quadratic(self):
        spec = BiasSpec("quadratic", A=0.0, B=0.0, C=1.0, cap=1000.0)
        assert bias_eval(spec, 0.0, 40.0) == pytest.approx([1000.0])

    def test_cap_preserves_sign(self):
        spec = BiasSpec("quadratic", A=0.0, B=-300.0, C=0.0, cap=1000.0)
        assert bias_eval(spec, 0.0, 10.0) == pytest.approx([-1000.0])

    def test_before_onset_rejected(self):
        with pytest.raises(ValueError):
            bias_eval(BiasSpec("static", A=1.0), 5.0, 4.0)

    def test_per_channel_coefficients(self):
        spec = BiasSpec("linear", A=[1.0, 2.0, 3.0], B=[0.0, 1.0, 0.0])
        assert bias_eval(spec, 0.0, 2.0) == pytest.approx([1.0, 4.0, 3.0])

    @given(finite, finite, times)
    @settings(max_examples=60, deadline=None)
    def test_nesting_linear_in_quadratic(self, a, b, tau):
        quad = bias_eval(BiasSpec("quadratic", A=a, B=b, C=0.0), 0.0, tau)
        lin = bias_eval(BiasSpec("linear", A=a, B=b), 0.0, tau)
        assert quad.tolist() == lin.tolist()

    @given(finite, times)
    @settings(max_examples=60, deadline=None)
    def test_nesting_static_in_linear(self, a, tau):
        lin = bias_eval(BiasSpec("linear", A=a, B=0.0), 0.0, tau)
        stat = bias_eval(BiasSpec("static", A=a), 0.0, tau)
        assert lin.tolist() == stat.tolist()

    @given(finite, finite, st.floats(min_value=0.01, max_value=10), times)
    @settings(max_examples=60, deadline=None)
    def test_cap_monotone(self, a, b, cap, tau):
        capped = bias_eval(BiasSpec("quadratic", A=a, B=b, C=0.1, cap=cap), 0.0, tau)
        free = bias_eval(BiasSpec("quadratic", A=a, B=b, C=0.1), 0.0, tau)
        assert np.all(np.abs(capped) <= cap + 1e-12)
        if np.all(np.abs(free) < cap):
            assert capped.tolist() == free.tolist()


class TestObserve:
    def test_boundary_epoch_is_clean(self):
        spec = BiasSpec("static", A=5.0)
        switch = SwitchSpec.at_step(10, 0.1)
        x = np.array([-35.0, 25.0])
        assert observe(x, spec, switch, 1.0).tolist() == [-35.0, 25.0]

    def test_first_epoch_after_onset_is_biased(self):
        spec = BiasSpec("static", A=5.0)
        switch = SwitchSpec.at_step(10, 0.1)
        out = observe(np.array([-35.0, 25.0]), spec, switch, 1.1)
        assert out == pytest.approx([-30.0, 30.0])

    def test_identity_selection_no_bias(self):
        spec = BiasSpec("quadratic")
        switch = SwitchSpec.at_step(0, 0.1)
        out = observe(np.array([-35.0, 25.0]), spec, switch, 3.0)
        assert out.tolist() == [-35.0, 25.0]

    def test_channel_slice_with_offset(self):
        spec = BiasSpec("static", A=100.0)
        switch = SwitchSpec.at_step(1, 1.4)
        x = np.zeros(15)
        x[0] = 1.5e5
        out = observe(x, spec, switch, 2.8, channels=slice(0, 3))
        assert out[0] == pytest.approx(1.5e5 + 100.0)


class TestAugment:
    def test_balloon_block_structure(self):
        aug, Q = augment(np.array([-35.0, 25.0]), np.zeros(3), 1e-4 * np.eye(2), 1e-6)
        assert aug.tolist() == [-35.0, 25.0, 0.0, 0.0, 0.0]
        assert Q.shape == (5, 5)
        assert np.diag(Q) == pytest.approx([1e-4, 1e-4, 1e-6, 1e-6, 1e-6])
        assert np.abs(Q - np.diag(np.diag(Q))).max() == 0.0

    def test_zero_parameter_noise(self):
        _, Q = augment(np.zeros(2), np.zeros(3), np.eye(2), 0.0)
        assert np.abs(Q[2:, 2:]).max() == 0.0

    def test_shuttle_dimension_count(self):
        aug, Q = augment(np.zeros(15), np.zeros(9), np.eye(15), 1e-12)
        assert aug.size == 24
        assert Q.shape == (24, 24)

    def test_negative_noise_rejected(self):
        with pytest.raises(ConfigError):
            augment(np.zeros(2), np.zeros(3), np.eye(2), -1.0)


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
        SwitchSpec.at_step(0, 0.01).validate(500, 0.01)
        SwitchSpec.at_step(500, 0.01).validate(500, 0.01)
        with pytest.raises(ConfigError):
            SwitchSpec.at_step(501, 0.01).validate(500, 0.01)
        with pytest.raises(ConfigError):
            SwitchSpec(t_s=1.0, s_index=2).validate(500, 0.01)


class TestQuadraticOffsets:
    def test_shared_layout_repeats_channels(self):
        theta = np.array([[1.0, 2.0, 3.0]])
        out = quadratic_offsets(theta, 2.0, 2)
        assert out.ravel() == pytest.approx([17.0, 17.0])

    def test_per_channel_layout(self):
        theta = np.zeros((1, 9))
        theta[0, 0] = 1.0   # channel 0 static
        theta[0, 4] = 2.0   # channel 1 linear
        theta[0, 8] = 3.0   # channel 2 quadratic
        out = quadratic_offsets(theta, 2.0, 3)
        assert out.ravel() == pytest.approx([1.0, 4.0, 12.0])

    def test_bad_width_rejected(self):
        with pytest.raises(ConfigError):
            quadratic_offsets(np.zeros((1, 5)), 1.0, 2)

    @pytest.mark.parametrize("width,channels", [(3, 2), (9, 3)])
    def test_stack_with_one_tau_per_slice(self, width, channels):
        theta = np.random.default_rng(width).standard_normal((4, 7, width))
        taus = np.array([0.5, 1.0, 2.5, 7.0])
        out = quadratic_offsets(theta, taus, channels)
        assert out.shape == (4, 7, channels)
        for b, tau in enumerate(taus):
            assert np.array_equal(out[b], quadratic_offsets(theta[b], float(tau), channels))
