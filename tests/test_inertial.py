import numpy as np
import pytest

from skfnav.constants import EARTH_RADIUS_FT, GRAV_PARAM
from skfnav.exceptions import GimbalLockError
from skfnav.inertial import ImuSample, NavState15, attitude_matrix, gravity, strapdown_step
from skfnav.scenarios.shuttle import ShuttleConfig, simulate_shuttle


def level_state(**overrides):
    base = dict(h=1.0e5, L=0.9, lam=0.3, v=0.0, gamma=0.0, alpha=0.0,
                phi=0.0, theta=0.0, psi=0.0)
    base.update(overrides)
    return NavState15(**base)


def kernel_attitude(state, omega_meas, dt):
    """(roll, pitch, yaw) after one kernel step; the attitude update reads
    only the gyro."""
    out = strapdown_step(state, ImuSample(np.zeros(3), omega_meas), dt)
    return np.array([out.phi, out.theta, out.psi])


def euler_rates(state, omega_meas, dt=1e-3):
    """Euler-angle rates the kernel applied over one short forward-Euler step."""
    angles = np.array([state.phi, state.theta, state.psi])
    return (kernel_attitude(state, omega_meas, dt) - angles) / dt


def hover_force(h):
    """Level-attitude specific force that cancels the kernel's gravity exactly."""
    r = EARTH_RADIUS_FT + h
    return np.array([0.0, 0.0, -GRAV_PARAM / (r * r)])


def shuttle_imu(n_steps=40, seed=0, **noise):
    """A clean shuttle run's truth with the given IMU noise and bias walks."""
    levels = dict(imu_noise_accel=0.0, imu_noise_gyro=0.0,
                  imu_walk_accel=0.0, imu_walk_gyro=0.0)
    levels.update(noise)
    return simulate_shuttle(ShuttleConfig(n_steps=n_steps, oversample=1, seed=seed,
                                          true_switch_step=None, **levels))


class TestAttitude:
    def test_zero_angles_identity(self):
        assert np.abs(attitude_matrix(0, 0, 0) - np.eye(3)).max() < 1e-15

    def test_quarter_turn_yaw_entries(self):
        C = attitude_matrix(0.0, 0.0, np.pi / 2)
        expect = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.abs(C - expect).max() < 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_orthonormal_any_angles(self, seed):
        rng = np.random.default_rng(seed)
        phi, theta, psi = rng.uniform(-np.pi, np.pi, 3) * [1.0, 0.45, 1.0]
        C = attitude_matrix(phi, theta, psi)
        assert np.abs(C @ C.T - np.eye(3)).max() < 1e-12
        assert np.linalg.det(C) == pytest.approx(1.0, abs=1e-12)


class TestEulerRates:
    def test_level_attitude_passes_rates_through(self):
        state = level_state()
        rates = euler_rates(state, np.array([0.1, -0.2, 0.3]))
        assert rates == pytest.approx([0.1, -0.2, 0.3])

    def test_bias_cancellation(self):
        bias = np.array([0.01, 0.02, -0.03])
        state = NavState15(1e5, 0.9, 0.3, 0.0, 0.0, 0.0, 0.4, 0.2, 1.0,
                           b_a=np.zeros(3), b_g=bias)
        assert euler_rates(state, bias) == pytest.approx([0.0, 0.0, 0.0])

    def test_rolled_attitude_routes_pitch_rate_to_yaw(self):
        state = level_state(phi=np.pi / 2)
        rates = euler_rates(state, np.array([0.0, 0.5, 0.0]))
        assert rates == pytest.approx([0.0, 0.0, 0.5], abs=1e-12)

    def test_pitch_guard(self):
        with pytest.raises(GimbalLockError):
            level_state(theta=np.pi / 2)


class TestAttitudeUpdate:
    def test_zero_rates_unchanged(self):
        state = level_state(phi=0.1, theta=0.2, psi=0.3)
        assert kernel_attitude(state, np.zeros(3), 1.4) == pytest.approx([0.1, 0.2, 0.3])

    def test_constant_yaw_rate(self):
        state = level_state()
        angles = kernel_attitude(state, np.array([0.0, 0.0, 0.1]), 1.4)
        assert angles == pytest.approx([0.0, 0.0, 0.14])

    def test_wrap_into_half_open_interval(self):
        state = level_state(psi=3.1)
        angles = kernel_attitude(state, np.array([0.0, 0.0, 0.1]), 1.0)
        assert -np.pi < angles[2] <= np.pi
        assert angles[2] == pytest.approx(3.2 - 2 * np.pi)


class TestGravity:
    def test_surface_value(self):
        g = gravity(0.0)
        expect = GRAV_PARAM / EARTH_RADIUS_FT**2
        assert g[2] == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(32.2, abs=0.05)

    def test_horizontal_components_zero(self):
        for h in (0.0, 1e5, 5e5):
            assert gravity(h)[0] == 0.0
            assert gravity(h)[1] == 0.0

    def test_decays_with_altitude(self):
        assert gravity(2e5)[2] < gravity(0.0)[2]


class TestVelocityViews:
    """The kernel's speed/flight-path/azimuth to (N, E, D) velocity round trip."""

    def test_round_trip(self):
        v, gamma, alpha = 1.4e4, -0.0123, 0.8
        state = level_state(v=v, gamma=gamma, alpha=alpha)
        out = strapdown_step(state, ImuSample(hover_force(state.h), np.zeros(3)), 1.0)
        assert (out.v, out.gamma, out.alpha) == pytest.approx((v, gamma, alpha))

    def test_zero_speed_convention(self):
        state = level_state()
        out = strapdown_step(state, ImuSample(hover_force(state.h), np.zeros(3)), 1.0)
        assert (out.v, out.gamma, out.alpha) == (0.0, 0.0, 0.0)


class TestStrapdownStep:
    def test_gravity_cancelling_hover_is_fixed_point(self):
        state = level_state()
        f_b = -gravity(state.h)  # level attitude: body frame == inertial frame
        out = strapdown_step(state, ImuSample(f_b, np.zeros(3)), 1.4)
        assert out.h == pytest.approx(state.h, abs=1e-12)
        assert out.L == pytest.approx(state.L, abs=1e-12)
        assert out.lam == pytest.approx(state.lam, abs=1e-12)
        assert out.v == pytest.approx(0.0, abs=1e-12)
        assert (out.phi, out.theta, out.psi) == pytest.approx((0.0, 0.0, 0.0))

    def test_zero_down_velocity_keeps_altitude(self):
        # northward flight, gravity cancelled: h untouched, position angle moves
        state = level_state(v=1000.0)
        f_b = -gravity(state.h)
        out = strapdown_step(state, ImuSample(f_b, np.zeros(3)), 1.0)
        assert out.h == pytest.approx(state.h, abs=1e-9)
        assert out.L > state.L

    def test_position_advances_by_trapezoidal_geometry(self):
        state = level_state(v=1000.0)
        f_b = -gravity(state.h)
        dt = 1.0
        out = strapdown_step(state, ImuSample(f_b, np.zeros(3)), dt)
        expect_L = state.L + dt * 1000.0 / (EARTH_RADIUS_FT + state.h)
        assert out.L == pytest.approx(expect_L, rel=1e-9)

    def test_biases_pass_through(self):
        state = NavState15(1e5, 0.9, 0.3, 100.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                           b_a=[0.1, 0.2, 0.3], b_g=[1e-3, 2e-3, 3e-3])
        out = strapdown_step(state, ImuSample(np.zeros(3), np.zeros(3)), 0.5)
        assert out.b_a.tolist() == [0.1, 0.2, 0.3]
        assert out.b_g.tolist() == [1e-3, 2e-3, 3e-3]

    def test_bias_equal_imu_is_rotation_free(self):
        bias_g = np.array([0.01, -0.02, 0.005])
        state = NavState15(1e5, 0.9, 0.3, 0.0, 0.0, 0.0, 0.2, 0.1, -0.4,
                           b_a=np.zeros(3), b_g=bias_g)
        C = attitude_matrix(0.2, 0.1, -0.4)
        f_b = C.T @ (-gravity(state.h))
        out = strapdown_step(state, ImuSample(f_b, bias_g), 1.0)
        assert (out.phi, out.theta, out.psi) == pytest.approx((0.2, 0.1, -0.4))
        assert out.h == pytest.approx(state.h, abs=1e-9)


class TestImuSynthesis:
    """The bias walks and white noise ``simulate_shuttle`` adds to the
    reference IMU stream."""

    def test_bias_propagation_zero_sigma_is_identity(self):
        truth = shuttle_imu()
        assert not truth.accel_bias.any() and not truth.gyro_bias.any()

    def test_bias_propagation_reproducible(self):
        runs = [shuttle_imu(seed=7, imu_walk_accel=1e-4, imu_walk_gyro=1e-6) for _ in range(2)]
        assert np.array_equal(runs[0].accel_bias, runs[1].accel_bias)
        assert np.array_equal(runs[0].gyro_bias, runs[1].gyro_bias)
        assert runs[0].accel_bias.any()

    def test_random_walk_variance(self):
        # 2000 steps on 3 axes: the pooled step variance approaches the walk
        # variance with ~1.8% sampling error over the 6000 samples
        var = 1e-4
        truth = shuttle_imu(n_steps=2001, seed=1, imu_walk_accel=np.sqrt(var))
        steps = np.diff(truth.accel_bias, axis=0)
        assert np.mean(steps**2) == pytest.approx(var, rel=0.05)

    def test_synthesize_truth_when_clean(self):
        truth = shuttle_imu()
        assert np.array_equal(truth.imu_meas, truth.reference.imu_true)

    def test_synthesize_adds_bias(self):
        truth = shuttle_imu(imu_walk_accel=1e-3, imu_walk_gyro=1e-6)
        added = truth.imu_meas - truth.reference.imu_true
        assert np.abs(added[:, :3] - truth.accel_bias).max() < 1e-12
        assert np.abs(added[:, 3:] - truth.gyro_bias).max() < 1e-15

    def test_noise_mean_converges(self):
        n = 2001
        truth = shuttle_imu(n_steps=n, seed=5, imu_noise_accel=0.3)
        noise = truth.imu_meas[:, :3] - truth.reference.imu_true[:, :3]
        # CLT: sample mean within ~3 sigma / sqrt(N) of zero
        assert np.abs(noise.mean(axis=0)).max() < 3 * 0.3 / np.sqrt(n)


def test_vector_round_trip():
    state = NavState15(1e5, 0.9, 0.3, 100.0, -0.01, 0.8, 0.1, 0.2, 0.3,
                       b_a=[1, 2, 3], b_g=[4, 5, 6])
    again = NavState15.from_vector(state.as_vector())
    assert np.abs(again.as_vector() - state.as_vector()).max() == 0.0
