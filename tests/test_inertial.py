"""Navigation physics of the strapdown kernel, one state at a time: attitude,
Euler rates, gravity, velocity views and position updates, each through
``kernels.strapdown_batch`` on a one-row batch (the active backend)."""

import numpy as np
import pytest

from skfnav import kernels
from skfnav.constants import EARTH_RADIUS_FT, GRAV_PARAM
from skfnav.exceptions import GimbalLockError

# indices into a 15-component state
H, L, LAM, V, GAMMA, ALPHA = range(6)
ATTITUDE, B_A, B_G = slice(6, 9), slice(9, 12), slice(12, 15)
ZERO = np.zeros(3)


def level_state(h=1.0e5, L=0.9, lam=0.3, v=0.0, gamma=0.0, alpha=0.0,
                phi=0.0, theta=0.0, psi=0.0, b_a=ZERO, b_g=ZERO):
    return np.array([h, L, lam, v, gamma, alpha, phi, theta, psi, *b_a, *b_g], dtype=float)


def step(state, f_b, omega_b, dt):
    """One kernel step of one state."""
    return kernels.strapdown_batch(state[None, :], f_b, omega_b, dt)[0]


def rotation(phi, theta, psi):
    """The kernel's body-to-inertial rotation matrix."""
    return np.array(kernels.rotation_entries(*kernels.angle_trig(phi, theta, psi))).reshape(3, 3)


def kernel_attitude(state, omega_meas, dt):
    """(roll, pitch, yaw) after one kernel step; the attitude update reads
    only the gyro."""
    return step(state, ZERO, omega_meas, dt)[ATTITUDE]


def euler_rates(state, omega_meas, dt=1e-3):
    """Euler-angle rates the kernel applied over one short forward-Euler step."""
    return (kernel_attitude(state, omega_meas, dt) - state[ATTITUDE]) / dt


def hover_force(h):
    """Level-attitude specific force that cancels the kernel's gravity exactly."""
    r = EARTH_RADIUS_FT + h
    return np.array([0.0, 0.0, -GRAV_PARAM / (r * r)])


def free_fall(h, dt=1.0):
    """One level step from rest at altitude ``h`` with no specific force."""
    return step(level_state(h=h), ZERO, ZERO, dt)


def kernel_gravity(h, dt=1.0):
    """The gravity the kernel applies at altitude ``h``: the speed picked up
    from rest in free fall, per second."""
    return free_fall(h, dt)[V] / dt


class TestAttitude:
    def test_zero_angles_identity(self):
        assert np.abs(rotation(0, 0, 0) - np.eye(3)).max() < 1e-15

    def test_quarter_turn_yaw_entries(self):
        C = rotation(0.0, 0.0, np.pi / 2)
        expect = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.abs(C - expect).max() < 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_orthonormal_any_angles(self, seed):
        rng = np.random.default_rng(seed)
        phi, theta, psi = rng.uniform(-np.pi, np.pi, 3) * [1.0, 0.45, 1.0]
        C = rotation(phi, theta, psi)
        assert np.abs(C @ C.T - np.eye(3)).max() < 1e-12
        assert np.linalg.det(C) == pytest.approx(1.0, abs=1e-12)


class TestEulerRates:
    def test_level_attitude_passes_rates_through(self):
        rates = euler_rates(level_state(), np.array([0.1, -0.2, 0.3]))
        assert rates == pytest.approx([0.1, -0.2, 0.3])

    def test_bias_cancellation(self):
        bias = np.array([0.01, 0.02, -0.03])
        state = level_state(phi=0.4, theta=0.2, psi=1.0, b_g=bias)
        assert euler_rates(state, bias) == pytest.approx([0.0, 0.0, 0.0])

    def test_rolled_attitude_routes_pitch_rate_to_yaw(self):
        state = level_state(phi=np.pi / 2)
        rates = euler_rates(state, np.array([0.0, 0.5, 0.0]))
        assert rates == pytest.approx([0.0, 0.0, 0.5], abs=1e-12)

    def test_pitch_guard(self):
        with pytest.raises(GimbalLockError):
            step(level_state(theta=np.pi / 2), ZERO, ZERO, 1e-3)


class TestAttitudeUpdate:
    def test_zero_rates_unchanged(self):
        state = level_state(phi=0.1, theta=0.2, psi=0.3)
        assert kernel_attitude(state, ZERO, 1.4) == pytest.approx([0.1, 0.2, 0.3])

    def test_constant_yaw_rate(self):
        angles = kernel_attitude(level_state(), np.array([0.0, 0.0, 0.1]), 1.4)
        assert angles == pytest.approx([0.0, 0.0, 0.14])

    def test_wrap_into_half_open_interval(self):
        angles = kernel_attitude(level_state(psi=3.1), np.array([0.0, 0.0, 0.1]), 1.0)
        assert -np.pi < angles[2] <= np.pi
        assert angles[2] == pytest.approx(3.2 - 2 * np.pi)


class TestGravity:
    def test_surface_value(self):
        expect = GRAV_PARAM / EARTH_RADIUS_FT**2
        assert kernel_gravity(0.0) == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(32.2, abs=0.05)

    def test_horizontal_components_zero(self):
        # falling from rest moves straight down: neither position angle changes
        for h in (0.0, 1e5, 5e5):
            out = free_fall(h)
            assert out[L] == 0.9 and out[LAM] == 0.3
            assert out[GAMMA] == -np.pi / 2

    def test_decays_with_altitude(self):
        assert kernel_gravity(2e5) < kernel_gravity(0.0)


class TestVelocityViews:
    """The kernel's speed/flight-path/azimuth to (N, E, D) velocity round trip."""

    def test_round_trip(self):
        v, gamma, alpha = 1.4e4, -0.0123, 0.8
        state = level_state(v=v, gamma=gamma, alpha=alpha)
        out = step(state, hover_force(state[H]), ZERO, 1.0)
        assert (out[V], out[GAMMA], out[ALPHA]) == pytest.approx((v, gamma, alpha))

    def test_zero_speed_convention(self):
        state = level_state()
        out = step(state, hover_force(state[H]), ZERO, 1.0)
        assert (out[V], out[GAMMA], out[ALPHA]) == (0.0, 0.0, 0.0)


class TestStrapdownStep:
    def test_gravity_cancelling_hover_is_fixed_point(self):
        state = level_state()
        # level attitude: body frame == inertial frame
        out = step(state, hover_force(state[H]), ZERO, 1.4)
        assert out[H] == pytest.approx(state[H], abs=1e-12)
        assert out[L] == pytest.approx(state[L], abs=1e-12)
        assert out[LAM] == pytest.approx(state[LAM], abs=1e-12)
        assert out[V] == pytest.approx(0.0, abs=1e-12)
        assert out[ATTITUDE] == pytest.approx((0.0, 0.0, 0.0))

    def test_zero_down_velocity_keeps_altitude(self):
        # northward flight, gravity cancelled: h untouched, position angle moves
        state = level_state(v=1000.0)
        out = step(state, hover_force(state[H]), ZERO, 1.0)
        assert out[H] == pytest.approx(state[H], abs=1e-9)
        assert out[L] > state[L]

    def test_position_advances_by_trapezoidal_geometry(self):
        state = level_state(v=1000.0)
        dt = 1.0
        out = step(state, hover_force(state[H]), ZERO, dt)
        expect_L = state[L] + dt * 1000.0 / (EARTH_RADIUS_FT + state[H])
        assert out[L] == pytest.approx(expect_L, rel=1e-9)

    def test_biases_pass_through(self):
        state = level_state(v=100.0, b_a=[0.1, 0.2, 0.3], b_g=[1e-3, 2e-3, 3e-3])
        out = step(state, ZERO, ZERO, 0.5)
        assert out[B_A].tolist() == [0.1, 0.2, 0.3]
        assert out[B_G].tolist() == [1e-3, 2e-3, 3e-3]

    def test_bias_equal_imu_is_rotation_free(self):
        bias_g = np.array([0.01, -0.02, 0.005])
        state = level_state(phi=0.2, theta=0.1, psi=-0.4, b_g=bias_g)
        f_b = rotation(0.2, 0.1, -0.4).T @ hover_force(state[H])
        out = step(state, f_b, bias_g, 1.0)
        assert out[ATTITUDE] == pytest.approx((0.2, 0.1, -0.4))
        assert out[H] == pytest.approx(state[H], abs=1e-9)
