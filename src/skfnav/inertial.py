"""Strapdown inertial navigation: state propagation from IMU readings.

State propagation runs in four stages per step: attitude update, specific
force transform into the inertial frame (with trapezoidal attitude
averaging), velocity update with gravity, and trapezoidal position update.
The Earth frame is treated as inertial (no transport rate or Coriolis terms)
with axes North, East, down-positive.  Units: feet, seconds, radians.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .constants import EARTH_RADIUS_FT, GRAV_PARAM, PITCH_GUARD
from .exceptions import GimbalLockError


@dataclass(frozen=True)
class NavState15:
    """15-component navigation state.

    Altitude (ft), two position angles (rad), speed (ft/s), flight-path angle
    (rad), azimuth (rad), roll/pitch/yaw (rad), accelerometer bias (ft/s^2)
    and gyroscope bias (rad/s) three-vectors.
    """

    h: float
    L: float
    lam: float
    v: float
    gamma: float
    alpha: float
    phi: float
    theta: float
    psi: float
    b_a: np.ndarray = field(default_factory=lambda: np.zeros(3))
    b_g: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        if self.v < 0.0:
            raise ValueError("speed must be non-negative")
        if abs(self.gamma) > np.pi / 2 + 1e-12:
            raise ValueError("flight-path angle outside [-pi/2, pi/2]")
        if abs(self.theta) >= PITCH_GUARD:
            raise GimbalLockError("pitch at Euler-rate singularity")
        object.__setattr__(self, "b_a", np.asarray(self.b_a, dtype=float).reshape(3))
        object.__setattr__(self, "b_g", np.asarray(self.b_g, dtype=float).reshape(3))

    def as_vector(self) -> np.ndarray:
        return np.concatenate(
            [[self.h, self.L, self.lam, self.v, self.gamma, self.alpha,
              self.phi, self.theta, self.psi], self.b_a, self.b_g]
        )

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "NavState15":
        vec = np.asarray(vec, dtype=float).reshape(15)
        return cls(*vec[:9], b_a=vec[9:12], b_g=vec[12:15])


@dataclass(frozen=True)
class ImuSample:
    """Specific force (ft/s^2) and angular rate (rad/s), body frame."""

    f_b: np.ndarray
    omega_b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "f_b", np.asarray(self.f_b, dtype=float).reshape(3))
        object.__setattr__(self, "omega_b", np.asarray(self.omega_b, dtype=float).reshape(3))
        if not (np.all(np.isfinite(self.f_b)) and np.all(np.isfinite(self.omega_b))):
            raise ValueError("IMU sample must be finite")


def attitude_matrix(phi: float, theta: float, psi: float) -> np.ndarray:
    """Rotation matrix taking body-frame vectors to the inertial frame."""
    return np.array(kernels.attitude_entries(phi, theta, psi)).reshape(3, 3)


def gravity(h: float) -> np.ndarray:
    """Inertial gravity vector (N, E, D) at altitude ``h`` ft; down-positive."""
    return np.array([0.0, 0.0, GRAV_PARAM / (EARTH_RADIUS_FT + h) ** 2])


def strapdown_step(state: NavState15, imu: ImuSample, dt: float) -> NavState15:
    """Propagate one navigation step; IMU biases pass through unchanged."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    out = kernels.strapdown_batch(
        state.as_vector()[None, :], imu.f_b, imu.omega_b, dt
    )[0]
    return NavState15.from_vector(out)
