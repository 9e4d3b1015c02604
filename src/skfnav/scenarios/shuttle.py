"""Reentry scenario: IMU-driven navigation with corrupted position fixes.

A smooth reference trajectory is produced by integrating the navigation
equations at a fine substep under a gentle deceleration profile (gravity
compensated so the vehicle neither tumbles nor falls out of the envelope).
The specific-force/angular-rate stream sampled at the coarse filter rate is
held constant over each step (zero-order hold) and re-integrated noiselessly
to give the inertial-model trajectory: position fixes derive from it and all
reported errors are measured against it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .. import kernels
from ..biasmodels import BiasSpec, SwitchSpec, bias_eval
from ..exceptions import ConfigError
from ..gaussfilt import SigmaPointParams
from ..inertial import ImuSample, NavState15, attitude_matrix, gravity, strapdown_step
from ..switching import SwitchingFilter

STATE_LABELS = ("h", "L", "lam", "v", "gamma", "alpha", "phi", "theta", "psi")

# Mean absolute state magnitudes used to scale nominal noise levels so that
# every channel sees a similar relative perturbation.
SCALING_FACTORS = {
    "h": 1.5e5,
    "L": 9.3e-1,
    "lam": 3.2e-1,
    "v": 1.4e4,
    "gamma": 3e-2,
    "alpha": 8e-1,
    "phi": 6e-1,
    "theta": 2e-1,
    "psi": 6.5e-1,
}

# Deceleration/attitude-motion profile for the reference generator.
_DECEL_FT_S2 = 8.0
_DECEL_TIMESCALE_S = 800.0
_DECEL_AZIMUTH = 0.8
_VERTICAL_AMP = 0.3
_VERTICAL_PERIOD_S = 400.0
_RATE_AMPS = np.array([1.0e-3, 0.8e-3, 1.2e-3])
_RATE_PERIODS = np.array([300.0, 400.0, 500.0])


@dataclass(frozen=True)
class ShuttleConfig:
    n_steps: int = 600
    dt: float = 1.4  # seconds
    delta: int = 1
    q_x: float = 1e-8
    q_p: float = 1e-12
    r: float = 1e-8
    bias: BiasSpec = dc_field(default_factory=lambda: BiasSpec("quadratic", cap=1000.0))
    true_switch_step: Optional[int] = 357
    seed: int = 0
    oversample: int = 7
    init_state: tuple = (1.5e5, 0.93, 0.32, 1.4e4, -0.006, 0.8, 0.6, 0.2, 0.65)
    imu_noise_accel: float = 1e-4  # ft/s^2, white
    imu_noise_gyro: float = 1e-7  # rad/s, white
    imu_walk_accel: float = 1e-5  # ft/s^2 per sqrt(step), bias random walk
    imu_walk_gyro: float = 1e-8  # rad/s per sqrt(step)
    init_pos_var: float = 1e-3
    init_accel_bias_var: float = 1e-6
    init_gyro_bias_var: float = 1e-12
    capacity: int = 10
    reference_path: Optional[str] = None

    def __post_init__(self):
        if self.n_steps <= 0 or self.dt <= 0 or self.oversample < 1:
            raise ConfigError("n_steps, dt, and oversample must be positive")
        if self.delta < 1:
            raise ConfigError("sampling period must be at least 1")
        if min(self.q_x, self.q_p, self.r) < 0:
            raise ConfigError("noise variances must be non-negative")
        if self.true_switch_step is not None:
            self.switch().validate(self.n_steps, self.dt)

    def switch(self) -> Optional[SwitchSpec]:
        if self.true_switch_step is None:
            return None
        return SwitchSpec.at_step(self.true_switch_step, self.dt)


@dataclass(frozen=True)
class ReferenceTrajectory:
    """Fine reference states plus the coarse-rate IMU stream they imply."""

    times: np.ndarray         # coarse epochs, (n+1,)
    states: np.ndarray        # coarse reference states, (n+1, 15)
    imu_true: np.ndarray      # (n, 6): specific force then angular rate
    fine_times: np.ndarray
    fine_states: np.ndarray


@dataclass(frozen=True)
class ShuttleTruth:
    reference: ReferenceTrajectory
    inertial_states: np.ndarray  # noiseless coarse re-integration, (n+1, 15)
    imu_meas: np.ndarray         # (n, 6) biased + noisy stream fed to the filter
    accel_bias: np.ndarray       # (n, 3) true bias walks
    gyro_bias: np.ndarray
    epochs: np.ndarray
    gps: np.ndarray              # (n_epochs, 3)
    gps_noise: np.ndarray
    bias_offsets: np.ndarray

    def measurement_map(self) -> dict[int, np.ndarray]:
        return {int(k): self.gps[i] for i, k in enumerate(self.epochs)}


def _command_accel(t: float) -> np.ndarray:
    """Commanded net inertial acceleration (N, E, D) at time ``t``."""
    decel = -_DECEL_FT_S2 * np.exp(-t / _DECEL_TIMESCALE_S)
    return np.array([
        decel * np.cos(_DECEL_AZIMUTH),
        decel * np.sin(_DECEL_AZIMUTH),
        _VERTICAL_AMP * np.sin(2.0 * np.pi * t / _VERTICAL_PERIOD_S),
    ])


def _command_rates(t: float) -> np.ndarray:
    return _RATE_AMPS * np.sin(2.0 * np.pi * t / _RATE_PERIODS)


def generate_reference(cfg: ShuttleConfig) -> ReferenceTrajectory:
    """Integrate the navigation equations under the smooth command profile.

    The recorded IMU stream is exactly the input consumed by each step, so
    noiseless re-integration reproduces the trajectory.
    """
    n_fine = cfg.n_steps * cfg.oversample
    dt_f = cfg.dt / cfg.oversample
    try:
        state = NavState15(*cfg.init_state)
    except ValueError as exc:
        raise ConfigError(f"invalid init_state: {exc}") from exc
    fine_states = np.empty((n_fine + 1, 15))
    fine_imu = np.empty((n_fine, 6))
    fine_states[0] = state.as_vector()
    for j in range(n_fine):
        t = j * dt_f
        C = attitude_matrix(state.phi, state.theta, state.psi)
        f_b = C.T @ (_command_accel(t) - gravity(state.h))
        omega_b = _command_rates(t)
        fine_imu[j, :3] = f_b
        fine_imu[j, 3:] = omega_b
        state = strapdown_step(state, ImuSample(f_b, omega_b), dt_f)
        fine_states[j + 1] = state.as_vector()
    coarse = slice(None, None, cfg.oversample)
    return ReferenceTrajectory(
        times=np.arange(cfg.n_steps + 1) * cfg.dt,
        states=fine_states[coarse].copy(),
        imu_true=fine_imu[coarse].copy(),
        fine_times=np.arange(n_fine + 1) * dt_f,
        fine_states=fine_states,
    )


def integrate_imu(x0: np.ndarray, imu: np.ndarray, dt: float) -> np.ndarray:
    """Propagate a 15-state trajectory from an IMU stream (no noise model)."""
    imu = np.asarray(imu, dtype=float)
    out = np.empty((imu.shape[0] + 1, 15))
    out[0] = np.asarray(x0, dtype=float)
    for k in range(imu.shape[0]):
        out[k + 1] = kernels.strapdown_batch(out[k][None, :], imu[k, :3], imu[k, 3:], dt)[0]
    return out


def scale_noise(q_x: float, r: float, factors: dict | None = None):
    """Per-state process and per-channel measurement noise variances.

    Nominal scalars are multiplied by each state's mean-magnitude factor; the
    observed channels are the three positions.
    """
    factors = SCALING_FACTORS if factors is None else factors
    missing = [name for name in STATE_LABELS if name not in factors]
    if missing:
        raise ConfigError(f"missing noise scaling factors: {missing}")
    q_vec = q_x * np.array([factors[name] for name in STATE_LABELS])
    r_vec = r * np.array([factors[name] for name in STATE_LABELS[:3]])
    return q_vec, r_vec


def simulate_shuttle(cfg: ShuttleConfig) -> ShuttleTruth:
    """Reference + IMU stream + corrupted position fixes for one seeded run."""
    if cfg.reference_path is not None:
        reference = load_reference_csv(cfg.reference_path)
        if reference.imu_true.shape[0] < cfg.n_steps:
            raise ConfigError(
                f"reference file provides {reference.imu_true.shape[0]} steps, "
                f"config needs {cfg.n_steps}"
            )
        file_dt = reference.times[1] - reference.times[0]
        if abs(file_dt - cfg.dt) > 1e-9 * cfg.dt:
            raise ConfigError(
                f"reference file time step {file_dt} does not match config dt {cfg.dt}"
            )
    else:
        reference = generate_reference(cfg)
    n = cfg.n_steps
    inertial_states = integrate_imu(reference.states[0], reference.imu_true[:n], cfg.dt)

    rng = np.random.default_rng(cfg.seed)
    accel_bias = np.vstack(
        [np.zeros(3), np.cumsum(cfg.imu_walk_accel * rng.standard_normal((n - 1, 3)), axis=0)]
    )
    gyro_bias = np.vstack(
        [np.zeros(3), np.cumsum(cfg.imu_walk_gyro * rng.standard_normal((n - 1, 3)), axis=0)]
    )
    imu_meas = reference.imu_true[:n].copy()
    imu_meas[:, :3] += accel_bias + cfg.imu_noise_accel * rng.standard_normal((n, 3))
    imu_meas[:, 3:] += gyro_bias + cfg.imu_noise_gyro * rng.standard_normal((n, 3))

    _, r_vec = scale_noise(cfg.q_x, cfg.r)
    epochs = np.arange(cfg.delta, n + 1, cfg.delta)
    gps_noise = np.sqrt(r_vec) * rng.standard_normal((epochs.size, 3))
    switch = cfg.switch()
    gps = np.empty((epochs.size, 3))
    bias_offsets = np.zeros((epochs.size, 3))
    # gate on the config clock so file-backed references with a shifted time
    # origin agree with the filter's epoch indexing
    times = np.arange(n + 1) * cfg.dt
    for i, k in enumerate(epochs):
        clean = inertial_states[k, :3].copy()
        if switch is not None and times[k] > switch.t_s:
            offset = np.broadcast_to(bias_eval(cfg.bias, switch.t_s, times[k]), (3,))
            bias_offsets[i] = offset
            clean = clean + offset
        gps[i] = clean + gps_noise[i]
    return ShuttleTruth(
        reference=reference,
        inertial_states=inertial_states,
        imu_meas=imu_meas,
        accel_bias=accel_bias,
        gyro_bias=gyro_bias,
        epochs=epochs,
        gps=gps,
        gps_noise=gps_noise,
        bias_offsets=bias_offsets,
    )


def build_shuttle_filter(
    cfg: ShuttleConfig,
    truth: ShuttleTruth,
    sigma_params: SigmaPointParams = SigmaPointParams(),
    keep_history: bool = True,
) -> SwitchingFilter:
    """Switching filter over the 24-component augmented reentry state."""
    q_vec, r_vec = scale_noise(cfg.q_x, cfg.r)
    diag = np.concatenate([
        q_vec,
        np.full(3, cfg.imu_walk_accel**2),
        np.full(3, cfg.imu_walk_gyro**2),
        np.full(9, cfg.q_p),
    ])
    Q_aug = np.diag(diag)
    imu = truth.imu_meas
    dt = cfg.dt

    def dynamics(points: np.ndarray, k: int) -> np.ndarray:
        nav = kernels.strapdown_batch(points[:, :15], imu[k - 1, :3], imu[k - 1, 3:], dt)
        return np.hstack([nav, points[:, 15:]])

    C0 = np.diag(np.concatenate([
        np.full(9, cfg.init_pos_var),
        np.full(3, cfg.init_accel_bias_var),
        np.full(3, cfg.init_gyro_bias_var),
    ]))
    return SwitchingFilter(
        dynamics=dynamics,
        observed=np.array([0, 1, 2]),
        d_x=15,
        d_theta=9,
        Q_aug=Q_aug,
        R=np.diag(r_vec),
        x0=truth.reference.states[0],
        C0=C0,
        dt=dt,
        delta=cfg.delta,
        capacity=cfg.capacity,
        sigma_params=sigma_params,
        keep_history=keep_history,
    )


def write_truth_csv(path, truth: ShuttleTruth) -> None:
    """Inertial-model trajectory (the error reference) as CSV, 17 digits."""
    header = ["step", "time", *STATE_LABELS,
              "ba_x", "ba_y", "ba_z", "bg_x", "bg_y", "bg_z"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k, state in enumerate(truth.inertial_states):
            writer.writerow([k, f"{k * _row_dt(truth):.17g}",
                             *(f"{v:.17g}" for v in state)])


def write_measurements_csv(path, truth: ShuttleTruth) -> None:
    """Position fixes as CSV rows (step, time, y_h, y_L, y_lam)."""
    dt = _row_dt(truth)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "time", "y_h", "y_L", "y_lam"])
        for k, y in zip(truth.epochs, truth.gps):
            writer.writerow([int(k), f"{k * dt:.17g}", *(f"{v:.17g}" for v in y)])


def _row_dt(truth: ShuttleTruth) -> float:
    return float(truth.reference.times[1] - truth.reference.times[0])


_REFERENCE_HEADER = [
    "t", "f_b_x", "f_b_y", "f_b_z", "omega_x", "omega_y", "omega_z",
    "h", "L", "lambda", "v", "gamma", "alpha", "phi", "theta", "psi",
]


def save_reference_csv(path, reference: ReferenceTrajectory) -> None:
    """Write the coarse reference (IMU stream plus nav states) to CSV."""
    n = reference.imu_true.shape[0]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_REFERENCE_HEADER)
        for k in range(n + 1):
            imu = reference.imu_true[k] if k < n else np.zeros(6)
            row = [reference.times[k], *imu, *reference.states[k, :9]]
            writer.writerow(f"{value:.17g}" for value in row)


def load_reference_csv(path) -> ReferenceTrajectory:
    """Read a coarse reference written by ``save_reference_csv``.

    The trailing row carries final states; its IMU fields are ignored.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != _REFERENCE_HEADER:
            raise ConfigError(f"malformed reference file {path}: bad header")
        try:
            data = np.asarray([[float(v) for v in row] for row in reader if row])
        except ValueError as exc:
            raise ConfigError(f"malformed reference file {path}: {exc}") from exc
    if data.ndim != 2 or data.shape[0] < 2 or data.shape[1] != len(_REFERENCE_HEADER):
        raise ConfigError(f"malformed reference file {path}: bad shape")
    times = data[:, 0]
    dts = np.diff(times)
    if np.any(dts <= 0) or np.ptp(dts) > 1e-9 * dts[0]:
        raise ConfigError(f"malformed reference file {path}: uneven time base")
    states = np.zeros((data.shape[0], 15))
    states[:, :9] = data[:, 7:16]
    return ReferenceTrajectory(
        times=times,
        states=states,
        imu_true=data[:-1, 1:7],
        fine_times=times,
        fine_states=states,
    )
