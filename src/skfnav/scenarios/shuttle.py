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
import functools
import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .. import kernels
from ..biasmodels import BiasSpec, gated_offsets
from ..constants import EARTH_RADIUS_FT, GRAV_PARAM, PITCH_GUARD
from ..exceptions import ConfigError, DynamicsDivergedError, GimbalLockError
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

# Prior variances of the filter's accelerometer (ft^2/s^4) and gyro
# (rad^2/s^2) bias states.
_INIT_ACCEL_BIAS_VAR = 1e-6
_INIT_GYRO_BIAS_VAR = 1e-12


@dataclass(frozen=True)
class ShuttleConfig:
    """Parameters of one reentry run; ``configio`` checks a config's values."""

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
    capacity: int = 10
    reference_path: Optional[str] = None


@dataclass(frozen=True)
class ReferenceTrajectory:
    """Reference states at the filter rate plus the IMU stream they imply."""

    times: np.ndarray         # coarse epochs, (n+1,)
    states: np.ndarray        # coarse reference states, (n+1, 15)
    imu_true: np.ndarray      # (n, 6): specific force then angular rate


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


def _command_accel(t) -> np.ndarray:
    """Commanded net inertial acceleration (N, E, D) at time ``t``, a float or
    an array of times; shape ``np.shape(t) + (3,)``."""
    decel = -_DECEL_FT_S2 * np.exp(-t / _DECEL_TIMESCALE_S)
    return np.stack([
        decel * np.cos(_DECEL_AZIMUTH),
        decel * np.sin(_DECEL_AZIMUTH),
        _VERTICAL_AMP * np.sin(2.0 * np.pi * t / _VERTICAL_PERIOD_S),
    ], axis=-1)


def _command_rates(t) -> np.ndarray:
    """Commanded body rates at time ``t``, a float or an array of times;
    shape ``np.shape(t) + (3,)``."""
    return _RATE_AMPS * np.sin(2.0 * np.pi * np.asarray(t)[..., None] / _RATE_PERIODS)


def generate_reference(cfg: ShuttleConfig) -> ReferenceTrajectory:
    """Integrate the navigation equations under the smooth command profile.

    Each filter step runs ``cfg.oversample`` substeps, and each substep
    consumes the IMU input of its own command time.  The recorded stream
    holds only the first substep's input of each step, so it is a zero-order
    hold of the first-substep input: re-integrating it at the filter rate
    reproduces the trajectory only when ``oversample`` is 1.  Reported errors
    are measured against that coarse re-integration (``integrate_imu``), not
    against these states.  The command profile is evaluated once over all
    substep times; elementwise, so each entry has the bits of a call at
    that one time.
    """
    dt_f = cfg.dt / cfg.oversample
    nav = [float(x) for x in cfg.init_state]
    if abs(nav[7]) >= PITCH_GUARD:
        raise GimbalLockError("pitch at Euler-rate singularity")
    b_a = b_g = [0.0, 0.0, 0.0]
    states = np.zeros((cfg.n_steps + 1, 15))  # the zero biases pass through every step
    states[0, :9] = nav
    imu_true = np.empty((cfg.n_steps, 6))
    times = np.arange(cfg.n_steps * cfg.oversample) * dt_f
    commands = zip(_command_accel(times).tolist(), _command_rates(times).tolist())
    # Python floats throughout; only the body-frame rotation stays a numpy
    # product, whose summation order a Python dot product does not reproduce
    for k in range(cfg.n_steps):
        for sub in range(cfg.oversample):
            (a_n, a_e, a_d), rates = next(commands)
            attitude = np.array(kernels.attitude_entries(*nav[6:9])).reshape(3, 3)
            try:
                gravity = GRAV_PARAM / (EARTH_RADIUS_FT + nav[0]) ** 2
            except OverflowError:  # a float's square raises where numpy's is inf
                gravity = 0.0
            # the zero N and E gravity terms are left out: x - 0.0 is x
            f_b = attitude.T @ np.array([a_n, a_e, a_d - gravity])
            imu = [*f_b.tolist(), *rates]
            if not all(map(math.isfinite, imu)):
                raise DynamicsDivergedError("reference diverged: IMU sample must be finite")
            if sub == 0:
                imu_true[k] = imu
            nav = kernels.strapdown_columns(nav, b_a, b_g, imu[:3], imu[3:], dt_f)
        states[k + 1, :9] = nav
    return ReferenceTrajectory(
        times=np.arange(cfg.n_steps + 1) * cfg.dt,
        states=states,
        imu_true=imu_true,
    )


def integrate_imu(x0: np.ndarray, imu: np.ndarray, dt: float) -> np.ndarray:
    """Propagate a 15-state trajectory from an IMU stream (no noise model)."""
    x0 = np.asarray(x0, dtype=float)
    imu = np.asarray(imu, dtype=float)
    out = np.empty((imu.shape[0] + 1, 15))
    out[:] = x0  # the bias components pass through every step
    nav, b_a, b_g = x0[:9].tolist(), x0[9:12].tolist(), x0[12:].tolist()
    for k, row in enumerate(imu.tolist(), start=1):
        nav = kernels.strapdown_columns(nav, b_a, b_g, row[:3], row[3:], dt)
        out[k, :9] = nav
    return out


def scale_noise(q_x: float, r: float):
    """Per-state process and per-channel measurement noise variances.

    Nominal scalars are multiplied by each state's mean-magnitude factor
    (``SCALING_FACTORS``); the observed channels are the three positions.
    """
    q_vec = q_x * np.array([SCALING_FACTORS[name] for name in STATE_LABELS])
    r_vec = r * np.array([SCALING_FACTORS[name] for name in STATE_LABELS[:3]])
    return q_vec, r_vec


@functools.lru_cache(maxsize=1, typed=True)
def _noiseless_run(n_steps: int, dt: float, oversample: int, init_state: tuple):
    """Generated reference and its noiseless re-integration, which no seed touches.

    Keyed on exactly the config fields they read and keeping only the most
    recent key: all cells and seeds of a sweep share one key, and runs whose
    keys differ miss every time with memory flat at one entry.  The arrays are
    read-only, so a caller that writes into one cannot corrupt a later run.
    A file-backed reference is never cached, since the file may change.
    The key is typed because an integer ``dt`` gives integer ``times``.
    """
    cfg = ShuttleConfig(n_steps=n_steps, dt=dt, oversample=oversample,
                        init_state=init_state, true_switch_step=None)
    # module-global lookups, so a wrapper installed on this module sees each miss
    reference = generate_reference(cfg)
    inertial_states = integrate_imu(reference.states[0], reference.imu_true, dt)
    for array in (reference.times, reference.states, reference.imu_true, inertial_states):
        array.setflags(write=False)
    return reference, inertial_states


def simulate_shuttle(cfg: ShuttleConfig) -> ShuttleTruth:
    """Reference + IMU stream + corrupted position fixes for one seeded run.
    An inertial-model state that is not finite raises
    ``DynamicsDivergedError``."""
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
        inertial_states = integrate_imu(
            reference.states[0], reference.imu_true[:cfg.n_steps], cfg.dt
        )
    else:
        reference, inertial_states = _noiseless_run(
            cfg.n_steps, cfg.dt, cfg.oversample, tuple(cfg.init_state)
        )
    if not np.isfinite(inertial_states).all():
        raise DynamicsDivergedError("reference diverged: inertial state must be finite")
    n = cfg.n_steps

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
    # gated on the config clock, so file-backed references with a shifted time
    # origin agree with the filter's epoch indexing
    bias_offsets = gated_offsets(cfg.bias, cfg.true_switch_step, cfg.dt, epochs, 3)
    gps = inertial_states[epochs, :3] + bias_offsets + gps_noise
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
) -> SwitchingFilter:
    """Switching filter over the 24-component augmented reentry state."""
    q_vec, r_vec = scale_noise(cfg.q_x, cfg.r)
    Q_x = np.diag(np.concatenate([
        q_vec,
        np.full(3, float(cfg.imu_walk_accel) ** 2),
        np.full(3, float(cfg.imu_walk_gyro) ** 2),
    ]))
    imu = truth.imu_meas
    dt = cfg.dt

    def dynamics(points: np.ndarray, k: int) -> np.ndarray:
        return kernels.strapdown_batch(points, imu[k - 1, :3], imu[k - 1, 3:], dt)

    C0 = np.diag(np.concatenate([
        np.full(9, cfg.init_pos_var),
        np.full(3, _INIT_ACCEL_BIAS_VAR),
        np.full(3, _INIT_GYRO_BIAS_VAR),
    ]))
    return SwitchingFilter(
        dynamics=dynamics,
        observed=np.array([0, 1, 2]),
        d_theta=9,
        Q_x=Q_x,
        q_p=cfg.q_p,
        R=np.diag(r_vec),
        x0=truth.reference.states[0],
        C0=C0,
        dt=dt,
        delta=cfg.delta,
        capacity=cfg.capacity,
    )


def write_truth_csv(path, truth: ShuttleTruth) -> None:
    """Inertial-model trajectory (the error reference) as CSV, 17 digits."""
    header = ["step", "time", *STATE_LABELS,
              "ba_x", "ba_y", "ba_z", "bg_x", "bg_y", "bg_z"]
    dt = _row_dt(truth)
    row = "%d" + ",%.17g" * 16 + "\r\n"  # csv.writer's cells and line end
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(row % (k, k * dt, *state)
                      for k, state in enumerate(truth.inertial_states.tolist()))


def write_measurements_csv(path, truth: ShuttleTruth) -> None:
    """Position fixes as CSV rows (step, time, y_h, y_L, y_lam)."""
    dt = _row_dt(truth)
    row = "%d" + ",%.17g" * 4 + "\r\n"  # csv.writer's cells and line end
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["step", "time", "y_h", "y_L", "y_lam"])
        fh.writelines(row % (k, k * dt, *y)
                      for k, y in zip(truth.epochs.tolist(), truth.gps.tolist()))


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
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != _REFERENCE_HEADER:
                raise ConfigError(f"malformed reference file {path}: bad header")
            data = np.array([[float(v) for v in row] for row in reader if row])
    except OSError as exc:
        raise ConfigError(f"unreadable reference file {path}: {exc}") from exc
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
    )
