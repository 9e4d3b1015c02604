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
from ..constants import EARTH_RADIUS_FT, GRAV_PARAM
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

# Substeps per chunk of the reference and its re-integration, which hold a
# chunk's attitudes, rotation entries and commands at a time.
_CHUNK = 512

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

    def tables(self):
        """The labels and ``(step, values)`` rows of the inertial-model
        trajectory (the error reference) and of the position fixes, for
        ``harness.write_numeric_table``."""
        return (([*STATE_LABELS, "ba_x", "ba_y", "ba_z", "bg_x", "bg_y", "bg_z"],
                 enumerate(self.inertial_states.tolist())),
                ([f"y_{name}" for name in STATE_LABELS[:3]],
                 zip(self.epochs.tolist(), self.gps.tolist())))


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


def _chunk_attitudes(angles, b_g, rates, dt):
    """The attitude passes over one chunk of substeps, from roll, pitch and
    yaw ``angles`` under the gyro ``rates`` (one triple per substep) less the
    bias ``b_g``.

    The first pass runs ``kernels.attitude_half`` on floats, substep by
    substep: the attitude does not depend on the translation, and each
    substep's new sines and cosines are the next one's old.  The second
    computes the rotation entries of every attitude in one call on columns,
    elementwise, so with the bits of the float products.  Returns the
    attitude at the start of each substep and after the last, the sums of
    each substep's old and new entries, the rotation matrices at the start
    of each substep, and the pitch-guard failure that stopped the first
    pass at substep ``m = len(sums)`` (None if it ran through): the caller
    raises it there, after the checks of that substep that come before the
    attitude half.
    """
    trig = kernels.angle_trig(*angles)
    path, trigs, failure = [angles], [trig], None
    try:
        for w in rates:
            angles, trig = kernels.attitude_half(angles, trig, b_g, w, dt)
            path.append(angles)
            trigs.append(trig)
    except GimbalLockError as exc:
        failure = exc
    entries = np.stack(kernels.rotation_entries(*np.array(trigs).T), axis=-1)
    return path, (entries[:-1] + entries[1:]).tolist(), entries.reshape(-1, 3, 3), failure


def generate_reference(cfg: ShuttleConfig) -> ReferenceTrajectory:
    """Integrate the navigation equations under the smooth command profile.

    Each filter step runs ``cfg.oversample`` substeps, and each substep
    consumes the IMU input of its own command time.  The recorded stream
    holds only the first substep's input of each step, so it is a zero-order
    hold of the first-substep input: re-integrating it at the filter rate
    reproduces the trajectory only when ``oversample`` is 1.  Reported errors
    are measured against that coarse re-integration (``integrate_imu``), not
    against these states.  The substeps run in chunks of ``_CHUNK``: the
    attitude passes (``_chunk_attitudes``), then the translation half one
    substep at a time.  The command profile is evaluated once per chunk over
    its substep times, elementwise, so each entry has the bits of a call at
    that one time.
    """
    dt_f = cfg.dt / cfg.oversample
    nav = [float(x) for x in cfg.init_state]
    zeros = [0.0, 0.0, 0.0]  # the biases, which pass through every step
    states = np.zeros((cfg.n_steps + 1, 15))
    states[0, :9] = nav
    imu_true = np.empty((cfg.n_steps, 6))
    position, angles, cos_L = nav[:6], nav[6:], float(np.cos(nav[1]))
    n_sub = cfg.n_steps * cfg.oversample
    for start in range(0, n_sub, _CHUNK):
        times = np.arange(start, min(start + _CHUNK, n_sub)) * dt_f
        rates = _command_rates(times).tolist()
        path, sums, attitudes, failure = _chunk_attitudes(angles, zeros, rates, dt_f)
        # Python floats throughout; only the body-frame rotation stays a numpy
        # product, whose summation order a Python dot product does not reproduce
        for i, (a_n, a_e, a_d) in enumerate(_command_accel(times).tolist()):
            try:
                gravity = GRAV_PARAM / (EARTH_RADIUS_FT + position[0]) ** 2
            except OverflowError:  # a float's square raises where numpy's is inf
                gravity = 0.0
            # the zero N and E gravity terms are left out: x - 0.0 is x
            f_b = attitudes[i].T @ np.array([a_n, a_e, a_d - gravity])
            imu = [*f_b.tolist(), *rates[i]]
            if not all(map(math.isfinite, imu)):
                raise DynamicsDivergedError("reference diverged: IMU sample must be finite")
            if i == len(sums):
                raise failure
            k, sub = divmod(start + i, cfg.oversample)
            if sub == 0:
                imu_true[k] = imu
            position, cos_L = kernels.translation_half(position, sums[i], cos_L, zeros,
                                                       imu[:3], dt_f)
            if sub == cfg.oversample - 1:
                states[k + 1, :9] = [*position, *path[i + 1]]
        angles = path[-1]
    return ReferenceTrajectory(
        times=np.arange(cfg.n_steps + 1) * cfg.dt,
        states=states,
        imu_true=imu_true,
    )


def integrate_imu(x0: np.ndarray, imu: np.ndarray, dt: float) -> np.ndarray:
    """Propagate a 15-state trajectory from an IMU stream (no noise model),
    in chunks of ``_CHUNK`` steps as ``generate_reference`` does."""
    x0 = np.asarray(x0, dtype=float)
    imu = np.asarray(imu, dtype=float)
    out = np.empty((imu.shape[0] + 1, 15))
    out[:] = x0  # the bias components pass through every step
    nav, b_a, b_g = x0[:9].tolist(), x0[9:12].tolist(), x0[12:].tolist()
    position, angles, cos_L = nav[:6], nav[6:], float(np.cos(nav[1]))
    for start in range(0, imu.shape[0], _CHUNK):
        rows = imu[start : start + _CHUNK].tolist()
        path, sums, _, failure = _chunk_attitudes(angles, b_g, [row[3:] for row in rows], dt)
        for i, row in enumerate(rows):
            if i == len(sums):
                raise failure
            position, cos_L = kernels.translation_half(position, sums[i], cos_L, b_a,
                                                       row[:3], dt)
            out[start + i + 1, :9] = [*position, *path[i + 1]]
        angles = path[-1]
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
