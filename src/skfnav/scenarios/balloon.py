"""Drifting-balloon scenario: planar advection truth plus corrupted fixes.

The state is (longitude, latitude) in degrees, advected through a velocity
field by explicit Euler steps with additive process noise.  Position fixes
arrive every ``delta`` steps, corrupted by the configured offset model
strictly after the switch time; the filter learns one coefficient set
shared by both channels.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from ..biasmodels import BiasSpec, check_channels, check_onset, gated_offsets
from ..exceptions import ConfigError
from ..switching import SwitchingFilter
from .fields import AnalyticField


@dataclass(frozen=True)
class BalloonConfig:
    x0: tuple = (-35.0, 25.0)
    n_steps: int = 500
    dt: float = 0.01  # hours
    q_x: float = 1e-6
    q_p: float = 1e-6
    r: float = 1e-6
    delta: int = 1
    bias: BiasSpec = dc_field(default_factory=lambda: BiasSpec("quadratic"))
    true_switch_step: Optional[int] = None
    seed: int = 0
    capacity: int = 10

    def __post_init__(self):
        if self.n_steps <= 0:
            raise ConfigError("n_steps must be positive")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.delta < 1:
            raise ConfigError("sampling period must be at least 1")
        if min(self.q_x, self.q_p, self.r) < 0:
            raise ConfigError("noise variances must be non-negative")
        check_onset(self.true_switch_step, self.n_steps)
        check_channels(self.bias, 2)


@dataclass(frozen=True)
class BalloonTruth:
    """Simulated trajectory, fixes, and the noise draws behind them."""

    times: np.ndarray        # (n+1,)
    states: np.ndarray       # (n+1, 2)
    epochs: np.ndarray       # measurement step indices
    measurements: np.ndarray  # (n_epochs, 2)
    meas_noise: np.ndarray
    bias_offsets: np.ndarray
    proc_noise: np.ndarray   # (n, 2)

    def measurement_map(self) -> dict[int, np.ndarray]:
        return {int(k): self.measurements[i] for i, k in enumerate(self.epochs)}


def simulate_balloon(cfg: BalloonConfig, field=None) -> BalloonTruth:
    """Generate truth states and corrupted fixes for one seeded run."""
    field = field if field is not None else AnalyticField()
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_steps
    times = np.arange(n + 1) * cfg.dt
    proc_noise = np.sqrt(cfg.q_x) * rng.standard_normal((n, 2))
    # Python floats: numpy's IEEE results without its per-call cost
    lon, lat = (float(c) for c in cfg.x0)
    path = [(lon, lat)]
    for t, (n_lon, n_lat) in zip(times[:-1].tolist(), proc_noise.tolist()):
        u, v = field.eval(lon, lat, t)
        lon = lon + cfg.dt * float(u) + n_lon
        lat = lat + cfg.dt * float(v) + n_lat
        path.append((lon, lat))
    states = np.array(path)

    epochs = np.arange(cfg.delta, n + 1, cfg.delta)
    meas_noise = np.sqrt(cfg.r) * rng.standard_normal((epochs.size, 2))
    bias_offsets = gated_offsets(cfg.bias, cfg.true_switch_step, cfg.dt, epochs, 2)
    measurements = states[epochs] + bias_offsets + meas_noise
    return BalloonTruth(
        times=times,
        states=states,
        epochs=epochs,
        measurements=measurements,
        meas_noise=meas_noise,
        bias_offsets=bias_offsets,
        proc_noise=proc_noise,
    )


def build_balloon_filter(
    cfg: BalloonConfig,
    field=None,
) -> SwitchingFilter:
    """Switching filter over the 5-component augmented balloon state."""
    field = field if field is not None else AnalyticField()

    def dynamics(points: np.ndarray, k: int) -> np.ndarray:
        u, v = field.eval(points[:, 0], points[:, 1], (k - 1) * cfg.dt)
        out = points.copy()
        out[:, 0] += cfg.dt * u
        out[:, 1] += cfg.dt * v
        return out

    return SwitchingFilter(
        dynamics=dynamics,
        observed=np.array([0, 1]),
        d_theta=3,
        Q_x=cfg.q_x * np.eye(2),
        q_p=cfg.q_p,
        R=cfg.r * np.eye(2),
        x0=np.asarray(cfg.x0, dtype=float),
        C0=np.eye(2),
        dt=cfg.dt,
        delta=cfg.delta,
        capacity=cfg.capacity,
    )


def write_truth_csv(path, truth: BalloonTruth) -> None:
    """Truth trajectory as CSV rows (step, time, lon, lat), 17 digits."""
    row = "%d,%.17g,%.17g,%.17g\r\n"  # csv.writer's cells and line end
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["step", "time", "lon", "lat"])
        fh.writelines(row % (k, t, *state) for k, (t, state) in
                      enumerate(zip(truth.times.tolist(), truth.states.tolist())))


def write_measurements_csv(path, truth: BalloonTruth) -> None:
    """Position fixes as CSV rows (step, time, y_lon, y_lat)."""
    row = "%d,%.17g,%.17g,%.17g\r\n"  # csv.writer's cells and line end
    times = truth.times.tolist()
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["step", "time", "y_lon", "y_lat"])
        fh.writelines(row % (k, times[k], *y)
                      for k, y in zip(truth.epochs.tolist(), truth.measurements.tolist()))
