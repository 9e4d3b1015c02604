"""Parametric measurement-corruption models and state augmentation helpers.

A corruption is a per-channel polynomial offset in elapsed time since an
onset instant, optionally capped in magnitude.  The learned model used by the
filter is always the full quadratic; the truth generator may use any kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import ConfigError

KINDS = ("static", "linear", "quadratic")
_N_PARAMS = {"static": 1, "linear": 2, "quadratic": 3}


@dataclass(frozen=True)
class BiasSpec:
    """Corruption model: kind, per-channel coefficients, optional magnitude cap.

    ``A``, ``B``, ``C`` are scalars (one set shared by every observed channel)
    or sequences with one entry per channel.  ``static`` uses A only,
    ``linear`` A and B, ``quadratic`` all three.
    """

    kind: str
    A: object = 0.0
    B: object = 0.0
    C: object = 0.0
    cap: Optional[float] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown bias kind {self.kind!r}")
        if self.cap is not None and not self.cap > 0.0:
            raise ConfigError("bias cap must be positive")
        if _N_PARAMS[self.kind] < 2 and np.any(self._arr("B")):
            raise ConfigError(f"{self.kind} bias admits no linear coefficient")
        if _N_PARAMS[self.kind] < 3 and np.any(self._arr("C")):
            raise ConfigError(f"{self.kind} bias admits no quadratic coefficient")

    def _arr(self, name: str) -> np.ndarray:
        return np.atleast_1d(np.asarray(getattr(self, name), dtype=float))

    @property
    def theta(self) -> np.ndarray:
        """Coefficient matrix, shape (channels, n_params(kind))."""
        cols = [self._arr(name) for name in ("A", "B", "C")[: _N_PARAMS[self.kind]]]
        width = max(col.size for col in cols)
        return np.column_stack([np.broadcast_to(col, width) for col in cols])

    @property
    def is_zero(self) -> bool:
        return not np.any(self.theta)

    def to_dict(self) -> dict:
        def scalar_or_list(value):
            arr = np.atleast_1d(np.asarray(value, dtype=float))
            return float(arr[0]) if arr.size == 1 else [float(v) for v in arr]

        out = {"kind": self.kind}
        for name in ("A", "B", "C")[: _N_PARAMS[self.kind]]:
            out[name] = scalar_or_list(getattr(self, name))
        if self.cap is not None:
            out["cap"] = float(self.cap)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "BiasSpec":
        kind = data.get("kind", "quadratic")
        return cls(
            kind=kind,
            A=data.get("A", 0.0),
            B=data.get("B", 0.0),
            C=data.get("C", 0.0),
            cap=data.get("cap"),
        )


@dataclass(frozen=True)
class SwitchSpec:
    """Corruption onset: time and the matching integer step index."""

    t_s: float
    s_index: int

    @classmethod
    def at_step(cls, s_index: int, dt: float) -> "SwitchSpec":
        return cls(t_s=s_index * dt, s_index=s_index)

    def validate(self, n_steps: int, dt: float) -> None:
        # Index 0 means corruption active from the first step on.
        if not 0 <= self.s_index <= n_steps:
            raise ConfigError(
                f"switch index {self.s_index} outside [0, {n_steps}]"
            )
        if abs(self.t_s - self.s_index * dt) > 1e-12:
            raise ConfigError("switch time inconsistent with step index")


def bias_eval(spec: BiasSpec, t_s: float, t_k: float) -> np.ndarray:
    """Per-channel offset at time ``t_k`` for corruption begun at ``t_s``.

    Static -> A; linear -> A + B tau; quadratic -> A + B tau + C tau^2 with
    tau = t_k - t_s.  A cap clamps each channel's magnitude, sign preserved.
    """
    if t_k < t_s:
        raise ValueError("bias_eval requires t_k >= t_s; gate on the switch time")
    tau = t_k - t_s
    theta = spec.theta
    basis = np.array([1.0, tau, tau * tau][: theta.shape[1]])
    offset = theta @ basis
    if spec.cap is not None:
        offset = np.clip(offset, -spec.cap, spec.cap)
    return offset


def augment(
    x: np.ndarray,
    theta_prior_mean: np.ndarray,
    Q_x: np.ndarray,
    q_p: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Append corruption parameters to the state; parameters evolve as a
    random walk with variance ``q_p`` so the augmented process noise is
    block-diagonal ``diag(Q_x, q_p I)``."""
    if q_p < 0.0:
        raise ConfigError("parameter process noise must be non-negative")
    x = np.asarray(x, dtype=float).reshape(-1)
    theta = np.asarray(theta_prior_mean, dtype=float).reshape(-1)
    Q_x = np.asarray(Q_x, dtype=float)
    d_x, d_t = x.size, theta.size
    Q_aug = np.zeros((d_x + d_t, d_x + d_t))
    Q_aug[:d_x, :d_x] = Q_x
    Q_aug[d_x:, d_x:] = q_p * np.eye(d_t)
    return np.concatenate([x, theta]), Q_aug


def offset_matrix(tau, n_channels: int, d_theta: int) -> np.ndarray:
    """Phi(tau), which maps the coefficient block theta carried in the state to
    the per-channel offsets ``Phi(tau) @ theta``: one (A, B, C) triple shared
    by all channels (``d_theta == 3``) or one per channel (``3 * n_channels``).
    An array ``tau`` gives shape ``tau.shape + (n_channels, d_theta)``."""
    tau = np.asarray(tau, dtype=float)
    basis = np.stack([np.ones_like(tau), tau, tau * tau], axis=-1)[..., None, :]
    shared = np.repeat(basis, n_channels, axis=-2)
    if d_theta == 3:
        return shared
    if d_theta == 3 * n_channels:
        return np.tile(shared, n_channels) * np.repeat(np.eye(n_channels), 3, axis=1)
    raise ConfigError(
        f"parameter block width {d_theta} fits neither shared nor per-channel "
        f"layout for {n_channels} channels"
    )
