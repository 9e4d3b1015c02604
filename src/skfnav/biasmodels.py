"""Parametric measurement-corruption models and their onset gate.

A corruption is a per-channel polynomial offset in elapsed time since an
onset instant, optionally capped in magnitude, and reaches the fixes only
strictly after the onset (``gated_offsets``).  The learned model used by the
filter is always the full quadratic (``offset_columns``); the truth generator
may use any kind.
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


def check_onset(switch_step: Optional[int], n_steps: int) -> None:
    """Reject an onset step outside ``[0, n_steps]``; 0 means corrupted from
    the first step on, and None means never corrupted."""
    if switch_step is not None and not 0 <= switch_step <= n_steps:
        raise ConfigError(f"switch index {switch_step} outside [0, {n_steps}]")


def check_channels(spec: BiasSpec, n_channels: int) -> None:
    """Reject coefficient lists that fit neither one shared entry nor one
    entry per channel of the scenario's ``n_channels`` observed channels
    (only the coefficients that ``spec.kind`` uses are read)."""
    for name in ("A", "B", "C")[: _N_PARAMS[spec.kind]]:
        size = spec._arr(name).size
        if size not in (1, n_channels):
            raise ConfigError(
                f"bias {name} has {size} entries; need 1 or one per channel ({n_channels})"
            )


def gated_offsets(spec: BiasSpec, switch_step: Optional[int], dt: float,
                  epochs: np.ndarray, n_channels: int) -> np.ndarray:
    """Offsets added to the fixes at steps ``epochs``, shape
    ``(len(epochs), n_channels)``, with times ``step * dt``: zero through the
    onset time ``t_s = switch_step * dt`` and, strictly after it, the
    per-channel polynomial in ``tau = t_k - t_s`` (static A; linear A + B
    tau; quadratic A + B tau + C tau^2), each channel's magnitude clamped to
    the cap with its sign kept.  An onset of None never corrupts."""
    offsets = np.zeros((len(epochs), n_channels))
    if switch_step is None:
        return offsets
    t_s = switch_step * dt
    theta = spec.theta
    for i, t_k in enumerate(np.asarray(epochs) * dt):
        if t_k > t_s:
            tau = t_k - t_s
            offset = theta @ np.array([1.0, tau, tau * tau][: theta.shape[1]])
            if spec.cap is not None:
                offset = np.clip(offset, -spec.cap, spec.cap)
            offsets[i] = offset
    return offsets


def offset_columns(n_channels: int, d_theta: int) -> list[int]:
    """Layout of Phi(tau), which maps the coefficient block theta carried in
    the state to the per-channel offsets ``Phi(tau) @ theta``.  Channel c
    reads the triple ``theta[j : j + 3]`` as (A, B, C), with ``j`` the c-th
    entry of the returned list: one triple shared by all channels
    (``d_theta == 3``) or one per channel (``3 * n_channels``)."""
    if d_theta == 3:
        return [0] * n_channels
    if d_theta == 3 * n_channels:
        return list(range(0, d_theta, 3))
    raise ConfigError(
        f"parameter block width {d_theta} fits neither shared nor per-channel "
        f"layout for {n_channels} channels"
    )


def write_offset_basis(phi: np.ndarray, columns: list[int], tau) -> None:
    """Write the basis (1, tau, tau^2) of Phi(tau) into ``phi``, shape
    ``np.shape(tau) + (n_channels, d_theta)``, at the layout ``columns`` of
    ``offset_columns``; every other entry of Phi is zero and is left as it
    is in ``phi``."""
    for c, j in enumerate(columns):
        phi[..., c, j] = 1.0
        phi[..., c, j + 1] = tau
        phi[..., c, j + 2] = tau * tau
