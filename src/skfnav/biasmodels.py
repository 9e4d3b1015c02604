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

_N_PARAMS = {"static": 1, "linear": 2, "quadratic": 3}


@dataclass(frozen=True)
class BiasSpec:
    """Corruption model: kind, per-channel coefficients, optional magnitude cap.

    ``A``, ``B``, ``C`` are scalars (one set shared by every observed channel)
    or sequences with one entry per channel.  ``static`` uses A only,
    ``linear`` A and B, ``quadratic`` all three.  A plain record: the config
    rules on it are checked in ``configio``.
    """

    kind: str
    A: object = 0.0
    B: object = 0.0
    C: object = 0.0
    cap: Optional[float] = None

    def coefficient(self, name: str) -> np.ndarray:
        """Coefficient ``name`` (A, B or C) as a 1-D array."""
        return np.atleast_1d(np.asarray(getattr(self, name), dtype=float))

    @property
    def used(self) -> tuple:
        """Names of the coefficients that ``kind`` reads."""
        return ("A", "B", "C")[: _N_PARAMS[self.kind]]

    @property
    def theta(self) -> np.ndarray:
        """Coefficient matrix, shape (channels, n_params(kind))."""
        cols = [self.coefficient(name) for name in self.used]
        width = max(col.size for col in cols)
        return np.column_stack([np.broadcast_to(col, width) for col in cols])

    @property
    def is_zero(self) -> bool:
        return not np.any(self.theta)

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        for name in self.used:
            arr = self.coefficient(name)
            out[name] = float(arr[0]) if arr.size == 1 else [float(v) for v in arr]
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
