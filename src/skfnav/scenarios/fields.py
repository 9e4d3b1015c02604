"""Planar velocity fields: a smooth analytic default and gridded CSV data.

Gridded fields interpolate bilinearly in (lon, lat) and linearly in time;
queries outside the grid hull are rejected.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigError, FieldDomainError


@dataclass(frozen=True)
class AnalyticField:
    """Smooth drifting field, degrees/hour over (lon, lat) degrees.

    u = u0 + amp_u sin(2 pi lat / wavelength + omega t)
    v = v0 + amp_v cos(2 pi lon / wavelength + omega t)
    """

    u0: float = 0.14210
    v0: float = 0.15975
    amp_u: float = 0.03
    amp_v: float = 0.05
    wavelength: float = 5.0
    omega: float = 0.4

    def eval(self, lon, lat, t):
        lon = np.asarray(lon, dtype=float)
        lat = np.asarray(lat, dtype=float)
        wavenumber = 2.0 * np.pi / self.wavelength
        u = self.u0 + self.amp_u * np.sin(wavenumber * lat + self.omega * t)
        v = self.v0 + self.amp_v * np.cos(wavenumber * lon + self.omega * t)
        return u, v


@dataclass(frozen=True)
class GriddedField:
    """Velocity samples on a regular (lon, lat, time) grid."""

    lons: np.ndarray
    lats: np.ndarray
    times: np.ndarray
    u: np.ndarray  # (n_lon, n_lat, n_t)
    v: np.ndarray

    def __post_init__(self):
        for name in ("lons", "lats", "times"):
            axis = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, axis)
            if axis.ndim != 1 or axis.size < 2 or np.any(np.diff(axis) <= 0):
                raise ConfigError(f"grid axis {name} must be strictly increasing")
        shape = (self.lons.size, self.lats.size, self.times.size)
        for name in ("u", "v"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if arr.shape != shape:
                raise ConfigError(f"grid values {name} must have shape {shape}")

    def _locate(self, axis: np.ndarray, value: np.ndarray, name: str):
        value = np.asarray(value, dtype=float)
        if np.any(value < axis[0]) or np.any(value > axis[-1]):
            raise FieldDomainError(f"{name} query outside grid hull")
        idx = np.clip(np.searchsorted(axis, value, side="right") - 1, 0, axis.size - 2)
        frac = (value - axis[idx]) / (axis[idx + 1] - axis[idx])
        return idx, frac

    def eval(self, lon, lat, t):
        i, fx = self._locate(self.lons, lon, "longitude")
        j, fy = self._locate(self.lats, lat, "latitude")
        k, ft = self._locate(self.times, np.asarray(t, dtype=float), "time")

        def interp(values):
            c00 = values[i, j, k] * (1 - ft) + values[i, j, k + 1] * ft
            c01 = values[i, j + 1, k] * (1 - ft) + values[i, j + 1, k + 1] * ft
            c10 = values[i + 1, j, k] * (1 - ft) + values[i + 1, j, k + 1] * ft
            c11 = values[i + 1, j + 1, k] * (1 - ft) + values[i + 1, j + 1, k + 1] * ft
            return (c00 * (1 - fy) + c01 * fy) * (1 - fx) + (c10 * (1 - fy) + c11 * fy) * fx

        return interp(self.u), interp(self.v)


def load_field_csv(path) -> GriddedField:
    """Read a gridded field from CSV rows (lon, lat, t, u, v).

    The rows must cover the full Cartesian product of the three axes.
    """
    try:
        with open(path, newline="") as fh:
            data = np.array([
                [float(value) for value in row] for row in csv.reader(fh)
                if row and not row[0].lstrip().startswith("#") and row[0] != "lon"
            ])
    except OSError as exc:
        raise ConfigError(f"unreadable field file {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"malformed field file {path}: {exc}") from exc
    if data.size == 0:
        raise ConfigError(f"no field rows in {path}")
    if data.ndim != 2 or data.shape[1] != 5:
        raise ConfigError(f"malformed field file {path}: rows must be lon, lat, t, u, v")
    lons = np.unique(data[:, 0])
    lats = np.unique(data[:, 1])
    times = np.unique(data[:, 2])
    if lons.size * lats.size * times.size != data.shape[0]:
        raise ConfigError("field CSV does not cover a full regular grid")
    u = np.full((lons.size, lats.size, times.size), np.nan)
    v = np.full_like(u, np.nan)
    i = np.searchsorted(lons, data[:, 0])
    j = np.searchsorted(lats, data[:, 1])
    k = np.searchsorted(times, data[:, 2])
    u[i, j, k] = data[:, 3]
    v[i, j, k] = data[:, 4]
    if np.any(np.isnan(u)) or np.any(np.isnan(v)):
        raise ConfigError("field CSV has duplicate or missing grid nodes")
    return GriddedField(lons=lons, lats=lats, times=times, u=u, v=v)


def field_from_dict(data: dict | None):
    """Build a field from its config-JSON form (default: analytic field)."""
    if data is None:
        return AnalyticField()
    kind = data.get("kind", "analytic")
    if kind == "analytic":
        params = {k: v for k, v in data.items() if k != "kind"}
        return AnalyticField(**params)
    if kind == "gridded":
        return load_field_csv(data["path"])
    raise ConfigError(f"unknown field kind {kind!r}")
