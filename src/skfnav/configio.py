"""Config-file loading, validation, and dataclass construction: the one home
of the config rules.  Bounds on one value are in the schemas, which
``validate_config`` checks; rules between fields are in ``parse_single``,
and the sweep's one rule between its own fields in ``validate_config``.
The config dataclasses, ``BiasSpec`` and ``harness.SweepGrid`` check
nothing."""

from __future__ import annotations

import json
import math
import sys
from dataclasses import fields as dc_fields
from pathlib import Path

import jsonschema
import numpy as np

from .biasmodels import BiasSpec
from .constants import EARTH_RADIUS_FT
from .exceptions import ConfigError
from .scenarios.balloon import BalloonConfig
from .scenarios.shuttle import ShuttleConfig

_MAX_WALK = math.sqrt(sys.float_info.max)  # its square, the filter's noise, is finite
_MAX_GAMMA = math.pi / 2 + 1e-12  # flight-path angle, with a rounding margin

_NUMBER_OR_LIST = {
    "anyOf": [
        {"type": "number"},
        {"type": "array", "items": {"type": "number"}, "minItems": 1},
    ]
}

BIAS_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["static", "linear", "quadratic"]},
        "A": _NUMBER_OR_LIST,
        "B": _NUMBER_OR_LIST,
        "C": _NUMBER_OR_LIST,
        "cap": {"type": ["number", "null"], "exclusiveMinimum": 0},
    },
    "additionalProperties": False,
}

FIELD_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["analytic", "gridded"]},
        "path": {"type": "string"},
        "u0": {"type": "number"},
        "v0": {"type": "number"},
        "amp_u": {"type": "number"},
        "amp_v": {"type": "number"},
        "wavelength": {"type": "number", "exclusiveMinimum": 0},
        "omega": {"type": "number"},
    },
    "if": {"properties": {"kind": {"const": "gridded"}}, "required": ["kind"]},
    "then": {"required": ["path"]},
    "else": {"not": {"required": ["path"]}},
    "additionalProperties": False,
}

_COMMON = {
    "n_steps": {"type": "integer", "minimum": 1},
    "dt": {"type": "number", "exclusiveMinimum": 0},
    "delta": {"type": "integer", "minimum": 1},
    "q_x": {"type": "number", "minimum": 0},
    "q_p": {"type": "number", "minimum": 0},
    "r": {"type": "number", "minimum": 0},
    "seed": {"type": "integer", "minimum": 0},
    "capacity": {"type": "integer", "minimum": 2},
    "true_switch_step": {"type": ["integer", "null"], "minimum": 0},
    "bias": BIAS_SCHEMA,
    "expect_outcome": {"enum": ["green", "yellow", "red"]},
}

BALLOON_SCHEMA = {
    "type": "object",
    "required": ["scenario"],
    "properties": {
        "scenario": {"const": "balloon"},
        "x0": {
            "type": "array",
            "prefixItems": [  # lon, lat (deg); a gridded field may use either lon convention
                {"type": "number", "minimum": -360, "maximum": 360},
                {"type": "number", "minimum": -90, "maximum": 90},
            ],
            "minItems": 2,
            "maxItems": 2,
        },
        "field": FIELD_SCHEMA,
        **_COMMON,
    },
    "additionalProperties": False,
}

SHUTTLE_SCHEMA = {
    "type": "object",
    "required": ["scenario"],
    "properties": {
        "scenario": {"const": "shuttle"},
        "oversample": {"type": "integer", "minimum": 1},
        "init_state": {
            "type": "array",
            "prefixItems": [  # h above the Earth's centre, L, lambda, v, gamma
                {"type": "number", "exclusiveMinimum": -EARTH_RADIUS_FT},
                {"type": "number"},
                {"type": "number"},
                {"type": "number", "minimum": 0},
                {"type": "number", "minimum": -_MAX_GAMMA, "maximum": _MAX_GAMMA},
            ],
            "items": {"type": "number"},
            "minItems": 9,
            "maxItems": 9,
        },
        "imu_noise_accel": {"type": "number", "minimum": 0},
        "imu_noise_gyro": {"type": "number", "minimum": 0},
        "imu_walk_accel": {"type": "number", "minimum": 0, "maximum": _MAX_WALK},
        "imu_walk_gyro": {"type": "number", "minimum": 0, "maximum": _MAX_WALK},
        "init_pos_var": {"type": "number", "exclusiveMinimum": 0},
        "reference_path": {"type": ["string", "null"]},
        **_COMMON,
    },
    "additionalProperties": False,
}

# the axes a sweep may vary, in the order its cells and aggregates enumerate them
SWEEP_AXES = ("q_p", "r", "A", "B", "C")

SWEEP_SCHEMA = {
    "type": "object",
    "required": ["scenario", "axes"],
    "properties": {
        "scenario": {"enum": ["balloon", "shuttle"]},
        "name": {"type": "string"},
        "base": {"type": "object"},
        "axes": {
            "type": "object",
            "properties": {
                name: {"type": "array", "items": {"type": "number"}, "minItems": 1}
                for name in SWEEP_AXES
            },
            "additionalProperties": False,
            "minProperties": 1,
        },
        "seeds": {
            "anyOf": [
                {"type": "integer", "minimum": 1},
                {"type": "array", "items": {"type": "integer", "minimum": 0}, "minItems": 1},
            ]
        },
        "q_x_over_r": {"type": ["number", "null"], "exclusiveMinimum": 0},
        "success_includes_yellow": {"type": "boolean"},
    },
    "additionalProperties": False,
}

_VALIDATORS: dict[int, jsonschema.protocols.Validator] = {}


def validate_document(data, schema: dict) -> None:
    """``jsonschema.validate`` with each schema's validator built once, on first use.

    ``jsonschema.validate`` checks the schema against its metaschema on every
    call, which costs far more than validating the document.  Raises the same
    ``jsonschema.ValidationError`` (the best match) that it would.
    """
    validator = _VALIDATORS.get(id(schema))
    if validator is None or validator.schema is not schema:
        cls = jsonschema.validators.validator_for(schema)
        cls.check_schema(schema)
        validator = _VALIDATORS[id(schema)] = cls(schema)
    error = jsonschema.exceptions.best_match(validator.iter_errors(data))
    if error is not None:
        raise error


def _check_finite(value, label: str) -> None:
    """Reject NaN and infinities, which ``json`` loads and the schema's
    ``number`` (even under ``minimum``) accepts."""
    if isinstance(value, dict):
        for key, item in value.items():
            _check_finite(item, f"{label}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _check_finite(item, f"{label}[{i}]")
    elif isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{label} must be finite, got {value}")


def _validate(data: dict, schema: dict, label: str) -> None:
    try:
        validate_document(data, schema)
    except jsonschema.ValidationError as exc:
        path = "".join(f"[{p}]" if isinstance(p, int) else f".{p}"
                       for p in exc.absolute_path)
        where = f"{path[1:]}: " if path else ""
        raise ConfigError(f"{label}: {where}{exc.message}") from exc
    _check_finite(data, label)


def validate_config(data: dict) -> str:
    """Validate a config dict and return its kind: scenario name or 'sweep'."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    if "axes" in data:
        _validate(data, SWEEP_SCHEMA, "sweep config")
        base = dict(data.get("base", {}))
        base["scenario"] = data["scenario"]
        validate_config(base)
        if data.get("q_x_over_r") is not None and "r" not in base and "r" not in data["axes"]:
            raise ConfigError("q_x_over_r needs a measurement-noise value (axis or base)")
        return "sweep"
    scenario = data.get("scenario")
    if scenario == "balloon":
        _validate(data, BALLOON_SCHEMA, "balloon config")
    elif scenario == "shuttle":
        _validate(data, SHUTTLE_SCHEMA, "shuttle config")
    else:
        raise ConfigError(f"unknown scenario {scenario!r}")
    return scenario


def load_config(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    validate_config(data)
    return data


# each scenario's schema, config dataclass and number of observed channels
_SCENARIOS = {"balloon": (BALLOON_SCHEMA, BalloonConfig, 2),
              "shuttle": (SHUTTLE_SCHEMA, ShuttleConfig, 3)}


def _as_floats(value, schema: dict, path: str = ""):
    """``value`` with each number that ``schema`` types ``number`` made a
    float.  JSON allows an integer there, which numpy may refuse (the square
    root of ``10**400``) or overflow on; one that no float holds raises
    ``ConfigError`` naming its ``path``."""
    if "anyOf" in schema:  # a number or a list of numbers
        schema = next(option for option in schema["anyOf"]
                      if (option["type"] == "array") == isinstance(value, list))
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        return {key: _as_floats(item, properties.get(key, {}), f"{path}.{key}" if path else key)
                for key, item in value.items()}
    if isinstance(value, list):
        prefix = schema.get("prefixItems", [])
        return [_as_floats(item, prefix[i] if i < len(prefix) else schema.get("items", {}),
                           f"{path}[{i}]") for i, item in enumerate(value)]
    if type(value) is int and "number" in schema.get("type", ()):
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"{path}: integer too large for a float") from None
    return value


def parse_single(data: dict):
    """Build (scenario name, config dataclass, extras) from a schema-valid
    dict and check the rules between its fields (``_check_cross_fields``);
    every ``number`` of the schema, a balloon's ``field`` entry included,
    becomes a float (``_as_floats``).  A balloon's extras are its ``field``
    entry (None for the default field), which ``field_from_dict`` loads."""
    scenario = data["scenario"]
    schema, config_class, n_channels = _SCENARIOS[scenario]
    try:
        data = _as_floats(data, schema)
    except ConfigError as exc:
        raise ConfigError(f"{scenario} config: {exc}") from None
    kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in data.items()
              if k not in ("scenario", "field", "bias", "expect_outcome")}
    if "bias" in data:
        kwargs["bias"] = BiasSpec.from_dict(data["bias"])
    cfg = config_class(**kwargs)
    _check_cross_fields(cfg, n_channels)
    return scenario, cfg, data.get("field")


def _check_cross_fields(cfg, n_channels: int) -> None:
    """The rules between fields of ``cfg``, whose defaults are filled in: the
    bias kind admits its coefficients, the onset lies in ``[0, n_steps]``,
    and each coefficient that the kind reads fits the channel count."""
    bias = cfg.bias
    for name, order in (("B", "linear"), ("C", "quadratic")):
        if name not in bias.used and np.any(bias.coefficient(name)):
            raise ConfigError(f"{bias.kind} bias admits no {order} coefficient")
    onset, n_steps = cfg.true_switch_step, cfg.n_steps
    if onset is not None and not 0 <= onset <= n_steps:
        raise ConfigError(f"switch index {onset} outside [0, {n_steps}]")
    for name in bias.used:
        size = bias.coefficient(name).size
        if size not in (1, n_channels):
            raise ConfigError(
                f"bias {name} has {size} entries; need 1 or one per channel ({n_channels})"
            )


def config_to_dict(scenario: str, cfg, field=None) -> dict:
    """Canonical JSON form of a config dataclass, with a balloon's ``field``
    entry when the config gives one."""
    out = {"scenario": scenario}
    if field is not None:
        out["field"] = field
    for f in dc_fields(cfg):
        if f.name == "bias":
            continue
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    out["bias"] = cfg.bias.to_dict()
    return out
