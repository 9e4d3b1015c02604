"""Config-file loading, JSON-schema validation, and dataclass construction."""

from __future__ import annotations

import json
import math
from dataclasses import fields as dc_fields
from pathlib import Path

import jsonschema

from .biasmodels import BiasSpec
from .exceptions import ConfigError
from .scenarios.balloon import BalloonConfig
from .scenarios.shuttle import ShuttleConfig

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
            "items": {"type": "number"},
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
            "items": {"type": "number"},
            "minItems": 9,
            "maxItems": 9,
        },
        "imu_noise_accel": {"type": "number", "minimum": 0},
        "imu_noise_gyro": {"type": "number", "minimum": 0},
        "imu_walk_accel": {"type": "number", "minimum": 0},
        "imu_walk_gyro": {"type": "number", "minimum": 0},
        "init_pos_var": {"type": "number", "exclusiveMinimum": 0},
        "reference_path": {"type": ["string", "null"]},
        **_COMMON,
    },
    "additionalProperties": False,
}

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
                for name in ("q_p", "r", "A", "B", "C")
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


def parse_single(data: dict):
    """Build (scenario name, config dataclass, extras) from a validated dict;
    a balloon's extras are its ``field`` entry (None for the default field),
    which ``field_from_dict`` loads."""
    scenario = data["scenario"]
    kwargs = {k: v for k, v in data.items() if k not in ("scenario", "field", "bias", "x0", "init_state", "expect_outcome")}
    if "bias" in data:
        kwargs["bias"] = BiasSpec.from_dict(data["bias"])
    if scenario == "balloon":
        if "x0" in data:
            kwargs["x0"] = tuple(data["x0"])
        cfg = BalloonConfig(**kwargs)
        return scenario, cfg, data.get("field")
    if "init_state" in data:
        kwargs["init_state"] = tuple(data["init_state"])
    cfg = ShuttleConfig(**kwargs)
    return scenario, cfg, None


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
