"""A schema-valid config becomes a record: no config that the schema accepts
aborts a run or a sweep.

Configs are drawn from ``BALLOON_SCHEMA`` and ``SHUTTLE_SCHEMA`` themselves,
with short runs and floats that include 0, subnormals, +-1e308 and each
schema bound, and every draw is schema-valid.
"""

import math
import warnings

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skfnav import exceptions, harness
from skfnav.configio import BALLOON_SCHEMA, SHUTTLE_SCHEMA
from skfnav.exceptions import ConfigError, SkfnavError

PACKAGE_ERRORS = {
    name for name, value in vars(exceptions).items()
    if isinstance(value, type) and issubclass(value, SkfnavError)
}

# integer ranges that keep every run short; other integers draw from 0..10
SHORT = {"n_steps": (1, 12), "true_switch_step": (0, 12), "oversample": (1, 3),
         "delta": (1, 3), "capacity": (2, 4), "seed": (0, 2**32 - 1)}
# drawn in every config, as the defaults are long runs
ALWAYS = {"n_steps", "true_switch_step"}
EDGE_FLOATS = (0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-8, 1.0,
               1e308, -1e308)


# the keywords that from_schema honours: any other raises, so that a new
# bound cannot silently narrow what it draws to configs that fail validation
KEYWORDS = {"type", "const", "enum", "anyOf", "minimum", "exclusiveMinimum", "maximum",
            "exclusiveMaximum", "prefixItems", "items", "minItems", "maxItems",
            "properties", "required", "additionalProperties", "if", "then", "else"}


def _bounds(schema: dict):
    """(low, exclude low, high, exclude high) of a number's schema."""
    low = schema.get("minimum", schema.get("exclusiveMinimum"))
    high = schema.get("maximum", schema.get("exclusiveMaximum"))
    return low, "exclusiveMinimum" in schema, high, "exclusiveMaximum" in schema


def _numbers(schema: dict):
    low, exclude_low, high, exclude_high = _bounds(schema)
    # the bounds themselves, or the floats just inside them, are edges too
    inner = [b if not exclude else math.nextafter(b, toward)
             for b, exclude, toward in ((low, exclude_low, math.inf),
                                        (high, exclude_high, -math.inf)) if b is not None]
    edges = [x for x in (*EDGE_FLOATS, *inner)
             if (low is None or x > low or (x == low and not exclude_low))
             and (high is None or x < high or (x == high and not exclude_high))]
    return st.one_of(st.sampled_from(edges),
                     st.floats(min_value=low, max_value=high,
                               exclude_min=exclude_low and low is not None,
                               exclude_max=exclude_high and high is not None,
                               allow_nan=False, allow_infinity=False))


def from_schema(schema: dict, name: str = ""):
    """Values of ``schema`` (the subset of JSON Schema that the config schemas
    use); an object draws its required properties and those in ``ALWAYS``,
    and draws each other property or leaves it out.  An object's
    ``additionalProperties: false`` holds as only its properties are drawn,
    and its ``if``/``then``/``else`` by keeping only the draws that the
    schema admits."""
    unknown = set(schema) - KEYWORDS
    if unknown or schema.get("additionalProperties", False) is not False:
        raise ValueError(f"from_schema does not honour {sorted(unknown) or schema}")
    if "const" in schema:
        return st.just(schema["const"])
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    if "anyOf" in schema:
        return st.one_of([from_schema(option, name) for option in schema["anyOf"]])
    types = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
    options = []
    for kind in types:
        if kind == "null":
            options.append(st.none())
        elif kind == "integer":
            low, high = SHORT.get(name, (0, 10))
            if "exclusiveMinimum" in schema or "exclusiveMaximum" in schema:
                raise ValueError(f"from_schema draws no integer with an exclusive bound ({name})")
            options.append(st.integers(max(low, schema.get("minimum", low)),
                                       min(high, schema.get("maximum", high))))
        elif kind == "number":
            options.append(_numbers(schema))
        elif kind == "string":
            options.append(st.text(max_size=4))
        elif kind == "array":
            head = st.tuples(*(from_schema(item, name) for item in schema.get("prefixItems", ())))
            size = len(schema.get("prefixItems", ()))
            tail = (st.lists(from_schema(schema["items"], name),
                             min_size=max(0, schema.get("minItems", 0) - size),
                             max_size=schema.get("maxItems", size + 3) - size)
                    if "items" in schema else st.just([]))
            options.append(st.builds(lambda h, t: [*h, *t], head, tail))
        elif kind == "object":
            properties = schema["properties"]
            drawn = set(schema.get("required", ())) | (ALWAYS & set(properties))
            options.append(st.fixed_dictionaries(
                {key: from_schema(properties[key], key) for key in drawn},
                optional={key: from_schema(value, key) for key, value in properties.items()
                          if key not in drawn}))
    values = st.one_of(options)
    if "if" in schema:
        values = values.filter(jsonschema.Draft202012Validator(schema).is_valid)
    return values


configs = st.one_of(from_schema(BALLOON_SCHEMA), from_schema(SHUTTLE_SCHEMA))


def test_from_schema_refuses_a_keyword_it_does_not_honour():
    with pytest.raises(ValueError, match="multipleOf"):
        from_schema({"type": "number", "minimum": 0, "multipleOf": 2})
    with pytest.raises(ValueError):
        from_schema({"type": "object", "properties": {}, "additionalProperties": True})


def _check_record(record) -> None:
    assert record.status in ("ok", "error")
    if record.status == "error":
        assert record.error.split(":")[0] in PACKAGE_ERRORS, record.error


def _cells(record) -> dict:
    """The record's ``records.csv`` row as text, where NaN equals NaN."""
    return {key: harness.fmt(value) for key, value in harness.record_row(record).items()}


@given(configs)
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_a_schema_valid_config_becomes_a_record(data):
    with warnings.catch_warnings():
        # extreme floats overflow on the way to a typed error or a record
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            record = harness.execute_case(data)[0]
        except ConfigError:
            return
        _check_record(record)
        # two identical cells over the same base form one prefix family: the
        # second resumes from the first's checkpoint and gives the same record
        base = {key: value for key, value in data.items() if key != "scenario"}
        grid = harness.SweepGrid(scenario=data["scenario"], base=base,
                                 axes={"r": [record.config["r"]] * 2},
                                 seeds=(record.seed,))
        records = harness.run_sweep(grid, threads=1)
    assert len(records) == 2
    for swept in records:
        _check_record(swept)
        assert _cells(swept) == _cells(record)
