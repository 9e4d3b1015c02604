"""The config contract, whose one home is ``configio``: per-field bounds in
the schemas, the rules between fields in ``parse_single``, and the shipped
configs, which every rule admits."""

import importlib.util
import math
import re
import sys
from pathlib import Path

import pytest

from skfnav import harness
from skfnav.configio import load_config, parse_single, validate_config
from skfnav.constants import EARTH_RADIUS_FT
from skfnav.exceptions import ConfigError

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
INIT = [1.5e5, 0.93, 0.32, 1.4e4, -0.006, 0.8, 0.6, 0.2, 0.65]
LARGEST_WALK = math.sqrt(sys.float_info.max)
LARGEST_GAMMA = math.pi / 2 + 1e-12


def build(data: dict):
    """Check ``data`` as a run does before it simulates, and build it."""
    validate_config(data)
    return parse_single(data)


def with_init(index: int, value: float) -> dict:
    init = list(INIT)
    init[index] = value
    return {"scenario": "shuttle", "init_state": init}


class TestFieldBounds:
    """Each value with no physical meaning is a schema bound."""

    def test_bad_balloon_values(self):
        for bad in ({"n_steps": 0}, {"delta": 0}, {"dt": 0.0}, {"q_x": -1e-6}):
            with pytest.raises(ConfigError, match="balloon config"):
                build({"scenario": "balloon", **bad})

    def test_bad_shuttle_values(self):
        for bad in ({"dt": 0.0}, {"oversample": 0}, {"r": -1.0}):
            with pytest.raises(ConfigError, match="shuttle config"):
                build({"scenario": "shuttle", **bad})

    def test_cap_must_be_positive(self):
        with pytest.raises(ConfigError, match="bias.cap: 0.0 is less than or equal"):
            build({"scenario": "balloon", "bias": {"kind": "static", "A": 1.0, "cap": 0.0}})

    @pytest.mark.parametrize("name", ["imu_walk_accel", "imu_walk_gyro"])
    def test_walk_whose_square_overflows_is_rejected(self, name):
        # the filter's process noise is the walk's square, a Python float:
        # the bound admits a walk exactly when that square is finite
        for walk in (1e154, LARGEST_WALK):
            assert math.isfinite(float(walk) ** 2)
            build({"scenario": "shuttle", name: walk})
        for walk in (math.nextafter(LARGEST_WALK, math.inf), 1.5e154, 10**400):
            with pytest.raises(OverflowError):
                float(walk) ** 2
            with pytest.raises(ConfigError, match=f"shuttle config: {name}: .* is greater than"):
                build({"scenario": "shuttle", name: walk})

    @pytest.mark.parametrize("x0", [[-360, -90], [360, 90], [-35.0, 25.0]])
    def test_position_on_the_globe_is_accepted(self, x0):
        build({"scenario": "balloon", "x0": x0})

    @pytest.mark.parametrize("x0, where", [
        ([-360.5, 25.0], "x0[0]"), ([360.5, 25.0], "x0[0]"),
        ([0.0, -90.5], "x0[1]"), ([0.0, 1.0245718301761099e167], "x0[1]"),
        ([float("inf"), 25.0], "x0[0]"),
    ])
    def test_position_off_the_globe_is_rejected(self, x0, where):
        with pytest.raises(ConfigError, match=re.escape(f"balloon config: {where}: ")):
            build({"scenario": "balloon", "x0": x0})

    @pytest.mark.parametrize("index, value", [
        (0, math.nextafter(-EARTH_RADIUS_FT, 0.0)), (3, 0.0), (3, -0.0),
        (4, LARGEST_GAMMA), (4, -LARGEST_GAMMA),
    ], ids=["altitude-just-above-centre", "speed-zero", "speed-minus-zero",
            "gamma-largest", "gamma-smallest"])
    def test_initial_state_at_its_bounds_is_accepted(self, index, value):
        build(with_init(index, value))

    @pytest.mark.parametrize("index, value", [
        (0, -EARTH_RADIUS_FT), (3, -1e-300),
        (4, math.nextafter(LARGEST_GAMMA, math.inf)),
        (4, math.nextafter(-LARGEST_GAMMA, -math.inf)),
    ], ids=["altitude-at-centre", "speed-negative", "gamma-above", "gamma-below"])
    def test_initial_state_past_its_bounds_is_rejected(self, index, value):
        with pytest.raises(ConfigError, match=re.escape(f"shuttle config: init_state[{index}]: ")):
            build(with_init(index, value))


class TestCrossFieldRules:
    """The rules that tie one field to another, with the defaults filled in."""

    @pytest.mark.parametrize("bias, message", [
        ({"kind": "static", "A": 1.0, "B": 2.0}, "static bias admits no linear coefficient"),
        ({"kind": "static", "C": 2.0}, "static bias admits no quadratic coefficient"),
        ({"kind": "linear", "A": 1.0, "C": 2.0}, "linear bias admits no quadratic coefficient"),
    ])
    def test_kind_restricts_coefficients(self, bias, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            build({"scenario": "balloon", "bias": bias})

    def test_zero_coefficient_that_the_kind_does_not_read_is_accepted(self):
        _, cfg, _ = build({"scenario": "balloon",
                           "bias": {"kind": "static", "A": 1.0, "B": 0.0, "C": [0.0, 0.0]}})
        assert cfg.bias.to_dict() == {"kind": "static", "A": 1.0}

    @pytest.mark.parametrize("scenario, n_steps", [("balloon", 500), ("shuttle", 600)])
    def test_switch_spec_validation(self, scenario, n_steps):
        # n_steps is each config dataclass's default
        for onset in (0, n_steps, None):
            build({"scenario": scenario, "true_switch_step": onset})
        with pytest.raises(ConfigError, match=re.escape(
                f"switch index {n_steps + 1} outside [0, {n_steps}]")):
            build({"scenario": scenario, "true_switch_step": n_steps + 1})

    def test_default_onset_is_checked_against_the_run_length(self):
        # the shuttle's default onset, step 357, lies past a 20-step run
        with pytest.raises(ConfigError, match=re.escape("switch index 357 outside [0, 20]")):
            build({"scenario": "shuttle", "n_steps": 20})

    def test_a_sweep_base_may_be_completed_by_its_axes(self):
        # the base alone, a static bias with a linear coefficient, breaks a
        # rule; every cell sets a quadratic kind, so the sweep is valid
        sweep = {"scenario": "balloon", "base": {"bias": {"kind": "static", "B": 0.5}},
                 "axes": {"A": [0.0, 0.1]}, "seeds": 1}
        assert validate_config(sweep) == "sweep"
        grid = harness.sweep_from_dict(sweep)
        assert [cell["bias"]["kind"] for cell in grid.cell_configs()] == ["quadratic"] * 2


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.stem)
def test_shipped_config_loads_and_builds(path):
    data = load_config(path)
    if "axes" in data:
        grid = harness.sweep_from_dict(data)  # checks and builds every cell
        assert grid.cell_configs()
    else:
        scenario, cfg, _ = parse_single(data)
        assert scenario == data["scenario"] and cfg.n_steps == data["n_steps"]


def test_make_configs_reproduces_the_shipped_configs(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("make_configs",
                                                  ROOT / "scripts" / "make_configs.py")
    make_configs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_configs)
    monkeypatch.setattr(make_configs, "ROOT", tmp_path)
    make_configs.main()
    made = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert made == {path.name: path.read_bytes() for path in CONFIGS}
