"""The parser of scripts/tier1_bench.py on canned pytest output."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from tier1_bench import parse_pytest  # noqa: E402

OUTPUT = """\
........................................................................ [ 14%]
.............................................ss......................... [ 29%]
============================= slowest 10 durations =============================
12.10s call     tests/test_acceptance.py::test_criterion_05_balloon_detection_rate
2.80s call     tests/test_config_property.py::test_a_schema_valid_config_becomes_a_record
0.51s setup    tests/test_scenarios.py::TestReference::test_cache[seed 1-oversample 3]

(7 durations < 0.005s hidden.  Use -vv to show these durations.)
482 passed, 2 skipped in 23.66s
"""


def test_counts_wall_and_slowest_phases():
    run = parse_pytest(OUTPUT)
    assert run["counts"] == {"passed": 482, "skipped": 2}
    assert run["wall_s"] == 23.66
    assert run["slowest"] == [
        {"test": "tests/test_acceptance.py::test_criterion_05_balloon_detection_rate",
         "phase": "call", "s": 12.10},
        {"test": "tests/test_config_property.py::test_a_schema_valid_config_becomes_a_record",
         "phase": "call", "s": 2.80},
        {"test": "tests/test_scenarios.py::TestReference::test_cache[seed 1-oversample 3]",
         "phase": "setup", "s": 0.51},
    ]


@pytest.mark.parametrize("line, counts, wall", [
    ("1 failed, 481 passed, 2 skipped, 3 warnings in 83.52s (0:01:23)",
     {"failed": 1, "passed": 481, "skipped": 2, "warnings": 3}, 83.52),
    ("=========== 484 passed in 0.50s ===========", {"passed": 484}, 0.50),
], ids=["long-run-with-failure", "decorated"])
def test_summary_line_forms(line, counts, wall):
    run = parse_pytest(f"....\n{line}\n")
    assert (run["counts"], run["wall_s"], run["slowest"]) == (counts, wall, [])


def test_output_without_a_summary_line_is_an_error():
    with pytest.raises(ValueError, match="no pytest summary line"):
        parse_pytest("ImportError while loading conftest\n")
