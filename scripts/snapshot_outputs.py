#!/usr/bin/env python3
"""Write every deterministic output of the shipped configs into one directory.

    python3 scripts/snapshot_outputs.py OUT

For each of the 45 table configs (``configs/table*.json``) this runs the case
at its configured seed and writes the single-run outputs (records.csv,
summary.json, branch_trajectory.csv, truth.csv, measurements.csv) to
``OUT/<config name>/``.  It then runs ``configs/shuttle_sa.json`` on two
worker processes into ``OUT/sweeps/``.  The package is imported from the
``src/`` next to this script, so two checkouts can be compared with

    diff -r OUT_A OUT_B
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from skfnav import harness  # noqa: E402
from skfnav.configio import load_config  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = Path(argv[0])
    for path in sorted((ROOT / "configs").glob("table*.json")):
        record, filt, truth = harness.execute_case(load_config(path))
        harness.write_run_outputs(record, filt, out / path.stem, truth=truth)
        print(f"{path.stem}: {record.outcome}", flush=True)
    grid = harness.sweep_from_dict(load_config(ROOT / "configs" / "shuttle_sa.json"))
    _, target = harness.run_sweep_to_dir(grid, out / "sweeps", threads=2)
    print(f"sweep: {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
