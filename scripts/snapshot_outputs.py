#!/usr/bin/env python3
"""Write every deterministic output of the shipped configs into one directory.

    python3 scripts/snapshot_outputs.py OUT

For each of the 45 table configs (``configs/table*.json``) this runs the case
at its configured seed and writes the single-run outputs (records.csv,
summary.json, branch_trajectory.csv, truth.csv, measurements.csv) to
``OUT/<config name>/``.  ``table3_test3`` and ``table5_test22`` run again
with ``"r": 0.0`` into ``OUT/r0_<config name>/``: an exact update without
measurement noise leaves semi-definite covariances, so these runs factor
stacks one matrix at a time, partly by ``eigh``, which no run at its
configured ``r`` reaches.  The table configs share one shuttle reference
key, so five more shuttle runs of ``table5_test22`` cover reference
generation: ``oversample`` 1 and 3, an initial altitude 250 ft higher, an
initial yaw 0.02 rad short of pi, whose reference wraps the yaw past pi (no
shipped config's reference leaves (-pi, pi]), and a run whose reference is
read from ``OUT/reference.csv``, a file written by
``save_reference_csv`` (``OUT/reference_*/``).  ``table3_test3`` runs on a
gridded field read from ``OUT/field.csv``, a regular grid sampled from the
default ``AnalyticField`` that covers the run (``OUT/gridded_field/``), and
``table3_test3`` and ``table5_test22`` run with a bias that gives each
channel its own coefficients (``OUT/per_channel_*/``): no shipped config
reaches either path.  It then runs ``configs/shuttle_sa.json`` on two
worker processes into ``OUT/sweeps/`` and in one process into
``OUT/sweeps_one_process/``; its bias cells at its first noise levels and
seed 0, a single prefix family, on two worker processes into
``OUT/sweeps_one_family/``; and ``skfnav report`` on the two-worker sweep
directory into ``OUT/report/``, which rebuilds the records from
``records.csv`` before aggregating them.  The three sweeps cover every way
a sweep schedules its runs.
The package is imported from the ``src/`` next to this script, so two
checkouts can be compared with

    diff -r OUT_A OUT_B
"""

import contextlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from skfnav import harness  # noqa: E402
from skfnav.cli import main as skfnav_main  # noqa: E402
from skfnav.configio import load_config  # noqa: E402
from skfnav.scenarios.fields import AnalyticField  # noqa: E402
from skfnav.scenarios.shuttle import (  # noqa: E402
    ShuttleConfig,
    generate_reference,
    save_reference_csv,
)


def run(data: dict, out: Path) -> None:
    record, filt, truth = harness.execute_case(data)
    harness.write_run_outputs(record, filt, out, truth=truth)
    print(f"{out.name}: {record.outcome}", flush=True)


def write_field_csv(path: Path) -> None:
    """Rows (lon, lat, t, u, v) of the default analytic field on a regular
    grid around the balloon's start, over the first 6 hours."""
    lon, lat, t = np.meshgrid(np.arange(-40.0, -29.5, 0.5), np.arange(20.0, 30.5, 0.5),
                              np.arange(0.0, 6.5, 0.5), indexing="ij")
    u, v = AnalyticField().eval(lon, lat, t)
    rows = np.column_stack([a.ravel() for a in (lon, lat, t, u, v)])
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header="lon,lat,t,u,v", comments="")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = Path(argv[0])
    for path in sorted((ROOT / "configs").glob("table*.json")):
        run(load_config(path), out / path.stem)
    for name in ("table3_test3", "table5_test22"):
        run({**load_config(ROOT / "configs" / f"{name}.json"), "r": 0.0}, out / f"r0_{name}")

    base = load_config(ROOT / "configs" / "table5_test22.json")
    h, *rest = ShuttleConfig().init_state
    variants = {
        "reference_oversample1": {"oversample": 1},
        "reference_oversample3": {"oversample": 3},
        "reference_h_plus_250": {"init_state": [h + 250.0, *rest]},
        "reference_yaw_wrap": {"init_state": [h, *rest[:-1], np.pi - 0.02]},
    }
    for name, change in variants.items():
        run({**base, **change}, out / name)
    save_reference_csv(out / "reference.csv", generate_reference(ShuttleConfig()))
    # a relative path keeps the output directory out of the config snapshot
    with contextlib.chdir(out):
        run({**base, "reference_path": "reference.csv"}, Path("reference_file"))

    balloon = load_config(ROOT / "configs" / "table3_test3.json")
    write_field_csv(out / "field.csv")
    with contextlib.chdir(out):
        run({**balloon, "field": {"kind": "gridded", "path": "field.csv"}},
            Path("gridded_field"))
    run({**balloon, "bias": {"kind": "quadratic", "A": [0.2, -0.1], "B": [0.05, 0.1],
                             "C": 0.01, "cap": 0.3}}, out / "per_channel_balloon")
    run({**base, "bias": {"kind": "linear", "A": [100.0, -50.0, 20.0],
                          "B": [100.0, 0.0, -40.0], "cap": 1000.0}}, out / "per_channel_shuttle")

    sweep = load_config(ROOT / "configs" / "shuttle_sa.json")
    grid = harness.sweep_from_dict(sweep)
    _, target = harness.run_sweep_to_dir(grid, out / "sweeps", threads=2)
    print(f"sweep: {target}")
    harness.run_sweep_to_dir(grid, out / "sweeps_one_process", threads=1)
    axes = sweep["axes"]
    family = harness.sweep_from_dict({
        **sweep, "seeds": [0], "axes": {k: axes[k] for k in ("A", "B", "C")},
        "base": {**sweep["base"], "q_p": axes["q_p"][0], "r": axes["r"][0]},
    })
    harness.run_sweep_to_dir(family, out / "sweeps_one_family", threads=2)
    return skfnav_main(["--quiet", "report", "--records", str(target),
                        "--out", str(out / "report")])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
