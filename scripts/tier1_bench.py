#!/usr/bin/env python3
"""Time the tier-1 suite and record it in ``BENCH_tier1.json``.

    python3 scripts/tier1_bench.py --runs 3

Runs the tier-1 command of ROADMAP.md with ``--durations=10`` ``--runs``
times from the repository root and parses each run's output
(``parse_pytest``): the summary line's counts and seconds, and the ten
slowest test phases.  Writes ``BENCH_tier1.json`` at the repository root
with the median suite wall over the runs and every run's wall (the seconds
pytest reports, collection included), the pass and skip counts, the ten
slowest test phases of the run whose wall is the median (the lower middle
one for an even count), and the stamp of the other BENCH files: the commit
(null when the working tree has uncommitted changes, untracked files
included), the digest of the package's sources that ``perfbench/run.py``
stamps its results with (``source_sha256``), the backend, the CPU count and
the Python and numpy versions.
The exit code is 1, and nothing is written, when a run fails or the runs
disagree on their counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys

import numpy as np

from perf_pairs import ROOT, tree_commit

COMMAND = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "--durations=10"]
_SUMMARY = re.compile(r"^=*\s*((?:\d+ \w+, )*\d+ \w+) in ([\d.]+)s\b")
_DURATION = re.compile(r"^([\d.]+)s (setup|call|teardown)\s+(.+)$")


def parse_pytest(output: str) -> dict:
    """The counts (``{"passed": 482, "skipped": 2}``), the wall in seconds
    and the slowest test phases (``{"test", "phase", "s"}``, slowest first)
    of one pytest run's text ``output``."""
    lines = output.splitlines()
    summary = next((match for line in reversed(lines) if (match := _SUMMARY.match(line))),
                   None)
    if summary is None:
        raise ValueError("no pytest summary line in the output")
    counts = {}
    for item in summary.group(1).split(", "):
        number, label = item.split(" ")
        counts[label] = int(number)
    slowest, in_durations = [], False
    for line in lines:
        if "slowest" in line and "durations" in line:
            in_durations = True
        elif in_durations and (match := _DURATION.match(line)):
            seconds, phase, test = match.groups()
            slowest.append({"test": test, "phase": phase, "s": float(seconds)})
    return {"counts": counts, "wall_s": float(summary.group(2)), "slowest": slowest}


def source_sha256() -> str:
    """sha256 over every ``.py`` and ``.pyx`` file of ``src/skfnav``, in
    sorted path order, of its path under ``src/`` and then its bytes: the
    digest of ``perfbench/run.py``'s ``source_stamp``."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted((src / "skfnav").rglob("*")):
        if path.suffix in (".py", ".pyx") and path.is_file():
            digest.update(path.relative_to(src).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def stamp() -> dict:
    """The commit, sources, backend and machine of the measured tree."""
    sys.path.insert(0, str(ROOT / "src"))
    import skfnav

    commit = tree_commit()
    return {
        "commit": commit,
        "tree_has_uncommitted_changes": commit is None,
        "source_sha256": source_sha256(),
        "backend": skfnav.BACKEND,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args(argv)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    runs = []
    for i in range(args.runs):
        proc = subprocess.run(COMMAND, cwd=ROOT, env=env, capture_output=True, text=True)
        if proc.returncode:
            print(f"run {i + 1} failed:", proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
            return 1
        runs.append(parse_pytest(proc.stdout))
        print(f"run {i + 1}: {runs[-1]['counts']} in {runs[-1]['wall_s']:.2f} s", flush=True)
    if any(run["counts"] != runs[0]["counts"] for run in runs):
        print("the runs disagree on their counts")
        return 1
    walls = [run["wall_s"] for run in runs]
    median_run = next(run for run in runs if run["wall_s"] == statistics.median_low(walls))
    doc = {
        "suite": "tier-1",
        "command": ["PYTHONPATH=src", "python", *COMMAND[1:]],
        **stamp(),
        "runs": len(runs),
        "wall_s": {"median": statistics.median(walls), "runs": walls},
        "counts": runs[0]["counts"],
        "slowest": median_run["slowest"],
    }
    path = ROOT / "BENCH_tier1.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"median wall {doc['wall_s']['median']:.2f} s; wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
