#!/usr/bin/env python3
"""Time per filter step and per stage: a parent revision against the working tree.

    python3 scripts/step_stages.py PARENT_REV --rounds 20

Exports ``PARENT_REV`` with ``git archive``, imports its package and the
working tree's side by side in one process, and runs the filter loop of
``table3_test3`` (balloon, 500 steps) and of ``table5_test1`` (shuttle, 600
steps) on each, in pairs whose first side alternates (``--rounds`` balloon
pairs, half as many shuttle pairs).  It prints, parent -> working tree, the
median microseconds per step of each stage's own time, that of the stages
it calls excluded: ``predict`` (the sigma points, the scenario dynamics and
the moments), ``update`` (the scored update), ``basis`` (the epoch's
observation maps: ``SwitchingFilter._observation_maps`` where it exists,
and ``write_offset_basis``), ``dispatch`` (``_run_live`` and the row
closures through which it calls ``predict`` and ``update``), ``history`` (``Bank.record``), ``drop/prune/spawn``,
``diagnostics`` (building the ``StepDiagnostics``) and ``glue`` (the rest
of ``SwitchingFilter.step``), with the pairs in which the whole step was
faster.  A stage whose function a revision lacks reads 0 there, and code
that a revision's step runs inline counts in its ``glue`` (a step that
computes its taus before calling ``write_offset_basis`` has that part of
``basis`` there).  Only the filter loop is timed: no truth, reference or
output.  The
``reference`` case then times the shuttle's noiseless run on its own:
``generate_reference`` and ``integrate_imu`` on ``table5_test1``'s config
(600 steps, oversample 7), ``--rounds`` alternating pairs, in median
milliseconds per call.
"""

from __future__ import annotations

import argparse
import importlib
import statistics
import sys
import tempfile
import time
from pathlib import Path

from perf_pairs import ROOT, export

MODULES = ("switching", "configio", "harness", "scenarios.balloon", "scenarios.shuttle")


def load(src: Path) -> dict:
    """The modules of the package under ``src``, imported afresh."""
    for name in [m for m in sys.modules if m == "skfnav" or m.startswith("skfnav.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        return {name: importlib.import_module("skfnav." + name) for name in MODULES}
    finally:
        sys.path.remove(str(src))


class Side:
    """One package's filter loops, with its stage functions timed."""

    STAGES = ("predict", "update", "basis", "dispatch", "history", "drop/prune/spawn",
              "diagnostics")

    def __init__(self, mods: dict):
        self.spent = dict.fromkeys(self.STAGES, 0.0)
        self._inner = 0.0  # time spent so far in timed calls under the current one
        sw = mods["switching"]
        for owner, name, stage in (
            (sw, "predict", "predict"), (sw, "linear_update", "update"),
            (sw, "write_offset_basis", "basis"),
            (sw.SwitchingFilter, "_observation_maps", "basis"),
            (sw, "_run_live", "dispatch"), (sw.Bank, "record", "history"),
            (sw.Bank, "drop", "drop/prune/spawn"), (sw.Bank, "spawn", "drop/prune/spawn"),
            (sw, "prune", "drop/prune/spawn"), (sw, "StepDiagnostics", "diagnostics"),
        ):
            if hasattr(owner, name):
                setattr(owner, name, self._timed(getattr(owner, name), stage))
        parse = mods["harness"].parse_single
        load_config = mods["configio"].load_config
        balloon, shuttle = mods["scenarios.balloon"], mods["scenarios.shuttle"]
        _, bcfg, field = parse(load_config(ROOT / "configs" / "table3_test3.json"))
        btruth = balloon.simulate_balloon(bcfg, field)
        _, scfg, _ = parse(load_config(ROOT / "configs" / "table5_test1.json"))
        struth = shuttle.simulate_shuttle(scfg)
        self.shuttle, self.scfg = shuttle, scfg
        self.cases = {
            "balloon": (lambda: balloon.build_balloon_filter(bcfg, field),
                        btruth.measurement_map(), bcfg.n_steps),
            "shuttle": (lambda: shuttle.build_shuttle_filter(scfg, struth),
                        struth.measurement_map(), scfg.n_steps),
        }

    def _timed(self, fn, stage):
        """``fn``, adding its own time to ``stage``: its whole time less that
        of the timed calls that it makes."""
        def timed(*args, **kwargs):
            outer, self._inner = self._inner, 0.0
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                whole = time.perf_counter() - start
                self.spent[stage] += whole - self._inner
                self._inner = outer + whole
        return timed

    def run(self, case: str) -> dict[str, float]:
        """Microseconds per step of each stage in one run of ``case``."""
        build, measurements, n_steps = self.cases[case]
        filt = build()
        self.spent = dict.fromkeys(self.STAGES, 0.0)
        start = time.perf_counter()
        filt.run(measurements, n_steps)
        step = 1e6 * (time.perf_counter() - start) / n_steps
        row = {stage: 1e6 * s / n_steps for stage, s in self.spent.items()}
        row["glue"] = step - sum(row.values())
        row["step"] = step
        return row

    def run_reference(self) -> dict[str, float]:
        """Milliseconds of one reference and one re-integration of it."""
        shuttle, cfg = self.shuttle, self.scfg
        start = time.perf_counter()
        ref = shuttle.generate_reference(cfg)
        middle = time.perf_counter()
        shuttle.integrate_imu(ref.states[0], ref.imu_true, cfg.dt)
        end = time.perf_counter()
        return {"generate_reference": 1e3 * (middle - start),
                "integrate_imu": 1e3 * (end - middle), "step": 1e3 * (end - start)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_rev")
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="step-stages-") as tmp:
        export(args.parent_rev, Path(tmp))
        sides = {"parent": Side(load(Path(tmp) / "src")), "tree": Side(load(ROOT / "src"))}
        for case, rounds in (("balloon", args.rounds), ("shuttle", max(args.rounds // 2, 1))):
            report(case, sides, rounds, lambda side, case=case: side.run(case))
        report("reference", sides, args.rounds, Side.run_reference,
               unit="ms per call", whole="reference plus re-integration")
    return 0


def report(case: str, sides: dict, rounds: int, run, unit: str = "us per step",
           whole: str = "step") -> None:
    """Time ``run(side)``, a dict of stage times with the whole in
    ``"step"``, in ``rounds`` pairs, and print each stage's medians."""
    runs: dict[str, list] = {label: [] for label in sides}
    for side in sides.values():
        run(side)  # warm-up
    for i in range(rounds):
        for label in (("parent", "tree") if i % 2 == 0 else ("tree", "parent")):
            runs[label].append(run(sides[label]))
    won = sum(t["step"] < p["step"] for p, t in zip(runs["parent"], runs["tree"]))
    print(f"{case}: {rounds} pairs, the working tree's {whole} faster in {won}/{rounds}; "
          f"median {unit}, parent -> working tree")
    for stage in runs["parent"][0]:
        old = statistics.median(r[stage] for r in runs["parent"])
        new = statistics.median(r[stage] for r in runs["tree"])
        print(f"  {stage:18s} {old:8.1f} -> {new:8.1f}  ({new - old:+.1f})")


if __name__ == "__main__":
    sys.exit(main())
