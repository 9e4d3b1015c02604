#!/usr/bin/env python3
"""Alternating benchmark pairs: a parent revision against the working tree.

    python3 scripts/perf_pairs.py PARENT_REV --workload W --seeds 41-50 --seconds 20

Exports ``PARENT_REV`` with ``git archive`` into a temporary directory and,
for each seed, runs ``perfbench/run.py --workload W --seed N --trace 0`` in
that export and in the working tree, the parent first in the first pair and
the side that runs first alternating after that.  Each side runs its own
``perfbench/run.py`` on its own sources.  After each pair it prints every
end-to-end metric of both sides.  For every end-to-end metric it then prints
both sides' q1/median/q3, the pairs in which the working tree did better (in
the metric's ``better`` direction from ``BENCHMARK.json``), the parent's IQR
and whether the median gain exceeds it, and one verdict (see ``verdict``),
and last the pairs in which ``green_frac`` differs between the two sides,
which a change with byte-identical outputs leaves empty.  ``W`` may be
``all``; the metric names then carry the workload as a prefix.  Seeds are a
range ``A-B`` or a comma list, in which a seed may repeat.

The seed list is the seed policy, and it decides what the parent's IQR
measures.  Distinct seeds (``--seeds 3101-3110``) give each pair its own
perfbench draw, so the IQR holds the spread across draws as well as
run-to-run noise, and a gain beyond it holds across draws.  One seed
repeated (``--seeds 1,1,1,1,1,1,1,1,1,1``) runs one draw in every pair, so
the IQR is run-to-run noise alone, and a gain beyond it is shown on that
draw only.  A claimed gain names its policy.

The same comparison, with both commits, each
side's backend and source digest, the CPU count, the Python and numpy
versions and the seeds, is written to ``BENCH_<W>.json`` at the repository
root (see ``bench_document``); the tree's commit is null when the working
tree has uncommitted changes, and its source digest then identifies it.  The exit code is 1 when any run failed an
output check or reported failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def export(rev: str, target: Path) -> None:
    """Write the files of ``rev`` into ``target``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive, check=True)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def tree_commit() -> str | None:
    """The working tree's commit, HEAD, or None when the tree has uncommitted
    changes, untracked files included, since HEAD then is not what was
    measured."""
    return None if git("status", "--porcelain") else git("rev-parse", "HEAD")


def commits_stamp(parent_rev: str) -> dict:
    """The ``commits`` entry of a BENCH document: the parent commit and the
    working tree's (``tree_commit``)."""
    tree = tree_commit()
    return {
        "parent": git("rev-parse", parent_rev),
        "tree": tree,
        "tree_has_uncommitted_changes": tree is None,
    }


def run_bench(tree: Path, workload: str, seed: int, seconds: float,
              stamp_workload: str) -> dict:
    """The JSON summary line of one ``perfbench/run.py --trace 0`` run, with
    the ``stamp`` of its result file for ``stamp_workload``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"perfbench in {tree} printed nothing:\n{proc.stderr}")
    line = json.loads(lines[-1])
    line["returncode"] = proc.returncode
    result = tree / "perfbench" / "out" / f"{stamp_workload}-s{seed}-trace0.json"
    line["stamp"] = json.loads(result.read_text())["stamp"] if result.is_file() else {}
    return line


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(old: list[float], new: list[float], higher: bool):
    """Pairs ``(old[i], new[i])`` of parent and working-tree runs as the pairs
    in which the working tree did better (ties count for neither side), both
    sides' quartiles, the parent's IQR and the median gain."""
    won = sum((c > p) if higher else (c < p) for p, c in zip(old, new))
    po, pn = quartiles(old), quartiles(new)
    gain = (pn[1] - po[1]) if higher else (po[1] - pn[1])
    return won, po, pn, po[2] - po[0], gain


def verdict(old: list[float], new: list[float], higher: bool, bound: float) -> str:
    """The verdict on one metric over the pairs of ``compare``.

    "gain": the working tree is better in at least nine tenths of the pairs
    and its median is better by more than the parent's IQR.  "regression":
    its median is worse than the parent's by more than ``bound`` times the
    parent's median (the metric's relative ``bound`` in ``BENCHMARK.json``).
    Otherwise "unresolved" when the parent's own IQR is wider than that
    bound, and "within bound" when not.
    """
    won, po, _, iqr, gain = compare(old, new, higher)
    allowed = bound * abs(po[1])
    if 10 * won >= 9 * len(old) and gain > iqr:
        return "gain"
    if -gain > allowed:
        return "regression"
    return "unresolved" if iqr > allowed else "within bound"


def pair_lines(old: dict, new: dict) -> list[str]:
    """Every end-to-end metric of one pair as ``parent/tree`` values, one line
    per workload prefix (none when one workload ran)."""
    groups: dict[str, list[str]] = {}
    for name, metric in old["metrics"].items():
        workload, _, short = name.rpartition("/")
        groups.setdefault(workload, []).append(
            f"{short} {metric['value']:.4g}/{new['metrics'][name]['value']:.4g}")
    return [f"  {workload + ': ' if workload else ''}{', '.join(cells)}"
            for workload, cells in groups.items()]


def differing_pairs(pairs: list[tuple[dict, dict]], metric: str):
    """``(pair number, metric name, parent value, tree value)`` for each pair
    (numbered from 1) and workload in which ``metric`` differs between sides."""
    return [
        (number, name, old["metrics"][name]["value"], new["metrics"][name]["value"])
        for number, (old, new) in enumerate(pairs, start=1)
        for name in old["metrics"]
        if name.rpartition("/")[2] == metric
        and old["metrics"][name]["value"] != new["metrics"][name]["value"]
    ]


def summarize(pairs: list[tuple[dict, dict]], spec: dict[str, dict]) -> dict[str, dict]:
    """Per end-to-end metric of the pairs: both sides' quartiles, the pairs in
    which the working tree did better, the parent's IQR, the median gain and
    the verdict."""
    out = {}
    for name in pairs[0][0]["metrics"]:
        metric = spec[name.rsplit("/", 1)[-1]]
        higher = metric["better"] == "higher"
        old = [p["metrics"][name]["value"] for p, _ in pairs]
        new = [c["metrics"][name]["value"] for _, c in pairs]
        won, po, pn, iqr, gain = compare(old, new, higher)
        out[name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "parent": dict(zip(("q1", "median", "q3"), po)),
            "tree": dict(zip(("q1", "median", "q3"), pn)),
            "tree_better_in": won, "pairs": len(pairs), "parent_iqr": iqr,
            "median_gain": gain, "verdict": verdict(old, new, higher, metric["bound"]),
        }
    return out


def bench_document(workload: str, seeds: list[int], seconds: float, commits: dict,
                   pairs: list[tuple[dict, dict]], spec: dict[str, dict]) -> dict:
    """The content of ``BENCH_<workload>.json``: the two commits, each side's
    backend and source digest and the machine from the runs' stamps, the
    seeds, every metric's ``summarize`` entry, and the pairs in which
    ``green_frac`` differs."""
    stamps = {"parent": pairs[0][0]["stamp"], "tree": pairs[0][1]["stamp"]}
    return {
        "workload": workload,
        "commits": commits,
        "backend": {side: stamp.get("backend") for side, stamp in stamps.items()},
        "source_sha256": {side: stamp.get("source_sha256") for side, stamp in stamps.items()},
        **{key: stamps["tree"].get(key) for key in ("nproc", "python", "numpy")},
        "seeds": seeds,
        "seconds": seconds,
        "metrics": summarize(pairs, spec),
        "green_frac_differs": [list(row) for row in differing_pairs(pairs, "green_frac")],
    }


def report(pairs: list[tuple[dict, dict]], spec: dict[str, dict]) -> None:
    print(f"\n{len(pairs)} pairs; parent -> working tree as q1/median/q3")
    for name, m in summarize(pairs, spec).items():
        po, pn = m["parent"], m["tree"]
        ratio = pn["median"] / po["median"] if po["median"] else float("nan")
        print(f"  {name:34s} {po['q1']:.4g}/{po['median']:.4g}/{po['q3']:.4g} -> "
              f"{pn['q1']:.4g}/{pn['median']:.4g}/{pn['q3']:.4g}  x{ratio:.3f}  "
              f"better in {m['tree_better_in']}/{m['pairs']}  parent IQR "
              f"{m['parent_iqr']:.4g}  median gain {m['median_gain']:+.4g}  {m['verdict']}")
    differing = differing_pairs(pairs, "green_frac")
    print(f"pairs in which green_frac differs: {len(differing) or 'none'}")
    for number, name, old_value, new_value in differing:
        print(f"  pair {number} {name} {old_value:.6g} -> {new_value:.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_rev")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    stamp_workload = (spec["workloads"][0]["name"] if args.workload == "all"
                      else args.workload)
    commits = commits_stamp(args.parent_rev)

    pairs = []
    ok = True
    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as tmp:
        parent = Path(tmp)
        export(args.parent_rev, parent)
        for i, seed in enumerate(args.seeds):
            sides = [("parent", parent), ("tree", ROOT)]
            if i % 2:
                sides.reverse()
            result = {label: run_bench(tree, args.workload, seed, args.seconds,
                                       stamp_workload)
                      for label, tree in sides}
            for label, line in result.items():
                if line["returncode"] or not line["correct"] or line["failed"]:
                    ok = False
                    print(f"seed {seed} {label}: returncode {line['returncode']}, "
                          f"correct {line['correct']}, failed {line['failed']}")
            old, new = result["parent"], result["tree"]
            pairs.append((old, new))
            print(f"pair {i + 1} seed {seed} ({sides[0][0]} first), parent/tree:",
                  *pair_lines(old, new), sep="\n", flush=True)
    report(pairs, metrics)
    doc = bench_document(args.workload, args.seeds, args.seconds, commits, pairs, metrics)
    path = ROOT / f"BENCH_{args.workload}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path.name}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
