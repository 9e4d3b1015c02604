"""Spans and counters recorded around calls into skfnav's modules.

The tracer replaces module attributes (``switching.update``,
``kernels.strapdown_batch``, ...) with wrappers that record one span per
call: name, start, end and the span that was open when the call began.
Spans live in flat in-memory arrays until the benchmark writes them out at
the end; nothing is added inside the library.  The pure helpers below turn
spans and ``StepDiagnostics`` into the per-layer numbers.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from time import perf_counter

import numpy as np


class Tracer:
    """Records spans for wrapped callables and restores the originals."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        # 1 when an enclosing span has the same name (write_records_csv inside
        # write_run_outputs), so totals count the outermost span only
        self.nested = array("b")
        self.counts: Counter = Counter()
        self.step_diagnostics: list = []
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, owner, attr: str, name: str, on_result=None) -> bool:
        """Record a span around every call of ``owner.attr``.

        ``on_result(args, result)`` runs after a call that returned.  Returns
        False, wrapping nothing, when ``owner`` has no such attribute.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            return False
        nid = self._intern(name)

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.nested.append(1 if self._open[nid] else 0)
            self._open[nid] += 1
            self._stack.append(idx)
            self.end.append(0.0)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
                self._open[nid] -= 1
            if on_result is not None:
                on_result(args, result)
            return result

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, traced)
        return True

    def count_within(self, owner, attr: str, name: str, parents: set[str]) -> bool:
        """Count calls of ``owner.attr`` made while the innermost open span
        is one of ``parents``; records no span."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return False
        parent_ids = {self._intern(p) for p in parents}

        def counted(*args, **kwargs):
            if self._stack and self.name_id[self._stack[-1]] in parent_ids:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, counted)
        return True

    def restore(self) -> None:
        """Put every wrapped attribute back, most recent first."""
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "nested": np.frombuffer(self.nested, dtype=np.int8),
        }

    def save(self, path) -> None:
        """Write all spans, with the name table, as one ``.npz`` file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict[str, dict]:
        """Per span name: ``calls``, total seconds ``s`` (outermost spans
        only), ``self_s`` and the list of ``durations``."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        own = self_times(a["start"], a["end"], a["parent"])
        out = {}
        for nid, name in enumerate(self.names):
            mask = a["name_id"] == nid
            outer = mask & (a["nested"] == 0)
            out[name] = {
                "calls": int(mask.sum()),
                "s": float(dur[outer].sum()),
                "self_s": float(own[mask].sum()),
                "durations": dur[mask],
            }
        return out


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it its child spans cover.

    ``parent[i]`` is the index of span ``i``'s parent, or -1.  Children
    that overlap one another are merged before subtracting, and a child
    reaching outside its parent counts only inside the parent.
    """
    start_a = np.asarray(start, dtype=float)
    end_a = np.asarray(end, dtype=float)
    parent_a = np.asarray(parent, dtype=int)
    own = end_a - start_a
    children = np.flatnonzero(parent_a >= 0)
    order = children[np.lexsort((start_a[children], parent_a[children]))]
    start, end, parent = start_a.tolist(), end_a.tolist(), parent_a.tolist()
    # walk each parent's children by start time, merging overlaps into
    # [lo, hi] and subtracting every merged interval once
    current, lo, hi = -1, 0.0, 0.0
    for i in order.tolist() + [-1]:
        p = parent[i] if i >= 0 else -2
        if p == current and start[i] <= hi:
            hi = max(hi, min(end[i], end[p]))
            continue
        if current >= 0 and hi > lo:
            own[current] -= hi - lo
        if i < 0:
            break
        current = p
        lo, hi = max(start[i], start[p]), min(end[i], end[p])
    return own


def ten_beyond(values) -> dict:
    """The highest percentile of ``values`` that has at least ten samples
    beyond it: the value with exactly ten larger samples after sorting.

    Returns ``{"value", "percentile", "samples"}``; needs at least 11.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        raise ValueError(f"need at least 11 samples for a tail, got {n}")
    return {
        "value": ordered[n - 11],
        "percentile": 100.0 * (n - 10) / n,
        "samples": n,
    }


def nearest_rank(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def branch_counts(diagnostics) -> dict:
    """Hypothesis bookkeeping summed over ``StepDiagnostics``.

    ``live_branch_frac`` is live branch-steps over all branch-steps: it drops
    when branches stop being scored because they froze.
    """
    branch_steps = sum(d.n_branches for d in diagnostics)
    frozen = sum(len(d.frozen) for d in diagnostics)
    return {
        "spawned": sum(d.spawned_s is not None for d in diagnostics),
        "pruned": sum(len(d.pruned) for d in diagnostics),
        "branch_steps": branch_steps,
        "frozen_branch_steps": frozen,
        "live_branch_frac": (branch_steps - frozen) / branch_steps if branch_steps else 0.0,
    }
