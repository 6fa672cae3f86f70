"""In-memory spans recorded around the benchmark's own calls into each
layer's public functions. Nothing inside the engine is instrumented.

A span holds its name, start and end (``time.perf_counter`` seconds),
the id of the span that was open when it started (its parent) and the
id of the timed op it belongs to (None outside the op loop). Spans stay
in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager

_TICK = os.sysconf("SC_CLK_TCK")


def tree_cpu_s(root: int | None = None) -> float:
    """User plus system CPU seconds of a process and all its live
    descendants, including children they have reaped. Ray's raylet,
    GCS and workers all descend from the driver that started them."""
    root = root or os.getpid()
    parent, ticks = {}, {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        parent[int(d)] = int(fields[1])
        ticks[int(d)] = sum(int(x) for x in fields[11:15])
    total = 0
    for pid, t in ticks.items():
        p = pid
        while p in parent and p != root:
            p = parent[p]
        if p == root:
            total += t
    return total / _TICK


@contextmanager
def op_clock():
    """Wall and process-tree CPU seconds of the enclosed block. The
    CPU reads sit outside the wall interval."""
    c = {"cpu": tree_cpu_s()}
    t0 = time.perf_counter()
    try:
        yield c
    finally:
        c["wall"] = time.perf_counter() - t0
        c["cpu"] = tree_cpu_s() - c["cpu"]


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.op: int | None = None
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "op": self.op,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and s["end"] is not None
        ]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def median(self, name: str) -> float:
        return statistics.median(self.durations(name))

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s, separators=(",", ":")) + "\n")
