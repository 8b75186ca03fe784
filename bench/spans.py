"""In-memory spans for the traced pass.

`Tracer.wrap` returns a callable that records one span per call: its name,
start and end (`perf_counter_ns`), the index of the enclosing span and the
number of the instance being answered.  Spans stay in memory; `self_times`
aggregates them and `write` saves them when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path

NAME, START, END, PARENT, INSTANCE = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.instance = -1
        self._stack = [-1]

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1], self.instance]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()

        return traced


def self_times(spans: list[list]) -> tuple[dict[str, float], Counter]:
    """Seconds of self time per span name (duration minus the time covered
    by child spans) and the number of calls per name."""
    covered = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    totals: dict[str, int] = {}
    calls: Counter = Counter()
    for span, child_ns in zip(spans, covered):
        name = span[NAME]
        totals[name] = totals.get(name, 0) + span[END] - span[START] - child_ns
        calls[name] += 1
    return {name: ns / 1e9 for name, ns in totals.items()}, calls


def write(path: Path, spans: list[list], meta: dict) -> None:
    """Save spans as JSON: a name table and one `[name, start_ns, end_ns,
    parent, instance]` row per span (`name` indexes the table, `parent` is a
    row index or -1)."""
    names = sorted({span[NAME] for span in spans})
    index = {name: i for i, name in enumerate(names)}
    rows = [[index[s[NAME]], s[START], s[END], s[PARENT], s[INSTANCE]] for s in spans]
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        json.dump({**meta, "clock": "perf_counter_ns", "names": names,
                   "spans": rows}, out, separators=(",", ":"))
