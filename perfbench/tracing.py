"""Spans and counts recorded by the benchmark around calls into the
program's layers.

A span has a name, start, end, parent span and run id.  Spans stay in
memory and are written out once, when the run ends.  A layer's self
time is its spans' duration minus the time its child spans cover.
Spans are opened from the driver thread only, so children never
overlap.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append({"id": sid, "name": name,
                           "parent": self._open[-1] if self._open else None,
                           "run_id": self.run_id,
                           "start": time.perf_counter(), "end": None})
        self._open.append(sid)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[sid]["end"] = time.perf_counter()

    def count(self, name: str, value: float) -> None:
        self.counts[name] = value

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
            if s["parent"] is not None:
                p = self.spans[s["parent"]]
                out[p["name"]] = out.get(p["name"], 0.0) - (s["end"] - s["start"])
        return out

    def total(self, names: list[str]) -> float:
        """Wall time of the root spans named in ``names``."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["parent"] is None and s["name"] in names)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"run_id": self.run_id, "spans": self.spans,
                       "counts": self.counts, "self_s": self.self_times()},
                      f, indent=1)
