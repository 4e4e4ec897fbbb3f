"""In-memory spans around calls into the library, written out as Chrome
trace-event JSON (opens in Perfetto and chrome://tracing).

A disabled tracer records nothing, so the untraced run pays one branch per
call site. Each span keeps its name, start, end, the id of the span that
was open when it started, and the id of the operation (frame, model,
training run or loop run) it belongs to.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op: int | None = None
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **args):
        if not self.enabled:
            yield
            return
        rec = {"name": name, "id": len(self.spans),
               "parent": self._open[-1] if self._open else None,
               "op": self.op, "args": args}
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start_ns"] = time.perf_counter_ns()
        try:
            yield
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name and "end_ns" in s]

    def seconds(self, name: str) -> list[float]:
        return [(s["end_ns"] - s["start_ns"]) / 1e9 for s in self.named(name)]

    def median_s(self, name: str) -> float:
        """Median duration of the named spans; 0.0 when none were recorded."""
        d = self.seconds(name)
        return statistics.median(d) if d else 0.0

    def write_chrome(self, path):
        t0 = min((s["start_ns"] for s in self.spans), default=0)
        events = [{
            "name": s["name"], "cat": s["name"].split(".", 1)[0], "ph": "X",
            "ts": (s["start_ns"] - t0) / 1e3,
            "dur": (s["end_ns"] - s["start_ns"]) / 1e3,
            "pid": 1, "tid": 1,
            "args": {"id": s["id"], "parent": s["parent"], "op": s["op"],
                     **s["args"]},
        } for s in self.spans if "end_ns" in s]
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
