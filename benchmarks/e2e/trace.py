"""In-memory spans recorded from the benchmark's side of each layer call.

The benchmark wraps the program's public functions; nothing is recorded
inside ``src/``. The traced pass is single-threaded (serial policy), so one
open-span stack gives every span its parent.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into SpanRecorder.spans, -1 for a root
    batch: int  # shared by every span of one mini-batch, -1 outside batches

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, batch: int = -1):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        record = Span(name, time.perf_counter(), 0.0, parent, batch)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part its child spans cover."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.duration
        return own

    def self_time_by_name(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for span, own in zip(self.spans, self.self_times()):
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)

    def to_chrome_trace(self) -> dict:
        origin = self.spans[0].start if self.spans else 0.0
        events = [
            {
                "name": span.name,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "args": {"batch": span.batch, "parent": span.parent},
            }
            for span in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_chrome_trace(), handle)
