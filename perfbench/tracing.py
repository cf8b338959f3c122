"""In-memory spans around the benchmark's calls into each cloudq layer.

A span records ``layer.function``, its start and end on the
``perf_counter`` clock, the index of the span that caused it and the id
of the job it belongs to.  Spans stay in a list until the run ends and
are written out once.  With tracing off, :class:`NullTracer` hands out a
no-op context manager so the timed code is the same in both modes.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class NullTracer:
    """Tracing off: spans cost one generator round trip and record nothing."""

    enabled = False

    @contextmanager
    def span(self, name: str):
        yield

    def job(self, job_id: int):
        return self.span("job")


class Tracer:
    """Tracing on: every span is appended to :attr:`spans`."""

    enabled = True

    def __init__(self) -> None:
        # (name, start, end, parent index or -1, job id)
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._job_id = -1

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, parent, self._job_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def job(self, job_id: int):
        previous, self._job_id = self._job_id, job_id
        try:
            with self.span("job"):
                yield
        finally:
            self._job_id = previous

    def self_times(self, scale: dict[int, float]) -> dict[str, float]:
        """Summed self time per span name: duration minus child spans.

        ``scale`` maps a job id to the factor its spans' times are
        multiplied by.  The benchmark runs one job at a time in one thread,
        so child spans never overlap and their durations can simply be
        subtracted.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _, job), children in zip(self.spans, child_time):
            totals[name] += ((end - start) - children) * scale[job]
        return dict(totals)

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "job")
        with open(path, "w") as handle:
            json.dump([dict(zip(keys, span)) for span in self.spans], handle)
