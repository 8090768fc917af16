"""In-memory span recorder for the benchmark's traced runs.

A span has a name, a start and an end (``perf_counter_ns``), the index of
the span that was open when it started on the same thread (its parent, or
-1), and the id of the operation it belongs to.  Spans stay in memory while
the workload runs and are written out once at the end.  Self time is a
span's duration minus the time its direct children cover.

Untraced runs use :data:`OFF`, whose ``span`` returns one shared no-op
context manager, so the measured code path is the same in both modes.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from collections import defaultdict


class Tracer:
    """Thread-safe list of spans; each thread keeps its own open-span stack."""

    enabled = True

    def __init__(self) -> None:
        #: ``[name, start_ns, end_ns, parent_index, op_id]`` per span.
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, op_id: int | None = None):
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if op_id is None and parent >= 0:
            op_id = self.spans[parent][4]
        record = [name, time.perf_counter_ns(), 0, parent, op_id]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            stack.pop()

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total and self time (ms)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0 and end:
                child_ns[parent] += end - start
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        for index, (name, start, end, _, _) in enumerate(self.spans):
            if not end:
                continue
            row = table[name]
            row["count"] += 1
            row["total_ms"] += (end - start) / 1e6
            row["self_ms"] += (end - start - child_ns[index]) / 1e6
        return dict(table)

    def write(self, path: str, header: dict) -> None:
        """Write the header, the self-time table and every span as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"header": header, "self_times": self.self_times(),
                       "span_fields": ["name", "start_ns", "end_ns", "parent", "op_id"],
                       "spans": self.spans}, handle, separators=(",", ":"))


class _Off:
    """The disabled tracer: records nothing."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str, op_id: int | None = None):
        return self._null


OFF = _Off()
