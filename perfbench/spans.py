"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side of each public call: the
recorder wraps a callable so every call appends one span (name, start,
end, parent span, request id).  Nesting follows the call stack of the
single driving thread, so a span's parent is whatever wrapped call was
running when it started.  Spans stay in plain lists until the run ends;
:meth:`SpanRecorder.write` dumps them once.
"""

from __future__ import annotations

import json
import time

import numpy as np


class SpanRecorder:
    """Collects spans from wrapped calls on one thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.request_ids: list[int] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, note=None):
        """Return ``fn`` wrapped so each call records a span named ``name``.

        ``note(index, args, result)``, when given, runs after the call
        returns and may set the span's request id or count work.
        """
        names, starts, ends = self.names, self.starts, self.ends
        parents, request_ids, stack, clock = (
            self.parents, self.request_ids, self._stack, self.clock)

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            request_ids.append(-1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = start
                stack.pop()
            if note is not None:
                note(index, args, result)
            return result

        return traced

    def add(self, name: str, start: float, end: float,
            request_id: int = -1) -> None:
        """Record a span measured elsewhere (a request's lifecycle)."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(-1)
        self.request_ids.append(request_id)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; children never overlap because one thread makes every
        call.
        """
        if not self.names:
            return {}
        durations = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents)
        child = np.zeros(len(durations))
        nested = parents >= 0
        np.add.at(child, parents[nested], durations[nested])
        own = durations - child
        names = np.asarray(self.names)
        out = {}
        for name in dict.fromkeys(self.names):
            sel = names == name
            out[name] = {"count": int(sel.sum()),
                         "seconds": float(durations[sel].sum()),
                         "self_seconds": float(own[sel].sum()),
                         "median_seconds": float(np.median(durations[sel]))}
        return out

    def top_level_seconds(self, names) -> float:
        """Seconds covered by root spans with one of ``names``."""
        wanted = set(names)
        return sum(end - start for name, start, end, parent in zip(
            self.names, self.starts, self.ends, self.parents)
            if parent < 0 and name in wanted)

    def write(self, path) -> None:
        """Dump every span as JSON: one ``[name, start_us, end_us,
        parent, request_id]`` row per span, times relative to the first."""
        origin = min(self.starts) if self.starts else 0.0
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        rows = [[index[name], round((start - origin) * 1e6, 1),
                 round((end - origin) * 1e6, 1), parent, rid]
                for name, start, end, parent, rid in zip(
                    self.names, self.starts, self.ends, self.parents,
                    self.request_ids)]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start_us", "end_us", "parent",
                                   "request_id"],
                       "names": table, "spans": rows}, fh,
                      separators=(",", ":"))
