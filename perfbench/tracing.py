"""Spans recorded from the benchmark's side of each call into boxperc.

A span has a name, a start, an end, the span that caused it and the op it
belongs to. Calls that boxperc's CLI makes into its own modules are caught
by replacing the module attribute the CLI looks up with a timing wrapper;
the program's code is not changed. A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._wrapped: list[tuple] = []
        self.op = None

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "op": self.op, "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str) -> None:
        """Record a span around every call of `module.attr`."""
        inner = getattr(module, attr)

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(module, attr, traced)
        self._wrapped.append((module, attr, inner))

    def unwrap_all(self) -> None:
        """Put back every attribute `wrap` replaced, newest first."""
        while self._wrapped:
            module, attr, inner = self._wrapped.pop()
            setattr(module, attr, inner)

    def self_times(self) -> list[float]:
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def by_pass(self, workload: str) -> dict[int, tuple[dict[str, float], dict[str, float]]]:
        """{pass: (total duration, total self time) per span name} over the
        spans of the workload's timed ops."""
        out: dict[int, tuple[dict[str, float], dict[str, float]]] = {}
        for s, own in zip(self.spans, self.self_times()):
            op = s["op"]
            if op is None or op[0] != workload or op[1] is None:
                continue
            dur_t, own_t = out.setdefault(op[1], ({}, {}))
            dur_t[s["name"]] = dur_t.get(s["name"], 0.0) + s["end"] - s["start"]
            own_t[s["name"]] = own_t.get(s["name"], 0.0) + own
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)
