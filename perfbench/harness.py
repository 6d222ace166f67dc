"""The measurement loop shared by untraced and traced runs."""

from __future__ import annotations

import math
import statistics
import sys
import time
import traceback

import reference

# A run completes at least this many ops, so that its 90th percentile has
# at least ten samples beyond it.
MIN_OPS = 100
TAIL_QUANTILE = 0.90


class Stats:
    """Latencies, failures and check outcomes of one measured run."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.passes = 0
        self.pass_busy: list[float] = []
        self._seen: dict[int, object] = {}

    def verify(self, workload, index: int, op, out) -> None:
        """Check an op's first output fully; later passes must repeat it."""
        fp = workload.fingerprint(out)
        if index not in self._seen:
            try:
                workload.check(op, out)
            except (reference.CheckError, KeyError, TypeError, ValueError) as exc:
                self.reject(f"{workload.name} op {op[:3]}: {exc!r}")
            self._seen[index] = fp
        elif self._seen[index] != fp:
            self.reject(f"{workload.name} op {op[:3]}: output differs from its first pass")

    def reject(self, message: str) -> None:
        self.correct = False
        print(f"check failed: {message}", file=sys.stderr)

    def ops_per_s(self) -> float:
        """Median over passes of the ops a pass completed per second inside ops."""
        per_pass = len(self.latencies) / self.passes
        return statistics.median(per_pass / b for b in self.pass_busy)

    def p50(self) -> float:
        return statistics.median(self.latencies)

    def tail(self) -> float:
        """Nearest-rank 90th percentile latency."""
        ordered = sorted(self.latencies)
        return ordered[math.ceil(TAIL_QUANTILE * len(ordered)) - 1]


def run_passes(workload, seconds: float, min_ops: int = MIN_OPS, before=None, run=None,
               on_op=None, tracer=None) -> Stats:
    """Whole passes over the workload's op list, until `seconds` of wall time
    have gone by and at least `min_ops` ops were attempted.

    Only the call into the program is timed. `before` runs untimed ahead of
    each op. Outputs are checked after their pass, so that checking does not
    come between the ops; `on_op(pass_no, index, op, out)` then sees every
    completed op. With a tracer, spans are tagged with (workload, pass
    number, op index).
    """
    before = before or workload.before
    run = run or workload.run
    if tracer is not None:
        tracer.op = (workload.name, None, None)
    for op in workload.warm_ops():
        before(op)
        run(op)
    stats = Stats()
    start = time.perf_counter()
    while True:
        busy_before = stats.busy
        done = []
        for index, op in enumerate(workload.ops):
            if tracer is not None:
                tracer.op = (workload.name, stats.passes, index)
            before(op)
            t0 = time.perf_counter()
            try:
                out = run(op)
            except Exception:  # an op that raises is counted as failed, and the run goes on
                stats.busy += time.perf_counter() - t0
                stats.attempted += 1
                stats.failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            elapsed = time.perf_counter() - t0
            stats.busy += elapsed
            stats.attempted += 1
            stats.latencies.append(elapsed)
            done.append((index, op, out))
        stats.pass_busy.append(stats.busy - busy_before)
        for index, op, out in done:
            stats.verify(workload, index, op, out)
            if on_op is not None:
                on_op(stats.passes, index, op, out)
        stats.passes += 1
        if time.perf_counter() - start >= seconds and stats.attempted >= min_ops:
            return stats
