"""Benchmark of boxperc, end to end and by layer.

    python3 perfbench/run.py --workload oracle|trace|shifts --seed N --seconds S --trace 0|1

Run it from the root of a boxperc checkout: it imports the package from
./src. With --trace 0 it measures one workload and prints its end-to-end
metrics; with --trace 1 it times the calls into each module over all three
op lists and prints the per-layer metrics (spans go to perfbench/out/).
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import harness
import layers
import reference
from tracing import Tracer
from workloads import WORKLOADS, MissingProgram, Program

SETUP_PROBES = 5
OUT_DIR = os.path.join("perfbench", "out")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import boxperc, build the op list and exit (a set-up probe)")
    return parser.parse_args(argv)


def setup_seconds(args) -> float:
    """Median wall time of fresh processes that start Python, import boxperc
    and build this workload's op list, then exit: the set-up a run pays
    before its first op. Ops themselves all run in this one process."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, timeout=120, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced(args, program: Program, model: reference.Model) -> dict:
    setup_s = setup_seconds(args)
    workload = WORKLOADS[args.workload](args.seed)
    workload.bind(program, model)
    stats = harness.run_passes(workload, args.seconds)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"{args.workload}: {stats.attempted} ops in {stats.passes} passes, "
          f"{stats.busy:.3f} s inside ops; per pass {[round(b, 3) for b in stats.pass_busy]}",
          file=sys.stderr)
    return {
        "correct": stats.correct,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {
            "setup_s": metric(setup_s, "s"),
            "ops_per_s": metric(stats.ops_per_s(), "1/s"),
            "op_p50_s": metric(stats.p50(), "s"),
            "op_tail_s": metric(stats.tail(), "s"),
            "peak_rss_mb": metric(peak_kib / 1024, "MiB"),
        },
    }


def traced(args, program: Program, model: reference.Model) -> dict:
    tracer = Tracer()
    metrics, correct, attempted, failed = {}, True, 0, 0
    for measure in layers.LAYERS:
        found, stats = measure(program, model, args.seed, args.seconds / len(layers.LAYERS), tracer)
        metrics.update((name, metric(v, unit)) for name, (v, unit) in found.items())
        correct &= stats.correct
        attempted += stats.attempted
        failed += stats.failed
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json"))
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        program = Program(os.getcwd())
    except MissingProgram as exc:
        print(f"error: {exc}; run from the root of a boxperc checkout", file=sys.stderr)
        return 2
    if args.setup_only:
        WORKLOADS[args.workload](args.seed)
        return 0
    model = reference.Model()
    result = traced(args, program, model) if args.trace else untraced(args, program, model)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
