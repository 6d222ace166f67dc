"""The three workloads: seeded op lists, how one op calls boxperc, and how
its output is checked.

An op list is built from the seed alone, in plain Python, before any op
runs. Ops reach the program only through `boxperc.cli.main` or public
functions of its modules. Checking is the reference module's job; the
workloads only turn outputs into plain data for it.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import os
import random
import sys

import reference


class MissingProgram(RuntimeError):
    """The checkout holds no boxperc sources under src/."""


class Program:
    """The boxperc modules, imported from `<root>/src`."""

    def __init__(self, root: str) -> None:
        src = os.path.join(root, "src")
        if not os.path.isfile(os.path.join(src, "boxperc", "__init__.py")):
            raise MissingProgram(f"no boxperc package under {src}")
        sys.path.insert(0, src)
        self.load()

    def load(self) -> None:
        """Import boxperc afresh, dropping every module (and so every cache)
        a previous import left behind."""
        for name in [m for m in sys.modules if m == "boxperc" or m.startswith("boxperc.")]:
            del sys.modules[name]
        self.pkg = importlib.import_module("boxperc")
        for name in ("cli", "engine", "jsonio", "render", "search", "transforms"):
            setattr(self, name, importlib.import_module(f"boxperc.{name}"))


class OpFailed(RuntimeError):
    """The program refused an op (nonzero exit code)."""


def call_cli(cli, argv: list[str], stdin_text: str | None = None) -> str:
    """Run `cli.main(argv)` in this process; returns what it wrote to stdout."""
    out = io.StringIO()
    saved = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    if code != 0:
        raise OpFailed(f"boxperc {' '.join(argv)} exited {code}")
    return out.getvalue()


class Oracle:
    """Exact minimum searches over a fixed list of small grids.

    The 2-D t = r = 2 grids run with the empty-slice prune on; the 3-D,
    t = 3, r = 1 and r = 3 grids and every one-phase search run without it.
    (4, 4) at t = 3 is left out: at 0.36 s it alone took about 40% of a
    pass. The seed only shuffles the order, so every seed runs the same mix.

    Op latencies cluster by instance, and the run's quantiles are noisy
    wherever they fall between two clusters. The list therefore holds 20
    ops, some instances more than once. Sorted by latency, ops 10 and 11 are
    (3, 5), so the median is that instance's median. Ops 17 to 19 are the
    one-phase (4, 4) search, so the nearest-rank 90th percentile (rank 18
    of 20 per pass) also falls inside one instance's samples.
    """

    name = "oracle"
    INSTANCES = (
        # nine ops of 3-20 ms
        ((2, 2, 2), 2, 1, "percolate"),
        ((2, 2, 2), 2, 3, "percolate"),
        ((3, 3), 3, 2, "percolate"),
        ((3, 3), 3, 2, "one-phase"),
        ((2, 2, 3), 2, 2, "percolate"),
        ((3, 4), 2, 2, "percolate"),
        ((3, 4), 2, 2, "one-phase"),
        ((3, 4), 3, 2, "one-phase"),
        ((2, 2, 3), 2, 3, "percolate"),
        # the median, about 50 ms
        ((3, 5), 2, 2, "percolate"),
        ((3, 5), 2, 2, "percolate"),
        # five ops of 75-95 ms
        ((3, 5), 2, 2, "one-phase"),
        ((2, 2, 4), 2, 2, "percolate"),
        ((2, 2, 4), 2, 2, "percolate"),
        ((4, 4), 2, 2, "percolate"),
        ((4, 4), 2, 2, "percolate"),
        # the 90th percentile, about 110 ms
        ((4, 4), 2, 2, "one-phase"),
        ((4, 4), 2, 2, "one-phase"),
        ((4, 4), 2, 2, "one-phase"),
        # the slowest, about 160 ms
        ((2, 3, 3), 2, 2, "percolate"),
    )

    def __init__(self, seed: int) -> None:
        self.ops = list(self.INSTANCES)
        random.Random(seed).shuffle(self.ops)

    def bind(self, program: Program, model: reference.Model) -> None:
        self.program, self.model = program, model

    @staticmethod
    def argv(op) -> list[str]:
        shape, t, r, target = op
        return ["search", "--shape", ",".join(map(str, shape)), "--t", str(t),
                "--r", str(r), "--target", target, "--mode", "exact"]

    def warm_ops(self):
        return list(dict.fromkeys(self.ops))

    def before(self, op) -> None:
        pass

    def run(self, op) -> str:
        return call_cli(self.program.cli, self.argv(op))

    def check(self, op, out: str) -> None:
        reference.check_search(self.model, op, json.loads(out))

    def fingerprint(self, out: str):
        doc = json.loads(out)
        del doc["duration_ms"]  # wall time, the one field that may change between passes
        return doc


def permuted_l_set(shape, t: int, r: int, rng: random.Random) -> list[tuple[int, ...]]:
    """The L set under an independent random permutation of each axis's slices."""
    perms = []
    for n in shape:
        p = list(range(1, n + 1))
        rng.shuffle(p)
        perms.append(p)
    return sorted(tuple(p[c - 1] for p, c in zip(perms, v)) for v in reference.l_cells(shape, t, r))


class Trace:
    """Step traces with ASCII rendering, then `check`, on cold instances.

    Before every op boxperc is imported afresh (untimed), so each op builds
    its edge table the way a separate CLI invocation does. Inputs are L sets
    under seeded slice permutations, which percolate by construction.
    """

    name = "trace"
    CONFIGS = (((10, 10), 2, 2), ((8, 8), 3, 2), ((5, 5, 5), 2, 2), ((5, 5, 5), 2, 3))
    VARIANTS = 2

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.ops = []
        for shape, t, r in self.CONFIGS:
            for _ in range(self.VARIANTS):
                cells = permuted_l_set(shape, t, r, rng)
                doc = {"shape": list(shape), "t": t, "r": r, "cells": [list(v) for v in cells]}
                self.ops.append((shape, t, r, cells, json.dumps(doc)))

    def bind(self, program: Program, model: reference.Model) -> None:
        self.program, self.model = program, model

    def warm_ops(self):
        return ()

    def before(self, op) -> None:
        self.program.load()
        gc.collect()

    def run(self, op) -> tuple[str, str]:
        text = op[4]
        cli = self.program.cli
        steps = call_cli(cli, ["percolate", "--steps", "--render", "ascii"], text)
        report = call_cli(cli, ["check"], text)
        return steps, report

    @staticmethod
    def split(steps_out: str) -> tuple[dict, str]:
        """The percolate output is the trace JSON followed by the picture."""
        doc, end = json.JSONDecoder().raw_decode(steps_out)
        return doc, steps_out[end:].lstrip("\n")

    def check(self, op, out) -> None:
        shape, t, r, cells, _ = op
        doc, picture = self.split(out[0])
        n_steps = reference.check_step_trace(cells, shape, t, r, doc)
        reference.check_ascii_steps(picture, n_steps)
        reference.check_report(self.model, cells, shape, t, r, json.loads(out[1]))

    def fingerprint(self, out):
        return out


class Shifts:
    """Sampler, maximal-shift normal form and maximal-only shift search.

    Each op draws a deletion-minimal percolating set, normalizes it, and
    searches maximal-only shift sequences for a superset of the L set,
    capped at as many moves as the normalization applied and at
    MAX_STATES states. Op costs vary from set to set, so a pass holds many
    cheap grids: the medians then move little from seed to seed.
    """

    name = "shifts"
    CONFIGS = (((4, 4), 2), ((3, 5), 2), ((4, 5), 3), ((5, 5), 3))
    PER_CONFIG = 400
    MAX_STATES = 1000

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.ops = [
            (shape, t, rng.randrange(1 << 31))
            for shape, t in self.CONFIGS
            for _ in range(self.PER_CONFIG)
        ]
        rng.shuffle(self.ops)

    def bind(self, program: Program, model: reference.Model) -> None:
        self.program, self.model = program, model

    def warm_ops(self):
        seen = {}
        for op in self.ops:
            seen.setdefault(op[:2], op)
        return list(seen.values())

    def before(self, op) -> None:
        pass

    def sample(self, op):
        shape, t, seed = op
        return self.program.pkg.GridShape(shape), self.program.pkg.Params(t, 2), seed

    def run(self, op):
        p = self.program
        shape, params, seed = self.sample(op)
        start = p.search.random_percolating_set(shape, params, seed)
        normal, records = p.transforms.normalize_max_shifts(start, params)
        reach = p.search.shift_reach(
            start, params, "contains-l", max_ops=len(records),
            max_states=self.MAX_STATES, maximal_only=True,
        )
        return start, normal, records, reach

    @staticmethod
    def plain_record(rec):
        return (rec.edge.sets, rec.infected, rec.removed, rec.maximal)

    def fingerprint(self, out):
        start, normal, records, reach = out
        chain = None if reach.records is None else tuple(map(self.plain_record, reach.records))
        return (
            tuple(start.cells()),
            tuple(normal.cells()),
            tuple(map(self.plain_record, records)),
            (reach.status, chain, reach.states_explored, reach.depth_reached),
        )

    def check(self, op, out) -> None:
        start, normal, records, reach = self.fingerprint(out)
        reference.check_shifts(self.model, op[0], op[1], start, normal, records, reach, self.MAX_STATES)


WORKLOADS = {w.name: w for w in (Oracle, Trace, Shifts)}
