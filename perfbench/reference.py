"""Reference model and output checkers, written apart from boxperc.

Nothing here imports the program. Cells are 1-based coordinate tuples,
hyperedges are tuples of cells, and closures are computed by the textbook
rule: a cell outside the set is added when some hyperedge has it as its
only missing cell. The checkers take the program's outputs as plain data
(parsed JSON, or tuples built from the program's objects) and raise
CheckError on the first disagreement.
"""

from __future__ import annotations

import math
from itertools import combinations, product


class CheckError(AssertionError):
    """An output of the program disagrees with the reference."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def all_cells(shape) -> list[tuple[int, ...]]:
    return list(product(*(range(1, n + 1) for n in shape)))


def l_cells(shape, t: int, r: int) -> set[tuple[int, ...]]:
    """Cells with at most r - 1 coordinates above t - 1."""
    return {v for v in all_cells(shape) if sum(c > t - 1 for c in v) <= r - 1}


def closed_form_minimum(shape, t: int, r: int) -> int:
    """The double sum over s < r and s-subsets I of the axes of
    (t-1)**(d-s) * prod_{i in I} (n_i + 1 - t)."""
    d = len(shape)
    return sum(
        (t - 1) ** (d - s) * math.prod(shape[i] + 1 - t for i in axes)
        for s in range(r)
        for axes in combinations(range(d), s)
    )


def one_phase_minimum(shape, t: int) -> int:
    """(n1 + n2)(t - 1) - (t - 1)**2, the two-dimensional one-phase minimum."""
    n1, n2 = shape
    return (n1 + n2) * (t - 1) - (t - 1) ** 2


class Model:
    """Hyperedge lists per (shape, t, r), built once and kept by the caller."""

    def __init__(self) -> None:
        self._edges: dict[tuple, list[tuple[tuple[int, ...], ...]]] = {}

    def edges(self, shape, t: int, r: int) -> list[tuple[tuple[int, ...], ...]]:
        key = (tuple(shape), t, r)
        if key not in self._edges:
            out = []
            for axes in combinations(range(len(shape)), r):
                choices = [
                    list(combinations(range(1, n + 1), t)) if i in axes
                    else [(c,) for c in range(1, n + 1)]
                    for i, n in enumerate(shape)
                ]
                out.extend(tuple(product(*sets)) for sets in product(*choices))
            self._edges[key] = out
        return self._edges[key]

    def additions(self, cells: set, shape, t: int, r: int) -> set:
        """Cells outside `cells` that are the only missing cell of an edge."""
        add = set()
        for e in self.edges(shape, t, r):
            missing = [v for v in e if v not in cells]
            if len(missing) == 1:
                add.add(missing[0])
        return add

    def phases(self, cells, shape, t: int, r: int) -> tuple[set, int]:
        """Closure by synchronous rounds, and the number of rounds that added cells."""
        current = set(cells)
        rounds = 0
        while True:
            add = self.additions(current, shape, t, r)
            if not add:
                return current, rounds
            current |= add
            rounds += 1

    def percolates(self, cells, shape, t: int, r: int) -> bool:
        return len(self.phases(cells, shape, t, r)[0]) == math.prod(shape)

    def one_phase(self, cells, shape, t: int, r: int) -> bool:
        cells = set(cells)
        return len(cells | self.additions(cells, shape, t, r)) == math.prod(shape)


def edge_cells_from_json(obj: dict, shape, t: int, r: int) -> tuple[tuple[int, ...], ...]:
    """Cells of a serialized edge, after checking its form against the grid."""
    varying = {int(k): tuple(v) for k, v in obj["varying"].items()}
    fixed = {int(k): v for k, v in obj.get("fixed", {}).items()}
    require(sorted(obj["axes"]) == sorted(varying), f"edge axes {obj['axes']} disagree with {varying}")
    require(len(varying) == r, f"edge varies along {len(varying)} axes, expected r={r}")
    sets = []
    for axis, n in enumerate(shape, start=1):
        if axis in varying:
            s = varying[axis]
            require(len(set(s)) == t, f"edge axis {axis} has {len(set(s))} values, expected t={t}")
        else:
            require(axis in fixed, f"edge axis {axis} neither varying nor fixed")
            s = (fixed[axis],)
        require(all(isinstance(c, int) and 1 <= c <= n for c in s), f"edge axis {axis} out of range: {s}")
        sets.append(s)
    cells = tuple(product(*sets))
    require(len(set(cells)) == t**r, f"edge has {len(set(cells))} cells, expected {t**r}")
    return cells


def check_search(model: Model, instance, doc: dict) -> None:
    """A `search` report: exact, closed-form minimum, exhaustive below it,
    and a witness of that size that meets the target under the reference."""
    shape, t, r, target = instance
    require(doc["shape"] == list(shape) and doc["t"] == t and doc["r"] == r, "header mismatch")
    require(doc["target"] == target, f"target {doc['target']} != {target}")
    require(doc["exact"] is True, "search report is not exact")
    expected = (
        closed_form_minimum(shape, t, r) if target == "percolate" else one_phase_minimum(shape, t)
    )
    minimum = doc["minimum"]
    require(minimum == expected, f"minimum {minimum} != closed form {expected}")
    n = math.prod(shape)
    for k in range(minimum):
        seen = doc["examined_per_size"].get(str(k))
        require(seen == math.comb(n, k), f"size {k}: examined {seen} of {math.comb(n, k)}")
    require(doc["examined"] == sum(doc["examined_per_size"].values()), "examined total mismatch")
    require(0 < doc["checks"] <= doc["examined"], "checks exceed examined")
    witness = {tuple(v) for v in doc["witness"]}
    require(len(witness) == len(doc["witness"]) == minimum, "witness size differs from minimum")
    require(all(len(v) == len(shape) and all(1 <= c <= m for c, m in zip(v, shape)) for v in witness),
            "witness cell out of range")
    holds = model.percolates if target == "percolate" else model.one_phase
    require(holds(witness, shape, t, r), f"witness does not meet target {target}")


def check_step_trace(instance_cells, shape, t: int, r: int, doc: dict) -> int:
    """Replay a step trace with tuple arithmetic; returns the step count."""
    require(doc["shape"] == list(shape) and doc["t"] == t and doc["r"] == r, "trace header mismatch")
    infected = {tuple(v) for v in doc["start"]}
    require(infected == set(instance_cells), "trace start differs from the instance")
    for k, step in enumerate(doc["steps"], start=1):
        v = tuple(step["v"])
        require(v not in infected, f"step {k}: {v} already infected")
        cells = edge_cells_from_json(step["edge"], shape, t, r)
        require(v in cells, f"step {k}: witness edge does not contain {v}")
        others = [w for w in cells if w != v]
        require(all(w in infected for w in others), f"step {k}: witness edge has another missing cell")
        infected.add(v)
    require(len(infected) == math.prod(shape), "terminal set is not the full grid")
    return len(doc["steps"])


def check_ascii_steps(picture: str, steps: int) -> None:
    """The ASCII rendering has one labelled panel per stage."""
    labels = [line for line in picture.splitlines() if line.startswith("step ")]
    require(labels == [f"step {k}:" for k in range(steps + 1)], "ascii stage labels mismatch")


def check_report(model: Model, instance_cells, shape, t: int, r: int, doc: dict) -> None:
    """A `check` report on a percolating instance, against reference rounds."""
    closure, rounds = model.phases(instance_cells, shape, t, r)
    n = math.prod(shape)
    require(len(closure) == n, "reference closure is not full; the input should percolate")
    require(doc["cardinality"] == len(instance_cells), "cardinality mismatch")
    require(doc["percolates"] is True, "check reports no percolation")
    require(doc["closure_cardinality"] == n, "closure is not the full grid")
    require(doc["phases"] == rounds, f"phases {doc['phases']} != reference {rounds}")
    require(doc["one_phase"] is (rounds <= 1), "one_phase disagrees with the reference")


def replay_shift(state: set, record, shape, t: int, r: int) -> set:
    """Apply one shift record (edge sets, infected, removed, maximal) to `state`."""
    sets, infected, removed, maximal = record
    require(len(sets) == len(shape), "record edge has the wrong dimension")
    varying = [s for s in sets if len(s) > 1]
    require(len(varying) == r and all(len(set(s)) == t for s in varying), "record edge is not a t**r block")
    require(all(len(s) in (1, t) for s in sets), "record edge has a bad index set")
    require(all(1 <= c <= n for s, n in zip(sets, shape) for c in s), "record edge out of range")
    cells = set(product(*sets))
    missing = cells - state
    require(missing == {infected}, f"record edge is missing {sorted(missing)}, not just {infected}")
    require(removed in cells and removed != infected, "removed cell is not an infected edge mate")
    corner = tuple(max(s) for s in sets)
    require(maximal is (removed == corner), "maximal flag disagrees with the corner")
    return (state | {infected}) - {removed}


def check_shifts(model: Model, shape, t: int, start, normal, records, reach, max_states: int) -> None:
    """Sampler output, normal form with its records, and the reach chain."""
    r = 2
    start = set(start)
    require(model.percolates(start, shape, t, r), "sampled set does not percolate")
    state = set(start)
    for rec in records:
        require(rec[3] is True, "normalization applied a non-maximal shift")
        state = replay_shift(state, rec, shape, t, r)
    require(state == set(normal), "records do not lead to the reported normal form")
    require(len(normal) == len(start), "normal form changed size")
    for e in model.edges(shape, t, r):
        missing = [v for v in e if v not in state]
        if len(missing) == 1:
            corner = tuple(max(c[i] for c in e) for i in range(len(shape)))
            require(missing[0] == corner, f"infecting edge in non-standard position at {missing[0]}")
    lset = l_cells(shape, t, r)
    if t == 2:
        require(lset <= state, "normal form misses part of row 1 or column 1")
    status, chain, explored, depth = reach
    require(explored <= max_states, "reach explored more states than its cap")
    if t == 2:
        require(status == "found", f"maximal-only reach reported {status}")
        require(len(chain) <= len(records), "reach chain longer than the normalization")
    if status == "found":
        require(depth == len(chain), "reach depth differs from its chain length")
        state = set(start)
        for rec in chain:
            require(rec[3] is True, "maximal-only chain holds a non-maximal shift")
            state = replay_shift(state, rec, shape, t, r)
        require(lset <= state, "reach chain ends outside the goal")
    else:
        require(status in ("unreachable", "inconclusive") and chain is None, f"bad reach status {status}")
