"""Claim-verification suites behind the `verify` command.

Each suite checks one combinatorial claim at configurable sizes and seed
counts and returns a VerificationReport: one row per checked instance or
battery, an overall pass flag, and counts. Rows whose search ran out of
budget are marked skipped (they neither pass nor fail).

Suite ids: prop2_2, thm3_1, thm2_7, lemma_union, prop_removal, prop4_4,
closure_laws, formula_vs_oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Callable, Optional

from .constructions import l_set, l_set_cardinality, m_formula
from .engine import (
    _edge_table,
    full_form,
    one_phase,
    percolates,
    rectangle_blocks,
    step_by_step,
)
from .lattice import (
    CellSet,
    GridShape,
    Params,
    cell_count,
    iter_bits,
    slice_cells,
    unchecked_vertex,
)
from .search import (
    DEFAULT_BUDGET,
    min_one_phase_size,
    min_percolating_size,
    random_one_phase_set,
    random_percolating_set,
)
from .transforms import (
    normalize_max_shifts,
    remove_slice,
    repack_first_column,
    shift,
    stable_full_form,
    standardize_blocking_corner,
    union_slices,
)


@dataclass
class VerificationRow:
    claim: str
    instance: str
    expected: object
    observed: object
    status: str  # "pass" | "fail" | "skip"


@dataclass
class VerificationReport:
    suite: str
    rows: list[VerificationRow] = field(default_factory=list)

    def add(self, claim: str, instance: str, expected, observed, ok: Optional[bool]):
        status = "skip" if ok is None else ("pass" if ok else "fail")
        self.rows.append(VerificationRow(claim, instance, expected, observed, status))

    @property
    def counts(self) -> dict[str, int]:
        out = {"total": len(self.rows), "pass": 0, "fail": 0, "skip": 0}
        for row in self.rows:
            out[row.status] += 1
        return out

    @property
    def passed(self) -> bool:
        return self.counts["fail"] == 0 and self.counts["skip"] == 0

    @property
    def exit_code(self) -> int:
        c = self.counts
        if c["fail"]:
            return 1
        if c["skip"]:
            return 3
        return 0

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "rows": [
                {
                    "claim": r.claim,
                    "instance": r.instance,
                    "expected": r.expected,
                    "observed": r.observed,
                    "status": r.status,
                }
                for r in self.rows
            ],
            "counts": self.counts,
            "pass": self.passed,
        }

    def to_text(self) -> str:
        lines = [f"suite {self.suite}"]
        for r in self.rows:
            lines.append(
                f"  {r.status.upper():4s} {r.claim} [{r.instance}] "
                f"expected={r.expected} observed={r.observed}"
            )
        c = self.counts
        lines.append(
            f"  {c['pass']}/{c['total']} passed, {c['fail']} failed, {c['skip']} skipped"
        )
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Reusable batteries


def union_battery(
    shape: GridShape, params: Params, seeds: int, seed_base: int
) -> tuple[int, int]:
    """(violations, unions checked): every pair of slices along every axis
    of a random percolating set still percolates after being merged."""
    violations = 0
    checked = 0
    for k in range(seeds):
        a = random_percolating_set(shape, params, seed_base + k)
        for axis in range(1, shape.d + 1):
            n = shape.dims[axis - 1]
            if n < 2:
                continue
            for m1, m2 in combinations(range(1, n + 1), 2):
                merged = union_slices(a, axis, m1, m2)
                checked += 1
                if not percolates(merged, params):
                    violations += 1
    return violations, checked


def removal_battery(
    shape: GridShape, params: Params, seeds: int, seed_base: int
) -> tuple[int, int, int]:
    """(violations, removals checked, sets found): random percolating sets
    conditioned to contain a row of exactly t-1 cells; removing any such
    row must preserve percolation."""
    t = params.t
    violations = 0
    checked = 0
    found = 0
    seed = seed_base
    attempts = 0
    while found < seeds and attempts < 100 * seeds:
        a = random_percolating_set(shape, params, seed)
        seed += 1
        attempts += 1
        thin_rows = [
            m
            for m in range(1, shape.dims[0] + 1)
            if len(slice_cells(a, 1, m)) == t - 1
        ]
        if not thin_rows:
            continue
        found += 1
        for m in thin_rows:
            checked += 1
            if not percolates(remove_slice(a, 1, m), params):
                violations += 1
    return violations, checked, found


def closure_laws_battery(
    shape: GridShape,
    params: Params,
    seeds: int,
    step_seeds: int,
    seed_base: int,
) -> dict[str, int]:
    """Violation counts for extensivity, idempotence, monotonicity,
    order independence, and the phase-count bound on random subsets."""
    n = cell_count(shape)
    out = {
        "extensivity": 0,
        "idempotence": 0,
        "monotonicity": 0,
        "order_independence": 0,
        "phase_bound": 0,
    }
    for k in range(seeds):
        rng = random.Random(seed_base + k)
        a = CellSet(shape, rng.getrandbits(n))
        closed, trace = full_form(a, params)
        if not a.is_subset(closed):
            out["extensivity"] += 1
        if full_form(closed, params)[0] != closed:
            out["idempotence"] += 1
        b = CellSet(shape, a.bits | rng.getrandbits(n))
        if not closed.is_subset(full_form(b, params)[0]):
            out["monotonicity"] += 1
        if trace.f > n - len(a):
            out["phase_bound"] += 1
        for s in range(step_seeds):
            if step_by_step(a, params, seed=seed_base + 7919 * s + k).terminal != closed:
                out["order_independence"] += 1
    return out


def structure_battery(
    shape: GridShape, params: Params, seeds: int, seed_base: int
) -> tuple[int, int]:
    """(violations, sets): closures of random 2D sets must decompose into
    pairwise-disjoint full rectangles."""
    n = cell_count(shape)
    violations = 0
    for k in range(seeds):
        rng = random.Random(seed_base + k)
        a = CellSet(shape, rng.getrandbits(n))
        closed, _ = full_form(a, params)
        if rectangle_blocks(closed) is None:
            violations += 1
    return violations, seeds


def shift_invariance_battery(
    shape: GridShape, params: Params, seeds: int, seed_base: int
) -> tuple[int, int]:
    """(violations, shifts checked): the closure must not change under any
    applicable shift of a random subset."""
    n = cell_count(shape)
    violations = 0
    checked = 0
    table = _edge_table(shape, params)
    for k in range(seeds):
        rng = random.Random(seed_base + k)
        a = CellSet(shape, rng.getrandbits(n))
        closed, _ = full_form(a, params)
        inv = ~a.bits
        for j, m in enumerate(table.masks):
            miss = m & inv
            if not miss or miss & (miss - 1):
                continue
            e = table.edge(j)
            for w in iter_bits(m & ~miss):
                moved, _ = shift(a, e, unchecked_vertex(shape, w))
                checked += 1
                if full_form(moved, params)[0] != closed:
                    violations += 1
    return violations, checked


def normal_form_battery(
    shape: GridShape, seeds: int, seed_base: int
) -> tuple[int, int]:
    """(violations, sets): at t = r = 2, normalizing a random percolating
    2D set must yield a stable set containing all of row 1 and column 1,
    whose structural closure matches the engine closure."""
    params = Params(2, 2)
    n1, n2 = shape.dims
    violations = 0
    for k in range(seeds):
        a = random_percolating_set(shape, params, seed_base + k)
        stable, records = normalize_max_shifts(a, params)
        ok = len(stable) == len(a)
        ok = ok and all((1, j) in stable for j in range(1, n2 + 1))
        ok = ok and all((i, 1) in stable for i in range(1, n1 + 1))
        ok = ok and l_set(shape, params).is_subset(stable)
        ok = ok and stable_full_form(stable) == full_form(stable, params)[0]
        total = sum(sum(v) for v in a.cells())
        ok = ok and len(records) <= total
        if not ok:
            violations += 1
    return violations, seeds


def repack_battery(
    shape: GridShape, params: Params, want: int, seed_base: int
) -> tuple[int, int]:
    """(violations, qualifying instances): for one-phase sets whose first
    column cannot be dropped, relabel the blocked vertex to the (t, t)
    corner and check the three repack requirements: size preserved, at
    least t-1 cells kept in column 1, and one-phase after dropping it."""
    t = params.t
    violations = 0
    found = 0
    seed = seed_base
    attempts = 0
    while found < want and attempts < 100 * want:
        a = random_one_phase_set(shape, params, seed)
        seed += 1
        attempts += 1
        if one_phase(remove_slice(a, 2, 1), params):
            continue
        found += 1
        align = standardize_blocking_corner(a, params)
        if align is None:
            violations += 1
            continue
        b = align.aligned
        star = repack_first_column(b, params)
        ok = align.vertex == (t, t) and (t, t) not in b
        ok = ok and len(star) == len(b)
        ok = ok and len(slice_cells(star, 2, 1)) >= t - 1
        ok = ok and one_phase(remove_slice(star, 2, 1), params)
        if not ok:
            violations += 1
    return violations, found


# ---------------------------------------------------------------------------
# Suites


def suite_prop2_2(*, n_cap: int = 4, budget: int = DEFAULT_BUDGET, **_) -> VerificationReport:
    """Exact 2D minimum at t = r = 2 equals n1 + n2 - 1."""
    report = VerificationReport("prop2_2")
    params = Params(2, 2)
    for n1 in range(2, n_cap + 1):
        for n2 in range(2, n_cap + 1):
            res = min_percolating_size(GridShape((n1, n2)), params, budget=budget)
            expected = n1 + n2 - 1
            ok = None if not res.exact else res.minimum == expected
            report.add("2d-minimum", f"({n1},{n2}) t=2 r=2", expected, res.minimum, ok)
    return report


def suite_thm3_1(*, budget: int = DEFAULT_BUDGET, **_) -> VerificationReport:
    """Exact minimum at t = r = 2 equals the axis sum minus (d - 1)."""
    report = VerificationReport("thm3_1")
    params = Params(2, 2)
    for dims in ((2, 2, 2), (2, 2, 3)):
        res = min_percolating_size(GridShape(dims), params, budget=budget)
        expected = sum(dims) - (len(dims) - 1)
        ok = None if not res.exact else res.minimum == expected
        report.add("sum-minus-d-1", f"{dims} t=2 r=2", expected, res.minimum, ok)
    return report


def suite_thm2_7(
    *, budget: int = DEFAULT_BUDGET, seeds: int = 60, seed_base: int = 2026, **_
) -> VerificationReport:
    """One-phase minimum equals (n1+n2)(t-1) - (t-1)^2, and the repack
    construction satisfies its three requirements on random instances."""
    report = VerificationReport("thm2_7")
    t = 3
    for dims in ((3, 3), (3, 4)):
        res = min_one_phase_size(GridShape(dims), Params(t, 2), budget=budget)
        expected = (dims[0] + dims[1]) * (t - 1) - (t - 1) ** 2
        ok = None if not res.exact else res.minimum == expected
        report.add("one-phase-minimum", f"{dims} t={t} r=2", expected, res.minimum, ok)
    for dims, tt in (((4, 4), 2), ((4, 5), 3)):
        bad, found = repack_battery(GridShape(dims), Params(tt, 2), seeds, seed_base)
        report.add(
            "repack-requirements",
            f"{dims} t={tt} r=2 x{found}",
            0,
            bad,
            bad == 0 and found >= seeds,
        )
    return report


def suite_lemma_union(
    *, seeds: int = 200, seed_base: int = 2026, **_
) -> VerificationReport:
    """Merging any two slices of a percolating set keeps it percolating."""
    report = VerificationReport("lemma_union")
    for dims in ((4, 4), (3, 3, 3)):
        bad, checked = union_battery(GridShape(dims), Params(2, 2), seeds, seed_base)
        report.add(
            "union-preserves-percolation",
            f"{dims} t=2 r=2 x{seeds} ({checked} unions)",
            0,
            bad,
            bad == 0,
        )
    return report


def suite_prop_removal(
    *, seeds: int = 200, seed_base: int = 2026, **_
) -> VerificationReport:
    """Dropping a row of exactly t-1 cells keeps a percolating set percolating."""
    report = VerificationReport("prop_removal")
    for t in (2, 3):
        bad, checked, found = removal_battery(
            GridShape((5, 5)), Params(t, 2), seeds, seed_base
        )
        report.add(
            "thin-row-removal",
            f"(5,5) t={t} r=2 x{found} ({checked} removals)",
            0,
            bad,
            bad == 0 and found >= seeds,
        )
    return report


def suite_prop4_4(
    *, seeds: int = 200, seed_base: int = 2026, **_
) -> VerificationReport:
    """Shifts never change the closure; at t = r = 2 every normalized
    percolating set contains row 1 and column 1 entirely."""
    report = VerificationReport("prop4_4")
    for dims, t in (((4, 4), 2), ((4, 4), 3)):
        bad, checked = shift_invariance_battery(
            GridShape(dims), Params(t, 2), seeds // 2, seed_base
        )
        report.add(
            "shift-invariance",
            f"{dims} t={t} r=2 x{seeds // 2} ({checked} shifts)",
            0,
            bad,
            bad == 0,
        )
    bad, n = normal_form_battery(GridShape((5, 5)), seeds, seed_base)
    report.add("normal-form-rows", f"(5,5) t=2 r=2 x{n}", 0, bad, bad == 0)
    return report


def suite_closure_laws(
    *, seeds: int = 200, step_seeds: int = 20, seed_base: int = 2026, **_
) -> VerificationReport:
    """Closure-operator laws, step order independence, 2D block structure."""
    report = VerificationReport("closure_laws")
    configs = (
        ((4, 4), 2, 2),
        ((5, 5), 3, 2),
        ((3, 3, 3), 2, 2),
        ((2, 2, 2), 2, 3),
    )
    for dims, t, r in configs:
        out = closure_laws_battery(
            GridShape(dims), Params(t, r), seeds, step_seeds, seed_base
        )
        bad = sum(out.values())
        report.add(
            "closure-laws",
            f"{dims} t={t} r={r} x{seeds} ({step_seeds} step seeds)",
            0,
            bad if bad else 0,
            bad == 0,
        )
    bad, n = structure_battery(GridShape((5, 5)), Params(2, 2), seeds, seed_base)
    report.add("closure-block-structure", f"(5,5) t=2 r=2 x{n}", 0, bad, bad == 0)
    return report


def suite_formula_vs_oracle(
    *, budget: int = DEFAULT_BUDGET, **_
) -> VerificationReport:
    """Search minima agree with the closed form; the direct count of the L
    set agrees with the closed form on the whole small-parameter grid."""
    report = VerificationReport("formula_vs_oracle")
    matrix = []
    for n1 in range(1, 5):
        for n2 in range(1, 5):
            matrix.append(((n1, n2), 2, 2))
    matrix += [((2, 2, 2), 2, 2), ((2, 2, 3), 2, 2), ((2, 2, 2), 2, 1), ((2, 2, 2), 2, 3)]
    for dims, t, r in matrix:
        res = min_percolating_size(GridShape(dims), Params(t, r), budget=budget)
        expected = m_formula(GridShape(dims), Params(t, r)).total
        ok = None if not res.exact else res.minimum == expected
        report.add("oracle-vs-formula", f"{dims} t={t} r={r}", expected, res.minimum, ok)
    for dims in ((3, 3), (3, 4)):
        res = min_one_phase_size(GridShape(dims), Params(3, 2), budget=budget)
        expected = (dims[0] + dims[1]) * 2 - 4
        ok = None if not res.exact else res.minimum == expected
        report.add(
            "one-phase-oracle-vs-bound", f"{dims} t=3 r=2", expected, res.minimum, ok
        )
    bad = 0
    total = 0
    for d in range(1, 5):
        for t in range(2, 5):
            for dims in product(range(t, 7), repeat=d):
                for r in range(1, d + 1):
                    total += 1
                    shape, params = GridShape(dims), Params(t, r)
                    if l_set_cardinality(shape, params) != m_formula(shape, params).total:
                        bad += 1
    report.add("l-set-count-vs-formula", f"d<=4 t<=4 n<=6 ({total} tuples)", 0, bad, bad == 0)
    return report


SUITES: dict[str, Callable[..., VerificationReport]] = {
    "prop2_2": suite_prop2_2,
    "thm3_1": suite_thm3_1,
    "thm2_7": suite_thm2_7,
    "lemma_union": suite_lemma_union,
    "prop_removal": suite_prop_removal,
    "prop4_4": suite_prop4_4,
    "closure_laws": suite_closure_laws,
    "formula_vs_oracle": suite_formula_vs_oracle,
}


def run_suite(name: str, **kwargs) -> VerificationReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](**kwargs)
