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
from dataclasses import asdict, dataclass, field
from itertools import combinations, product
from typing import Callable, Iterable, Iterator, Optional

from .constructions import l_set, l_set_cardinality, m_formula
from .engine import (
    _edge_table,
    full_form,
    one_phase,
    percolates,
    phase_step,
    step_by_step,
)
from .lattice import (
    CellSet,
    GridShape,
    Params,
    cell_count,
    slice_cells,
)
from .search import (
    SearchReport,
    min_one_phase_size,
    min_percolating_size,
    random_one_phase_set,
    random_percolating_set,
)
from .transforms import (
    normalize_max_shifts,
    rectangle_blocks,
    remove_slice,
    repack_first_column,
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

    def add_tally(self, claim: str, instance: str, violations: int, enough: bool = True) -> None:
        """Row for a battery, which expects no violations; it fails too
        when `enough` is False (a conditioned draw found too few sets)."""
        self.add(claim, instance, 0, violations, violations == 0 and enough)

    def add_search(self, claim: str, instance: str, expected: int, res: SearchReport) -> None:
        """Row for a minimum search against its expected value; skipped when
        the search ran out of budget before it was exact."""
        self.add(claim, instance, expected, res.minimum,
                 res.minimum == expected if res.exact else None)

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
        return 1 if c["fail"] else 3 if c["skip"] else 0

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "rows": [asdict(r) for r in self.rows],
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
# Reusable batteries: a seeded draw of instances and a tally of the checks
# run on them.


def _tally(outcomes: Iterable[bool]) -> tuple[int, int]:
    """(violations, checks) over a stream of check outcomes (True = held)."""
    violations = checks = 0
    for ok in outcomes:
        checks += 1
        violations += not ok
    return violations, checks


def _random_subsets(
    shape: GridShape, seeds: int, seed_base: int
) -> Iterator[tuple[random.Random, CellSet]]:
    """A uniform random subset of the grid per seed, with the generator
    that drew it (a battery may draw more from it)."""
    n = cell_count(shape)
    for k in range(seeds):
        rng = random.Random(seed_base + k)
        yield rng, CellSet(shape, rng.getrandbits(n))


def _conditioned_draws(
    sample: Callable[[int], CellSet],
    keep: Callable[[CellSet], object],
    want: int,
    seed_base: int,
) -> Iterator[tuple[CellSet, object]]:
    """(set, keep(set)) for the first `want` sets `sample(seed)` over
    consecutive seeds whose `keep` is truthy, trying at most 100 * want
    seeds; fewer come out when the condition is rare."""
    found = 0
    for seed in range(seed_base, seed_base + 100 * want):
        if found == want:
            return
        a = sample(seed)
        kept = keep(a)
        if kept:
            found += 1
            yield a, kept


def union_battery(
    shape: GridShape, params: Params, seeds: int, seed_base: int
) -> tuple[int, int]:
    """(violations, unions checked): every pair of slices along every axis
    of a random percolating set still percolates after being merged."""
    return _tally(
        percolates(union_slices(a, axis, m1, m2), params)
        for k in range(seeds)
        for a in [random_percolating_set(shape, params, seed_base + k)]
        for axis, n in enumerate(shape.dims, 1)
        for m1, m2 in combinations(range(1, n + 1), 2)
    )


def removal_battery(
    shape: GridShape, params: Params, seeds: int, seed_base: int
) -> tuple[int, int, int]:
    """(violations, removals checked, sets found): random percolating sets
    conditioned to contain a row of exactly t-1 cells; removing any such
    row must preserve percolation."""
    rows = range(1, shape.dims[0] + 1)
    drawn = list(_conditioned_draws(
        lambda seed: random_percolating_set(shape, params, seed),
        lambda a: [m for m in rows if len(slice_cells(a, 1, m)) == params.t - 1],
        seeds,
        seed_base,
    ))
    bad, checked = _tally(
        percolates(remove_slice(a, 1, m), params) for a, thin in drawn for m in thin
    )
    return bad, checked, len(drawn)


def closure_laws_battery(
    shape: GridShape, params: Params, seeds: int, step_seeds: int, seed_base: int
) -> dict[str, int]:
    """Violation counts for extensivity, idempotence, monotonicity,
    order independence, and the phase-count bound on random subsets."""
    n = cell_count(shape)
    out = dict.fromkeys(
        ("extensivity", "idempotence", "monotonicity", "order_independence", "phase_bound"), 0
    )
    for k, (rng, a) in enumerate(_random_subsets(shape, seeds, seed_base)):
        closed, trace = full_form(a, params)
        b = CellSet(shape, a.bits | rng.getrandbits(n))
        out["extensivity"] += not a.is_subset(closed)
        out["idempotence"] += full_form(closed, params)[0] != closed
        out["monotonicity"] += not closed.is_subset(full_form(b, params)[0])
        out["phase_bound"] += trace.f > n - len(a)
        out["order_independence"] += sum(
            step_by_step(a, params, seed=seed_base + 7919 * s + k).terminal != closed
            for s in range(step_seeds)
        )
    return out


def structure_battery(
    shape: GridShape, params: Params, seeds: int, seed_base: int
) -> tuple[int, int]:
    """(violations, sets): closures of random 2D sets must decompose into
    pairwise-disjoint full rectangles."""
    return _tally(
        rectangle_blocks(full_form(a, params)[0]) is not None
        for _, a in _random_subsets(shape, seeds, seed_base)
    )


def shift_invariance_battery(
    shape: GridShape, params: Params, seeds: int, seed_base: int
) -> tuple[int, int]:
    """(violations, shifts checked): the closure must not change under any
    shift move of a random subset (`EdgeTable.moves`): along each edge
    missing exactly one cell, any of its present cells may move there."""
    table = _edge_table(shape, params)
    return _tally(
        full_form(CellSet(shape, (a.bits | vbit) & ~wbit), params)[0] == closed
        for _, a in _random_subsets(shape, seeds, seed_base)
        for closed in [full_form(a, params)[0]]
        for _, vbit, wbit in table.moves(a.bits)
    )


def normal_form_battery(
    shape: GridShape, seeds: int, seed_base: int
) -> tuple[int, int]:
    """(violations, sets): at t = r = 2, normalizing a random percolating
    2D set must yield a stable set containing all of row 1 and column 1,
    whose structural closure matches the engine closure."""
    params = Params(2, 2)
    # At t = r = 2 the L set is exactly row 1 and column 1.
    lset = l_set(shape, params)

    def holds(a: CellSet) -> bool:
        stable, records = normalize_max_shifts(a, params)
        return (
            len(stable) == len(a)
            and lset.is_subset(stable)
            and stable_full_form(stable) == full_form(stable, params)[0]
            and len(records) <= sum(sum(v) for v in a.cells())
        )

    return _tally(
        holds(random_percolating_set(shape, params, seed_base + k)) for k in range(seeds)
    )


def repack_battery(
    shape: GridShape, params: Params, want: int, seed_base: int
) -> tuple[int, int]:
    """(violations, qualifying instances): for one-phase sets whose first
    column cannot be dropped, relabel the blocked vertex to the (t, t)
    corner, check that it is blocked there ([t] x [t] misses exactly
    (t, t), and every infecting edge of (t, t) meets column 1), and check
    the three repack requirements: size preserved, at least t-1 cells kept
    in column 1, and one-phase after dropping it."""
    t = params.t

    def holds(a: CellSet) -> bool:
        align = standardize_blocking_corner(a, params)
        if align is None:
            return False
        b = align.aligned
        box = CellSet.from_cells(b.shape, product(range(1, t + 1), repeat=2))
        star = repack_first_column(b, params)
        return (
            (box - b).cells() == [(t, t)]
            and (t, t - 1) not in phase_step(remove_slice(b, 2, 1), params)
            and len(star) == len(b)
            and len(slice_cells(star, 2, 1)) >= t - 1
            and one_phase(remove_slice(star, 2, 1), params)
        )

    return _tally(holds(a) for a, _ in _conditioned_draws(
        lambda seed: random_one_phase_set(shape, params, seed),
        lambda a: not one_phase(remove_slice(a, 2, 1), params),
        want,
        seed_base,
    ))


# ---------------------------------------------------------------------------
# Suites. Each takes every option of SUITE_DEFAULTS by keyword and ignores
# the ones it does not use.

# The one set of suite defaults, read by run_suite and by the CLI.
SUITE_DEFAULTS = {"seeds": 200, "step_seeds": 20, "seed_base": 2026, "budget": 10**7, "n_cap": 4}


def suite_prop2_2(*, n_cap: int, budget: int, **_) -> VerificationReport:
    """Exact 2D minimum at t = r = 2 equals n1 + n2 - 1."""
    report = VerificationReport("prop2_2")
    params = Params(2, 2)
    for n1, n2 in product(range(2, n_cap + 1), repeat=2):
        res = min_percolating_size(GridShape((n1, n2)), params, budget=budget)
        report.add_search("2d-minimum", f"({n1},{n2}) t=2 r=2", n1 + n2 - 1, res)
    return report


def suite_thm3_1(*, budget: int, **_) -> VerificationReport:
    """Exact minimum at t = r = 2 equals the axis sum minus (d - 1)."""
    report = VerificationReport("thm3_1")
    params = Params(2, 2)
    for dims in ((2, 2, 2), (2, 2, 3)):
        res = min_percolating_size(GridShape(dims), params, budget=budget)
        report.add_search("sum-minus-d-1", f"{dims} t=2 r=2", sum(dims) - (len(dims) - 1), res)
    return report


def suite_thm2_7(*, budget: int, seeds: int, seed_base: int, **_) -> VerificationReport:
    """One-phase minimum equals (n1+n2)(t-1) - (t-1)^2, and the repack
    construction satisfies its three requirements on random instances."""
    report = VerificationReport("thm2_7")
    t = 3
    for dims in ((3, 3), (3, 4)):
        res = min_one_phase_size(GridShape(dims), Params(t, 2), budget=budget)
        expected = (dims[0] + dims[1]) * (t - 1) - (t - 1) ** 2
        report.add_search("one-phase-minimum", f"{dims} t={t} r=2", expected, res)
    for dims, tt in (((4, 4), 2), ((4, 5), 3)):
        bad, found = repack_battery(GridShape(dims), Params(tt, 2), seeds, seed_base)
        report.add_tally(
            "repack-requirements", f"{dims} t={tt} r=2 x{found}", bad, found >= seeds
        )
    return report


def suite_lemma_union(*, seeds: int, seed_base: int, **_) -> VerificationReport:
    """Merging any two slices of a percolating set keeps it percolating."""
    report = VerificationReport("lemma_union")
    for dims in ((4, 4), (3, 3, 3)):
        bad, checked = union_battery(GridShape(dims), Params(2, 2), seeds, seed_base)
        report.add_tally(
            "union-preserves-percolation",
            f"{dims} t=2 r=2 x{seeds} ({checked} unions)",
            bad,
        )
    return report


def suite_prop_removal(*, seeds: int, seed_base: int, **_) -> VerificationReport:
    """Dropping a row of exactly t-1 cells keeps a percolating set percolating."""
    report = VerificationReport("prop_removal")
    for t in (2, 3):
        bad, checked, found = removal_battery(
            GridShape((5, 5)), Params(t, 2), seeds, seed_base
        )
        report.add_tally(
            "thin-row-removal",
            f"(5,5) t={t} r=2 x{found} ({checked} removals)",
            bad,
            found >= seeds,
        )
    return report


def suite_prop4_4(*, seeds: int, seed_base: int, **_) -> VerificationReport:
    """Shifts never change the closure; at t = r = 2 every normalized
    percolating set contains row 1 and column 1 entirely."""
    report = VerificationReport("prop4_4")
    # Half the seeds per battery, but never none.
    half = max(1, seeds // 2)
    for dims, t in (((4, 4), 2), ((4, 4), 3)):
        bad, checked = shift_invariance_battery(
            GridShape(dims), Params(t, 2), half, seed_base
        )
        report.add_tally(
            "shift-invariance", f"{dims} t={t} r=2 x{half} ({checked} shifts)", bad
        )
    bad, n = normal_form_battery(GridShape((5, 5)), seeds, seed_base)
    report.add_tally("normal-form-rows", f"(5,5) t=2 r=2 x{n}", bad)
    return report


def suite_closure_laws(*, seeds: int, step_seeds: int, seed_base: int, **_) -> VerificationReport:
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
        report.add_tally(
            "closure-laws",
            f"{dims} t={t} r={r} x{seeds} ({step_seeds} step seeds)",
            sum(out.values()),
        )
    bad, n = structure_battery(GridShape((5, 5)), Params(2, 2), seeds, seed_base)
    report.add_tally("closure-block-structure", f"(5,5) t=2 r=2 x{n}", bad)
    return report


def suite_formula_vs_oracle(*, budget: int, **_) -> VerificationReport:
    """Search minima agree with the closed form; the direct count of the L
    set agrees with the closed form on the whole small-parameter grid."""
    report = VerificationReport("formula_vs_oracle")
    matrix = [((n1, n2), 2, 2) for n1, n2 in product(range(1, 5), repeat=2)]
    matrix += [((2, 2, 2), 2, 2), ((2, 2, 3), 2, 2), ((2, 2, 2), 2, 1), ((2, 2, 2), 2, 3)]
    for dims, t, r in matrix:
        res = min_percolating_size(GridShape(dims), Params(t, r), budget=budget)
        expected = m_formula(GridShape(dims), Params(t, r)).total
        report.add_search("oracle-vs-formula", f"{dims} t={t} r={r}", expected, res)
    for dims in ((3, 3), (3, 4)):
        res = min_one_phase_size(GridShape(dims), Params(3, 2), budget=budget)
        expected = (dims[0] + dims[1]) * 2 - 4
        report.add_search("one-phase-oracle-vs-bound", f"{dims} t=3 r=2", expected, res)
    bad, total = _tally(
        l_set_cardinality(shape, params) == m_formula(shape, params).total
        for d in range(1, 5)
        for t in range(2, 5)
        for dims in product(range(t, 7), repeat=d)
        for r in range(1, d + 1)
        for shape, params in [(GridShape(dims), Params(t, r))]
    )
    report.add_tally("l-set-count-vs-formula", f"d<=4 t<=4 n<=6 ({total} tuples)", bad)
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
    """Run suite `name`; each option of SUITE_DEFAULTS not given takes its default."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    opts = {**SUITE_DEFAULTS, **kwargs}
    # A count below its floor would check nothing and still report PASS.
    for key, least in (("seeds", 1), ("step_seeds", 1), ("n_cap", 2)):
        if opts[key] < least:
            raise ValueError(f"{key} must be at least {least}, got {opts[key]}")
    return SUITES[name](**opts)
