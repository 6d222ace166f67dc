"""Write the gallery of SVG figures into demos/out/.

One figure per construction: the minimal seed set, an infecting edge, a
slice union before/after, the first-column repack before/after, and a
maximal shift before/after. The gallery is tracked; tests rebuild it with
`figures()` and require every file to match byte for byte.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from boxperc import CellSet, Edge, GridShape, Params, l_set, shift, union_slices
from boxperc.render import ascii_grid, svg_grid
from boxperc.transforms import repack_first_column

OUT = Path(__file__).resolve().parent / "out"


# The minimal percolating seed of a 5 x 6 grid: first row plus first column.
SEED = l_set(GridShape((5, 6)), Params(2, 2))

# An infecting edge: three infected rectangle corners and the vertex they
# infect, highlighted.
INFECTING = CellSet.from_cells(GridShape((3, 6)), [(1, 2), (1, 5), (2, 1), (2, 2), (3, 2)])
INFECTING_EDGE = Edge(((1, 2), (2, 5)))

# A union of two rows: the merged grid is one row shorter.
UNION = CellSet.from_cells(GridShape((4, 5)), [(1, 1), (1, 3), (2, 3), (2, 5), (3, 2), (4, 4)])

# The first-column repack at t = 2: each row holding column 1 but not
# column 2 moves its first cell right.
REPACK = CellSet.from_cells(
    GridShape((4, 5)),
    [(1, 1), (1, 4), (2, 1), (2, 2), (3, 1), (4, 1), (4, 3), (4, 5)],
)

# A maximal shift at t = 3: the missing corner of a 3 x 3 block comes in,
# the maximal corner goes out.
SHIFTED = CellSet.full(GridShape((4, 4))).without_cells(
    [(1, 1), (1, 4), (4, 1), (2, 4), (4, 2)]
)
SHIFT_EDGE = Edge(((1, 2, 3), (1, 2, 3)))
MOVED, SHIFT_RECORD = shift(SHIFTED, SHIFT_EDGE, SHIFT_EDGE.max_corner())


def figures() -> dict[str, str]:
    """File name -> SVG text for every figure of the gallery."""
    return {
        "seed_set_5x6.svg": svg_grid(SEED),
        "infecting_edge_3x6.svg": svg_grid(INFECTING, edge=INFECTING_EDGE),
        "union_before_4x5.svg": svg_grid(UNION),
        "union_after_3x5.svg": svg_grid(union_slices(UNION, 1, 3, 4)),
        "repack_before_4x5.svg": svg_grid(REPACK),
        "repack_after_4x5.svg": svg_grid(repack_first_column(REPACK, Params(2, 2))),
        "maximal_shift_before_4x4.svg": svg_grid(SHIFTED, edge=SHIFT_EDGE),
        "maximal_shift_after_4x4.svg": svg_grid(MOVED, edge=SHIFT_EDGE),
    }


def main() -> None:
    OUT.mkdir(exist_ok=True)
    for name, svg in figures().items():
        path = OUT / name
        path.write_text(svg)
        print("wrote", path)
    print(ascii_grid(SEED))
    print(ascii_grid(INFECTING, edge=INFECTING_EDGE))
    print(f"shift brought {SHIFT_RECORD.infected} in and {SHIFT_RECORD.removed} out "
          f"(maximal={SHIFT_RECORD.maximal})")


if __name__ == "__main__":
    main()
