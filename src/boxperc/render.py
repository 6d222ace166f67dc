"""Deterministic grid pictures, ASCII and SVG.

Legend (fixed): '#' infected, '.' uninfected, '*' newly infected this
phase, 'o' highlighted edge member. Two-dimensional grids render as one
panel; three-dimensional grids render one panel per slice along the first
axis; higher dimensions are rejected. Output bytes depend only on the
input and the format version.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from .lattice import CellSet, Edge, GridShape, cell_count, edge_mask

SVG_FORMAT_VERSION = 1
CELL_PX = 20
LABEL_PX = 22

INFECTED_FILL = "#4a4a4a"
NEW_FILL = "#b9b9b9"
EDGE_STROKE = "#c96a00"
GRID_STROKE = "#888888"


class RenderError(ValueError):
    """Raised for grids the renderers do not support."""


def _panels(shape: GridShape) -> list[Optional[int]]:
    """Slice values along axis 1 for 3D grids, or [None] for 1D/2D."""
    if shape.d > 3:
        raise RenderError(
            f"rendering supports at most 3 dimensions, got shape {shape.dims}"
        )
    if shape.d == 3:
        return list(range(1, shape.dims[0] + 1))
    return [None]


def _panel_dims(shape: GridShape) -> tuple[int, int]:
    if shape.d == 1:
        return 1, shape.dims[0]
    return shape.dims[-2], shape.dims[-1]


# Cell states: 1 infected, 2 newly infected, 4 member of the highlighted edge.
_ASCII = str.maketrans("01234567", ".#***o**")


def _cell_states(a: CellSet, new: Optional[CellSet], edge: Optional[Edge]) -> str:
    """One octal digit per cell, in row-major order, summing the state flags.

    Reading a mask's binary digits as octal moves bit k to octal digit k, so
    the three masks combine without a per-cell loop.
    """
    def spread(bits: int) -> int:
        return int(format(bits, "b"), 8)

    code = spread(a.bits)
    if new is not None:
        code |= spread(new.bits) << 1
    if edge is not None:
        code |= spread(edge_mask(edge, a.shape)) << 2
    return format(code, "o").zfill(cell_count(a.shape))[::-1]


def ascii_grid(
    a: CellSet,
    new: Optional[CellSet] = None,
    edge: Optional[Edge] = None,
) -> str:
    """One character per cell; rows top to bottom, columns left to right."""
    shape = a.shape
    panels = _panels(shape)
    rows_n, cols_n = _panel_dims(shape)
    chars = _cell_states(a, new, edge).translate(_ASCII)
    blocks = []
    for p, panel in enumerate(panels):
        lines = []
        if panel is not None:
            lines.append(f"[axis1={panel}]")
        base = p * rows_n * cols_n
        for i in range(rows_n):
            start = base + i * cols_n
            lines.append(chars[start:start + cols_n])
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def ascii_stages(
    stages: Sequence[CellSet],
    label: str = "phase",
    edges: Optional[Sequence[Optional[Edge]]] = None,
) -> str:
    """Stacked grids, one per stage, newly infected cells marked '*'.

    For step traces pass `edges` (one per stage after the first): each
    panel then highlights the hyperedge that witnessed its step.
    """
    return "\n".join(f"{label} {k}:\n" + ascii_grid(*entry)
                     for k, entry in enumerate(_stage_entries(stages, edges)))


def _stage_entries(
    stages: Sequence[CellSet], edges: Optional[Sequence[Optional[Edge]]]
) -> Iterator[tuple[CellSet, Optional[CellSet], Optional[Edge]]]:
    """(stage, its cells new since the stage before, its witness edge) for
    each stage; the first stage has neither new cells nor an edge."""
    prev: Optional[CellSet] = None
    for k, stage in enumerate(stages):
        yield (stage, stage - prev if prev is not None else None,
               edges[k - 1] if edges is not None and k > 0 else None)
        prev = stage


def _svg_panel(
    parts: list[str],
    states: str,
    shape: GridShape,
    panel: Optional[int],
    x0: int,
    y0: int,
) -> None:
    """Draw one panel; `states` holds its cells' `_cell_states` digits."""
    rows_n, cols_n = _panel_dims(shape)
    for k, digit in enumerate(states):
        state = int(digit)
        i, j = divmod(k, cols_n)
        x = x0 + j * CELL_PX
        y = y0 + i * CELL_PX
        fill = NEW_FILL if state & 2 else INFECTED_FILL if state & 1 else None
        if fill:
            parts.append(
                f'<rect x="{x}" y="{y}" width="{CELL_PX}" height="{CELL_PX}" fill="{fill}"/>'
            )
        if state & 4:
            parts.append(
                f'<rect x="{x + 2}" y="{y + 2}" width="{CELL_PX - 4}" '
                f'height="{CELL_PX - 4}" fill="none" stroke="{EDGE_STROKE}" stroke-width="2"/>'
            )
    # Grid lines.
    w = cols_n * CELL_PX
    h = rows_n * CELL_PX
    for i in range(rows_n + 1):
        y = y0 + i * CELL_PX
        parts.append(
            f'<line x1="{x0}" y1="{y}" x2="{x0 + w}" y2="{y}" stroke="{GRID_STROKE}" stroke-width="1"/>'
        )
    for j in range(cols_n + 1):
        x = x0 + j * CELL_PX
        parts.append(
            f'<line x1="{x}" y1="{y0}" x2="{x}" y2="{y0 + h}" stroke="{GRID_STROKE}" stroke-width="1"/>'
        )
    # 1-based axis labels.
    for j in range(1, cols_n + 1):
        x = x0 + (j - 1) * CELL_PX + CELL_PX // 2
        parts.append(
            f'<text x="{x}" y="{y0 - 6}" font-family="monospace" font-size="10" '
            f'text-anchor="middle">{j}</text>'
        )
    for i in range(1, rows_n + 1):
        y = y0 + (i - 1) * CELL_PX + CELL_PX // 2 + 3
        parts.append(
            f'<text x="{x0 - 6}" y="{y}" font-family="monospace" font-size="10" '
            f'text-anchor="end">{i}</text>'
        )
    if panel is not None:
        parts.append(
            f'<text x="{x0}" y="{y0 + h + 14}" font-family="monospace" font-size="10">axis1={panel}</text>'
        )


def svg_grid(
    a: CellSet,
    new: Optional[CellSet] = None,
    edge: Optional[Edge] = None,
) -> str:
    """A single stage as an SVG document (panels side by side for 3D)."""
    return _svg_document([(a, new, edge)])


def svg_stages(
    stages: Sequence[CellSet],
    edges: Optional[Sequence[Optional[Edge]]] = None,
) -> str:
    """All stages in one SVG document, stacked vertically."""
    return _svg_document(list(_stage_entries(stages, edges)))


def _svg_document(entries) -> str:
    shape = entries[0][0].shape
    panels = _panels(shape)
    rows_n, cols_n = _panel_dims(shape)
    panel_w = cols_n * CELL_PX + LABEL_PX + 8
    panel_h = rows_n * CELL_PX + LABEL_PX + (16 if shape.d == 3 else 2)
    width = panel_w * len(panels) + 8
    height = panel_h * len(entries) + 8
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f"<!-- boxperc svg format {SVG_FORMAT_VERSION} -->",
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    size = rows_n * cols_n
    for row, (a, new, edge) in enumerate(entries):
        states = _cell_states(a, new, edge)
        for col, panel in enumerate(panels):
            x0 = LABEL_PX + col * panel_w
            y0 = LABEL_PX + row * panel_h
            _svg_panel(parts, states[col * size:(col + 1) * size], shape, panel, x0, y0)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
