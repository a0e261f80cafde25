"""Plain-text SVG plots of cell permutations and composed transforms.

Two picture kinds: the graph of a piecewise-translation map on the unit
square, and horizontal state bands showing the row of a cell table
(cell -> state) for each index.  Coordinates live in grid-cell units
inside the viewBox, so every number in the output is a small integer
and the files are byte-stable.
"""

from __future__ import annotations

from typing import Mapping

from .coupling import MeasureSystem
from .synchronize import CellPermutation, Violation

BAND_WIDTH = 1000
BAND_HEIGHT = 200

PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
    "#edc949", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
)

# names may hold XML's special characters; str.translate with this table
# escapes them for text and for double-quoted attributes
_XML_ESCAPES = str.maketrans(
    {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"})


def _state_fill(order: tuple[str, ...]) -> dict[str, str]:
    return {s: PALETTE[i % len(PALETTE)] for i, s in enumerate(order)}


def svg_permutation(phi: CellPermutation, label: str = "") -> str:
    """Unit-square graph of the map: one diagonal stroke per cell."""
    L = phi.L
    side = BAND_WIDTH
    title = (label or "cell permutation").translate(_XML_ESCAPES)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{side}" '
        f'height="{side}" viewBox="0 0 {L} {L}">',
        f'<title>{title}</title>',
        f'<rect x="0" y="0" width="{L}" height="{L}" fill="white" '
        f'stroke="black" stroke-width="0.02"/>',
    ]
    for i in range(L):
        j = phi.perm[i]
        # SVG y grows downward; flip so the identity runs bottom-left up
        lines.append(
            f'<line x1="{i}" y1="{L - j}" x2="{i + 1}" y2="{L - j - 1}" '
            f'stroke="black" stroke-width="0.08"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _band(composed: tuple[str, ...], row: int, fill: Mapping[str, str],
          label: str) -> list[str]:
    L = len(composed)
    label = label.translate(_XML_ESCAPES)
    out = [f'<g data-index="{label}">']
    start = 0
    for i in range(1, L + 1):
        if i == L or composed[i] != composed[start]:
            s = composed[start]
            name = s.translate(_XML_ESCAPES)
            out.append(
                f'<rect x="{start}" y="{row}" width="{i - start}" height="1" '
                f'fill="{fill[s]}" stroke="black" stroke-width="0.02">'
                f'<title>{label}: {name}</title></rect>')
            mid2 = start + i  # twice the midpoint, kept integral
            out.append(
                f'<text x="{mid2 / 2 if mid2 % 2 else mid2 // 2}" '
                f'y="{row}.7" font-size="0.45" text-anchor="middle" '
                f'font-family="monospace">{name}</text>')
            start = i
    out.append("</g>")
    return out


def svg_bands(system: MeasureSystem, L: int,
              tables: Mapping[str, tuple[str, ...]],
              violations: tuple[Violation, ...] = (),
              ) -> str:
    """One horizontal band per row of the table, top to bottom in index
    order; violating cells, when given, are framed in red across all bands."""
    indices = system.index_poset.elements
    n = len(indices)
    fill = _state_fill(system.state_poset.elements)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{BAND_WIDTH}" '
        f'height="{BAND_HEIGHT * n}" viewBox="0 0 {L} {n}" '
        f'preserveAspectRatio="none">',
    ]
    for row, alpha in enumerate(indices):
        lines += _band(tables[alpha], row, fill, alpha)
    for cell in sorted({v.cell for v in violations}):
        lines.append(
            f'<rect x="{cell}" y="0" width="1" height="{n}" fill="none" '
            f'stroke="red" stroke-width="0.1"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
