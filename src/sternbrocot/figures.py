"""Deterministic SVG rendering of diagram windows with overlays.

All geometry stays exact until attribute emission, where coordinates are
written with 6 significant digits.  Identical inputs produce byte-identical
SVG text: elements follow the diagram's vertex, edge and triangle order,
which is increasing in the exact values.  One helper places every vertex
mark, whether a diagram vertex, a funnel triangle's corner or a point
overlay's circle: a vertex p/q is drawn at (p/q, 1/q), its x formatted
from p/q and its y and circle radius once per denominator q.  Each
diagram vertex is formatted once and edges reuse those texts; funnel
corners and a point overlay's values p/q are formatted as they are met.

The styling is fixed: the window [lo, hi] x [0, 1] is drawn 720 px wide
with a 24 px margin, and every stroke, fill and radius is a constant.  The
one choice left to callers is the colour of a point overlay.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import DomainError
from .rationals import ExtendedRational

if TYPE_CHECKING:
    from .diagram import Diagram, Funnel
    from .lines import ExtendedLine

_WIDTH = 720
_MARGIN = 24


class LineOverlay(NamedTuple):
    line: ExtendedLine


class PointOverlay(NamedTuple):
    """The diagram vertices (p/q, 1/q) of the values p/q in the window,
    marked in one colour; other values, and 1/0, are skipped."""

    values: tuple[ExtendedRational, ...]
    color: str = "#e0218a"


class FunnelOverlay(NamedTuple):
    funnel: Funnel


Overlay = LineOverlay | PointOverlay | FunnelOverlay


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _clip(line: ExtendedLine, lo: ExtendedRational, hi: ExtendedRational):
    """Exact end points (x, y), the smaller x first, of the line inside the
    box [lo, hi] x [0, 1], or None when the line meets the box in at most
    one point.

    The line is y = (e/f)(x - g/h), slope e/f through the anchor (g/h, 0);
    the slope is nonzero, and 1/0 when the line is x = g/h.  A sloped line
    has 0 <= y <= 1 exactly for x between g/h and g/h + f/e, where y = 1;
    that interval cut to [lo, hi] is the segment, and each end's y is one
    integer fraction."""
    g, h = line.anchor.x.num, line.anchor.x.den
    slope = line.slope
    e, f = slope.num, slope.den
    if f == 0:
        x = line.anchor.x
        return ((x, 0), (x, 1)) if lo <= x <= hi else None
    left, right = sorted((line.anchor.x, ExtendedRational(g * e + f * h, h * e)))
    left, right = max(left, lo), min(right, hi)
    if left >= right:
        return None
    return tuple((x, ExtendedRational(e * (x.num * h - g * x.den), f * x.den * h))
                 for x in (left, right))


def render_svg(diagram: Diagram, overlays: tuple[Overlay, ...] | list[Overlay] = ()) -> str:
    # Every mark is placed by floats: refuse a window whose ends overflow
    # them or whose width they cannot tell from zero.
    try:
        x0 = float(diagram.lo)
        scale = (_WIDTH - 2 * _MARGIN) / (float(diagram.hi) - x0)
    except (OverflowError, ZeroDivisionError):
        scale = math.inf
    if not math.isfinite(scale):
        raise DomainError(f"SVG window {diagram.lo}..{diagram.hi} is beyond what floats can draw")
    height = _fmt(2 * _MARGIN + scale)  # data y spans [0, 1]

    def px(x) -> str:
        return _fmt(_MARGIN + (float(x) - x0) * scale)

    def py(y) -> str:
        return _fmt(_MARGIN + (1.0 - float(y)) * scale)

    # The y and r texts of the vertices of denominator q.
    by_den: dict[int, tuple[str, str]] = {}

    def vertex(v: ExtendedRational) -> tuple[str, str]:
        """px and py of (p/q, 1/q) by the same float operations."""
        q = v.den
        yr = by_den.get(q)
        if yr is None:
            yr = by_den[q] = (_fmt(_MARGIN + (1.0 - 1 / q) * scale), _fmt(max(1.2, 8.0 / q)))
        return _fmt(_MARGIN + (v.num / q - x0) * scale), yr[0]

    # One pass over the vertices formats each once.  Edges read their ends
    # back by identity; an end that is not one of the vertex objects,
    # though it may equal one, is formatted afresh.
    at: dict[int, tuple[str, str]] = {}
    circles = []
    for v in diagram.vertices:
        x, y = at[id(v)] = vertex(v)
        circles.append(f'<circle cx="{x}" cy="{y}" r="{by_den[v.den][1]}"/>')

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{_WIDTH}" '
        f'height="{height}" viewBox="0 0 {_WIDTH} {height}">',
        f'<rect width="{_WIDTH}" height="{height}" fill="#ffffff"/>',
        '<g class="edges" stroke="#999999" stroke-width="0.7" stroke-linecap="round">',
    ]
    # Edges come grouped by their left end, so look that end up once per group.
    get, append = at.get, out.append
    left = None
    for a, b in diagram.edges:
        if a is not left:
            left = a
            ax, ay = get(id(a)) or vertex(a)
        bx, by = get(id(b)) or vertex(b)
        append(f'<line x1="{ax}" y1="{ay}" x2="{bx}" y2="{by}"/>')
    out.append("</g>")

    out.append('<g class="vertices" fill="#1a1a1a">')
    out += circles
    out.append("</g>")

    for ov in overlays:
        if isinstance(ov, FunnelOverlay):
            out.append('<g class="funnel" fill="#ffd9ec" fill-opacity="0.55" '
                       'stroke="#c2185b" stroke-width="0.9">')
            for tri in ov.funnel.triangles:
                pts = " ".join(f"{x},{y}" for x, y in map(vertex, tri))
                out.append(f'<polygon points="{pts}"/>')
            ray_x = px(ov.funnel.alpha)
            out.append(f'<line x1="{ray_x}" y1="{py(1)}" x2="{ray_x}" y2="{py(0)}" '
                       f'stroke-dasharray="4 3" stroke-width="0.8"/>')
            out.append("</g>")
        elif isinstance(ov, LineOverlay):
            out.append('<g class="family-line" stroke="#1158d6" stroke-width="1.4" fill="none">')
            seg = _clip(ov.line, diagram.lo, diagram.hi)
            if seg is not None:
                (x1, y1), (x2, y2) = seg
                out.append(f'<line x1="{px(x1)}" y1="{py(y1)}" x2="{px(x2)}" y2="{py(y2)}"/>')
            out.append("</g>")
        elif isinstance(ov, PointOverlay):
            out.append(f'<g class="family-points" fill="{ov.color}">')
            # Only values lo <= p/q <= hi are drawn, compared on integers;
            # 1/0, stored as (1, 0), fails p*hd <= hn*q and has no vertex.
            # Family members pile up at the anchor: each distinct circle is
            # written once, in the order it is first met.
            ln, ld, hn, hd = diagram.lo.num, diagram.lo.den, diagram.hi.num, diagram.hi.den
            marks = (vertex(v) for v in ov.values
                     if ln * v.den <= v.num * ld and v.num * hd <= hn * v.den)
            out.extend(dict.fromkeys(f'<circle cx="{x}" cy="{y}" r="3"/>' for x, y in marks))
            out.append("</g>")
        else:
            raise TypeError(f"unknown overlay {ov!r}")

    # Free the vertex texts before the one join, the peak of the run.
    at.clear()
    out.append("</svg>\n")
    return "\n".join(out)
