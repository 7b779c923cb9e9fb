"""Deterministic SVG rendering of diagram windows with overlays.

All geometry stays exact until attribute emission, where coordinates are
written with 6 significant digits.  Identical inputs produce byte-identical
SVG text: elements follow the diagram's vertex, edge and triangle order,
which is increasing in the exact values.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import Diagram, Funnel
from .lines import ExtendedLine
from .rationals import ExtendedRational, PlanePoint

_XMLNS = "http://www.w3.org/2000/svg"


@dataclass(frozen=True)
class LineOverlay:
    line: ExtendedLine
    color: str = "#1158d6"
    width: float = 1.4


@dataclass(frozen=True)
class PointOverlay:
    points: tuple[PlanePoint, ...]
    color: str = "#e0218a"
    radius: float = 3.0


@dataclass(frozen=True)
class FunnelOverlay:
    funnel: Funnel
    fill: str = "#ffd9ec"
    stroke: str = "#c2185b"


Overlay = LineOverlay | PointOverlay | FunnelOverlay


def _fmt(value: float) -> str:
    return f"{value:.6g}"


class _Frame:
    """Affine map from the window's exact coordinates to pixel floats."""

    def __init__(self, lo: ExtendedRational, hi: ExtendedRational, width: int, margin: int):
        self.lo = lo
        self.hi = hi
        self.margin = margin
        self.x0 = float(lo)
        self.scale = (width - 2 * margin) / (float(hi) - self.x0)
        self.height = 2 * margin + self.scale  # data y spans [0, 1]
        self._y_by_den: dict[int, str] = {}

    def px(self, x: ExtendedRational) -> float:
        return self.margin + (float(x) - self.x0) * self.scale

    def py(self, y: ExtendedRational) -> float:
        return self.margin + (1.0 - float(y)) * self.scale

    def vertex(self, v: ExtendedRational) -> tuple[str, str]:
        """Formatted pixel coordinates of the diagram vertex (p/q, 1/q),
        computed from p and q with the same float operations as px and py.
        The y text depends on q alone and is formatted once per q."""
        y = self._y_by_den.get(v.den)
        if y is None:
            y = self._y_by_den[v.den] = _fmt(self.margin + (1.0 - 1 / v.den) * self.scale)
        return _fmt(self.margin + (v.num / v.den - self.x0) * self.scale), y

    def clip_line(self, line: ExtendedLine) -> tuple[PlanePoint, PlanePoint] | None:
        """Exact intersection of the line with the box [lo, hi] x [0, 1]."""
        zero = ExtendedRational(0)
        one = ExtendedRational(1)
        gamma = line.anchor.x
        slope = line.slope

        def y_at(x: ExtendedRational) -> ExtendedRational:
            return (x - gamma) * slope

        def x_at(y: ExtendedRational) -> ExtendedRational:
            return gamma + y / slope

        pts: list[PlanePoint] = []
        for x in (self.lo, self.hi):
            y = y_at(x)
            if zero <= y <= one:
                pts.append(PlanePoint(x, y))
        for y in (zero, one):
            x = x_at(y)
            if self.lo <= x <= self.hi:
                pts.append(PlanePoint(x, y))
        uniq = sorted(set(pts), key=lambda p: (p.x, p.y))
        if len(uniq) < 2:
            return None
        return uniq[0], uniq[-1]


def render_svg(
    diagram: Diagram,
    overlays: tuple[Overlay, ...] | list[Overlay] = (),
    *,
    width: int = 720,
    margin: int = 24,
) -> str:
    frame = _Frame(diagram.lo, diagram.hi, width, margin)
    height = frame.height
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="{_XMLNS}" version="1.1" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f'<rect width="{_fmt(width)}" height="{_fmt(height)}" fill="#ffffff"/>',
    ]

    out.append('<g class="edges" stroke="#999999" stroke-width="0.7" stroke-linecap="round">')
    # Edges come grouped by their left end, so format that end once per group.
    left = None
    for a, b in diagram.edges:
        if a is not left:
            left = a
            ax, ay = frame.vertex(a)
        bx, by = frame.vertex(b)
        out.append(f'<line x1="{ax}" y1="{ay}" x2="{bx}" y2="{by}"/>')
    out.append("</g>")

    out.append('<g class="vertices" fill="#1a1a1a">')
    for v in diagram.vertices:
        x, y = frame.vertex(v)
        out.append(f'<circle cx="{x}" cy="{y}" r="{_fmt(max(1.2, 8.0 / v.den))}"/>')
    out.append("</g>")

    for ov in overlays:
        if isinstance(ov, FunnelOverlay):
            out.append(
                f'<g class="funnel" fill="{ov.fill}" fill-opacity="0.55" '
                f'stroke="{ov.stroke}" stroke-width="0.9">'
            )
            for tri in ov.funnel.triangles:
                pts = " ".join(f"{x},{y}" for x, y in map(frame.vertex, tri))
                out.append(f'<polygon points="{pts}"/>')
            ray_x = _fmt(frame.px(ov.funnel.alpha))
            out.append(
                f'<line x1="{ray_x}" y1="{_fmt(frame.py(ExtendedRational(1)))}" '
                f'x2="{ray_x}" y2="{_fmt(frame.py(ExtendedRational(0)))}" '
                f'stroke-dasharray="4 3" stroke-width="0.8"/>'
            )
            out.append("</g>")
        elif isinstance(ov, LineOverlay):
            seg = frame.clip_line(ov.line)
            out.append(
                f'<g class="family-line" stroke="{ov.color}" '
                f'stroke-width="{_fmt(ov.width)}" fill="none">'
            )
            if seg is not None:
                p1, p2 = seg
                out.append(
                    f'<line x1="{_fmt(frame.px(p1.x))}" y1="{_fmt(frame.py(p1.y))}" '
                    f'x2="{_fmt(frame.px(p2.x))}" y2="{_fmt(frame.py(p2.y))}"/>'
                )
            out.append("</g>")
        elif isinstance(ov, PointOverlay):
            out.append(f'<g class="family-points" fill="{ov.color}">')
            for p in ov.points:
                if p.at_infinity:
                    continue
                out.append(
                    f'<circle cx="{_fmt(frame.px(p.x))}" cy="{_fmt(frame.py(p.y))}" '
                    f'r="{_fmt(ov.radius)}"/>'
                )
            out.append("</g>")
        else:
            raise TypeError(f"unknown overlay {ov!r}")

    out.append("</svg>")
    return "\n".join(out) + "\n"
