import random
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from sternbrocot import (
    ContinuedFraction,
    Diagram,
    DomainError,
    ExtendedLine,
    ExtendedRational,
    Funnel,
    FunnelOverlay,
    INFINITY,
    LineOverlay,
    PlanePoint,
    PointOverlay,
    build_diagram,
    funnel,
    line_family,
    render_svg,
)
from sternbrocot import figures
from sternbrocot.figures import _clip
from oracles import clip_to_box, frac_of

R = ExtendedRational
SVG_NS = "{http://www.w3.org/2000/svg}"


def small_diagram():
    return build_diagram(R(0), R(1), 8)


def fig5_overlays():
    fam = line_family(ContinuedFraction((0, 3, 1, 4)), 2)
    partner = fam.shared_line_partner()
    plus, minus = fam.line_pair()
    return [
        LineOverlay(plus),
        LineOverlay(minus),
        PointOverlay(tuple(fam.value(m) for m in range(-6, 7))),
        PointOverlay(tuple(partner.value(m) for m in range(-6, 7)), color="#d4a017"),
    ]


def test_repeated_renders_are_byte_identical():
    d = small_diagram()
    overlays = fig5_overlays()
    assert render_svg(d, overlays) == render_svg(d, overlays)


def test_output_is_valid_svg_with_expected_element_counts():
    d = small_diagram()
    root = ET.fromstring(render_svg(d))
    assert root.tag == f"{SVG_NS}svg"
    circles = root.findall(f".//{SVG_NS}circle")
    lines = root.findall(f".//{SVG_NS}line")
    assert len(circles) == len(d.vertices)
    assert len(lines) == len(d.edges)


def test_empty_overlay_list_adds_no_overlay_groups():
    text = render_svg(small_diagram())
    assert "family-line" not in text
    assert "family-points" not in text
    assert "funnel" not in text


def test_overlay_groups_present_and_infinite_points_skipped():
    d = small_diagram()
    fam = line_family(ContinuedFraction((0, 2, 1, 2)), 2)  # m = -1 is infinite
    plus, minus = fam.line_pair()
    pts = PointOverlay(tuple(fam.value(m) for m in range(-2, 3)))
    text = render_svg(d, [LineOverlay(plus), LineOverlay(minus), pts])
    root = ET.fromstring(text)
    groups = {g.get("class") for g in root.findall(f"{SVG_NS}g")}
    assert {"edges", "vertices", "family-line", "family-points"} <= groups
    point_group = [
        g for g in root.findall(f"{SVG_NS}g") if g.get("class") == "family-points"
    ][0]
    assert len(point_group.findall(f"{SVG_NS}circle")) == 4  # 5 values, one infinite


@pytest.mark.parametrize("lo, hi, inside, outside", [
    (R(0), R(1), [R(0), R(1), R(1, 2), R(1, 1000)], [R(-1, 9), R(10, 9), R(-3), R(4)]),
    (R(-7, 3), R(-1, 2), [R(-7, 3), R(-1, 2), R(-1)], [R(-5, 2), R(-12, 5), R(-2, 5), R(0)]),
])
def test_point_overlay_draws_only_the_values_in_the_window(lo, hi, inside, outside):
    # The window's ends are kept; values beyond them and 1/0 are not drawn,
    # so every circle lands on the canvas.
    values = tuple(outside[:2] + inside + outside[2:] + [INFINITY])
    root = ET.fromstring(render_svg(build_diagram(lo, hi, 5), [PointOverlay(values)]))
    group = [g for g in root.findall(f"{SVG_NS}g") if g.get("class") == "family-points"][0]
    xs = [float(c.get("cx")) for c in group.findall(f"{SVG_NS}circle")]
    assert len(xs) == len(inside)
    assert all(24 - 1e-9 <= x <= 696 + 1e-9 for x in xs)


def test_point_overlay_values_are_read_once():
    d = small_diagram()
    values = [R(m, 2 * m + 1) for m in range(-20, 21)] + [INFINITY, R(1, 3)]
    once = PointOverlay(v for v in values)
    assert render_svg(d, [once]) == render_svg(d, [PointOverlay(tuple(values))])


def test_funnel_overlay_draws_strip_and_ray():
    d = small_diagram()
    f = funnel(R(2, 7))
    root = ET.fromstring(render_svg(d, [FunnelOverlay(f)]))
    fgroup = [g for g in root.findall(f"{SVG_NS}g") if g.get("class") == "funnel"][0]
    assert len(fgroup.findall(f"{SVG_NS}polygon")) == len(f.triangles)
    assert len(fgroup.findall(f"{SVG_NS}line")) == 1  # the dashed defining ray


def test_an_unknown_overlay_is_a_type_error():
    with pytest.raises(TypeError, match="unknown overlay 'circle'"):
        render_svg(small_diagram(), ["circle"])


def test_a_window_floats_cannot_tell_apart_is_a_domain_error():
    with pytest.raises(DomainError, match="SVG window"):
        render_svg(build_diagram(R(10**20), R(10**20 + 1), 2))


def test_coordinates_use_six_significant_digits():
    root = ET.fromstring(render_svg(small_diagram()))
    seen = 0
    for el in root.iter():
        for attr in ("x1", "y1", "x2", "y2", "cx", "cy", "r"):
            val = el.get(attr)
            if val is None:
                continue
            seen += 1
            assert val == f"{float(val):.6g}"
    assert seen > 50


class TestFormatOncePerVertex:
    """render_svg formats each diagram vertex once and each denominator's
    y and r once, and reads edge ends back by identity; funnel corners go
    through the same helper, so equal but distinct objects render alike."""

    @staticmethod
    def copied(v):
        return R(v.num, v.den)

    def test_equal_but_distinct_ends_render_the_same_bytes(self):
        d = build_diagram(R(-1), R(1), 12)
        f = funnel(R(-5, 7))
        own = {(v.num, v.den): v for v in d.vertices}
        shared_f = Funnel(f.alpha, f.expansion, tuple(
            tuple(own[v.num, v.den] for v in tri) for tri in f.triangles),
            f.left_edge, f.right_edge, f.indices)
        distinct_d = d._replace(
            edges=tuple(tuple(map(self.copied, e)) for e in d.edges),
            triangles=tuple(tuple(map(self.copied, t)) for t in d.triangles),
        )
        distinct_f = Funnel(f.alpha, f.expansion, tuple(
            tuple(map(self.copied, tri)) for tri in f.triangles),
            f.left_edge, f.right_edge, f.indices)
        assert all(a is not b for (a, _), (b, _) in zip(d.edges, distinct_d.edges))
        shared = render_svg(d, [FunnelOverlay(shared_f)])
        assert render_svg(distinct_d, [FunnelOverlay(distinct_f)]) == shared
        assert render_svg(d, [FunnelOverlay(f)]) == shared

    def test_ends_outside_the_vertices_are_formatted_too(self):
        d = build_diagram(R(0), R(1), 6)
        sparse = Diagram(d.lo, d.hi, d.max_den, d.vertices[::2], d.edges, d.triangles)
        lines = [ln for ln in render_svg(sparse).splitlines() if ln.startswith("<line ")]
        assert lines == [ln for ln in render_svg(d).splitlines() if ln.startswith("<line ")]

    @pytest.mark.parametrize("lo, hi, max_den", [(R(0), R(1), 60), (R(-3), R(-2), 40),
                                                 (R(-7, 3), R(-1, 2), 25)])
    def test_fmt_calls_are_one_per_vertex_and_two_per_denominator(self, monkeypatch, lo, hi, max_den):
        d = build_diagram(lo, hi, max_den)
        fmt = figures._fmt
        calls = []
        monkeypatch.setattr(figures, "_fmt", lambda value: calls.append(value) or fmt(value))
        text = render_svg(d)
        monkeypatch.undo()
        assert text == render_svg(d)
        dens = {v.den for v in d.vertices}
        assert len(calls) <= len(d.vertices) + 2 * len(dens) + 1


class TestClipAgainstOracle:
    """figures._clip and ExtendedLine.slope against oracles.clip_to_box over
    seeded random families and windows."""

    @staticmethod
    def random_family(rng):
        n = rng.randint(1, 6)
        terms = [rng.randint(-9, 9)] + [rng.randint(1, 9) for _ in range(n - 1)]
        terms.append(rng.randint(2, 9))
        return line_family(ContinuedFraction(tuple(terms)), rng.randint(1, n))

    @staticmethod
    def exact(seg):
        if seg is None:
            return None
        return tuple((frac_of(x), Fraction(y) if isinstance(y, int) else frac_of(y))
                     for x, y in seg)

    @staticmethod
    def windows(rng, gamma, slope):
        """Random windows with negative and non-integer ends, then one that
        misses the line, two it touches at one point and two it leaves
        through a corner, each checked to be that case by the oracle."""
        out = []
        while len(out) < 8:
            lo, hi = sorted(gamma + Fraction(rng.randint(-60, 60), rng.randint(1, 7))
                            for _ in range(2))
            if lo < hi:
                out.append((lo, hi))
        left, right = sorted((gamma, gamma + 1 / slope))
        half = Fraction(1, 2)
        missing = (right + half, right + 3)
        touching = [(right, right + half), (left - 3, left)]
        cornered = [(left - half, right), (left, right + half)]
        assert clip_to_box(gamma, slope, *missing) is None
        for lo, hi in touching:
            assert clip_to_box(gamma, slope, lo, hi) is None
        for lo, hi in cornered:
            seg = clip_to_box(gamma, slope, lo, hi)
            assert seg is not None
            assert any(x in (lo, hi) and y in (0, 1) for x, y in seg)
        return out + [missing] + touching + cornered

    def test_clip_and_slope_match_fractions(self):
        """The oracle cuts the same x-interval as _clip, so each segment is
        also checked without it: both ends on the line through the anchor
        (t/u, 0) and the point (p/q, e/h), by cross-multiplied integers; both
        in the box and on its boundary; the smaller x first."""
        rng = random.Random(2023)
        for _ in range(150):
            fam = self.random_family(rng)
            gamma = frac_of(fam.anchor_x)
            for line in fam.line_pair():
                slope = frac_of(line.slope)
                through = line.through
                assert slope == frac_of(through.y) / (frac_of(through.x) - gamma)
                t, u = line.anchor.x.num, line.anchor.x.den
                p, q = through.x.num, through.x.den
                e, h = through.y.num, through.y.den
                for lo, hi in self.windows(rng, gamma, slope):
                    ends = self.exact(_clip(line, R(lo.numerator, lo.denominator),
                                            R(hi.numerator, hi.denominator)))
                    assert ends == clip_to_box(gamma, slope, lo, hi)
                    if ends is None:
                        continue
                    for x, y in ends:
                        a, b, c, d = x.numerator, x.denominator, y.numerator, y.denominator
                        assert (p * u - t * q) * c * h * b == e * (a * u - t * b) * q * d
                        assert lo <= x <= hi and 0 <= y <= 1
                        assert x in (lo, hi) or y in (0, 1)
                    assert ends[0][0] < ends[1][0]

    @pytest.mark.parametrize("gamma, lo, hi", [
        (Fraction(0), Fraction(-1), Fraction(1)),          # inside
        (Fraction(-1, 2), Fraction(-1, 2), Fraction(3)),   # on the left side
        (Fraction(3, 4), Fraction(0), Fraction(3, 4)),     # on the right side
        (Fraction(2), Fraction(-1), Fraction(1)),          # outside
        (Fraction(-7, 3), Fraction(-2), Fraction(5)),      # outside, to the left
    ])
    def test_vertical_line(self, gamma, lo, hi):
        x = R(gamma.numerator, gamma.denominator)
        line = ExtendedLine(PlanePoint(x, R(0)), PlanePoint(x, R(1, 3)))
        assert line.slope == R(1, 0)
        got = _clip(line, R(lo.numerator, lo.denominator), R(hi.numerator, hi.denominator))
        assert self.exact(got) == clip_to_box(gamma, None, lo, hi)
        assert (got is None) == (not lo <= gamma <= hi)
