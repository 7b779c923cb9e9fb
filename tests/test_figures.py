import random
import xml.etree.ElementTree as ET
from fractions import Fraction

from sternbrocot import (
    ContinuedFraction,
    ExtendedRational,
    FunnelOverlay,
    LineOverlay,
    PointOverlay,
    build_diagram,
    funnel,
    line_family,
    render_svg,
)
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
        PointOverlay(tuple(fam.vertex(m) for m in range(-6, 7))),
        PointOverlay(tuple(partner.vertex(m) for m in range(-6, 7)), color="#d4a017"),
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
    pts = PointOverlay(tuple(fam.vertex(m) for m in range(-2, 3)))
    text = render_svg(d, [LineOverlay(plus), LineOverlay(minus), pts])
    root = ET.fromstring(text)
    groups = {g.get("class") for g in root.findall(f"{SVG_NS}g")}
    assert {"edges", "vertices", "family-line", "family-points"} <= groups
    point_group = [
        g for g in root.findall(f"{SVG_NS}g") if g.get("class") == "family-points"
    ][0]
    assert len(point_group.findall(f"{SVG_NS}circle")) == 4  # 5 values, one infinite


def test_funnel_overlay_draws_strip_and_ray():
    d = small_diagram()
    f = funnel(R(2, 7))
    root = ET.fromstring(render_svg(d, [FunnelOverlay(f)]))
    fgroup = [g for g in root.findall(f"{SVG_NS}g") if g.get("class") == "funnel"][0]
    assert len(fgroup.findall(f"{SVG_NS}polygon")) == len(f.triangles)
    assert len(fgroup.findall(f"{SVG_NS}line")) == 1  # the dashed defining ray


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
        rng = random.Random(2023)
        for _ in range(150):
            fam = self.random_family(rng)
            gamma = frac_of(fam.anchor_x)
            for line in fam.line_pair():
                slope = frac_of(line.slope)
                through = line.through
                assert slope == frac_of(through.y) / (frac_of(through.x) - gamma)
                for lo, hi in self.windows(rng, gamma, slope):
                    got = _clip(line, R(lo.numerator, lo.denominator),
                                R(hi.numerator, hi.denominator))
                    assert self.exact(got) == clip_to_box(gamma, slope, lo, hi)
