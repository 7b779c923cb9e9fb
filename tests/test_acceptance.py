"""Acceptance suite: one test per criterion, each printing a pass line.

Every identity is checked exactly (integer/rational arithmetic, zero
tolerance).  Stated wall-clock budgets are asserted.  Randomized suites use
fixed seeds so the run is deterministic.
"""

import itertools
import random
import time
from fractions import Fraction
from math import gcd

from sternbrocot import (
    ContinuedFraction,
    ExtendedRational,
    INFINITY,
    IntMat2,
    LineOverlay,
    PointOverlay,
    RangeBracket,
    Side,
    build_diagram,
    canonical_fraction,
    classify_range,
    continuant_product,
    evaluate,
    line_family,
    mobius_apply,
    render_svg,
    schubert_equivalent,
    standard_expansion,
    verify_funnel_theorem,
)
from oracles import (
    XIntervalIndex,
    gcd_scan_vertices,
    nu_frac,
    open_segments_intersect,
    ray_funnel_triangles,
    schubert_class,
)

R = ExtendedRational
CF = ContinuedFraction


class _Clock:
    def __init__(self, number: int, label: str, budget: float | None):
        self.number = number
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] criterion {self.number} ({self.label}): {status} ({elapsed:.2f}s)")
        if exc_type is None and self.budget is not None:
            assert elapsed < self.budget, f"criterion {self.number} took {elapsed:.2f}s"
        return False


def _random_standard(rng: random.Random) -> CF:
    n = rng.randint(1, 6)
    terms = [rng.randint(-9, 9)]
    terms += [rng.randint(1, 9) for _ in range(n - 1)]
    terms.append(rng.randint(2, 9))
    return CF(tuple(terms))


def test_criterion_1_caption_identities():
    with _Clock(1, "caption identities", 1.0):
        assert evaluate(CF((-1, 2, 3))) == R(-4, 7)
        assert evaluate(CF((0, 3, 2))) == R(2, 7)
        for m in range(-10, 11):
            assert evaluate((0, 3, m)) == R(m, 1 + 3 * m)
            assert evaluate((0, 2, 1, m)) == R(1 + m, 2 + 3 * m)


def test_criterion_2_remark_reproduction():
    with _Clock(2, "remark reproduction", None):
        assert evaluate(CF((0, 2, -1, 2))) == INFINITY

        fam = line_family(CF((0, 2, 1, 1, 2)), 3)
        assert fam.side(-1) is Side.PLUS
        assert fam.value(-1) == R(1, 1)

        two_term = line_family(CF((4, 5)), 1)
        assert two_term.value(0) == INFINITY


def test_criterion_3_main_theorem_suite():
    with _Clock(3, "main theorem over 200 random families", 30.0):
        rng = random.Random(20260810)
        zero, minus_one, minus_two = R(0), R(-1), R(-2)
        for _ in range(200):
            seq = _random_standard(rng)
            n = seq.degree
            for slot in range(1, n + 1):
                fam = line_family(seq, slot)
                plus, minus = fam.line_pair()
                # determinant data for the membership criterion:
                # line through nu(alpha_1) = (p/q, 1/q) and (gamma, 0) = (t/u, 0)
                alpha1 = fam.value(1)
                p, q = alpha1.num, alpha1.den
                t, u = fam.anchor_x.num, fam.anchor_x.den
                d_ref = p * u - q * t
                for m in range(-40, 41):
                    val = fam.value(m)
                    side = fam.side(m)
                    if val.is_infinite:
                        # statement (1)
                        assert side is Side.INFINITE
                        assert m in (-1, 0)
                        if m == 0:
                            assert n == 1
                        continue
                    a, b = val.num, val.den
                    d_m = a * u - b * t
                    # membership in the union of the two lines, via the
                    # determinant test with cleared denominators
                    assert d_m == d_ref or d_m == -d_ref
                    # statement (2) and side consistency
                    if m >= 0:
                        assert side is Side.PLUS
                    if m <= -2:
                        assert side is Side.MINUS
                    if side is Side.PLUS:
                        assert d_m == d_ref
                        assert plus.contains(fam.vertex(m))
                    else:
                        assert d_m == -d_ref
                        assert minus.contains(fam.vertex(m))
                # statement (3): squared distances shrink along both tails
                pos, neg = fam.squared_distance_profile(40)
                finite_pos = [d for d in pos if d is not None]
                assert all(b < a for a, b in zip(finite_pos, finite_pos[1:]))
                tail = [d for d in neg[1:]]
                assert all(d is not None for d in tail)
                assert all(b < a for a, b in zip(tail, tail[1:]))
                # root location
                root = fam.denominator_root()
                if n == 1:
                    assert root == zero
                else:
                    assert minus_two < root < zero
                    if slot == 1:
                        assert minus_one < root


def test_criterion_4_funnel_theorem_suite():
    with _Clock(4, "funnel combinatorics vs geometry, q <= 60", 30.0):
        window = build_diagram(R(0), R(1), 60)
        index = XIntervalIndex(window.triangles)
        from sternbrocot import funnel as build_funnel

        for q in range(2, 61):
            for p in range(1, q):
                if gcd(p, q) != 1:
                    continue
                report = verify_funnel_theorem(standard_expansion(R(p, q)))
                assert report.all_passed, report.as_dict()
                f = build_funnel(R(p, q))
                got = {
                    tuple(sorted(((v.num, v.den) for v in tri), key=lambda s: Fraction(*s)))
                    for tri in f.triangles
                }
                assert got == ray_funnel_triangles(window, Fraction(p, q), index), f"{p}/{q}"


def test_criterion_5_lemma_suites():
    with _Clock(5, "matrix and range lemmas", None):
        rng = random.Random(5323)

        def check_general(terms):
            m = continuant_product(terms)
            assert m.det() == (-1) ** len(terms)  # (4), with (1) implicit
            prev = IntMat2.identity()
            for tcur in terms:
                cur = prev @ IntMat2.continuant(tcur)
                assert cur.column(0) == prev.column(1)  # (2)
                prev = cur
            assert (m.b, m.d) == continuant_product(terms).column(1)  # (3) data
            for pair in (m.row(0), m.row(1), m.column(0), m.column(1)):
                if 0 in pair:
                    assert abs(pair[0] or pair[1]) == 1  # (5)
                else:
                    assert gcd(abs(pair[0]), abs(pair[1])) == 1

        def check_positive(terms):
            prev = IntMat2.identity()
            for j, tcur in enumerate(terms, start=1):
                cur = prev @ IntMat2.continuant(tcur)
                assert cur.b >= prev.a + prev.b  # (6)
                assert cur.d >= prev.c + prev.d
                if j >= 2:
                    assert min(cur.a, cur.b, cur.c, cur.d) >= 1  # (7)
                prev = cur

        for _ in range(500):
            check_general([rng.randint(-9, 9) for _ in range(rng.randint(0, 8))])
        for _ in range(500):
            terms = [rng.randint(1, 9) for _ in range(rng.randint(1, 8))]
            check_general(terms)
            check_positive(terms)

        # range lemma against direct evaluation, exhaustively
        half, one = R(1, 2), R(1)
        for n in range(1, 6):
            for terms in itertools.product(range(1, 7), repeat=n):
                rep = classify_range(terms)
                direct = evaluate((0, *terms))
                assert rep.value == direct
                if terms[0] >= 2:
                    assert rep.bracket is RangeBracket.LOW and R(0) < direct <= half
                else:
                    assert rep.bracket is RangeBracket.HIGH and half <= direct <= one
                assert rep.attains_one == (direct == one) == (terms == (1,))

        # intertwining of the matrix action and the quotient map
        for _ in range(1000):
            m = continuant_product([rng.randint(-9, 9) for _ in range(rng.randint(1, 6))])
            if rng.random() < 0.3:
                m = IntMat2.translation(rng.randint(-5, 5)) @ m
            p, q = rng.randint(-60, 60), rng.randint(-60, 60)
            if (p, q) == (0, 0):
                q = 1
            assert mobius_apply(m, R(p, q)) == R(*m.apply(p, q))


def test_criterion_6_diagram_geometry():
    with _Clock(6, "diagram geometry", 10.0):
        d = build_diagram(R(0), R(1), 20)
        segs = [
            (nu_frac(Fraction(a.num, a.den)), nu_frac(Fraction(b.num, b.den)))
            for a, b in d.edges
        ]
        for i in range(len(segs)):
            a1, a2 = segs[i]
            for j in range(i + 1, len(segs)):
                b1, b2 = segs[j]
                assert not open_segments_intersect(a1, a2, b1, b2)
        for max_den in (5, 7, 10):
            got = len(build_diagram(R(0), R(1), max_den).vertices)
            assert got == len(gcd_scan_vertices(Fraction(0), Fraction(1), max_den))


def test_criterion_7_shared_lines_and_figure():
    with _Clock(7, "shared lines and figure", None):
        fam = line_family(CF((0, 3, 1, 4)), 2)
        partner = line_family(CF((0, 2, 1, 1, 4)), 3)
        p_plus, p_minus = fam.line_pair()
        q_plus, q_minus = partner.line_pair()
        # the unordered pair {l+, l-} coincides exactly
        assert p_plus.anchor == q_plus.anchor
        assert {p_plus.slope, p_minus.slope} == {q_plus.slope, q_minus.slope}
        assert p_plus.coincides(q_minus) and p_minus.coincides(q_plus)
        assert fam.shared_line_partner().base == partner.base

        window = build_diagram(R(0), R(1), 40)
        overlays = [
            LineOverlay(p_plus),
            LineOverlay(p_minus),
            PointOverlay(tuple(fam.value(m) for m in range(-8, 9))),
            PointOverlay(tuple(partner.value(m) for m in range(-8, 9)), color="#d4a017"),
        ]
        first = render_svg(window, overlays)
        second = render_svg(window, overlays)
        assert first == second and first.startswith("<?xml")


def test_criterion_8_schubert_layer():
    with _Clock(8, "Schubert layer", 10.0):
        assert schubert_equivalent(R(3, 7), R(5, 7))
        assert schubert_equivalent(R(2, 7), R(3, 7))
        for q in range(2, 51):
            ps = [p for p in range(1, q) if gcd(p, q) == 1]
            classes = {p: schubert_class(p, q) for p in ps}
            canons = {p: canonical_fraction(R(p, q)) for p in ps}
            for p1 in ps:
                c1 = canons[p1]
                assert schubert_equivalent(R(p1, q), c1.fraction)
                assert canonical_fraction(c1.fraction).fraction == c1.fraction
                assert c1.sequence.terms[1] >= 2
                for p2 in ps:
                    same = classes[p1] == classes[p2]
                    assert schubert_equivalent(R(p1, q), R(p2, q)) == same
                    if same:
                        assert canons[p2].fraction == c1.fraction
