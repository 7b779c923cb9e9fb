import itertools
import math
import random
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from sternbrocot import (
    ContinuedFraction,
    DegenerateFunnelError,
    DomainError,
    ExtendedRational,
    Funnel,
    build_diagram,
    convergents,
    evaluate,
    funnel,
    verify_funnel_theorem,
)
from sternbrocot import diagram
from oracles import (
    XIntervalIndex,
    brute_farey_edges,
    brute_farey_triples,
    farey_det,
    farey_walk_inline,
    gcd_scan_vertices,
    nu_frac,
    ray_funnel_triangles,
    search_path_funnel,
)

R = ExtendedRational
CF = ContinuedFraction


def _tri_key(tri):
    return tuple(sorted(((v.num, v.den) for v in tri), key=lambda t: Fraction(*t)))


class TestBuildDiagram:
    def test_first_mediant_window(self):
        d = build_diagram(R(0), R(1), 2)
        assert set(d.vertices) == {R(0), R(1, 2), R(1)}
        assert set(d.edges) == {(R(0), R(1, 2)), (R(0), R(1)), (R(1, 2), R(1))}
        assert len(d.triangles) == 1

    def test_vertex_count_matches_gcd_scan_at_7(self):
        d = build_diagram(R(0), R(1), 7)
        assert len(d.vertices) == len(gcd_scan_vertices(Fraction(0), Fraction(1), 7)) == 19

    def test_triangles_at_max_den_3(self):
        d = build_diagram(R(0), R(1), 3)
        got = {_tri_key(t) for t in d.triangles}
        expected = {
            _tri_key((R(0), R(1, 2), R(1))),
            _tri_key((R(0), R(1, 3), R(1, 2))),
            _tri_key((R(1, 2), R(2, 3), R(1))),
        }
        assert got == expected

    @pytest.mark.parametrize("max_den", [5, 7, 10])
    def test_vertices_match_gcd_scan(self, max_den):
        d = build_diagram(R(0), R(1), max_den)
        got = {Fraction(v.num, v.den) for v in d.vertices}
        assert got == gcd_scan_vertices(Fraction(0), Fraction(1), max_den)

    def test_triangles_match_brute_force_enumeration(self):
        d = build_diagram(R(-1), R(1), 6)
        vals = [Fraction(v.num, v.den) for v in d.vertices]
        got = {_tri_key(t) for t in d.triangles}
        expected = {
            tuple((f.numerator, f.denominator) for f in tri)
            for tri in brute_farey_triples(vals)
        }
        assert got == expected

    def test_all_edges_are_farey_pairs(self):
        d = build_diagram(R(0), R(1), 12)
        for a, b in d.edges:
            assert abs(farey_det(Fraction(a.num, a.den), Fraction(b.num, b.den))) == 1

    def test_non_unit_window_bounds(self):
        lo, hi = R(1, 3), R(2, 3)
        d = build_diagram(lo, hi, 8)
        got = {Fraction(v.num, v.den) for v in d.vertices}
        assert got == gcd_scan_vertices(Fraction(1, 3), Fraction(2, 3), 8)
        for a, b in d.edges:
            assert lo <= a <= hi and lo <= b <= hi

    def test_negative_fractional_window(self):
        lo, hi = R(-3, 2), R(-1, 3)
        d = build_diagram(lo, hi, 10)
        got = {Fraction(v.num, v.den) for v in d.vertices}
        assert got == gcd_scan_vertices(Fraction(-3, 2), Fraction(-1, 3), 10)
        for a, b in d.edges:
            assert lo <= a <= hi and lo <= b <= hi

    def test_rejects_bad_windows(self):
        with pytest.raises(DomainError):
            build_diagram(R(1), R(0), 5)
        with pytest.raises(DomainError):
            build_diagram(R(0), R(1, 0), 5)
        with pytest.raises(DomainError):
            build_diagram(R(0), R(1), 0)

    def test_every_edge_in_at_most_two_triangles_and_exactly_two_when_complete(self):
        d = build_diagram(R(0), R(1), 12)
        count = {e: 0 for e in d.edges}
        for x, m, y in d.triangles:
            for e in ((x, m), (m, y), (x, y)):
                count[tuple(sorted(e))] += 1
        in_window = set(d.vertices)
        for (a, b), c in count.items():
            assert c <= 2
            completions = 0
            med = Fraction(a.num + b.num, a.den + b.den)
            if med.denominator <= 12 and R(med.numerator, med.denominator) in in_window:
                completions += 1
            if a.den != b.den:
                par = Fraction(a.num - b.num, a.den - b.den)
                if (
                    abs(par.denominator) <= 12
                    and R(par.numerator, par.denominator) in in_window
                ):
                    completions += 1
            assert c == completions, (str(a), str(b))


def random_window(seed: int) -> tuple[Fraction, Fraction, int]:
    """A window whose ends are negative about half the time and mostly not
    integers.  Its size keeps the pairwise oracles quick: up to four unit
    intervals when max_den is small, a width of at most 5/32 at max_den 80."""
    rng = random.Random(seed)
    max_den = rng.randint(1, 3) if seed % 3 == 0 else rng.randint(4, 80)
    span = min(Fraction(4), Fraction(1000, max_den * max_den))
    lo = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
    return lo, lo + span * Fraction(rng.randint(1, 12), 12), max_den


# Windows at the edges of the start search: the longest search at the cap
# with one vertex, no vertex at all, a search to the cap that finds no
# vertex, integer ends at max_den 1, and one vertex at lo.  Then windows
# that seed the walk's stack of right parents each way: an integer lo, an
# integer hi over 3 or more integers, densities 1 and 2, ends offset by
# +-10^30, at that offset a window with no vertex and one with one, and
# a search that passes terms above hi.
_FAR = 10**30
FIXED_WINDOWS = [
    (Fraction(999, 1000), Fraction(1), 400),
    (Fraction(1, 3), Fraction(1, 2), 1),
    (Fraction(3998, 4001), Fraction(3999, 4001), 400),
    (Fraction(-2), Fraction(3), 1),
    (Fraction(0), Fraction(1, 1000), 400),
    (Fraction(2), Fraction(17, 5), 7),
    (Fraction(-1), Fraction(2, 7), 9),
    (Fraction(-7, 3), Fraction(1), 5),
    (Fraction(-17, 4), Fraction(-1), 3),
    (Fraction(-5, 2), Fraction(7, 3), 1),
    (Fraction(-4, 3), Fraction(13, 5), 2),
    (Fraction(_FAR) + Fraction(1, 3), Fraction(_FAR) + Fraction(5, 2), 7),
    (Fraction(-_FAR) - Fraction(7, 3), Fraction(-_FAR) + Fraction(3, 4), 6),
    (Fraction(_FAR) + Fraction(1, 3), Fraction(_FAR) + Fraction(2, 5), 2),
    (Fraction(-_FAR) - Fraction(1, 2), Fraction(-_FAR) + Fraction(1, 3), 1),
    (Fraction(2, 5), Fraction(3, 7), 7),
]


class TestWindowOrder:
    """Windows come out ordered by the Farey next-term rule itself; check
    the order directly, the contents against brute-force enumeration and
    that edges and triangles share the vertex objects."""

    @pytest.mark.parametrize(
        "lo, hi, max_den",
        [pytest.param(*random_window(seed), id=str(seed)) for seed in range(40)]
        + [pytest.param(*w, id=f"{w[0]}..{w[1]}@{w[2]}") for w in FIXED_WINDOWS],
    )
    def test_random_window_is_ordered_and_matches_oracles(self, lo, hi, max_den):
        d = build_diagram(R(lo.numerator, lo.denominator), R(hi.numerator, hi.denominator), max_den)
        shared = {id(v) for v in d.vertices}
        assert all(id(v) in shared for e in d.edges for v in e)
        assert all(id(v) in shared for t in d.triangles for v in t)

        def fr(v):
            return Fraction(v.num, v.den)

        verts = [fr(v) for v in d.vertices]
        edges = [tuple(map(fr, e)) for e in d.edges]
        tris = [tuple(map(fr, t)) for t in d.triangles]
        for seq in (verts, edges, tris):
            assert all(a < b for a, b in zip(seq, seq[1:]))

        assert set(verts) == gcd_scan_vertices(lo, hi, max_den)
        assert set(edges) == brute_farey_edges(verts)
        assert set(tris) == brute_farey_triples(verts)

    def test_random_windows_cover_the_intended_shapes(self):
        windows = [random_window(seed) for seed in range(40)]
        assert any(lo < 0 and lo.denominator > 1 and hi.denominator > 1 for lo, hi, _ in windows)
        assert any(math.floor(hi) - math.ceil(lo) >= 2 for lo, hi, _ in windows)
        assert {1, 2, 3} <= {m for _, _, m in windows}
        assert any(m >= 60 for _, _, m in windows)


def differential_window(rng: random.Random) -> tuple[Fraction, Fraction, int]:
    """A window of about 0.3 * 400 vertices at most: integer ends up to
    density 20, fractional ends up to density 200, or a window of a
    vertex p/q of F_n, q <= n, that holds p/q alone or nothing, since
    p/q's Farey neighbours in F_n lie at least 1/(q n) away.  Ends are
    offset by 0 or +-10^30."""
    kind = rng.randrange(4)
    if kind == 0:
        width = rng.randint(1, 3)
        n = rng.randint(1, math.isqrt(400 // width))
        lo = Fraction(rng.randint(-4, 4))
        hi = lo + width
    else:
        n = rng.randint(1, 200)
        if kind == 1:
            q0 = rng.randint(1, 2 * n)
            lo = Fraction(rng.randint(-3 * q0, 3 * q0), q0)
            hi = lo + Fraction(rng.randint(1, 400), n * n)
        else:
            q = rng.randint(1, n)
            p = rng.randint(-3 * q, 3 * q)
            while math.gcd(p, q) != 1:
                p += 1
            v, gap = Fraction(p, q), Fraction(1, q * n)
            lo, hi = (v - gap / 2, v + rng.choice((0, gap / 2))) if kind == 2 else (
                v + gap / 4, v + gap / 2)
    offset = rng.choice((0, 0, _FAR, -_FAR))
    return lo + offset, hi + offset, n


class TestTrianglesFromEdges:
    """build_diagram reads each vertex's triangles off its consecutive
    edges; the walk that appends them as it goes gives the same vertices,
    edges and triangles in the same order."""

    def test_seeded_windows_match_the_inline_walk(self):
        rng = random.Random(34)
        sizes = {0: 0, 1: 0}
        for _ in range(5000):
            lo, hi, n = differential_window(rng)
            d = build_diagram(R(lo.numerator, lo.denominator), R(hi.numerator, hi.denominator), n)
            verts, edges, tris = farey_walk_inline(lo, hi, n)

            def pair(v):
                return v.num, v.den

            assert [pair(v) for v in d.vertices] == verts, (lo, hi, n)
            assert [tuple(map(pair, e)) for e in d.edges] == edges, (lo, hi, n)
            assert [tuple(map(pair, t)) for t in d.triangles] == tris, (lo, hi, n)
            shared = {id(v) for v in d.vertices}
            assert all(id(v) in shared for t in d.triangles for v in t), (lo, hi, n)
            if len(verts) in sizes:
                sizes[len(verts)] += 1
        assert sizes[0] > 500 and sizes[1] > 500


class TestFunnel:
    def test_funnel_of_2_7_matches_fig2_structure(self):
        f = funnel(R(2, 7))
        assert f.expansion == CF((0, 3, 2))
        assert [_tri_key(t) for t in f.triangles] == [
            _tri_key((R(0), R(1, 2), R(1))),
            _tri_key((R(0), R(1, 3), R(1, 2))),
            _tri_key((R(0), R(1, 4), R(1, 3))),
            _tri_key((R(1, 4), R(2, 7), R(1, 3))),
        ]
        assert f.left_edge == (R(0), R(1, 4))
        assert f.right_edge == (R(1), R(1, 2), R(1, 3))
        assert f.indices[R(0)] == 3  # = a_1
        assert f.indices[R(1, 3)] == 2  # = a_n

    def test_funnel_of_minus_4_7_mirrors_2_7(self):
        f = funnel(R(-4, 7))
        g = funnel(R(2, 7))
        assert f.expansion == CF((-1, 2, 3))
        assert len(f.triangles) == len(g.triangles) == 4
        # reflection x -> -x - 1/7-ish is not a diagram symmetry; the mirror
        # pairing is combinatorial: index multisets agree side-swapped.
        assert sorted(f.indices.values()) == sorted(g.indices.values())
        assert f.indices[R(-1)] == 2  # = a_1
        assert f.indices[R(-1, 2)] == 3  # = a_n

    def test_funnel_of_one_half_is_the_single_crossing_triangle(self):
        f = funnel(R(1, 2))
        assert [_tri_key(t) for t in f.triangles] == [
            _tri_key((R(0), R(1, 2), R(1)))
        ]

    def test_integer_alpha_is_degenerate(self):
        with pytest.raises(DegenerateFunnelError):
            funnel(R(5))

    def test_infinite_alpha_rejected(self):
        with pytest.raises(DomainError):
            funnel(R(1, 0))

    def test_geometric_oracle_window_50_for_one_half(self):
        d = build_diagram(R(0), R(1), 50)
        got = ray_funnel_triangles(d, Fraction(1, 2))
        assert got == {_tri_key(t) for t in funnel(R(1, 2)).triangles}

    @pytest.mark.parametrize("p, q", [(2, 7), (13, 30), (5, 8)])
    def test_strip_ordered_by_decreasing_height(self, p, q):
        f = funnel(R(p, q))
        alpha = Fraction(p, q)
        tops = []
        for tri in f.triangles:
            ys = []
            pts = [nu_frac(Fraction(v.num, v.den)) for v in tri]
            for (x1, y1), (x2, y2) in (
                (pts[0], pts[1]), (pts[0], pts[2]), (pts[1], pts[2])
            ):
                if x1 == alpha:
                    ys.append(y1)
                if x2 == alpha:
                    ys.append(y2)
                if min(x1, x2) < alpha < max(x1, x2):
                    ys.append(y1 + (alpha - x1) * (y2 - y1) / (x2 - x1))
            tops.append(max(ys))
        assert all(b < a for a, b in zip(tops, tops[1:]))


class TestVertexIndexExamples:
    def test_indices_of_0234(self):
        seq = CF((0, 2, 3, 4))
        f = funnel(evaluate(seq))
        c = convergents(f.expansion)
        assert f.indices[c[0]] == 2        # a_1
        assert f.indices[c[1]] == 1 + 3    # 1 + a_2 for 0 < j < n-1
        assert f.indices[c[2]] == 4        # a_n


class TestFunnelTheorem:
    @pytest.mark.parametrize("terms", [(0, 3, 2), (-1, 2, 3), (0, 2, 3, 4)])
    def test_reference_sequences_pass(self, terms):
        report = verify_funnel_theorem(CF(terms))
        assert report.all_passed, report.as_dict()

    def test_rejects_nonstandard_or_integer(self):
        with pytest.raises(DomainError):
            verify_funnel_theorem(CF((0, 3, 1)))
        with pytest.raises(DomainError):
            verify_funnel_theorem(CF((5,)))

    @pytest.mark.parametrize("k_lo", [-1, 1])
    def test_shifted_windows_match_oracle(self, k_lo):
        d = build_diagram(R(k_lo), R(k_lo + 1), 12)
        for q in range(2, 13):
            for p in range(1, q):
                alpha = Fraction(p, q)
                if alpha.denominator != q:
                    continue
                shifted = alpha + k_lo
                f = funnel(R(shifted.numerator, shifted.denominator))
                assert verify_funnel_theorem(f.expansion).all_passed
                got = {_tri_key(t) for t in f.triangles}
                assert got == ray_funnel_triangles(d, shifted), str(shifted)

    def test_indices_match_fraction_land_recount_up_to_den_30(self):
        # independent recount: strict crossings over the oracle triangle set,
        # plus the single-fan closing spoke at the first pivot
        d = build_diagram(R(0), R(1), 30)
        for q in range(2, 31):
            for p in range(1, q):
                alpha = Fraction(p, q)
                if alpha.denominator != q:
                    continue
                f = funnel(R(p, q))
                edges = set()
                for tri in ray_funnel_triangles(d, alpha):
                    a, b, c = (Fraction(*t) for t in tri)
                    edges.update({(a, b), (b, c), (a, c)})
                counts = {}
                for u, v in edges:
                    if u < alpha < v:
                        counts[u] = counts.get(u, 0) + 1
                        counts[v] = counts.get(v, 0) + 1
                if f.expansion.degree == 1:
                    pivot = Fraction(f.expansion.terms[0])
                    counts[pivot] = counts.get(pivot, 0) + 1
                got = {Fraction(v.num, v.den): i for v, i in f.indices.items()}
                assert got == counts, f"{p}/{q}"

    def test_boundary_corners_are_exactly_the_interior_convergents(self):
        # Each fan rim is straight, so the left/right boundary polylines
        # bend exactly at the convergents of matching parity.
        def corners(path):
            pts = [nu_frac(Fraction(v.num, v.den)) for v in path]
            out = set()
            for (x1, y1), (x2, y2), (x3, y3) in zip(pts, pts[1:], pts[2:]):
                turn = (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1)
                if turn != 0:
                    out.add((x2, y2))
            return out

        for q in range(2, 41):
            for p in range(1, q):
                if Fraction(p, q).denominator != q:
                    continue
                f = funnel(R(p, q))
                n = f.expansion.degree
                left_path = list(f.left_edge) + [f.alpha]
                right_path = list(f.right_edge) + [f.alpha]
                cs = convergents(f.expansion)
                expect_left = {
                    nu_frac(Fraction(cs[j].num, cs[j].den))
                    for j in range(2, n) if j % 2 == 0
                }
                expect_right = {
                    nu_frac(Fraction(cs[j].num, cs[j].den))
                    for j in range(1, n) if j % 2 == 1
                } - {nu_frac(Fraction(right_path[0].num, right_path[0].den))}
                assert corners(left_path) == expect_left, f"{p}/{q} left"
                assert corners(right_path) == expect_right, f"{p}/{q} right"

    def test_left_right_edges_partition_convergents_by_parity(self):
        for q in range(2, 41):
            for p in range(1, q):
                if Fraction(p, q).denominator != q:
                    continue
                f = funnel(R(p, q))
                left, right = set(f.left_edge), set(f.right_edge)
                for j, c in enumerate(convergents(f.expansion)[:-1]):
                    if j % 2 == 0:
                        assert c in left and c not in right
                    else:
                        assert c in right and c not in left

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(-9, 9),
        st.lists(st.integers(1, 7), max_size=4),
        st.integers(2, 7),
    )
    def test_random_standard_sequences_pass(self, a0, body, last):
        report = verify_funnel_theorem(CF((a0, *body, last)))
        assert report.all_passed, report.as_dict()


def random_expansion(seed: int) -> tuple[int, ...]:
    """A standard expansion of degree 1 + seed % 40: a0 in -20..20, mostly
    small partial quotients, one of up to 5000 in every fifth, a_1 = 1 in
    every seventh (degree >= 2)."""
    rng = random.Random(seed)
    n = 1 + seed % 40
    body = [rng.randint(1, 9) for _ in range(n)]
    if seed % 5 == 0:
        body[rng.randrange(n)] = 5000 if seed % 25 == 0 else rng.randint(100, 5000)
    if seed % 7 == 3 and n >= 2:
        body[0] = 1
    if body[-1] == 1:
        body[-1] = 2
    return (rng.randint(-20, 20), *body)


class TestFunnelAgainstSearchPathOracle:
    """funnel() against the Fraction search path with indices counted as
    strict crossings over the strip's edge set."""

    @pytest.mark.parametrize("first", range(0, 200, 10))
    def test_funnel_matches_oracle(self, first):
        for seed in range(first, first + 10):
            terms = random_expansion(seed)
            alpha = evaluate(CF(terms))
            f = funnel(alpha)
            triangles, left, right, indices = search_path_funnel(Fraction(alpha.num, alpha.den))

            def fr(v):
                return Fraction(v.num, v.den)

            assert f.expansion == CF(terms), terms
            assert [tuple(map(fr, t)) for t in f.triangles] == triangles, terms
            assert [fr(v) for v in f.left_edge] == left, terms
            assert [fr(v) for v in f.right_edge] == right, terms
            assert [(fr(v), i) for v, i in f.indices.items()] == indices, terms

    def test_random_expansions_cover_the_intended_shapes(self):
        expansions = [random_expansion(seed) for seed in range(200)]
        assert all(CF(t).is_standard for t in expansions)
        assert {len(t) - 1 for t in expansions} == set(range(1, 41))
        assert max(max(t[1:]) for t in expansions) == 5000
        assert any(t[0] < 0 for t in expansions)
        assert any(len(t) > 2 and t[1] == 1 for t in expansions)
        assert sum(len(t) == 2 for t in expansions) >= 5


class TestIndexOrder:
    """The CLI lists indices as left_edge then reversed(right_edge); with
    left < alpha < right, the left edge ascending and the right edge
    descending, that is the sorted order of the index keys."""

    def test_edges_give_the_sorted_index_order(self):
        for seed in range(300):
            f = funnel(evaluate(CF(random_expansion(seed))))
            assert [*f.left_edge, *reversed(f.right_edge)] == sorted(f.indices), seed


class TestVerifierRecount:
    """verify_funnel_theorem recounts the indices itself, so a funnel that
    reports a wrong index fails, whichever vertex it is."""

    @pytest.mark.parametrize("terms", [(0, 3, 2), (-1, 2, 3), (0, 2, 3, 4), (2, 5), (-3, 1, 4, 1, 2)])
    def test_each_index_off_by_one_fails(self, monkeypatch, terms):
        f = funnel(evaluate(CF(terms)))
        for v in f.indices:
            for delta in (1, -1):
                bad = dict(f.indices)
                bad[v] += delta
                corrupt = Funnel(f.alpha, f.expansion, f.triangles, f.left_edge, f.right_edge,
                                 MappingProxyType(bad))
                monkeypatch.setattr(diagram, "funnel", lambda alpha, corrupt=corrupt: corrupt)
                report = verify_funnel_theorem(CF(terms))
                assert not report.all_passed, (terms, str(v), delta)
                recount = report.clauses[-1]
                assert recount.name == "index recount" and not recount.passed
                assert f"index({v})={bad[v]}," in recount.detail

    # 2/7 = [0;3,2]: 0 and 1/3 are its pivots c_0 and c_1, 1/2 is neither.
    @pytest.mark.parametrize("missing", [R(1, 2), R(0), R(1, 3)], ids=str)
    def test_missing_vertex_fails(self, monkeypatch, missing):
        f = funnel(R(2, 7))
        bad = dict(f.indices)
        del bad[missing]
        corrupt = Funnel(f.alpha, f.expansion, f.triangles, f.left_edge, f.right_edge,
                         MappingProxyType(bad))
        monkeypatch.setattr(diagram, "funnel", lambda alpha: corrupt)
        report = verify_funnel_theorem(CF((0, 3, 2)))
        assert not report.all_passed
        assert f"{missing} has no index" in report.clauses[-1].detail

    def test_swapped_edges_fail_only_the_sides_clause(self):
        f = funnel(R(2, 7))
        swapped = Funnel(f.alpha, f.expansion, f.triangles, left_edge=f.right_edge,
                         right_edge=f.left_edge, indices=f.indices)
        report = verify_funnel_theorem(swapped)
        # Three clauses: the index recount, which reads no edge, passes.
        assert [c.passed for c in report.clauses] == [False, True, True]
        assert report.clauses[0].detail == "c_0=0 not on left edge; c_1=1/3 not on right edge"

    def test_the_sides_clause_names_the_side_of_each_convergent(self):
        # 13/30 = [0;2,3,4]: c_2 belongs on the left edge like c_0.
        f = funnel(R(13, 30))
        swapped = Funnel(f.alpha, f.expansion, f.triangles, left_edge=f.right_edge,
                         right_edge=f.left_edge, indices=f.indices)
        assert verify_funnel_theorem(swapped).clauses[0].detail == (
            "c_0=0 not on left edge; c_1=1/2 not on right edge; c_2=3/7 not on left edge")

    @pytest.mark.parametrize("terms", [(0, 3, 2), (2, 5), (-3, 1, 4, 1, 2)])
    def test_a_corrupt_funnel_passed_in_fails(self, monkeypatch, terms):
        f = funnel(evaluate(CF(terms)))
        assert verify_funnel_theorem(f) == verify_funnel_theorem(CF(terms))

        def boom(alpha):
            raise AssertionError("a funnel was built")

        monkeypatch.setattr(diagram, "funnel", boom)
        assert verify_funnel_theorem(f).all_passed
        for v in f.indices:
            bad = dict(f.indices)
            bad[v] += 1
            report = verify_funnel_theorem(Funnel(f.alpha, f.expansion, f.triangles, f.left_edge,
                                                  f.right_edge, MappingProxyType(bad)))
            assert not report.all_passed, (terms, str(v))
            recount = report.clauses[-1]
            assert recount.name == "index recount" and not recount.passed
            assert f"index({v})={bad[v]}," in recount.detail

    def test_correct_funnel_has_exactly_the_three_clauses(self):
        report = verify_funnel_theorem(CF((0, 3, 2)))
        assert [c.name for c in report.clauses] == [
            "convergent sides", "end indices", "interior indices"
        ]


class TestClauseDetails:
    """The exact detail of each clause, passing and failing; `funnel`
    prints these verbatim."""

    @staticmethod
    def raised(f, v):
        bad = dict(f.indices)
        bad[v] += 1
        return Funnel(f.alpha, f.expansion, f.triangles, f.left_edge, f.right_edge,
                      MappingProxyType(bad))

    # 13/30 = [0;2,3,4]: pivots c_0 = 0, c_1 = 1/2, c_2 = 3/7.
    PASSING_13_30 = ["c_0..c_2 alternate left/right", "index(c_0)=2, index(c_2)=4",
                     "all interior pivots match"]

    def test_13_30_passing(self):
        report = verify_funnel_theorem(funnel(R(13, 30)))
        assert [c.name for c in report.clauses] == [
            "convergent sides", "end indices", "interior indices"]
        assert all(c.passed for c in report.clauses)
        assert [c.detail for c in report.clauses] == self.PASSING_13_30

    @pytest.mark.parametrize("pivot, clause, detail", [
        (R(0), 1, "index(c_0)=3, expected a_1=2"),
        (R(3, 7), 1, "index(c_2)=5, expected a_n=4"),
        (R(1, 2), 2, "index(c_1)=5, expected 1+a_2=4"),
    ], ids=["c_0", "c_2", "c_1"])
    def test_13_30_one_index_raised(self, pivot, clause, detail):
        report = verify_funnel_theorem(self.raised(funnel(R(13, 30)), pivot))
        # The recount fails too, as a fourth clause.
        assert [c.passed for c in report.clauses] == [i != clause for i in range(3)] + [False]
        expected = list(self.PASSING_13_30)
        expected[clause] = detail
        assert [c.detail for c in report.clauses[:3]] == expected

    def test_1_3_passing_repeats_c_0(self):
        # [0;3] has one pivot, c_0, which is both ends; its detail names it twice.
        report = verify_funnel_theorem(funnel(R(1, 3)))
        assert [(c.name, c.passed, c.detail) for c in report.clauses] == [
            ("convergent sides", True, "c_0..c_0 alternate left/right"),
            ("end indices", True, "index(c_0)=3, index(c_0)=3"),
            ("interior indices", True, "vacuous"),
        ]

    def test_13_30_as_dict(self):
        assert verify_funnel_theorem(funnel(R(13, 30))).as_dict() == {
            "sequence": "[0;2,3,4]",
            "alpha": "13/30",
            "clauses": [
                {"name": "convergent sides", "passed": True,
                 "detail": "c_0..c_2 alternate left/right"},
                {"name": "end indices", "passed": True, "detail": "index(c_0)=2, index(c_2)=4"},
                {"name": "interior indices", "passed": True, "detail": "all interior pivots match"},
            ],
        }


class TestRecountOrientation:
    """The recount reads each triangle's edges whatever the order of its
    vertices, so reordering them leaves a correct funnel correct."""

    @pytest.mark.parametrize("terms", [(0, 3, 2), (-1, 2, 3), (2, 5), (0, 1, 3), (-3, 1, 4, 1, 2),
                                       (0, 2, 3, 4)])
    def test_every_vertex_order_recounts_the_same(self, terms):
        f = funnel(evaluate(CF(terms)))
        for order in itertools.permutations(range(3)):
            tris = tuple(tuple(t[i] for i in order) for t in f.triangles)
            reordered = Funnel(f.alpha, f.expansion, tris, f.left_edge, f.right_edge, f.indices)
            assert diagram._index_recount_misses(reordered) == [], order

    def test_mixed_vertex_orders_recount_the_same(self):
        orders = list(itertools.permutations(range(3)))
        for seed in range(100):
            rng = random.Random(seed)
            f = funnel(evaluate(CF(random_expansion(seed))))
            tris = tuple(tuple(t[i] for i in rng.choice(orders)) for t in f.triangles)
            reordered = Funnel(f.alpha, f.expansion, tris, f.left_edge, f.right_edge, f.indices)
            assert diagram._index_recount_misses(reordered) == [], seed


class TestXIntervalIndex:
    """The prefilter returns what the full scan returns."""

    @pytest.mark.parametrize("lo, hi, max_den", [(0, 1, 40), (-2, 1, 12), (Fraction(-7, 3), Fraction(-1, 2), 25)])
    def test_prefiltered_ray_scan_matches_full_scan(self, lo, hi, max_den):
        lo, hi = Fraction(lo), Fraction(hi)
        d = build_diagram(R(lo.numerator, lo.denominator), R(hi.numerator, hi.denominator), max_den)
        index = XIntervalIndex(d.triangles)
        rng = random.Random(max_den)
        alphas = [lo, hi, (lo + hi) / 2] + [
            lo + (hi - lo) * Fraction(rng.randint(1, 999), 1000) for _ in range(20)
        ]
        alphas += sorted(gcd_scan_vertices(lo, hi, max_den))[::7]
        for alpha in alphas:
            full = ray_funnel_triangles(d, alpha)
            assert ray_funnel_triangles(d, alpha, index) == full, alpha
            spanning = {id(t) for t in index.spanning(alpha)}
            assert spanning == {
                id(t) for t in d.triangles
                if min(Fraction(v.num, v.den) for v in t) <= alpha <= max(Fraction(v.num, v.den) for v in t)
            }, alpha
