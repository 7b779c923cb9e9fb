"""Independent oracles for the test suite.

Everything here runs on fractions.Fraction and plain integers, never on
the package's own arithmetic, so every identity is checked along two
separate routes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import gcd

INF = "INF"  # oracle-side stand-in for 1/0


def norm_pair(p: int, q: int) -> tuple[int, int]:
    """Reduce an integer pair the way the package normalizes values."""
    if q == 0:
        assert p != 0
        return (1, 0)
    if q < 0:
        p, q = -p, -q
    g = gcd(abs(p), q)
    return (p // g, q // g)


def frac_of(x) -> Fraction:
    assert x.den != 0
    return Fraction(x.num, x.den)


def recursive_eval(terms):
    """Bottom-up a + 1/rest evaluation with an explicit infinity sentinel."""
    val = Fraction(terms[-1])
    for a in reversed(terms[:-1]):
        if val is INF:
            val = Fraction(a)
        elif val == 0:
            val = INF
        else:
            val = a + Fraction(1) / val
    return val


def recursive_pair(terms) -> tuple[int, int]:
    val = recursive_eval(terms)
    if val is INF:
        return (1, 0)
    return (val.numerator, val.denominator)


def matrix_eval_pair(terms) -> tuple[int, int]:
    """Second column of (1 a0; 0 1)(0 1; 1 a1)...(0 1; 1 an), reduced.

    Written with bare integer tuples so it shares nothing with the package.
    """
    a, b, c, d = 1, terms[0], 0, 1
    for t in terms[1:]:
        a, b, c, d = b, a + b * t, d, c + d * t
    return norm_pair(b, d)


def gcd_scan_vertices(lo: Fraction, hi: Fraction, max_den: int) -> set[Fraction]:
    """All reduced p/q in [lo, hi] with q <= max_den, by brute denominator scan."""
    out = set()
    for q in range(1, max_den + 1):
        p_lo = -((-lo.numerator * q) // lo.denominator)  # ceil(lo*q)
        p_hi = (hi.numerator * q) // hi.denominator      # floor(hi*q)
        for p in range(p_lo, p_hi + 1):
            if gcd(abs(p), q) == 1:
                out.add(Fraction(p, q))
    return out


def farey_det(a: Fraction, b: Fraction) -> int:
    return a.numerator * b.denominator - b.numerator * a.denominator


def brute_farey_edges(values) -> set[tuple[Fraction, Fraction]]:
    """All Farey pairs (a, b), a < b, among the given values, by pairwise determinants."""
    vals = sorted(values)
    return {
        (vals[i], vals[j])
        for i in range(len(vals))
        for j in range(i + 1, len(vals))
        if abs(farey_det(vals[i], vals[j])) == 1
    }


def brute_farey_triples(values) -> set[tuple[Fraction, Fraction, Fraction]]:
    """All Farey triples among the given values, by pairwise determinants."""
    vals = sorted(values)
    out = set()
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            if abs(farey_det(vals[i], vals[j])) != 1:
                continue
            for k in range(j + 1, len(vals)):
                if (
                    abs(farey_det(vals[i], vals[k])) == 1
                    and abs(farey_det(vals[j], vals[k])) == 1
                ):
                    out.add((vals[i], vals[j], vals[k]))
    return out


def nu_frac(x: Fraction) -> tuple[Fraction, Fraction]:
    return (x, Fraction(1, x.denominator))


def clip_to_box(gamma: Fraction, slope: Fraction | None, lo: Fraction, hi: Fraction):
    """End points, ordered by x, of the part of y = slope * (x - gamma) in
    [lo, hi] x [0, 1], or None when that part is empty or one point.

    The line has 0 <= y <= 1 exactly for x between gamma and
    gamma + 1/slope (finite, nonzero slope); that interval is cut to
    [lo, hi] and its two ends are put back on the line.  A slope of None
    is the vertical line x = gamma, which crosses the box from y = 0 to
    y = 1 when lo <= gamma <= hi.
    """
    if slope is None:
        return ((gamma, Fraction(0)), (gamma, Fraction(1))) if lo <= gamma <= hi else None
    left, right = sorted((gamma, gamma + 1 / slope))
    left, right = max(left, lo), min(right, hi)
    if left >= right:
        return None
    return tuple((x, slope * (x - gamma)) for x in (left, right))


def _orient(p, q, r) -> int:
    v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (v > 0) - (v < 0)


def open_segments_intersect(a1, a2, b1, b2) -> bool:
    """Whether the open segments (a1,a2) and (b1,b2) share a point.

    True for proper crossings and for collinear overlap; endpoint contacts
    do not count (edge interiors may share vertices).
    """
    d1 = _orient(b1, b2, a1)
    d2 = _orient(b1, b2, a2)
    d3 = _orient(a1, a2, b1)
    d4 = _orient(a1, a2, b2)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True
    if d1 == d2 == d3 == d4 == 0:
        # Collinear; diagram edges are never vertical, so project on x.
        lo1, hi1 = sorted((a1[0], a2[0]))
        lo2, hi2 = sorted((b1[0], b2[0]))
        return max(lo1, lo2) < min(hi1, hi2)
    return False


class XIntervalIndex:
    """The triangles of a window, looked up by the x-interval they span.

    Triangles are grouped by the binary order of their width, each group
    sorted by left end.  A triangle of width at most W that spans alpha
    starts in [alpha - W, alpha], so two bisections per group find every
    candidate.  Built once per window, it makes ray queries cheap without
    changing what they check.
    """

    def __init__(self, triangles):
        groups: dict[int, list[tuple[Fraction, Fraction, tuple]]] = {}
        for tri in triangles:
            vals = [Fraction(v.num, v.den) for v in tri]
            lo, hi = min(vals), max(vals)
            w = hi - lo
            groups.setdefault(w.numerator.bit_length() - w.denominator.bit_length(), []).append(
                (lo, hi, tri)
            )
        self._groups = []
        for entries in groups.values():
            entries.sort(key=lambda e: e[0])
            width = max(hi - lo for lo, hi, _ in entries)
            self._groups.append((width, [lo for lo, _, _ in entries], entries))

    def spanning(self, alpha: Fraction) -> list:
        """Every triangle whose x-interval contains alpha."""
        out = []
        for width, los, entries in self._groups:
            for lo, hi, tri in entries[bisect_left(los, alpha - width):bisect_right(los, alpha)]:
                if alpha <= hi:
                    out.append(tri)
        return out


def ray_funnel_triangles(diagram, alpha: Fraction, index: XIntervalIndex | None = None) -> set[tuple]:
    """Triangles of a diagram window meeting {(alpha, t) : t > 1/q}.

    Exact ray/triangle intersection: a triangle is kept when its section by
    the vertical line x = alpha reaches strictly above the vertex height of
    alpha.  Returns triangles as sorted (num, den) triples.  An
    XIntervalIndex of the same window narrows the scan to the triangles
    spanning alpha; each of them still gets the exact test.
    """
    tip_y = Fraction(1, alpha.denominator)
    out = set()
    for tri in diagram.triangles if index is None else index.spanning(alpha):
        vals = [Fraction(v.num, v.den) for v in tri]
        if not (min(vals) <= alpha <= max(vals)):
            continue
        ys = []
        pts = [nu_frac(v) for v in vals]
        for (x1, y1), (x2, y2) in ((pts[0], pts[1]), (pts[0], pts[2]), (pts[1], pts[2])):
            if x1 == alpha:
                ys.append(y1)
            if x2 == alpha:
                ys.append(y2)
            if min(x1, x2) < alpha < max(x1, x2):
                ys.append(y1 + (alpha - x1) * (y2 - y1) / (x2 - x1))
        if ys and max(ys) > tip_y:
            out.add(tuple(sorted(((v.num, v.den) for v in tri), key=lambda t: Fraction(*t))))
    return out


def search_path_funnel(alpha: Fraction):
    """The funnel of a non-integer alpha by the Stern-Brocot search path on
    Fractions, with indices counted as strict crossings over the set of
    strip edges, plus the single-fan closing spoke at the pivot.

    Returns (triangles, left, right, indices): triangles as (lo, m, hi)
    in search order, the boundary vertices on each side top to bottom, and
    the (vertex, index) pairs in left-then-right order.
    """
    lo = Fraction(alpha.numerator // alpha.denominator)
    hi = lo + 1
    left, right, triangles = [lo], [hi], []
    while True:
        m = Fraction(lo.numerator + hi.numerator, lo.denominator + hi.denominator)
        triangles.append((lo, m, hi))
        if m == alpha:
            break
        if alpha < m:
            hi = m
            right.append(m)
        else:
            lo = m
            left.append(m)
    edges = set()
    for x, m, y in triangles:
        edges.update({(x, m), (m, y), (x, y)})
    counts = {v: 0 for v in left + right}
    for u, v in edges:
        if u < alpha < v:
            counts[u] += 1
            counts[v] += 1
    if len(left) == 1:
        # Only [a0; a1] keeps lo = a0 all the way down: a single fan.
        counts[left[0]] += 1
    return triangles, left, right, list(counts.items())


def schubert_class(p: int, q: int) -> frozenset[int]:
    pm = p % q
    inv = pow(pm, -1, q)
    return frozenset({pm, q - pm, inv, q - inv})


def farey_walk_inline(lo: Fraction, hi: Fraction, n: int):
    """The window of F_n over [lo, hi] as (p, q) pairs: its vertices, edges
    and triangles in the order of build_diagram's walk, with each triangle
    (x, s_{i-1}, s_i) appended as the walk meets s_i rather than read off
    the edges afterwards; a differential reference for that order."""
    lo_p, lo_q, hi_p, hi_q = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    k = -(-lo_p // lo_q) - 1
    parents = [(i, 1) for i in range(hi_p // hi_q, k + 1, -1)]
    a, b, c, d = k, 1, k + 1, 1
    while b + d <= n:
        if (a + c) * lo_q < lo_p * (b + d):
            a, b = a + c, b + d
        else:
            if c * hi_q <= hi_p * d:
                parents.append((c, d))
            c, d = a + c, b + d
    vertices, edges, triangles = [], [], []
    x = (c, d)
    while c * hi_q <= hi_p * d:
        vertices.append(x)
        j = (n + b) // d
        a, b, c, d = c, d, j * c - a, j * d - b
        if c * hi_q > hi_p * d:
            break
        k = (d - 1) // b
        if not k:
            edges.append((x, parents[-1]))
            x = parents.pop()
            continue
        x_next = s = (c, d)
        edges.append((x, s))
        built = []
        sp, sq = c, d
        for _ in range(k - 1):
            sp, sq = sp - a, sq - b
            if sp * hi_q > hi_p * sq:
                break
            t = (sp, sq)
            edges.append((x, t))
            triangles.append((x, s, t))
            built.append(t)
            s = t
        else:
            if parents:
                t = parents[-1]
                edges.append((x, t))
                triangles.append((x, s, t))
        built.reverse()
        parents += built
        x = x_next
    return vertices, edges, triangles


def canonical_by_euclid(p: int, q: int) -> tuple[int, tuple[int, ...]]:
    """The Schubert class minimum of p/q (q >= 2) over q and its expansion
    (0, a1, ...), by one Euclidean pass over r/q, r = p mod q, that keeps
    the convergent denominators beside the quotients: the last but one,
    K, is +-p^{-1} mod q."""
    r = p % q
    terms = []
    a, b = q, r
    k0, k1 = 0, 1
    while b:
        t, rem = divmod(a, b)
        terms.append(t)
        k0, k1 = k1, t * k1 + k0
        a, b = b, rem
    low = r
    if terms[0] == 1:
        low = q - r
        terms = [terms[1] + 1, *terms[2:]]
    if k0 < low:
        low = k0
        terms = terms[::-1]
    return low, (0, *terms)
