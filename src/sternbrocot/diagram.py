"""Finite windows of the Stern-Brocot diagram, funnels, and vertex indices.

The diagram lives in the plane: the vertex for p/q is (p/q, 1/q), two
vertices are joined exactly when their values form a Farey pair, and every
Farey triple bounds a triangle.  At density n the vertices are the Farey
sequence F_n, and a window is built on plain integer pairs in two steps.
A Stern-Brocot search finds the consecutive terms a/b < lo <= c/d of F_n
in at most n steps.  Then the terms follow one rule: if a/b and c/d are
consecutive, the next term is (j*c - a)/(j*d - b) with j = (n + b) // d
(Graham-Knuth-Patashnik, "Concrete Mathematics", exercise 4.61).  If
x = a/b has next term c/d, x's right Farey neighbours are
s_i = (c - i*a)/(d - i*b), i = 0 .. k = (d - 1) // b, in increasing order:
s_k is x's right Farey parent (x + 1 for an integer x) and each other s_i
is the mediant of x and s_{i+1} (Hatcher, "Topology of Numbers"), so x's
edges (x, s_i) come out in order, in one run, and x's triangles
(x, s_{i-1}, s_i) are read off that run's consecutive edges.
Each vertex is one object, found without a lookup: x is the left parent
of s_0, ..., s_{k-1}, and a vertex's leftmost left neighbour is its left
parent, so these are first met at x and built there; only s_k exists
already.  A stack holds the current vertex's chain of right parents that
lie <= hi, nearest on top, so it is empty exactly when the right parent
is above hi.  The walk reads s_k off the top, pushes s_{k-1}, ..., s_1
(the chain of s_0 below s_k) and moves on to s_0, popped when k = 0.  The
values c/d takes in the search, over the integers up to floor(hi), seed
the stack.  A window of V vertices and E edges thus costs O(V + E) plus
at most n search steps, and sorts and hashes nothing.

The funnel of a non-integer rational alpha is the strip of triangles the
vertical ray {(alpha, t) : t > 0} passes through, ordered top to bottom;
it narrows onto the vertex of alpha.  Triangles that meet the ray only at
that bottom vertex are not part of the strip.  The strip is the
Stern-Brocot search path for alpha from the pair (floor(alpha),
floor(alpha) + 1), walked on integer pairs with one cross product per
step, so a funnel costs O(a_1 + ... + a_n) integer steps and compares no
ExtendedRational.  The strip decomposes into fans pivoting at the
convergents of the standard expansion of alpha, the fan at the (j-1)-th
convergent having a_j triangles; see A. Hatcher, "Topology of Numbers",
for this correspondence.

A vertex's index counts the funnel edges at that vertex which meet the
defining ray.  Crossings are counted strictly, with one boundary
convention: in a single-fan funnel (expansions [a0; a1]) the fan's closing
spoke runs from the pivot to the bottom vertex and terminates on the ray,
and it is counted.  That convention is what makes the index at each pivot
equal the fan size for every expansion length.  The only edge of a strip
triangle the ray crosses is the search interval (lo, hi) it was built on,
so funnel() counts one crossing at lo and one at hi per triangle, keeping
each boundary vertex's count beside it.  The verifier takes the
convergents and fan sizes from the expansion alone, so a pivot missing
from the index map fails its clause, and it does not trust funnel()'s
count: it recounts the distinct crossing edges of the triangles by integer
determinants.
"""

from __future__ import annotations

from itertools import pairwise
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .contfrac import ContinuedFraction, convergents, evaluate, standard_expansion
from .errors import DegenerateFunnelError, DomainError
from .rationals import ExtendedRational, _Frozen, _set_den, _set_num

Triangle = tuple[ExtendedRational, ExtendedRational, ExtendedRational]
Edge = tuple[ExtendedRational, ExtendedRational]


class Diagram(NamedTuple):
    """All vertices p/q with lo <= p/q <= hi and q <= max_den, plus their
    Farey edges and the Farey triangles contained in the window."""

    lo: ExtendedRational
    hi: ExtendedRational
    max_den: int
    vertices: tuple[ExtendedRational, ...]
    edges: tuple[Edge, ...]
    triangles: tuple[Triangle, ...]


def _check_window(lo: ExtendedRational, hi: ExtendedRational, max_den: int) -> None:
    """Refuse a window build_diagram cannot walk."""
    if lo.is_infinite or hi.is_infinite:
        raise DomainError("diagram windows must be finite")
    if not lo < hi:
        raise DomainError("empty window: need lo < hi")
    if max_den < 1:
        raise DomainError("max_den must be positive")


def build_diagram(lo: ExtendedRational, hi: ExtendedRational, max_den: int) -> Diagram:
    """Walk the Farey sequence F_max_den from its first term >= lo to hi.

    Vertices come out in increasing order, edges (a, b) with a < b and
    triangles (x, m, y) with x < m < y in lexicographic order.  The walk
    starts from consecutive terms a/b < lo <= c/d, found by a
    Stern-Brocot search from k < lo <= k + 1 that stops once the mediant's
    denominator exceeds max_den, and steps by the next-term rule.  A
    vertex's right neighbours other than its right parent have it as
    their left parent, so they are built at it; its right parent is the
    top of a stack that holds its chain of right parents up to hi,
    nearest on top.  A vertex's triangles are its consecutive edges.
    """
    _check_window(lo, hi, max_den)
    lo_p, lo_q, hi_p, hi_q = lo.num, lo.den, hi.num, hi.den
    new = ExtendedRational._from_coprime
    k = -(-lo_p // lo_q) - 1  # ceil(lo) - 1
    # The stack starts as the first term's right parents <= hi, nearest on
    # top: the integers floor(hi) down to ceil(lo) + 1, then the values c/d
    # leaves behind in the search.
    parents = [new(i, 1) for i in range(hi_p // hi_q, k + 1, -1)]
    a, b, c, d = k, 1, k + 1, 1
    while b + d <= max_den:
        if (a + c) * lo_q < lo_p * (b + d):
            a, b = a + c, b + d
        else:
            if c * hi_q <= hi_p * d:
                parents.append(new(c, d))
            c, d = a + c, b + d

    vertices: list[ExtendedRational] = []
    edges: list[Edge] = []
    # Each s_i is a Farey neighbour of x, so (p, q) is coprime with q > 0
    # and is stored through the slots as it is.
    make, R, set_num, set_den = object.__new__, ExtendedRational, _set_num, _set_den
    x = new(c, d)
    while c * hi_q <= hi_p * d:
        vertices.append(x)
        j = (max_den + b) // d
        a, b, c, d = c, d, j * c - a, j * d - b
        # Now x = a/b and c/d is s_0.
        if c * hi_q > hi_p * d:
            break
        k = (d - 1) // b
        if not k:
            edges.append((x, parents[-1]))
            x = parents.pop()
            continue
        x_next = make(R)
        set_num(x_next, c)
        set_den(x_next, d)
        edges.append((x, x_next))
        built = []  # s_1 .. s_{k-1}, those <= hi
        sp, sq = c, d
        for _ in range(k - 1):
            sp, sq = sp - a, sq - b
            if sp * hi_q > hi_p * sq:
                break
            t = make(R)
            set_num(t, sp)
            set_den(t, sq)
            edges.append((x, t))
            built.append(t)
        else:
            if parents:  # s_k <= hi
                edges.append((x, parents[-1]))
        built.reverse()
        parents += built
        x = x_next

    triangles = [(x, s, t) for (x, s), (y, t) in pairwise(edges) if x is y]
    return Diagram(lo, hi, max_den, tuple(vertices), tuple(edges), tuple(triangles))


class Funnel(_Frozen):
    """Triangle strip over a non-integer rational, top to bottom.

    left_edge / right_edge list the boundary vertices on each side of the
    ray in descending height; the bottom vertex (alpha itself) belongs to
    both boundary paths and is kept out of the lists and the index map.
    indices maps each edge vertex v to its index, the number of funnel
    edges at v that meet the defining ray; alpha has no entry.  Funnels
    compare and hash without their indices.
    """

    __slots__ = ("alpha", "expansion", "triangles", "left_edge", "right_edge", "indices")
    _uncompared = ("indices",)

    def __init__(self, alpha: ExtendedRational, expansion: ContinuedFraction,
                 triangles: tuple[Triangle, ...], left_edge: tuple[ExtendedRational, ...],
                 right_edge: tuple[ExtendedRational, ...], indices: Mapping[ExtendedRational, int]):
        self._store(alpha, expansion, triangles, left_edge, right_edge, indices)


def funnel(alpha: ExtendedRational) -> Funnel:
    """Build the funnel of a finite non-integer rational.

    The strip is the Stern-Brocot search path for alpha, starting from the
    consecutive-integer pair (lo, hi) around it; each step adds the
    triangle of the current pair and its mediant m and descends toward
    alpha.  The walk runs on integer pairs: one cross product against
    alpha decides each step, and one ExtendedRational is made per new
    vertex above alpha; the last triangle ends on alpha itself.  The ray
    strictly crosses one edge of each triangle, its base (lo, hi); of the
    other two edges, one is the next triangle's base and the other ends
    on alpha or lies on one side of the ray.  So the crossing edges are
    the bases, each triangle adds one to the indices of its lo and its
    hi, and the indices are counted as the walk runs.  The cost is
    O(a_1 + ... + a_n) integer steps; no ExtendedRational is compared,
    and each is hashed once, as a key of the index map.
    """
    if alpha.is_infinite:
        raise DomainError("funnels are defined for finite rationals")
    if alpha.is_integer:
        raise DegenerateFunnelError(
            f"funnel of the integer {alpha} is degenerate: the defining ray "
            "hits the diagram vertex above it"
        )
    expansion = standard_expansion(alpha)
    a0 = expansion.terms[0]
    a, b = alpha.num, alpha.den
    lp, lq, hp, hq = a0, 1, a0 + 1, 1
    lo, hi = ExtendedRational(lp), ExtendedRational(hp)
    left, right = [lo], [hi]
    triangles: list[Triangle] = []
    # Each boundary vertex's index, beside it: every triangle adds one to
    # the counts of its base ends, the current lo and hi.
    left_count, right_count = [0], [0]
    while True:
        mp, mq = lp + hp, lq + hq
        side = mp * b - a * mq
        # The mediant of the Farey pair (lo, hi) is coprime.
        m = ExtendedRational._from_coprime(mp, mq) if side else alpha
        triangles.append((lo, m, hi))
        left_count[-1] += 1
        right_count[-1] += 1
        if side > 0:  # alpha < m
            hi, hp, hq = m, mp, mq
            right.append(m)
            right_count.append(0)
        elif side < 0:
            lo, lp, lq = m, mp, mq
            left.append(m)
            left_count.append(0)
        else:
            break
    if expansion.degree == 1:
        # Single fan: its closing spoke joins the pivot to the bottom
        # vertex and ends on the ray; counted per the fan-size convention.
        left_count[0] += 1

    return Funnel(
        alpha=alpha,
        expansion=expansion,
        triangles=tuple(triangles),
        left_edge=tuple(left),
        right_edge=tuple(right),
        indices=MappingProxyType(dict(zip(left + right, left_count + right_count))),
    )


class ClauseResult(NamedTuple):
    name: str
    passed: bool
    detail: str


class FunnelTheoremReport(NamedTuple):
    """Pass/fail record for the three funnel/continued-fraction clauses:

    (1) even-index convergents lie on the left edge, odd on the right;
    (2) the first pivot has index a_1 and the last has index a_n;
    (3) interior pivots c_j (0 < j < n-1) have index 1 + a_{j+1}.

    A fourth clause, "index recount", appears only when it fails: the
    funnel's indices differ from a geometric recount of its triangles.
    """

    sequence: ContinuedFraction
    alpha: ExtendedRational
    clauses: tuple[ClauseResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    def as_dict(self) -> dict:
        return {
            "sequence": str(self.sequence),
            "alpha": str(self.alpha),
            "clauses": [c._asdict() for c in self.clauses],
        }


def verify_funnel_theorem(seq: ContinuedFraction | Funnel) -> FunnelTheoremReport:
    """Check the funnel of evaluate(seq) against the expansion's terms.

    Given a Funnel already built, check that one against its own
    expansion and build nothing.  The convergents and the expected pivot
    indices come from the expansion, never from the funnel, and a pivot
    with no index in the funnel fails its clause.  The funnel's indices
    are also recounted from its triangles by integer determinants,
    independently of funnel()'s own count; a disagreement adds a failed
    "index recount" clause.  Any failed clause is an implementation bug,
    never a property of the input; the report carries the offending
    values verbatim.
    """
    if not isinstance(seq, Funnel):
        if not seq.is_standard:
            raise DomainError(f"{seq} is not standard")
        if seq.degree < 1:
            raise DomainError("need n >= 1 (a non-integer value)")
        seq = funnel(evaluate(seq))
    f, seq = seq, seq.expansion
    terms = seq.terms
    n = seq.degree
    cs = convergents(seq)
    left = {(v.num, v.den) for v in f.left_edge}
    right = {(v.num, v.den) for v in f.right_edge}

    def clause(name: str, misses: list[str], passed: str) -> ClauseResult:
        return ClauseResult(name, not misses, "; ".join(misses) or passed)

    side_misses = []
    for j in range(n):
        ok = (cs[j].num, cs[j].den) in (left if j % 2 == 0 else right)
        if not ok:
            want = "left" if j % 2 == 0 else "right"
            side_misses.append(f"c_{j}={cs[j]} not on {want} edge")

    end_misses = []
    i0 = f.indices.get(cs[0])
    if i0 != terms[1]:
        end_misses.append(f"index(c_0)={i0}, expected a_1={terms[1]}")
    ilast = f.indices.get(cs[n - 1])
    if ilast != terms[n]:
        end_misses.append(f"index(c_{n - 1})={ilast}, expected a_n={terms[n]}")

    mid_misses = []
    for j in range(1, n - 1):
        ij = f.indices.get(cs[j])
        if ij != 1 + terms[j + 1]:
            mid_misses.append(f"index(c_{j})={ij}, expected 1+a_{j + 1}={1 + terms[j + 1]}")

    clauses = (
        clause("convergent sides", side_misses, f"c_0..c_{n - 1} alternate left/right"),
        clause("end indices", end_misses, f"index(c_0)={i0}, index(c_{n - 1})={ilast}"),
        clause("interior indices", mid_misses, "vacuous" if n < 3 else "all interior pivots match"),
    )
    recount_misses = _index_recount_misses(f)
    if recount_misses:
        clauses += (clause("index recount", recount_misses, ""),)
    return FunnelTheoremReport(seq, f.alpha, clauses)


def _index_recount_misses(f: Funnel) -> list[str]:
    """Compare f.indices with a recount from f.triangles alone.

    The recount takes every edge of every triangle whose ends lie strictly
    on opposite sides of the line x = alpha, by the sign of an integer
    determinant, and counts each distinct edge once at both of its ends;
    a single-fan funnel adds the closing spoke at its pivot floor(alpha).
    It reads nothing off the expansion's terms, so it checks the count
    funnel() keeps while it walks.  Returns one message per vertex where
    the two disagree.
    """
    a, b = f.alpha.num, f.alpha.den
    # Distinct crossing edges as (west p, west q, east p, east q); the sign
    # of p*b - a*q puts p/q west or east of x = alpha = a/b.
    crossing: set[tuple[int, int, int, int]] = set()
    add = crossing.add
    for x, m, y in f.triangles:
        xp, xq, mp, mq, yp, yq = x.num, x.den, m.num, m.den, y.num, y.den
        sx, sm, sy = xp * b - a * xq, mp * b - a * mq, yp * b - a * yq
        if sx < 0 < sm:
            add((xp, xq, mp, mq))
        elif sm < 0 < sx:
            add((mp, mq, xp, xq))
        if sx < 0 < sy:
            add((xp, xq, yp, yq))
        elif sy < 0 < sx:
            add((yp, yq, xp, xq))
        if sm < 0 < sy:
            add((mp, mq, yp, yq))
        elif sy < 0 < sm:
            add((yp, yq, mp, mq))
    counts: dict[tuple[int, int], int] = {}
    for wp, wq, ep, eq in crossing:
        counts[wp, wq] = counts.get((wp, wq), 0) + 1
        counts[ep, eq] = counts.get((ep, eq), 0) + 1
    if f.expansion.degree == 1:
        pivot = (a // b, 1)
        counts[pivot] = counts.get(pivot, 0) + 1

    misses = []
    for v, k in f.indices.items():
        recount = counts.pop((v.num, v.den), 0)
        if k != recount:
            misses.append(f"index({v})={k}, ray crossings give {recount}")
    for (p, q), recount in counts.items():
        misses.append(f"{ExtendedRational(p, q)} has no index, ray crossings give {recount}")
    return misses
