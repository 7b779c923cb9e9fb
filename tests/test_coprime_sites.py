"""Every value the library builds with the gcd-free ExtendedRational._from_coprime
or ContinuedFraction._from_terms equals the public constructor's value of a
pair computed independently, on Fractions or in tests/oracles.py, and is
stored reduced: den > 0 with gcd(num, den) = 1, or exactly 1/0."""

import random
from fractions import Fraction
from math import floor, gcd

from sternbrocot import (
    ContinuedFraction,
    ExtendedRational,
    INFINITY,
    build_diagram,
    canonical_fraction,
    convergents,
    evaluate,
    funnel,
    line_family,
    mediant,
    standard_expansion,
)
from oracles import gcd_scan_vertices, recursive_pair, schubert_class, search_path_funnel

R = ExtendedRational
CF = ContinuedFraction


def assert_same(value, p, q):
    """value is R(p, q), stored in lowest terms with den > 0, or as 1/0."""
    assert value == R(p, q), (value, p, q)
    n, d = value.num, value.den
    assert (n, d) == (1, 0) or (d > 0 and gcd(n, d) == 1), (n, d)


def assert_same_fraction(value, x: Fraction):
    assert_same(value, x.numerator, x.denominator)


def euclid_terms(x: Fraction) -> tuple[int, ...]:
    """The standard expansion of x, on Fractions."""
    terms = []
    while True:
        a = floor(x)
        terms.append(a)
        if x == a:
            return tuple(terms)
        x = 1 / (x - a)


def assert_terms(cf, terms):
    """cf equals the public constructor's sequence of the same terms."""
    assert cf == CF(terms) and type(cf.terms) is tuple, (cf, terms)
    assert all(type(t) is int for t in cf.terms)


def test_every_gcd_free_site_matches_an_independent_pair():
    rng = random.Random(20)

    # build_diagram: windows with negative, non-integer ends.
    for _ in range(12):
        q = rng.randint(2, 9)
        p = rng.randint(-6 * q, q)
        lo = Fraction(p, q)
        hi = lo + Fraction(rng.randint(1, 3 * q), q + rng.randint(1, 4))
        n = rng.randint(1, 18)
        d = build_diagram(R(lo.numerator, lo.denominator), R(hi.numerator, hi.denominator), n)
        want = sorted(gcd_scan_vertices(lo, hi, n))
        assert len(d.vertices) == len(want)
        for v, x in zip(d.vertices, want):
            assert_same_fraction(v, x)
        for tri in d.triangles:
            for v in tri:
                assert_same(v, v.num, v.den)

    # funnel: every strip vertex, and the expansion from standard_expansion.
    for _ in range(40):
        q = rng.randint(2, 400)
        alpha = Fraction(rng.randint(-3 * q, 3 * q), q)
        if alpha.denominator == 1:
            continue
        f = funnel(R(alpha.numerator, alpha.denominator))
        triangles, _, _, _ = search_path_funnel(alpha)
        assert len(f.triangles) == len(triangles)
        for got, want in zip(f.triangles, triangles):
            for v, x in zip(got, want):
                assert_same_fraction(v, x)
        assert_terms(f.expansion, euclid_terms(alpha))
        assert_terms(standard_expansion(f.alpha), euclid_terms(alpha))

    # evaluate and convergents of non-standard sequences: zero and negative
    # terms, and 1/0 results ([0;2,-1,2] among them).
    infinite = 0
    for terms in [(0, 2, -1, 2), (0, 0), (3, 0, 0), *[
            tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 7))) for _ in range(300)]]:
        assert_same(evaluate(terms), *recursive_pair(terms))
        assert_same(evaluate(CF(terms)), *recursive_pair(terms))
        for j, c in enumerate(convergents(terms)):
            assert_same(c, *recursive_pair(terms[:j + 1]))
        infinite += evaluate(terms).is_infinite
    assert infinite >= 10

    # LineFamily.value, vertex and anchor for m in -50..50, D(m) = 0 included.
    zero_d = 0
    for k in range(25):
        body = [rng.randint(1, 6) for _ in range(rng.randint(1, 5))]
        body[-1] = max(body[-1], 2)
        terms = (rng.randint(-4, 4), *body)
        slot = rng.randint(1, len(body))
        fam = line_family(CF(terms), slot)
        assert_same(fam.anchor_x, *recursive_pair(terms[:slot]))
        for m in range(-50, 51):
            member = (*terms[:slot], m, *terms[slot + 1:])
            p, q = recursive_pair(member)
            assert_same(fam.value(m), p, q)
            pt = fam.vertex(m)
            if q == 0:
                zero_d += 1
                assert pt.at_infinity
            else:
                assert_same(pt.x, p, q)
                assert_same(pt.y, 1, q)
    assert zero_d >= 1

    # mediant of Farey pairs, 1/0 and negative values included.
    for _ in range(200):
        q = rng.randint(1, 60)
        p = rng.choice([x for x in range(-3 * q, 3 * q + 1) if gcd(x, q) == 1])
        # r/s with p*s - r*q = 1: s = p^{-1} mod q (s = 1 when q = 1).
        s = pow(p, -1, q) if q > 1 else 1
        r = (p * s - 1) // q
        a, b = R(p, q), R(r, s)
        assert_same(mediant(a, b), p + r, q + s)
        assert_same(mediant(b, a), p + r, q + s)
    assert_same(mediant(INFINITY, R(-3)), -2, 1)

    # canonical_fraction: the class minimum over q and its expansion.
    for _ in range(200):
        q = rng.randint(2, 3000)
        p = rng.randint(-q, 2 * q)
        x = Fraction(p, q)
        if x.denominator == 1:
            continue
        low = min(schubert_class(x.numerator, x.denominator))
        canon = canonical_fraction(R(p, q))
        assert_same(canon.fraction, low, x.denominator)
        assert_terms(canon.sequence, euclid_terms(Fraction(low, x.denominator)))
