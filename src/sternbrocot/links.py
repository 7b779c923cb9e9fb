"""4-plat twist data and Schubert's classification of 2-bridge links.

A term list (a1, ..., an) describes a 4-plat diagram: twist region j sits
in the top row when j is odd, holds |a_j| crossings, and is right-handed
exactly when a_j > 0 in the top row or a_j < 0 in the bottom row.  The
diagram is standard when every a_j is positive and a1, an >= 2; every
2-bridge link has a standard diagram.

The link of the diagram is classified by the fraction [0; a1, ..., an]:
by Schubert's theorem, p/q and p'/q' give equivalent diagrams (allowing
mirror images) iff q' = q and p' is congruent mod q to one of p, -p,
p^{-1}, -p^{-1}.  The canonical representative picked here is the
numerically smallest member of that class in [1, q-1]; it always lands
in (0, 1/2], so its expansion has a1 >= 2.

The class needs no modular inverse.  With C the continuant, x/q in (0, 1)
with expansion [0; b1, ..., bk] and K = C(b1, ..., b_{k-1}), the determinant
of (0 1; 1 b1)...(0 1; 1 bk) gives x*K = +-1 (mod q), and K/q is
[0; bk, ..., b1].  If b1 = 1, q - x = [0; b2 + 1, b3, ...] takes over with
the same K; K wins, reversed, when it is smaller still.

link_family runs no Euclid over a whole member: K(m) = C(a1, ..., m, ...,
a_{n-1}) is affine in m, taken as min(K, -K) mod q.  For m >= 2, or m = 1
before the last slot, the member's own terms are its expansion; otherwise
Euclid runs from the last tail [c_h; ..., cn] above 1 (from p mod q if none
is) until its state is a suffix's continuant pair (C(a_k, ..., an),
C(a_{k+1}, ..., an)), k past the slot, and copies a_k, ..., an.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .contfrac import ContinuedFraction, continuant_product, evaluate, standard_expansion
from .errors import DomainError
from .rationals import ExtendedRational


class Row(enum.Enum):
    TOP = "TOP"
    BOTTOM = "BOTTOM"


class Hand(enum.Enum):
    RIGHT = "RIGHT"
    LEFT = "LEFT"


class TwistRegion(NamedTuple):
    count: int                # number of crossings, |a_j|
    row: Row
    hand: Hand | None         # None when the region is empty (a_j = 0)


class PlatDiagram(NamedTuple):
    """Combinatorial twist data only; no planar embedding coordinates."""

    terms: tuple[int, ...]
    regions: tuple[TwistRegion, ...]
    is_standard: bool

    def text_art(self) -> str:
        """Two-row sketch of twist counts, signed by handedness."""
        top, bottom = [], []
        for reg in self.regions:
            label = "." if reg.count == 0 else (
                f"{reg.count}R" if reg.hand is Hand.RIGHT else f"{reg.count}L"
            )
            if reg.row is Row.TOP:
                top.append(label)
                bottom.append("." * len(label))
            else:
                bottom.append(label)
                top.append("." * len(label))
        return f"top    {' '.join(top)}\nbottom {' '.join(bottom)}"


def plat_diagram(terms: Sequence[int]) -> PlatDiagram:
    """Twist regions of D(a1, ..., an)."""
    terms = ContinuedFraction((0, *terms)).terms[1:]
    if not terms:
        raise DomainError("a plat diagram needs at least one twist region")
    regions = []
    for j, a in enumerate(terms, start=1):
        row = Row.TOP if j % 2 == 1 else Row.BOTTOM
        if a == 0:
            hand = None
        elif row is Row.TOP:
            hand = Hand.RIGHT if a > 0 else Hand.LEFT
        else:
            hand = Hand.RIGHT if a < 0 else Hand.LEFT
        regions.append(TwistRegion(abs(a), row, hand))
    standard = all(a > 0 for a in terms) and terms[0] >= 2 and terms[-1] >= 2
    return PlatDiagram(terms, tuple(regions), standard)


def plat_fraction(terms: Sequence[int]) -> ExtendedRational:
    """The classifying fraction [0; a1, ..., an] of D(a1, ..., an)."""
    terms = tuple(terms)
    if not terms:
        raise DomainError("a plat diagram needs at least one twist region")
    return evaluate((0, *terms))


def schubert_equivalent(a: ExtendedRational, b: ExtendedRational) -> bool:
    """Schubert's criterion: equal denominators and p' = +-p^{+-1} (mod q).

    Denominator 1 is the trivial class (every integer fraction closes up
    the same way), so any two integer inputs are equivalent.
    """
    if a.is_infinite or b.is_infinite:
        raise DomainError("1/0 does not classify a 2-bridge link")
    if a.den != b.den:
        return False
    q = a.den
    if q == 1:
        return True
    pa, pb = a.num % q, b.num % q
    return pb == pa or pb == q - pa or pa * pb % q in (1, q - 1)


class CanonicalForm(NamedTuple):
    fraction: ExtendedRational        # in [0, 1/2]
    sequence: ContinuedFraction       # standard expansion of the fraction


def canonical_fraction(x: ExtendedRational) -> CanonicalForm:
    """Smallest representative of the Schubert class of x, with its expansion.

    The class {p, -p, p^{-1}, -p^{-1}} mod q is closed under p -> q - p, so
    its minimum is at most q/2 and the result lies in (0, 1/2]; its standard
    expansion therefore starts with a1 >= 2.  0/1 is the trivial fraction.

    The expansion gives the minimum.  With r = p mod q, r/q = p/q - a0 is
    [0; b1, ..., bk], and its last-but-one convergent denominator
    K = C(b1, ..., b_{k-1}) is +-p^{-1} mod q and at most q/2.  The
    result is the smaller of K and x = min(r, q - r), each over q, with
    its expansion (see the module docstring).
    """
    if x.is_infinite:
        raise DomainError("1/0 does not classify a 2-bridge link")
    q = x.den
    if q == 1:
        if x.num == 0:
            return CanonicalForm(ExtendedRational(0), ContinuedFraction((0,)))
        raise DomainError(f"nonzero integer {x} does not classify a 2-bridge link")
    terms = standard_expansion(x).terms[1:]
    K = continuant_product(terms[:-1]).d
    return _class_minimum(x.num % q, q, terms, K)


def _class_minimum(r: int, q: int, terms: Sequence[int], k: int) -> CanonicalForm:
    """The canonical form of the class of r/q = [0; *terms] in (0, 1), given
    its inverse-side member k in [1, q/2]."""
    low = r
    if terms[0] == 1:  # r > q/2, and q - r = [0; b2 + 1, b3, ...]
        low = q - r
        terms = [terms[1] + 1, *terms[2:]]
    if k < low:
        low = k
        terms = terms[::-1]
    # low and k are units mod q; the terms are int quotients.
    return CanonicalForm(ExtendedRational._from_coprime(low, q),
                         ContinuedFraction._from_terms((0, *terms)))


@dataclass(frozen=True)  # perfbench/selfcheck.py calls dataclasses.replace on it
class LinkFamilyEntry:
    m: int
    value: ExtendedRational
    canonical: CanonicalForm | None   # None marks a degenerate member

    @property
    def degenerate(self) -> bool:
        return self.canonical is None


def link_family(
    seq: ContinuedFraction, slot: int, ms: Iterable[int]
) -> tuple[LinkFamilyEntry, ...]:
    """Map each m to the canonical 2-bridge fraction of D(a1, ..., m, ..., an).

    Members whose value is 1/0 or an integer (0/1 included) are flagged
    degenerate; the others get canonical_fraction(value), read off the
    family's continuants (see the module docstring).
    """
    from .lines import line_family  # here, so that links alone does not load lines

    if seq.terms[0] != 0:
        raise DomainError("plat families need a leading term of 0")
    fam = line_family(seq, slot)
    body = seq.terms[1:]
    head, tail = body[:slot - 1], body[slot:]
    _, _, s, u = continuant_product(head)
    v0, v, w0, w = continuant_product(tail)
    k1, k0 = u * w0, s * w0 + u * v0  # K(m) = C(a1, ..., m, ..., a_{n-1})
    suffix_at = {}  # Euclid's state (C(*body[j:]), C(*body[j + 1:])) -> j, past the slot
    a, b = 1, 0
    for j in range(len(body) - 1, slot - 1, -1):
        a, b = body[j] * a + b, a
        suffix_at[a, b] = j
    out = []
    for m in ms:
        val = fam.value(m)
        q = val.den
        if q <= 1:  # 1/0 or an integer
            out.append(LinkFamilyEntry(m, val, None))
            continue
        k = k1 * m + k0
        if m >= 2 or m == 1 and tail:  # the member's own terms are standard
            terms = [*head, m, *tail]
        else:
            k = min(k % q, -k % q)
            # The tail [m; a_{i+1}, ..., an] as a continuant pair; back up
            # over the head while the tail is at most 1.
            a, b, h = m * w + v, w, slot - 1
            while not (a > b > 0 or a < b < 0):
                if not h:
                    a, b = q, val.num % q
                    break
                h -= 1
                a, b = body[h] * a + b, a
            if b < 0:
                a, b = -a, -b
            terms = list(head[:h])
            while b:
                at = suffix_at.get((a, b))
                if at is not None:
                    terms += body[at:]
                    break
                t, rem = divmod(a, b)
                terms.append(t)
                a, b = b, rem
        out.append(LinkFamilyEntry(m, val, _class_minimum(val.num % q, q, terms, k)))
    return tuple(out)
