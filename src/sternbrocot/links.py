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

The class needs no modular inverse.  If x/q = [0; b1, ..., bk] with
x <= q/2, the last-but-one convergent denominator K of that expansion
satisfies x*K = +-1 (mod q) and K/q = [0; bk, ..., b1]: the inverse class
member names the reversed expansion.  One Euclidean pass on x/q therefore
yields both members in (0, 1/2] and their expansions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .contfrac import ContinuedFraction, evaluate
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

    One Euclidean pass finds the minimum.  With r = p mod q, expand
    x/q = [0; b1, ..., bk] for x = min(r, q - r); the last-but-one
    convergent denominator K is +-p^{-1} mod q, at most q/2, and
    K/q = [0; bk, ..., b1].  The result is x/q with the computed terms, or
    K/q with them reversed when K < x.
    """
    if x.is_infinite:
        raise DomainError("1/0 does not classify a 2-bridge link")
    q = x.den
    if q == 1:
        if x.num == 0:
            return CanonicalForm(ExtendedRational(0), ContinuedFraction((0,)))
        raise DomainError(f"nonzero integer {x} does not classify a 2-bridge link")
    r = x.num % q
    low = min(r, q - r)
    terms = []
    a, b = q, low
    k0, k1 = 0, 1  # consecutive convergent denominators of low/q
    while b:
        t, rem = divmod(a, b)
        terms.append(t)
        k0, k1 = k1, t * k1 + k0
        a, b = b, rem
    if k0 < low:
        low = k0
        terms.reverse()
    # low is +-p and K is +-p^{-1} mod q, both units mod q; the terms are
    # int quotients.
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
    degenerate instead of classified.
    """
    from .lines import line_family  # here, so that links alone does not load lines

    if seq.terms[0] != 0:
        raise DomainError("plat families need a leading term of 0")
    fam = line_family(seq, slot)
    out = []
    for m in ms:
        val = fam.value(m)
        canon = None if val.is_infinite or val.den == 1 else canonical_fraction(val)
        out.append(LinkFamilyEntry(m, val, canon))
    return tuple(out)
