"""Line families: substituting an integer m into one slot of a standard
continued fraction sweeps out vertices that sit on two mirror-image lines.

The vertices live in the plane: vertex_point sends a finite p/q to the
point (p/q, 1/q) with exact coordinates, and 1/0 to the added point of
R^2 union {oo}, INFINITE_POINT.

For a standard (a0, ..., an) and a slot i in {1, ..., n}, write the
a0-free prefix product (0 1; 1 a1)...(0 1; 1 a_{i-1}) as (r t; s u) and
let (v, w) be the column (0 1; 1 a_{i+1})...(0 1; 1 an) (0, 1)^T.  Then
the substituted value is the ratio of the affine integer forms

    N(m) = t*w*m + (r*w + t*v)        (numerator)
    D(m) = u*w*m + (s*w + u*v)        (denominator)

shifted horizontally by a0.  All vertices (N/D, 1/D) lie on one extended
line through the anchor (gamma, 0), gamma = a0 + t/u, and the actual
diagram vertices land on that line when D(m) > 0 and on its mirror image
across the x-axis when D(m) < 0; D(m) = 0 puts the point at infinity.
D is strictly increasing (u*w > 0); its real root lies in (-2, 0), and
in (-1, 0) when i = 1, for n >= 2, and is 0 for n = 1.  LineFamily checks
these bounds once, when it is made.  Since N(m)*u - t*D(m) = +-w, the
vertex sits at (+-w, u) / (u*D(m)) from the anchor, so its squared
distance to the anchor is (w^2 + u^2) / (u*D(m))^2, which shrinks
strictly along both tails.  Everything is computed from these integers;
ExtendedRational appears only in returned values.
"""

from __future__ import annotations

import enum

from .contfrac import ContinuedFraction, continuant_product
from .errors import DomainError, InvariantViolation
from .rationals import ExtendedRational, _Frozen


class Side(enum.Enum):
    PLUS = "PLUS"
    MINUS = "MINUS"
    INFINITE = "INFINITE"


class PlanePoint(_Frozen):
    """Point of R^2 union {oo} with exact rational coordinates.

    The infinite point carries no coordinates; finite points store exact
    rationals.  Floats appear only when rendering.
    """

    __slots__ = ("x", "y")

    def __init__(self, x: ExtendedRational | None, y: ExtendedRational | None):
        if (x is None) != (y is None):
            raise DomainError("a point has both coordinates or neither")
        if x is not None and (x.is_infinite or y.is_infinite):
            raise DomainError("finite points need finite coordinates")
        _set_x(self, x)
        _set_y(self, y)

    @property
    def at_infinity(self) -> bool:
        return self.x is None

    def reflected(self) -> "PlanePoint":
        """Mirror image across the x-axis (fixes the infinite point)."""
        if self.at_infinity:
            return self
        return PlanePoint(self.x, ExtendedRational(-self.y.num, self.y.den))

    def __str__(self) -> str:
        if self.at_infinity:
            return "oo"
        return f"({self.x}, {self.y})"


# LineFamily.vertex builds one per member (41 per slot in the family-links
# benchmark).  Storing through the slots is faster than _store: with _store
# here and in contfrac, family-links ran about 10% fewer ops/s (Python 3.11).
_set_x = PlanePoint.x.__set__
_set_y = PlanePoint.y.__set__

INFINITE_POINT = PlanePoint(None, None)


def vertex_point(value: ExtendedRational) -> PlanePoint:
    """Embed p/q as the diagram vertex (p/q, 1/q); 1/0 maps to the infinite point.

    Injective on finite rationals, with exact y-coordinate 1/q.
    """
    if value.is_infinite:
        return INFINITE_POINT
    # gcd(1, q) = 1.
    return PlanePoint(value, ExtendedRational._from_coprime(1, value.den))


class ExtendedLine(_Frozen):
    """Euclidean line plus the infinite point, anchored on the x-axis.

    Stored as the anchor (gamma, 0) and one more exact point, so membership
    is a cleared-denominator determinant comparison with no division.
    """

    __slots__ = ("anchor", "through")

    def __init__(self, anchor: PlanePoint, through: PlanePoint):
        if anchor.at_infinity or through.at_infinity:
            raise DomainError("lines are anchored at finite points")
        if anchor.y.num != 0:
            raise DomainError("anchor must sit on the x-axis")
        if through.y.num == 0:
            raise DomainError("second point must leave the x-axis")
        self._store(anchor, through)

    @property
    def slope(self) -> ExtendedRational:
        """(e/h) / (p/q - t/u) for the anchor t/u and the point (p/q, e/h);
        1/0 for a vertical line."""
        t, u = self.anchor.x.num, self.anchor.x.den
        p, q = self.through.x.num, self.through.x.den
        e, h = self.through.y.num, self.through.y.den
        return ExtendedRational(e * q * u, h * (p * u - t * q))

    def contains(self, pt: PlanePoint) -> bool:
        """Exact membership; the infinite point belongs to every extended line.

        For vertices (a/b, 1/b) this is the determinant criterion
        |p t; q u| = |a t; b u| for the line through (p/q, 1/q) and (t/u, 0).
        """
        if pt.at_infinity:
            return True
        t, u = self.anchor.x.num, self.anchor.x.den
        p, q = self.through.x.num, self.through.x.den
        e, h = self.through.y.num, self.through.y.den
        a, b = pt.x.num, pt.x.den
        f, g = pt.y.num, pt.y.den
        return (p * u - t * q) * f * b * h == (a * u - t * b) * e * g * q

    def reflected(self) -> "ExtendedLine":
        """Mirror image across the x-axis: same anchor, negated slope."""
        return ExtendedLine(self.anchor, self.through.reflected())

    def coincides(self, other: "ExtendedLine") -> bool:
        """Geometric equality: same anchor and same slope."""
        return self.anchor == other.anchor and self.slope == other.slope


class LineFamily(_Frozen):
    """Slot i of a standard sequence [a0; a1, ..., an] (n >= 1, 1 <= i <= n)
    opened up to an integer parameter: LineFamily(base, slot).

    It stores what base and slot fix: the forms N and D and the anchor
    gamma = a0 + t/u, whose denominator is u; w is den_coeffs[0] // u.
    value() and anchor_x skip the gcd: these coefficients come from
    products of determinant +-1.
    """

    __slots__ = ("base", "slot", "num_coeffs", "den_coeffs", "anchor_x")

    def __init__(self, base: ContinuedFraction, slot: int):
        if not base.is_standard:
            raise DomainError(f"{base} is not standard")
        n = base.degree
        if n < 1:
            raise DomainError("single-term sequences have no slot to open")
        if not 1 <= slot <= n:
            raise DomainError(f"slot {slot} out of range 1..{n}")
        terms = base.terms
        r, t, s, u = continuant_product(terms[1:slot])
        v, w = continuant_product(terms[slot + 1:]).column(1)
        if min(r, t, s, u, v, w) < 0:
            raise InvariantViolation("negative entry in a standard prefix/suffix product")
        c1, c0 = u * w, s * w + u * v
        if c1 <= 0:
            raise InvariantViolation("denominator form must be strictly increasing")
        # D's root is -c0/c1; for n = 1 it is 0, and the distance profile needs [-2, 0].
        if n >= 2 and not 0 < c0 < 2 * c1:
            raise InvariantViolation(f"root {ExtendedRational(-c0, c1)} of D outside (-2, 0)")
        if n >= 2 and slot == 1 and not c0 < c1:
            raise InvariantViolation(f"root {ExtendedRational(-c0, c1)} outside (-1, 0) "
                                     "with slot 1")
        if n == 1 and c0 > 2 * c1:
            raise InvariantViolation(f"root {ExtendedRational(-c0, c1)} of D outside [-2, 0]")
        # N(m) = num_coeffs[0]*m + num_coeffs[1], D(m) likewise; (t, u) is a
        # column of a matrix of determinant +-1, so a0*u + t and u are coprime.
        self._store(base, slot, (t * w, r * w + t * v), (c1, c0),
                    ExtendedRational._from_coprime(terms[0] * u + t, u))

    def __reduce__(self):
        return LineFamily, (self.base, self.slot)

    @property
    def degree(self) -> int:
        return self.base.degree

    def numerator_at(self, m: int) -> int:
        return self.num_coeffs[0] * m + self.num_coeffs[1]

    def denominator_at(self, m: int) -> int:
        return self.den_coeffs[0] * m + self.den_coeffs[1]

    def sequence_for(self, m: int) -> ContinuedFraction:
        """The base sequence with the slot replaced by m."""
        terms = list(self.base.terms)
        terms[self.slot] = m
        return ContinuedFraction(terms)

    def value(self, m: int) -> ExtendedRational:
        """The substituted continued fraction's value, infinity included."""
        d = self.denominator_at(m)
        # A column of the member's continuant product, of determinant +-1.
        return ExtendedRational._from_coprime(self.numerator_at(m) + self.base.terms[0] * d, d)

    def vertex(self, m: int) -> PlanePoint:
        return vertex_point(self.value(m))

    def side(self, m: int) -> Side:
        """Which of the two lines carries the vertex: the sign of D(m).

        Guaranteed PLUS for m >= 1, and at m = 0 unless n = 1 (INFINITE), and
        MINUS for m <= -2; the sign at m = -1 depends on the family.
        """
        d = self.denominator_at(m)
        if d > 0:
            return Side.PLUS
        if d < 0:
            return Side.MINUS
        return Side.INFINITE

    def line_pair(self) -> tuple[ExtendedLine, ExtendedLine]:
        """The upward line through (gamma, 0) and the m=1 vertex, and its mirror."""
        anchor = PlanePoint(self.anchor_x, ExtendedRational(0))
        plus = ExtendedLine(anchor, self.vertex(1))
        return plus, plus.reflected()

    def denominator_root(self) -> ExtendedRational:
        """The real root of D; in (-2, 0) for n >= 2 and (-1, 0) when i = 1.

        For n = 1 the root is exactly 0 (the one family shape whose m = 0
        member is infinite).  The constructor checks these bounds.
        """
        c1, c0 = self.den_coeffs
        return ExtendedRational(-c0, c1)

    def squared_distance_profile(
        self, count: int
    ) -> tuple[tuple[ExtendedRational | None, ...], tuple[ExtendedRational | None, ...]]:
        """Exact squared distances |vertex(m) - (gamma, 0)|^2 for m = 0..count
        and m = -1..-count; None marks infinite members (D(m) = 0).

        Each is the closed form (w^2 + u^2) / (u*D(m))^2, u = anchor_x.den and
        w = den_coeffs[0] // u.  The numerator is constant, and the root
        bounds the constructor checks make |D(m)| strictly increase on
        m >= 0 and on m <= -2, so the finite entries strictly decrease there.
        """
        if count < 2:
            raise DomainError("need count >= 2")
        u = self.anchor_x.den
        w = self.den_coeffs[0] // u
        top = w * w + u * u

        def sq(m: int) -> ExtendedRational | None:
            d = self.denominator_at(m)
            return ExtendedRational(top, (u * d) ** 2) if d else None

        return tuple(map(sq, range(0, count + 1))), tuple(map(sq, range(-1, -count - 1, -1)))

    def shared_line_partner(self) -> "LineFamily | None":
        """The other family with the same line pair, when one exists.

        The anchor's x-value gamma has exactly two positive-term expansions;
        rewriting the prefix between them -- (..., c) with c >= 2 versus
        (..., c-1, 1) -- keeps the anchor and |slope| and swaps the roles of
        the two lines.  Families with an empty prefix or prefix (1,) have no
        partner with the same leading term.
        """
        slot, terms = self.slot, self.base.terms
        prefix = terms[1:slot]
        if slot < 2 or prefix == (1,):
            return None
        if prefix[-1] >= 2:
            new_prefix = prefix[:-1] + (prefix[-1] - 1, 1)
            new_slot = slot + 1
        else:
            new_prefix = prefix[:-2] + (prefix[-2] + 1,)
            new_slot = slot - 1
        return LineFamily(ContinuedFraction((terms[0], *new_prefix, *terms[slot:])), new_slot)


def line_family(seq: ContinuedFraction, slot: int) -> LineFamily:
    """The same as LineFamily(seq, slot), as a function."""
    return LineFamily(seq, slot)
