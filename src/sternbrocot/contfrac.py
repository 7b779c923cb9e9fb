"""Finite continued fractions via exact 2x2 integer matrix products.

A term sequence (a0, ..., an) evaluates to the extended rational

    [a0; a1, ..., an] = a0 + 1/(a1 + 1/(... + 1/an))

computed as the second column of the matrix product

    (1 a0; 0 1) (0 1; 1 a1) ... (0 1; 1 an).

The matrix form is total: sequences whose naive recursion passes through
an intermediate infinity (e.g. [0;2,-1,2]) still evaluate, to 1/0.  The
Euclidean algorithm produces the unique standard expansion, the one with
a_j >= 1 for j >= 1 and a_n >= 2 (single-term sequences are standard by
convention).

All functions are pure and all values immutable.

Values are built with the private ExtendedRational._from_coprime, which
skips the gcd: evaluate and convergents return columns of a product of
matrices of determinant +-1, and a column of such a matrix is coprime.
Its denominator may be 0 or negative (see rationals).  Likewise the
private ContinuedFraction._from_terms skips the term checks for the
Euclidean quotients of standard_expansion, which are ints and never
empty.  Every term list from outside goes through ContinuedFraction(...).
"""

from __future__ import annotations

import enum
import operator
import re
from typing import Iterable, NamedTuple, Sequence

from .errors import DomainError, ParseError
from .rationals import ExtendedRational, _Frozen, int_text, parse_int

_CF_RE = re.compile(r"\A\s*\[\s*([+-]?\d+)\s*(?:;\s*(.*?)\s*)?\]\s*\Z")
_TERM_RE = re.compile(r"\A[+-]?\d+\Z")


class ContinuedFraction(_Frozen):
    """Integer term sequence (a0, ..., an), kept as a tuple of ints; terms may be any integers."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[int]):
        try:
            terms = tuple(map(operator.index, terms))
        except TypeError:
            raise DomainError("terms must be integers") from None
        if not terms:
            raise DomainError("continued fractions need at least one term")
        _set_terms(self, terms)

    @classmethod
    def _from_terms(cls, terms: tuple[int, ...]) -> "ContinuedFraction":
        """The expansion of a nonempty tuple of ints, built without the
        checks; the caller keeps that precondition."""
        self = object.__new__(cls)
        _set_terms(self, terms)
        return self

    @property
    def degree(self) -> int:
        """The n of (a0, ..., an)."""
        return len(self.terms) - 1

    @property
    def is_standard(self) -> bool:
        """a_j >= 1 for j >= 1 and a_n >= 2; single-term sequences qualify."""
        if len(self.terms) == 1:
            return True
        body = self.terms[1:]
        return all(t >= 1 for t in body) and body[-1] >= 2

    @classmethod
    def parse(cls, text: str) -> "ContinuedFraction":
        terms, hole = parse_terms(text, allow_hole=False)
        assert hole is None
        return cls(terms)

    def __str__(self) -> str:
        return format_terms(self.terms)

    def __len__(self):
        return len(self.terms)


# Built for each evaluated term list: storing through the slot is faster than _store.
_set_terms = ContinuedFraction.terms.__set__


def format_terms(terms: Sequence[int | None]) -> str:
    """Render terms as "[a0;a1,...,an]"; None renders as the hole "_"."""
    body = ",".join("_" if t is None else int_text(t) for t in terms[1:])
    head = "_" if terms[0] is None else int_text(terms[0])
    if body:
        return f"[{head};{body}]"
    return f"[{head}]"


def parse_terms(text: str, allow_hole: bool = False) -> tuple[list[int | None], int | None]:
    """Parse "[a0;a1,...,an]" into a term list.

    With allow_hole, exactly one of a1..an may be "_"; its index is returned.
    The leading term can never be a hole.
    """
    m = _CF_RE.match(text)
    if m is None:
        raise ParseError(f"not a continued fraction: {text!r}")
    terms: list[int | None] = [parse_int(m.group(1))]
    hole: int | None = None
    if m.group(2) is not None:
        if not m.group(2):
            raise ParseError(f"empty term list after ';': {text!r}")
        for raw in m.group(2).split(","):
            tok = raw.strip()
            if tok == "_":
                if not allow_hole:
                    raise ParseError("hole '_' is only valid in a line-family sequence")
                if hole is not None:
                    raise ParseError("a line-family sequence has exactly one hole")
                hole = len(terms)
                terms.append(None)
            elif _TERM_RE.match(tok):
                terms.append(parse_int(tok))
            else:
                raise ParseError(f"bad term {tok!r} in {text!r}")
    if allow_hole and hole is None:
        raise ParseError("a line-family sequence needs exactly one hole '_'")
    return terms, hole


class IntMat2(NamedTuple):
    """2x2 integer matrix [[a, b], [c, d]] with exact determinant."""

    a: int
    b: int
    c: int
    d: int

    @classmethod
    def identity(cls) -> "IntMat2":
        return cls(1, 0, 0, 1)

    @classmethod
    def continuant(cls, a: int) -> "IntMat2":
        """The step matrix (0 1; 1 a) that appends term a."""
        return cls(0, 1, 1, a)

    @classmethod
    def translation(cls, a0: int) -> "IntMat2":
        """The leading-term matrix (1 a0; 0 1)."""
        return cls(1, a0, 0, 1)

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def __matmul__(self, other: "IntMat2") -> "IntMat2":
        return IntMat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def apply(self, p: int, q: int) -> tuple[int, int]:
        """Matrix-vector product with the column (p, q)."""
        return self.a * p + self.b * q, self.c * p + self.d * q

    def column(self, j: int) -> tuple[int, int]:
        return (self.a, self.c) if j == 0 else (self.b, self.d)

    def row(self, i: int) -> tuple[int, int]:
        return (self.a, self.b) if i == 0 else (self.c, self.d)


def continuant_product(terms: Iterable[int]) -> IntMat2:
    """Product (0 1; 1 t1) ... (0 1; 1 tk); the identity for an empty list.

    The running product after j factors has determinant (-1)^j, and its
    first column equals the previous product's second column.
    """
    a, b, c, d = 1, 0, 0, 1
    for t in terms:
        a, b, c, d = b, a + b * t, d, c + d * t
    return IntMat2(a, b, c, d)


def _as_terms(seq: ContinuedFraction | Sequence[int]) -> tuple[int, ...]:
    if isinstance(seq, ContinuedFraction):
        return seq.terms
    # evaluate and convergents skip the gcd, so a bare sequence is checked too.
    return ContinuedFraction(seq).terms


def evaluate(seq: ContinuedFraction | Sequence[int]) -> ExtendedRational:
    """Evaluate [a0; a1, ..., an] exactly; 1/0 is a value, not an error."""
    terms = _as_terms(seq)
    m = continuant_product(terms[1:])
    # The column of (1 a0; 0 1) m, whose determinant is +-1.
    return ExtendedRational._from_coprime(m.b + terms[0] * m.d, m.d)


def standard_expansion(value: ExtendedRational) -> ContinuedFraction:
    """Unique standard expansion of a finite rational via the Euclidean algorithm.

    The result is standard without adjustment: after the first step p > q,
    so every later quotient is at least 1 and the last, p/q with q | p,
    is at least 2.
    """
    if value.is_infinite:
        raise DomainError("1/0 has no standard expansion")
    terms = []
    p, q = value.num, value.den
    while True:
        a, r = divmod(p, q)
        terms.append(a)
        if r == 0:
            break
        p, q = q, r
    return ContinuedFraction._from_terms(tuple(terms))  # int quotients, at least one


def convergents(seq: ContinuedFraction | Sequence[int]) -> tuple[ExtendedRational, ...]:
    """Values of all prefixes [a0; a1, ..., aj], built from one running product."""
    terms = _as_terms(seq)
    # (b, d) is a column of a running product of determinant +-1.
    new = ExtendedRational._from_coprime
    a, b, c, d = 1, terms[0], 0, 1
    out = [new(b, d)]
    for t in terms[1:]:
        a, b, c, d = b, a + b * t, d, c + d * t
        out.append(new(b, d))
    return tuple(out)


def mobius_apply(m: IntMat2, x: ExtendedRational) -> ExtendedRational:
    """Act on Q union {1/0} by the Mobius transformation of a nonsingular matrix.

    Defined through the quotient map on integer columns, so
    mobius_apply(M, p/q) = theta(M (p, q)^T); in particular (a b; c d)
    sends 1/0 to a/c and 0/1 to b/d.
    """
    if m.det() == 0:
        raise DomainError("Mobius action needs a nonsingular matrix")
    return ExtendedRational(*m.apply(x.num, x.den))


class RangeBracket(enum.Enum):
    """Which half of (0, 1] a positive-term tail [0; a1, ..., aj] lands in."""

    LOW = "LOW"    # (0, 1/2], exactly when a1 >= 2
    HIGH = "HIGH"  # [1/2, 1], exactly when a1 = 1


class RangeReport(NamedTuple):
    bracket: RangeBracket
    value: ExtendedRational
    attains_one: bool


def classify_range(terms: Sequence[int]) -> RangeReport:
    """Place [0; a1, ..., aj] (positive terms) in (0, 1/2] or [1/2, 1].

    The value is 1 exactly for the single-term sequence (1).
    """
    terms = tuple(terms)
    if not terms:
        raise DomainError("empty term list")
    if any(t < 1 for t in terms):
        raise DomainError("range classification needs positive terms")
    value = evaluate((0, *terms))
    bracket = RangeBracket.LOW if terms[0] >= 2 else RangeBracket.HIGH
    return RangeReport(bracket, value, terms == (1,))
