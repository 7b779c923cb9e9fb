"""Exact extended-rational values, their order and the Farey predicates.

Values are fractions p/q kept in lowest terms with q >= 0.  There is a
single point at infinity, represented as 1/0 (so -1/0 normalizes to 1/0),
and 0 is stored as 0/1.

Everything here is immutable after construction and safe to share between
threads; ExtendedRational enforces it, so assigning or deleting an
attribute raises AttributeError and a hash never changes; the private
base _Frozen does the same for the package's other value classes.  There
are no arithmetic operators: callers compute with the integers num and den
and build a new value from the result.  Floating point never appears;
rendering code converts to floats at the last moment.

ExtendedRational(num, den) reduces any integer pair with one gcd.  The
private ExtendedRational._from_coprime(num, den) skips that gcd, so it is
only for pairs the library has just computed and knows to be coprime:
pairs that are a column of an integer matrix of determinant +-1, such as
consecutive Farey terms, the mediant of a Farey pair, the vertex height
1/q and every value or convergent [a0; a1, ..., an] of a continued
fraction.  Input from outside, and any pair that may share a factor, goes
through the public constructor.
"""

from __future__ import annotations

import functools
import math
import re

from .errors import DomainError, ParseError, too_many_digits

_RATIONAL_RE = re.compile(r"\A\s*([+-]?\d+)\s*(?:/\s*([+-]?\d+))?\s*\Z")


class _Frozen:
    """Immutable value with its fields in __slots__, in constructor order.

    __init__ stores the fields through _store, or through the slot
    descriptors' __set__ where it runs in a hot loop; every later write or
    delete raises AttributeError.  Instances of one class compare and hash
    by the fields not named in _uncompared, and repr shows every field.
    __reduce__ rebuilds through the constructor, so copy and pickle work.
    """

    __slots__ = ()
    _uncompared: tuple[str, ...] = ()

    def _store(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name}")

    def _compared(self) -> tuple:
        return tuple([getattr(self, n) for n in self.__slots__ if n not in self._uncompared])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._compared() == other._compared()
        return NotImplemented

    def __hash__(self):
        return hash(self._compared())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple([getattr(self, n) for n in self.__slots__])


@functools.total_ordering
class ExtendedRational(_Frozen):
    """A reduced fraction p/q with q >= 0, including the infinite value 1/0.

    Any integer pair normalizes: (p, 0) is 1/0 for every p != 0, and (0, 0)
    is rejected.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        try:
            g = math.gcd(num, den)
        except TypeError:
            raise DomainError("numerator and denominator must be integers") from None
        if g == 0:
            raise DomainError("0/0 is not an extended rational")
        # A negative divisor makes den positive, and (p, 0) the unsigned 1/0.
        if den < 0 or den == 0 and num < 0:
            g = -g
        _set_num(self, num // g)
        _set_den(self, den // g)

    @classmethod
    def _from_coprime(cls, num: int, den: int) -> "ExtendedRational":
        """The value num/den of an integer pair with gcd(num, den) = 1,
        built without computing the gcd.

        The precondition is the caller's to keep: the pair is stored as it
        is, negated when den < 0.  With den == 0 the precondition means
        num is +-1, and the result is 1/0.
        """
        self = object.__new__(cls)
        if den < 0:
            num, den = -num, -den
        elif den == 0:
            num = 1
        _set_num(self, num)
        _set_den(self, den)
        return self

    @classmethod
    def parse(cls, text: str) -> "ExtendedRational":
        m = _RATIONAL_RE.match(text)
        if m is None:
            raise ParseError(f"not a rational: {text!r}")
        num = parse_int(m.group(1))
        den = parse_int(m.group(2)) if m.group(2) is not None else 1
        if num == 0 and den == 0:
            raise ParseError("0/0 is not a rational")
        return cls(num, den)

    @property
    def is_infinite(self) -> bool:
        return self.den == 0

    @property
    def is_integer(self) -> bool:
        return self.den == 1

    # -- comparisons -----------------------------------------------------
    # An int compares, hashes and orders as the integer value it names.

    def __eq__(self, other):
        if isinstance(other, ExtendedRational):
            return self.num == other.num and self.den == other.den
        if isinstance(other, int):
            return self.den == 1 and self.num == other
        return NotImplemented

    def __hash__(self):
        # Integers compare equal to int, so they must hash like int too.
        if self.den == 1:
            return hash(self.num)
        return hash((self.num, self.den))

    def __lt__(self, other):
        if not isinstance(other, ExtendedRational):
            if not isinstance(other, int):
                return NotImplemented
            other = ExtendedRational(other)
        if self.den == 0 or other.den == 0:
            raise DomainError("1/0 is not ordered against other values")
        return self.num * other.den < other.num * self.den

    def __float__(self) -> float:
        if self.den == 0:
            return math.inf
        return self.num / self.den

    def __str__(self) -> str:
        if self.den == 0:
            return "1/0"
        if self.den == 1:
            return int_text(self.num)
        return f"{int_text(self.num)}/{int_text(self.den)}"

    def __repr__(self) -> str:
        return f"ExtendedRational({self.num}, {self.den})"


# __setattr__ refuses every write, so the constructors store through the slots.
_set_num = ExtendedRational.num.__set__
_set_den = ExtendedRational.den.__set__


def parse_int(text: str) -> int:
    """int() of a signed decimal digit string; past the int/text digit
    limit (errors.too_many_digits) it raises ParseError."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(too_many_digits(f"the input integer {text[:12]}...")) from None


def int_text(n: int) -> str:
    """str(n); past the int/text digit limit it raises DomainError."""
    try:
        return str(n)
    except ValueError:
        raise DomainError(too_many_digits("an integer of the result")) from None


INFINITY = ExtendedRational(1, 0)


def is_farey_pair(a: ExtendedRational, b: ExtendedRational) -> bool:
    """True iff a = p/q, b = r/s satisfy ps - rq = +-1.

    1/0 participates normally: {1/0, k} is a Farey pair for every integer k.
    """
    det = a.num * b.den - b.num * a.den
    return det == 1 or det == -1


def mediant(a: ExtendedRational, b: ExtendedRational) -> ExtendedRational:
    """Mediant (p+r)/(q+s) of a Farey pair; completes {a, b} to a Farey triple.

    The mediant of a Farey pair is automatically in lowest terms.
    """
    if not is_farey_pair(a, b):
        raise DomainError(f"{a} and {b} are not a Farey pair")
    # (p+r)s - (q+s)r = ps - qr = +-1, so the mediant is coprime.
    return ExtendedRational._from_coprime(a.num + b.num, a.den + b.den)

