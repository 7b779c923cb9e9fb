"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: parse errors -> 2, domain errors -> 3,
invariant violations (bugs, by definition) -> 4.
"""

import sys


def too_many_digits(what: str) -> str:
    """Message for an integer past Python's int/text conversion limit.

    CPython converts at most sys.get_int_max_str_digits() digits (4300 by
    default) between int and decimal text, a guard against quadratic-time
    conversions (CVE-2020-10735).  The package keeps that guard: input
    past it is a ParseError, output past it a DomainError.
    """
    return (
        f"{what} has more than {sys.get_int_max_str_digits()} digits, "
        "the limit for converting integers to or from text"
    )


class ParseError(ValueError):
    """Malformed textual input (rational, continued fraction, range)."""


class DomainError(ValueError):
    """Operation applied outside its mathematical domain."""


class DegenerateFunnelError(DomainError):
    """Funnel requested for an integer: the defining ray passes through vertices."""


class InvariantViolation(RuntimeError):
    """A proved identity failed to hold; always an implementation bug."""
