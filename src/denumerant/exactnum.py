"""Exact numbers and small combinatorial helpers used by every other module.

All arithmetic in this package is exact: Python integers and
``fractions.Fraction`` (aliased ``Rational``). Points of the half-integer lattice
are held inside as the int t = 2s and read or written as an int or a Fraction.
Floating point is deliberately absent.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import InputError

__all__ = [
    "Rational",
    "as_parts",
    "lcm_of",
    "multinomial",
    "compositions",
    "parse_rational",
]

Rational = Fraction

# the text QuasiPoly.to_json writes for a rational: "p" or "p/q", ASCII digits
_RATIONAL_TEXT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def as_parts(parts: Iterable[int]) -> tuple[int, ...]:
    """Validate a part list: non-empty positive integers, order and multiplicity kept.

    Duplicates are allowed and meaningful; each occurrence is a separate
    coordinate of the counting problem.
    """
    out = tuple(parts)
    if not out:
        raise InputError("part list must not be empty")
    for d in out:
        if not isinstance(d, int) or isinstance(d, bool) or d < 1:
            raise InputError(f"parts must be positive integers, got {d!r}")
    return out


def lcm_of(values: Iterable[int]) -> int:
    """Least common multiple of a non-empty iterable of positive integers, read once."""
    values = tuple(values)
    if not values:
        raise InputError("lcm_of needs at least one value")
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise InputError(f"lcm_of needs positive integers, got {v!r}")
    return math.lcm(*values)


def multinomial(n: int, r: Sequence[int]) -> int:
    """n! / prod(r_i!) for a composition r of n."""
    rr = tuple(r)
    if any(x < 0 for x in rr):
        raise InputError("multinomial exponents must be nonnegative")
    if sum(rr) != n:
        raise InputError(f"multinomial needs sum(r) == n, got {sum(rr)} != {n}")
    out = 1
    rest = n
    for x in rr:
        out *= math.comb(rest, x)
        rest -= x
    return out


def compositions(total: int, length: int) -> Iterator[tuple[int, ...]]:
    """Yield every vector of `length` nonnegative integers summing to `total`.

    Deterministic order: first coordinate descending, recursively. A length of
    zero yields the empty vector exactly when total is zero.
    """
    if total < 0 or length < 0:
        raise InputError("compositions needs nonnegative total and length")
    if length == 0:
        if total == 0:
            yield ()
        return
    if length == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in compositions(total - head, length - 1):
            yield (head, *rest)


def parse_rational(text: str) -> Rational:
    """Read an exact rational string "p" or "p/q"; anything else is an InputError.

    The text must match -?[0-9]+(/[0-9]+)? in ASCII, the grammar QuasiPoly.to_json
    writes, before any number is built: so no decimal point, exponent,
    underscore, sign on q, surrounding space or non-ASCII digit is read, and
    no exponent is expanded. A non-string (a JSON number would arrive as a
    binary float), a zero denominator and an integer longer than int() reads
    are all rejected.
    """
    if not isinstance(text, str):
        raise InputError(f"a rational must be an exact string such as '1/3', got {text!r}")
    match = _RATIONAL_TEXT.fullmatch(text)
    if match is None:
        raise InputError(f"not an exact rational: {text!r}")
    num, den = match.groups()
    try:
        return Fraction(int(num), int(den or 1))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not an exact rational: {text!r}") from exc
