"""Exact numbers and small combinatorial helpers used by every other module.

All arithmetic in this package is exact: Python integers, ``fractions.Fraction``
(aliased ``Rational``) and points of the half-integer lattice. Floating point is
deliberately absent.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

from .errors import InputError

__all__ = [
    "Rational",
    "HalfInt",
    "HalfLike",
    "as_parts",
    "lcm_of",
    "multinomial",
    "compositions",
    "parse_rational",
]

Rational = Fraction

HalfLike = Union["HalfInt", int, Fraction]


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


def lcm_of(values: Sequence[int]) -> int:
    """Least common multiple of a non-empty sequence of positive integers."""
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
    """Read an exact rational string such as "p/q"; anything else is an InputError.

    A non-string (a JSON number would arrive as a binary float) and a zero
    denominator are both rejected.
    """
    if not isinstance(text, str):
        raise InputError(f"a rational must be an exact string such as '1/3', got {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not an exact rational: {text!r}") from exc


class HalfInt:
    """A point of the half-integer lattice (1/2)Z, stored as twice its value.

    Shift arguments, evaluation points and table residues all live on this
    lattice; keeping 2s as the representation makes every residue computation
    plain integer arithmetic. ``HalfInt(3)`` is the point 3/2.
    """

    __slots__ = ("twice",)

    def __init__(self, twice: int):
        if not isinstance(twice, int) or isinstance(twice, bool):
            raise InputError(f"HalfInt stores twice the value as an int, got {twice!r}")
        self.twice = twice

    @classmethod
    def coerce(cls, value: HalfLike) -> "HalfInt":
        """Accept a HalfInt, an integer, or a Fraction with denominator 1 or 2."""
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return cls(2 * value)
        if isinstance(value, Fraction):
            if value.denominator == 1:
                return cls(2 * value.numerator)
            if value.denominator == 2:
                return cls(value.numerator)
        raise InputError(f"{value!r} is not a half-integer lattice point")

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.twice, 2)

    def __add__(self, other: HalfLike) -> "HalfInt":
        return HalfInt(self.twice + HalfInt.coerce(other).twice)

    def __sub__(self, other: HalfLike) -> "HalfInt":
        return HalfInt(self.twice - HalfInt.coerce(other).twice)

    def __eq__(self, other: object) -> bool:
        try:
            return self.twice == HalfInt.coerce(other).twice  # type: ignore[arg-type]
        except InputError:
            return NotImplemented

    def __hash__(self) -> int:
        return hash(self.fraction)

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self) -> str:
        return f"HalfInt({self.twice})"
