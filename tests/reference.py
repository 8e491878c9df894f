"""Second routes the library's products are checked against, kept for the tests.

None of these is on a route of the package: no builder, verify property or
command calls them. They compute the higher-order central coefficients D_n^(m)
(part by part and as a composition sum), the higher-order Bernoulli values,
the polynomial part grown one part at a time, and counts by nested
enumeration, each independently of the library's own route to the same
numbers. Unlike helpers.py they read the bernoulli module's internals: the
integer central rows and the argument checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from denumerant import InputError, Rational, as_parts, compositions, d_scalar, multinomial
from denumerant.bernoulli import _central_rows, _check_index, _exact, central_value
from denumerant.oracle import guard


def _int_args(n: int, parts: Sequence[int]) -> tuple[int, ...]:
    """Refuse anything but a nonnegative int index and int parts (bools are neither)."""
    _check_index(n)
    d = tuple(parts)
    for x in d:
        if not isinstance(x, int) or isinstance(x, bool):
            raise InputError(f"parts must be integers, got {x!r}")
    return d


def _d_ladder(n: int, parts: Sequence[int]) -> list[Rational]:
    """D_0^(m) .. D_n^(m), folding one part at a time into the convolution."""
    cur = [Fraction(1)] + [Fraction(0)] * n
    for d in parts:
        step = [Fraction(d) ** k * d_scalar(k) for k in range(n + 1)]
        cur = [
            sum(math.comb(k, l) * step[l] * cur[k - l] for l in range(k + 1))
            for k in range(n + 1)
        ]
    return cur


def d_higher_recursive(n: int, parts: Sequence[int]) -> Rational:
    """D_n^(m) built one part at a time."""
    return _d_ladder(n, _int_args(n, parts))[n]


def _even_sum(n: int, rows: Sequence[Sequence[int]]) -> int:
    """beta^m D_n^(m) from the rows of bernoulli._central_rows, one int term per composition.

    Only the compositions of n/2 are summed, every exponent doubled: a term
    with an odd exponent holds B_e(1/2) = 0 (DLMF 24.4.27), so odd n gives 0.
    """
    if n % 2:
        return 0
    total = 0
    for half in compositions(n // 2, len(rows)):
        term = multinomial(n, [2 * h for h in half])
        for row, h in zip(rows, half):
            term *= row[h]
        total += term
    return total


def d_higher_symmetric(n: int, parts: Sequence[int]) -> Rational:
    """D_n^(m) as a single symmetric sum over the even compositions of n.

    The sum runs over every composition r of n, each term n!/prod r_k!
    prod d_k^(r_k) D_(r_k); only the even compositions contribute. It is
    summed on ints over beta^m (see bernoulli._central_rows) and divided once.

    Agrees with d_higher_recursive; the two routes share no code beyond the
    scalar coefficients.
    """
    d = _int_args(n, parts)
    beta, rows = _central_rows(d, n)
    return Fraction(_even_sum(n, rows), beta ** len(d))


def bernoulli_higher(n: int, s: Rational | int, parts: Sequence[int]) -> Rational:
    """Higher-order value B_n^(m)(s | parts) via the central expansion.

    Expanded around the symmetry point xi = sum(parts)/2, which is what makes
    the central coefficients appear. Parts may be any nonzero integers here;
    positivity only matters for counting.
    """
    d = _int_args(n, parts)
    if not d or any(x == 0 for x in d):
        raise InputError("parts must be nonzero integers")
    ladder = _d_ladder(n, d)
    xi = Fraction(sum(d), 2)
    sf = _exact(s)
    acc = Fraction(0)
    for l in range(n + 1):
        if ladder[l]:
            acc += math.comb(n, l) * ladder[l] / 2**l * (sf - xi) ** (n - l)
    return acc


def r_mm_constant(parts: Sequence[int]) -> Rational:
    """Constant remainder of the free coefficient.

    The one-part-at-a-time recursion reaches every coefficient except this
    piece, which involves the first m-1 parts only.
    """
    d = as_parts(parts)
    m = len(d)
    return d_higher_symmetric(m - 1, d[:-1]) / (2 ** (m - 1) * math.factorial(m - 1) * math.prod(d))


def r_coeffs_recursive(parts: Sequence[int]) -> tuple[Rational, ...]:
    """Polynomial part grown one part at a time; independent of polypart.v1_explicit.

    Coefficient j of level m sums the previous level's coefficient j-l, l < j,
    times (m-j+l-1)!/(l! (m-j)!) d_m^(l-1) B_l(1/2), one weight for every j.
    The l = 0 term of the free coefficient (j = m) is r_mm_constant.
    """
    d = as_parts(parts)
    coeffs = [Fraction(1, d[0])]
    for mm in range(2, len(d) + 1):
        dm = Fraction(d[mm - 1])
        new = [Fraction(0)] * (mm - 1) + [r_mm_constant(d[:mm])]
        for j in range(1, mm + 1):
            k = mm - j
            for i, prev in enumerate(coeffs[:j]):
                l = j - 1 - i
                b = central_value(l)
                if b:
                    c = Fraction(math.factorial(k + l - 1), math.factorial(l) * math.factorial(k))
                    new[j - 1] += c * dm ** (l - 1) * b * prev
        coeffs = new
    return tuple(coeffs)


def count_enum(parts, n: int) -> int:
    """Count solution vectors by direct nested iteration.

    Deliberately naive and independent of oracle.count_dp. The work estimate
    prod(n // d_i + 1) is checked against the guard limit first: RPF_GUARD_LIMIT
    when it is set, the default otherwise (see oracle.guard).
    """
    d = as_parts(parts)
    if not isinstance(n, int) or isinstance(n, bool):
        raise InputError(f"n must be an integer, got {n!r}")
    if n < 0:
        return 0
    box = math.prod(n // di + 1 for di in d)
    guard(box, f"enumeration would visit up to {box} vectors")

    def rec(idx: int, rem: int) -> int:
        if idx == len(d):
            return 1 if rem == 0 else 0
        di = d[idx]
        return sum(rec(idx + 1, rem - x * di) for x in range(rem // di + 1))

    return rec(0, n)
