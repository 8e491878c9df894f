"""Bernoulli numbers, Bernoulli polynomials, and their higher-order relatives.

Convention: B_1 = -1/2, i.e. the numbers are the coefficients of t/(e^t - 1).
The higher-order objects attached to a part list d = (d_1, ..., d_m) are the
coefficients of (prod d_i) t^m e^{st} / prod(e^{d_i t} - 1); they are computed
here through the central coefficients D_n rather than through any series
manipulation, so tests can check the generating function independently. The
symmetric sum over compositions runs on ints: each D_e is scaled to an integer
numerator over beta, the lcm of the denominators involved, so a sum over m
parts sits over beta^m and one Fraction is built per result.

The number cache is shared and only ever grows; writers take a lock, readers
index into the already-filled prefix.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import InputError
from .exactnum import Rational, compositions, multinomial

__all__ = [
    "bernoulli_number",
    "bernoulli_poly",
    "central_value",
    "d_scalar",
    "d_higher_recursive",
    "d_higher_symmetric",
    "bernoulli_higher",
]

_B: list[Fraction] = [Fraction(1), Fraction(-1, 2)]
_B_LOCK = threading.Lock()


def bernoulli_number(n: int) -> Rational:
    """B_n with B_1 = -1/2; odd indices above 1 come out zero."""
    _int_args(n, ())
    if n >= len(_B):
        with _B_LOCK:
            while len(_B) <= n:
                m = len(_B)
                # defining recurrence: sum_{k=0}^{m} C(m+1,k) B_k = 0
                acc = sum(math.comb(m + 1, k) * _B[k] for k in range(m))
                _B.append(-acc / (m + 1))
    return _B[n]


def bernoulli_poly(n: int, x: Rational | int) -> Rational:
    """B_n(x) = sum_k C(n,k) B_k x^(n-k), evaluated exactly."""
    _int_args(n, ())
    xf = _exact(x)
    acc = Fraction(0)
    for k in range(n + 1):
        b = bernoulli_number(k)
        if b:
            acc += math.comb(n, k) * b * xf ** (n - k)
    return acc


@lru_cache(maxsize=None)
def central_value(n: int) -> Rational:
    """B_n(1/2); zero for every odd n."""
    return bernoulli_poly(n, Fraction(1, 2))


def d_scalar(n: int) -> Rational:
    """D_n = 2^n B_n(1/2), the one-part central coefficient at d = 1."""
    _int_args(n, ())  # before the cache, which takes True for 1
    return 2**n * central_value(n)


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


def _int_args(n: int, parts: Sequence[int]) -> tuple[int, ...]:
    """Refuse anything but a nonnegative int index and int parts (bools are neither)."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise InputError(f"coefficient index must be a nonnegative integer, got {n!r}")
    d = tuple(parts)
    for x in d:
        if not isinstance(x, int) or isinstance(x, bool):
            raise InputError(f"parts must be integers, got {x!r}")
    return d


def _exact(x: Rational | int) -> Fraction:
    """x as a Fraction, refusing anything but an int or a Fraction (a bool is neither)."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise InputError(f"argument must be an int or a Fraction, got {x!r}")
    return Fraction(x)


def d_higher_recursive(n: int, parts: Sequence[int]) -> Rational:
    """D_n^(m) built one part at a time."""
    return _d_ladder(n, _int_args(n, parts))[n]


def _central_rows(parts: Sequence[int], n: int) -> tuple[int, list[list[int]]]:
    """beta and, for each part d, the integers d^(2h) beta D_(2h) for 2h <= n.

    beta is the lcm of the denominators of D_0, D_2, ..., so every entry is an
    int and a product of one entry per part is beta^m times the Fraction one.
    """
    central = [d_scalar(2 * h) for h in range(n // 2 + 1)]
    beta = math.lcm(*(c.denominator for c in central))
    scaled = [c.numerator * (beta // c.denominator) for c in central]
    return beta, [[d ** (2 * h) * c for h, c in enumerate(scaled)] for d in parts]


def _even_sum(n: int, rows: Sequence[Sequence[int]]) -> int:
    """beta^m D_n^(m) from the rows of _central_rows, one int term per composition.

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
    summed on ints over beta^m (see _central_rows) and divided once.

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
