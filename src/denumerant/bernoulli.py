"""Bernoulli numbers, Bernoulli polynomials, and their higher-order relatives.

Convention: B_1 = -1/2, i.e. the numbers are the coefficients of t/(e^t - 1).
The higher-order objects attached to a part list d = (d_1, ..., d_m) are the
coefficients of (prod d_i) t^m e^{st} / prod(e^{d_i t} - 1); they are computed
here through the central coefficients D_n rather than through any series
manipulation, so tests can check the generating function independently.

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
from .exactnum import Rational, binomial, compositions, multinomial

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
    if not isinstance(n, int) or n < 0:
        raise InputError(f"Bernoulli index must be a nonnegative integer, got {n!r}")
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
    if n < 0:
        raise InputError("Bernoulli polynomial degree must be nonnegative")
    xf = Fraction(x)
    acc = Fraction(0)
    for k in range(n + 1):
        b = bernoulli_number(k)
        if b:
            acc += binomial(n, k) * b * xf ** (n - k)
    return acc


@lru_cache(maxsize=None)
def central_value(n: int) -> Rational:
    """B_n(1/2); zero for every odd n."""
    return bernoulli_poly(n, Fraction(1, 2))


def d_scalar(n: int) -> Rational:
    """D_n = 2^n B_n(1/2), the one-part central coefficient at d = 1."""
    return 2**n * central_value(n)


def _d_ladder(n: int, parts: Sequence[int]) -> list[Rational]:
    """D_0^(m) .. D_n^(m), folding one part at a time into the convolution."""
    cur = [Fraction(1)] + [Fraction(0)] * n
    for d in parts:
        step = [Fraction(d) ** k * d_scalar(k) for k in range(n + 1)]
        cur = [
            sum(binomial(k, l) * step[l] * cur[k - l] for l in range(k + 1))
            for k in range(n + 1)
        ]
    return cur


def d_higher_recursive(n: int, parts: Sequence[int]) -> Rational:
    """D_n^(m) built one part at a time."""
    if n < 0:
        raise InputError("coefficient index must be nonnegative")
    return _d_ladder(n, list(parts))[n]


def d_higher_symmetric(n: int, parts: Sequence[int]) -> Rational:
    """D_n^(m) as a single symmetric sum over the even compositions of n.

    The sum runs over every composition r of n, each term n!/prod r_k!
    prod d_k^(r_k) D_(r_k). Since B_e(1/2) = 0 for odd e (DLMF 24.4.27), a
    term with an odd exponent is 0: D_n^(m) is 0 for odd n, and for even n
    only the compositions of n/2, every exponent doubled, are summed.

    Agrees with d_higher_recursive; the two routes share no code beyond the
    scalar coefficients.
    """
    if n < 0:
        raise InputError("coefficient index must be nonnegative")
    total = Fraction(0)
    if n % 2:
        return total
    for half in compositions(n // 2, len(tuple(parts))):
        r = [2 * e for e in half]
        term = Fraction(multinomial(n, r))
        for d, e in zip(parts, r):
            term *= Fraction(d) ** e * d_scalar(e)
        total += term
    return total


def bernoulli_higher(n: int, s: Rational | int, parts: Sequence[int]) -> Rational:
    """Higher-order value B_n^(m)(s | parts) via the central expansion.

    Expanded around the symmetry point xi = sum(parts)/2, which is what makes
    the central coefficients appear. Parts may be any nonzero integers here;
    positivity only matters for counting.
    """
    if n < 0:
        raise InputError("order must be nonnegative")
    d = tuple(parts)
    if not d or any(x == 0 for x in d):
        raise InputError("parts must be nonzero integers")
    ladder = _d_ladder(n, d)
    xi = Fraction(sum(d), 2)
    sf = Fraction(s)
    acc = Fraction(0)
    for l in range(n + 1):
        if ladder[l]:
            acc += binomial(n, l) * ladder[l] / 2**l * (sf - xi) ** (n - l)
    return acc
