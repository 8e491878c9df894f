"""Bernoulli numbers, Bernoulli polynomials and the central values B_n(1/2).

Convention: B_1 = -1/2, i.e. the numbers are the coefficients of t/(e^t - 1).
The central values feed the polynomial part (polypart.v1_explicit): each
central coefficient D_e = 2^e B_e(1/2) is scaled to an integer numerator over
beta, the lcm of the denominators involved, so a product over m parts sits
over beta^m and one Fraction is built per result. The higher-order values of
a part list, the coefficients of (prod d_i) t^m e^{st} / prod(e^{d_i t} - 1),
are built by no route; the test suite keeps them as references.

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
from .exactnum import Rational

__all__ = [
    "bernoulli_number",
    "bernoulli_poly",
    "central_value",
    "d_scalar",
]

_B: list[Fraction] = [Fraction(1), Fraction(-1, 2)]
_B_LOCK = threading.Lock()


def bernoulli_number(n: int) -> Rational:
    """B_n with B_1 = -1/2; odd indices above 1 come out zero."""
    _check_index(n)
    if n >= len(_B):
        with _B_LOCK:
            while len(_B) <= n:
                m = len(_B)
                # defining recurrence: sum_{k=0}^{m} C(m+1,k) B_k = 0
                acc = sum(math.comb(m + 1, k) * _B[k] for k in range(m))
                _B.append(Fraction(-acc, m + 1))
    return _B[n]


def bernoulli_poly(n: int, x: Rational | int) -> Rational:
    """B_n(x) = sum_k C(n,k) B_k x^(n-k), evaluated exactly."""
    _check_index(n)
    xf = _exact(x)
    acc = Fraction(0)
    for k in range(n + 1):
        b = bernoulli_number(k)
        if b:
            acc += math.comb(n, k) * b * xf ** (n - k)
    return acc


@lru_cache(maxsize=None)
def central_value(n: int) -> Rational:
    """B_n(1/2) = (2^(1-n) - 1) B_n (DLMF 24.4.27); zero for every odd n."""
    return bernoulli_number(n) * Fraction(2 - 2**n, 2**n)


def d_scalar(n: int) -> Rational:
    """D_n = 2^n B_n(1/2), the one-part central coefficient at d = 1."""
    _check_index(n)  # before the cache, which takes True for 1
    return 2**n * central_value(n)


def _check_index(n: int) -> None:
    """Refuse anything but a nonnegative int index (a bool is not one)."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise InputError(f"coefficient index must be a nonnegative integer, got {n!r}")


def _exact(x: Rational | int) -> Fraction:
    """x as a Fraction, refusing anything but an int or a Fraction (a bool is neither)."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise InputError(f"argument must be an int or a Fraction, got {x!r}")
    return Fraction(x)


def _central_rows(parts: Sequence[int], n: int) -> tuple[int, list[list[int]]]:
    """beta and, for each part d, the integers d^(2h) beta D_(2h) for 2h <= n.

    beta is the lcm of the denominators of D_0, D_2, ..., so every entry is an
    int and a product of one entry per part is beta^m times the Fraction one.
    """
    central = [d_scalar(2 * h) for h in range(n // 2 + 1)]
    beta = math.lcm(*(c.denominator for c in central))
    scaled = [c.numerator * (beta // c.denominator) for c in central]
    return beta, [[d ** (2 * h) * c for h, c in enumerate(scaled)] for d in parts]
