"""The polynomial part of the counting function, by two independent routes.

V_1 is the quasi-polynomial with every periodic coefficient replaced by its
mean; its coefficients are plain rationals. `v1_explicit` expands the closed
symmetric form, `r_coeffs_recursive` grows the coefficients one part at a time.
Both are expressed through central Bernoulli values B_l(1/2), and both return
the m coefficients as a tuple of Fractions, highest power first.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .bernoulli import central_value, d_higher_symmetric
from .errors import InputError
from .exactnum import Rational, as_parts, multinomial

__all__ = [
    "v1_explicit",
    "r_mm_constant",
    "r_coeffs_recursive",
    "split_weight",
]


def v1_explicit(parts: Sequence[int]) -> tuple[Rational, ...]:
    """Polynomial part in the symmetric variable: closed form, all parts at once.

    Coefficient l is binomial(m-1, l) / ((m-1)! prod d) times the umbral power
    (d_1 B + ... + d_m B)^l, where B^e means the central value B_e(1/2) and
    each symbol keeps its own index: the symmetric higher central coefficient
    D_l^(m) = sum_r l!/prod r_k! prod (2 d_k)^(r_k) B_(r_k)(1/2), scaled by
    2^-l.
    """
    d = as_parts(parts)
    m = len(d)
    pref = Fraction(1, math.factorial(m - 1) * math.prod(d))
    return tuple(pref * math.comb(m - 1, l) * d_higher_symmetric(l, d) / 2**l for l in range(m))


def r_mm_constant(parts: Sequence[int]) -> Rational:
    """Constant remainder of the free coefficient.

    The one-part-at-a-time recursion reaches every coefficient except this
    piece, which involves the first m-1 parts only.
    """
    d = as_parts(parts)
    m = len(d)
    return d_higher_symmetric(m - 1, d[:-1]) / (2 ** (m - 1) * math.factorial(m - 1) * math.prod(d))


def r_coeffs_recursive(parts: Sequence[int]) -> tuple[Rational, ...]:
    """Polynomial part grown one part at a time; independent of v1_explicit.

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


def split_weight(l: int, m: int, i: int, r: Sequence[int]) -> Rational:
    """Weight of one pivot/composition bucket when (d_1 + ... + d_m)^l is split.

    `i` is the 1-based pivot position; `r` lists the exponents of the other
    m-1 positions in order. The divisor counts the zero exponents over all m
    positions, the pivot's own (absent, hence zero) exponent included, so that
    summing every bucket restores the plain power.
    """
    if not 0 <= l < m:
        raise InputError(f"need 0 <= l < m, got l={l}, m={m}")
    if not 1 <= i <= m:
        raise InputError(f"pivot must be in 1..{m}, got {i}")
    rr = tuple(r)
    if len(rr) != m - 1:
        raise InputError(f"need {m - 1} exponents, got {len(rr)}")
    z = 1 + sum(1 for e in rr if e == 0)
    return Fraction(multinomial(l, rr), z)
