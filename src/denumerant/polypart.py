"""The polynomial part of the counting function.

V_1 is the quasi-polynomial with every periodic coefficient replaced by its
mean; its coefficients are plain rationals. `v1_explicit` expands the closed
symmetric form through the central Bernoulli values B_l(1/2), as a product
over parts of each part's integer row, on ints over beta^m, builds one
Fraction per coefficient and returns the m coefficients as a tuple, highest
power first. The verify property mean-value compares every certificate
coefficient's mean with it; the test suite grows the same coefficients one
part at a time as an independent reference. `split_weight` is the paper's
weight of one pivot/composition bucket, its multinomial over 1 + z for z zero
exponents; build_explicit gives each composition wholly to its first zero
position instead (see its docstring) and does not call it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .bernoulli import _central_rows
from .errors import InputError
from .exactnum import Rational, as_parts, multinomial

__all__ = [
    "v1_explicit",
    "split_weight",
]


def v1_explicit(parts: Sequence[int]) -> tuple[Rational, ...]:
    """Polynomial part in the symmetric variable: closed form, all parts at once.

    Coefficient l is binomial(m-1, l) / ((m-1)! prod d) times the umbral power
    (d_1 B + ... + d_m B)^l, where B^e means the central value B_e(1/2) and
    each symbol keeps its own index: the symmetric higher central coefficient
    D_l^(m) = sum_r l!/prod r_k! prod (2 d_k)^(r_k) B_(r_k)(1/2), scaled by
    2^-l.

    D^(m) is the binomial convolution over parts of each part's central row,
    D_n^(m) = sum_i C(n, i) d_m^i D_i D_(n-i)^(m-1), and only its even
    entries are nonzero (B_e(1/2) = 0 for odd e). So beta^m D_(2h)^(m) for
    every 2h < m is a product over parts of the integer rows of
    _central_rows, one short list carried from part to part, with no
    composition enumerated (the test suite keeps the composition sum it
    equals as a reference). Each D_l^(m) is an int over beta^m, which joins
    the prefactor's denominator, so each coefficient is one Fraction.
    """
    d = as_parts(parts)
    m = len(d)
    beta, rows = _central_rows(d, m - 1)
    even = [1] + [0] * ((m - 1) // 2)  # beta^k D_(2h)^(k) over the first k parts
    for row in rows:
        even = [
            sum(math.comb(2 * h, 2 * i) * row[i] * even[h - i] for i in range(h + 1))
            for h in range(len(even))
        ]
    den = math.factorial(m - 1) * math.prod(d) * beta**m
    return tuple(
        Fraction(math.comb(m - 1, l) * even[l // 2], den * 2**l) if l % 2 == 0 else Fraction(0)
        for l in range(m)
    )


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
