"""Independent oracles for the test suite.

Nothing here imports the package's bernoulli or quasipoly internals; these are
separate computations the library is compared against.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction


def akiyama_tanigawa(n: int) -> list[Fraction]:
    """B_0..B_n by the Akiyama-Tanigawa triangle.

    This algorithm naturally produces B_1 = +1/2; the caller flips the sign at
    index 1 when comparing against the t/(e^t - 1) convention.
    """
    out = []
    row: list[Fraction] = []
    for m in range(n + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    return out


def horner(coeffs, s) -> Fraction:
    """The polynomial with these coefficients (highest power first) at s."""
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * s + c
    return acc


def taylor_shift(coeffs, delta) -> list[Fraction]:
    """Coefficients (highest power first) of p(s + delta), by repeated
    synthetic division."""
    a = [Fraction(c) for c in coeffs]
    for top in range(len(a) - 1, 0, -1):
        for k in range(1, top + 1):
            a[k] += a[k - 1] * delta
    return a


def poly_sub(a, b) -> list[Fraction]:
    """Coefficients (highest power first) of a - b, the shorter padded with
    leading zeros."""
    n = max(len(a), len(b))
    a = [Fraction(0)] * (n - len(a)) + [Fraction(c) for c in a]
    b = [Fraction(0)] * (n - len(b)) + [Fraction(c) for c in b]
    return [x - y for x, y in zip(a, b)]


def natural_average(fn, parity: int) -> Fraction:
    """Mean of a periodic coefficient over one period of the integer-spaced
    grid with 2s = parity (mod 2)."""
    sel = fn.values[parity % 2 :: 2]
    return sum(sel, Fraction(0)) / len(sel)


def numerators_reference(cert) -> tuple[int, list[list[int]]]:
    """A certificate's integer tables read from its Fraction values, over
    every class of its master period P: (den, tables), tables[j-1][rho] the
    numerator of R_j at 2s = rho over den, the lcm of the values'
    denominators, for rho in range(2P). The verifier's reader before the
    certificates held integer tables, kept as the reference for
    QuasiPoly.numerator_tables."""
    twices = range(2 * cert.master_period)
    cols = [[fn.at_twice(t) for t in twices] for fn in cert.coeffs]
    dens = {v.denominator for col in cols for v in col}
    den = math.lcm(*dens)
    scale = {q: den // q for q in dens}
    return den, [[v.numerator * scale[v.denominator] for v in col] for col in cols]


def to_json_reference(cert) -> str:
    """A certificate's JSON from its Fraction values, through a dict and
    json.dumps(indent=2). The serialiser before to_json wrote straight from
    the integer tables (QuasiPoly.to_json_dict), kept as the reference for
    QuasiPoly.to_json."""
    coefficients = [
        {
            "power": cert.m - 1 - idx,
            "period": fn.period,
            "values": {str(rho): str(Fraction(fn.values[rho])) for rho in range(2 * fn.period)},
        }
        for idx, fn in enumerate(cert.coeffs)
    ]
    return json.dumps(
        {
            "parts": list(cert.parts),
            "master_period": cert.master_period,
            "xi": str(cert.xi),
            "coefficients": coefficients,
        },
        indent=2,
    )


def ser_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Truncated product; both inputs and the result share one length."""
    n = len(a)
    out = [Fraction(0)] * n
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j in range(n - i):
            if b[j]:
                out[i + j] += ai * b[j]
    return out


def ser_div(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Truncated quotient a/b; requires b[0] != 0."""
    n = len(a)
    assert b[0] != 0
    out = [Fraction(0)] * n
    for k in range(n):
        acc = a[k]
        for i in range(k):
            acc -= out[i] * b[k - i]
        out[k] = acc / b[0]
    return out


def ser_exp(c: Fraction, n: int) -> list[Fraction]:
    """e^(c t) to n terms."""
    return [Fraction(c) ** k / math.factorial(k) for k in range(n)]


def gap_factor(d: int, n: int) -> list[Fraction]:
    """(e^(d t) - 1) / t to n terms; constant term is d."""
    return [Fraction(d) ** (k + 1) / math.factorial(k + 1) for k in range(n)]


def higher_bernoulli_series(order: int, s, parts) -> Fraction:
    """Coefficient oracle for the generating function

        (prod d_i) t^m e^(s t) / prod (e^(d_i t) - 1)

    returning order! times the t^order coefficient, all in exact arithmetic.
    """
    n = order + 1
    d = tuple(parts)
    num = [Fraction(0)] * n
    num[0] = Fraction(math.prod(d))
    num = ser_mul(num, ser_exp(Fraction(s), n))
    for di in d:
        num = ser_div(num, gap_factor(di, n))
    return num[order] * math.factorial(order)


def genfunc_mismatches(max_m: int, max_part: int, max_n: int, s_values) -> list[tuple]:
    """Compare the library's higher-order values against the series oracle.

    Returns a list of (parts, n, s, got, want) mismatches; empty means pass.
    """
    from itertools import combinations_with_replacement

    from denumerant import bernoulli_higher

    bad = []
    for m in range(1, max_m + 1):
        for parts in combinations_with_replacement(range(1, max_part + 1), m):
            for n in range(max_n + 1):
                for s in s_values:
                    got = bernoulli_higher(n, s, parts)
                    want = higher_bernoulli_series(n, s, parts)
                    if got != want:
                        bad.append((parts, n, s, got, want))
    return bad
