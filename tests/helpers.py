"""Independent oracles for the test suite.

Nothing here imports the package's bernoulli or quasipoly internals; these are
separate computations the library is compared against.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from denumerant import (
    InputError,
    PeriodicFn,
    QuasiPoly,
    as_parts,
    bernoulli_poly,
    closure_fn,
    lcm_of,
)


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


def psi(d: int, t: int) -> Fraction:
    """Indicator that d divides the lattice point t/2, given as the int t: 1
    when 2d divides t, so a half-odd point (odd t) is never divisible. The
    indicator the worked closure formulas are written in."""
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise InputError(f"modulus must be a positive integer, got {d!r}")
    return Fraction(1) if t % (2 * d) == 0 else Fraction(0)


def periodic(period: int, den: int, nums) -> PeriodicFn:
    """The PeriodicFn whose value at 2s = rho (mod 2*period) is
    nums[rho]/den, each cell a Fraction: a table given as integer
    numerators over one denominator."""
    return PeriodicFn(period, [Fraction(a, den) for a in nums])


def numerators(fn: PeriodicFn) -> tuple[int, tuple[int, ...]]:
    """(den, nums): a PeriodicFn's values as int numerators over the lcm of
    their denominators, so that gcd(den, *nums) = 1 and values[rho] ==
    nums[rho]/den."""
    den = math.lcm(*(v.denominator for v in fn.values))
    return den, tuple(v.numerator * (den // v.denominator) for v in fn.values)


def at_twice(fn: PeriodicFn, twice: int) -> Fraction:
    """A periodic coefficient's value at the point twice/2, as a Fraction:
    the cell-at-a-time reader the Fraction references below are written
    in."""
    return Fraction(fn.values[twice % (2 * fn.period)])


def tiled_values(fn: PeriodicFn, period: int) -> list[Fraction]:
    """A periodic coefficient's values repeated to the 2*period cells of a
    period that fn.period divides: its table at a period it is not stored
    at, the one the tests' tampers nudge one class of."""
    return list(fn.values) * (period // fn.period)


def full_json(text: str) -> str:
    """A certificate's JSON with "0" written at every residue key off the
    class 2s = sum(parts) mod 2 that it lacks, each "values" object in
    numeric key order, written by json.dumps(indent=2): the document
    to_json wrote before it wrote only the natural cells, made by the
    standard library alone. A document that has every key already prints
    as it reads."""
    raw = json.loads(text)
    sigma = sum(raw["parts"]) % 2
    for entry in raw["coefficients"]:
        values = entry["values"]
        entry["values"] = {
            str(rho): values[str(rho)] if rho % 2 == sigma else values.get(str(rho), "0")
            for rho in range(2 * entry["period"])
        }
    return json.dumps(raw, indent=2)


def tiled_json(text: str) -> str:
    """A certificate's JSON with every coefficient's "values" repeated to
    the master period and "period" set to it, written by
    json.dumps(indent=2): the document the builders wrote before they stored
    each coefficient at its least period, made by the standard library
    alone. Either layout is tiled as it is: a document with every key
    gives every key of the master period, one with the natural keys alone
    gives the natural keys alone."""
    raw = json.loads(text)
    tau = raw["master_period"]
    for entry in raw["coefficients"]:
        values, size = entry["values"], 2 * entry["period"]
        entry["period"] = tau
        entry["values"] = {
            str(rho): values[str(rho % size)] for rho in range(2 * tau) if str(rho % size) in values
        }
    return json.dumps(raw, indent=2)


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


def value_reference(cert, s) -> Fraction:
    """V(s) at a half-integer lattice point s, by Horner over the powers on
    Fraction values read one cell at a time (at_twice). The form
    QuasiPoly.value had before it ran on the integer numerators, kept as its
    reference."""
    sf = Fraction(s)
    twice = 2 * sf
    assert twice.denominator == 1, s
    acc = Fraction(0)
    for fn in cert.coeffs:
        acc = acc * sf + at_twice(fn, int(twice))
    return acc


def count_reference(cert, n: int):
    """The count at integer n from value_reference: an int when V(n + xi) is
    integral, the Fraction itself otherwise (QuasiPoly.count raises there for
    n >= 0). The Fraction count, kept as the reference for QuasiPoly.count."""
    v = value_reference(cert, n + Fraction(sum(cert.parts), 2))
    return int(v) if v.denominator == 1 else v


def numerators_reference(cert) -> tuple[int, list[list[int]]]:
    """A certificate's integer tables read from its Fraction values, over
    every class of its master period P: (den, tables), tables[j-1][rho] the
    numerator of R_j at 2s = rho over den, the lcm of the values'
    denominators, for rho in range(2P). The verifier's reader before the
    certificates held integer tables, kept as the reference for
    QuasiPoly.numerator_tables, which reads each table at its least period:
    tiled to 2P, its tables are these."""
    twices = range(2 * cert.master_period)
    cols = []
    for fn in cert.coeffs:
        vals = fn.values
        cols.append([vals[t % len(vals)] for t in twices])
    dens = {v.denominator for col in cols for v in col}
    den = math.lcm(*dens)
    scale = {q: den // q for q in dens}
    return den, [[v.numerator * scale[v.denominator] for v in col] for col in cols]


def least_periods(cert) -> list[tuple[int, int, tuple[int, ...]]]:
    """(period, den, nums) of each coefficient at its least period: its
    numerators tiled here to the master period P, then cut at the first
    divisor p of P, tried in increasing order, with which the tiled table
    repeats. The reference for the cut QuasiPoly makes when it stores a
    certificate (quasipoly._summed)."""
    tau = cert.master_period
    out = []
    for fn in cert.coeffs:
        den, nums = numerators(fn)
        col = nums * (tau // fn.period)
        p = next(p for p in range(1, tau + 1) if tau % p == 0 and col == col[: 2 * p] * (tau // p))
        out.append((p, den, col[: 2 * p]))
    return out


def to_json_reference(cert, every_key: bool = False) -> str:
    """A certificate's JSON from its Fraction values, through a dict and
    json.dumps(indent=2): each "values" object holds the natural residues
    rho = sum(parts) mod 2 alone, or with every_key every residue of the
    table, the layout to_json wrote before it left out the class that is
    zero. The serialiser before to_json wrote straight from the integer
    tables (QuasiPoly.to_json_dict), kept as the reference for
    QuasiPoly.to_json."""
    sigma = sum(cert.parts) % 2
    coefficients = [
        {
            "power": cert.m - 1 - idx,
            "period": fn.period,
            "values": {
                str(rho): str(Fraction(v))
                for rho, v in enumerate(fn.values)
                if every_key or rho % 2 == sigma
            },
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


def base_case(d1: int) -> QuasiPoly:
    """One part: V(s) is the indicator of d_1 | (s - d_1/2), period d_1. The
    one-part certificate the first step of build_recursive, closure_fn on one
    part and build_explicit must each give, kept as their reference."""
    (d1,) = as_parts([d1])
    nums = [1 if (rho - d1) % (2 * d1) == 0 else 0 for rho in range(2 * d1)]
    return QuasiPoly((d1,), (periodic(d1, 1, nums),), d1)


def materialise_reference(parts, pieces) -> QuasiPoly:
    """The certificate from a builder's pieces, {P: (den, tables)} with each
    table 2P integer numerators over den: every piece brought to the pieces'
    common denominator, tiled to 2 tau entries by list repetition, the tiles
    summed as ints, the 2 tau sums read over den as Fractions (periodic) and
    handed to the constructor at period tau.
    The form quasipoly._materialise had before it summed each coefficient at
    the lcm of its pieces' own lengths, kept as its reference."""
    tau = lcm_of(parts)
    den = math.lcm(*(piece_den for piece_den, _ in pieces.values()))
    coeffs = []
    for j in range(len(parts)):
        tiles = [
            [a * (den // piece_den) for a in tables[j]] * (tau // period)
            for period, (piece_den, tables) in pieces.items()
            if any(tables[j])
        ]
        values = tiles[0] if tiles else [0] * (2 * tau)
        for tile in tiles[1:]:
            values = [a + b for a, b in zip(values, tile)]
        coeffs.append(periodic(tau, den, values))
    return QuasiPoly(parts, coeffs, tau)


def extend_reference(prev: QuasiPoly, d_new: int) -> QuasiPoly:
    """One recursive step by dense rotation, on Fractions at the new master
    period tau = lcm of the new parts. R_j of the new level is, for l < j,
    (m-j+l-1)!/(m-j)! times the previous R_(j-l) rotated by each shift
    (2p+1) d_new, p < tau/d_new, times tau^(l-1) B_l(1 - (2p+1) d_new/2tau)/l!,
    and the free coefficient adds closure_fn's d_new natural cells, cell i at
    every 2s = 2i + sum(parts) mod 2d_new, 0 on the other class. Every cell
    of every rotated list is read, whatever its value or parity: the form
    quasipoly._extend_pieces' correlation had before it ran over each
    table's nonzero cells, kept as its reference. prev's coefficients must
    have periods dividing tau."""
    parts = prev.parts + as_parts([d_new])
    m, tau = len(parts), lcm_of(parts)
    size = 2 * tau
    old = [[fn.values[rho % (2 * fn.period)] for rho in range(size)] for fn in prev.coeffs]
    shifts = [(2 * p + 1) * d_new for p in range(tau // d_new)]
    new = [[Fraction(0)] * size for _ in range(m)]
    for j in range(1, m + 1):
        for l in range(max(j - m + 1, 0), j):
            c = Fraction(math.factorial(m - j + l - 1), math.factorial(m - j))
            vals = old[j - 1 - l]
            for shift in shifts:
                w = c * Fraction(tau) ** (l - 1) * bernoulli_poly(l, 1 - Fraction(shift, size))
                w /= math.factorial(l)
                shift %= size
                rotated = vals[size - shift :] + vals[: size - shift]  # rotated[rho] = vals[rho - shift]
                new[j - 1] = [a + w * v for a, v in zip(new[j - 1], rotated)]
    den, closure = closure_fn(parts)
    sigma = sum(parts) % 2
    new[-1] = [
        a + Fraction(closure[(rho >> 1) % len(closure)], den) if rho % 2 == sigma else a
        for rho, a in enumerate(new[-1])
    ]
    return QuasiPoly(parts, [PeriodicFn(tau, col) for col in new], tau)


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


def count_dp_reference(parts, max_n: int) -> list[int]:
    """Coefficients of prod_i 1/(1 - t^(d_i)) up to t^max_n, one cell at a
    time in increasing n: counts[n] += counts[n - d]. The loop count_dp ran
    before it took one prefix sum per residue class, kept as its reference."""
    counts = [0] * (max_n + 1)
    counts[0] = 1
    for d in parts:
        for n in range(d, max_n + 1):
            counts[n] += counts[n - d]
    return counts
