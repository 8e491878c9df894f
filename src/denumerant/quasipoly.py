"""Quasi-polynomial certificates for restricted partition counting.

A certificate for an ordered part list d = (d_1, ..., d_m) is

    V(s) = sum_{j=1}^{m} R_j(s) * s^(m-j)

with each R_j periodic of a period dividing tau = lcm(d). Counts live in the
shifted frame: the number of solutions of sum x_i d_i = n is V(n + xi) with
xi = sum(d)/2. Two constructions are provided:

  * build_recursive: fold parts in one at a time, from none
    (extend_recursive; base_case is the one-part result);
  * build_explicit: a single pass over pivot parts and shift sums.

Both builders hold the certificate as pieces, m tables of 2P integer
numerators over the piece's own denominator for a period P (grouped by period
like Sylvester's waves, but not reduced to the canonical waves), and end in
_materialise, which tiles each piece to 2*tau, sums the tiles as integers and
hands the sums to PeriodicFn.from_numerators. build_recursive keeps one piece
per distinct part period: a step correlates every piece at its own period
(the correlation maps a period-P piece to a period-P piece) and adds
closure_fn's piece at the new part's period; extend_recursive is the same
step on one certificate read as a single piece. build_explicit makes one
piece per distinct part, its pivot fold weighted by the part's multiplicity.

Two kernels are shared by the folds. _shift_weights tabulates one position's
Bernoulli shift weights by residue; _shift_fold multiplies them over positions
as a DP with state (total exponent, zero exponents) -> residue table. A
position's shift sum runs over p < t/d_k, and read mod 2P it is the same for
every t that is a multiple of L = lcm(d_k, P): class r < q = L/d_k holds
n = t/L values of p, whose arguments are spaced 1/n apart, and Raabe's
multiplication theorem (DLMF 24.4.17) sums them to

    sum_{p = r mod q} t^(e-1) B_e(1 - (2p+1)d_k/2t) / e!
        = L^(e-1) B_e(1 - (2r+1)/2q) / e!.

So the weights are evaluated at t = L, once per class, and no caller passes
a period. At a/b = 1 - (2r+1)/2q the values B_e(a/b) are integer numerators
over b^e and the Bernoulli denominators, so each position's weights are
integers over one denominator. The fold runs on Python ints, every state after
k positions sharing the product of k denominators, and so does the recursive
step's correlation.

_shift_weights depends only on its key (d_k, m, 2P), so each table is computed
once per process: functools.lru_cache keeps the 1024 most recently used, as
nested tuples that no caller can change (about 40 kB for the key
(103, 4, 214), under 4 kB for corpus-sized keys). A miss evaluates one integer
coefficient row per exponent e by Horner at each class. The kernel was shared
by both routes before it was cached, so a shared cached table costs them no
independence.

closure_fn runs the fold for the one remainder of the free coefficient that
build_recursive cannot reach by extension, and the recursive step reads the
new part's weights from _shift_weights. Both builders check the m tables of
2*tau cells against the guard limit (oracle.guard) before any of this, and
every QuasiPoly, parsed or hand-built, checks its m tables of 2*P cells when it
is constructed, before aligned or numerator_tables tiles them to a larger P.
Everything else stays independent: the recursive step's cyclic correlation,
build_explicit's product over the pivot, and the counting oracle
(oracle.count_dp), so table-level agreement remains a meaningful check; the
oracle, recurrence, parity and mean-value properties check the shared
_materialise.

Periodic coefficients live on the half-integer lattice: a function of period T
stores 2T values indexed by the scaled residue 2s mod 2T, so integer and
half-odd points coexist in one table and every shift is index arithmetic. The
values are held as integer numerators over one positive denominator, reduced
so that gcd(den, *nums) = 1, together with the same values as Fractions.
to_json writes from the integer tables; the Fractions are read only by
at_twice, value, count, with_period and the wording of verify's failures.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from typing import Iterable, Sequence

from .bernoulli import bernoulli_number
from .errors import InputError, IntegralityError
from .exactnum import (
    HalfInt,
    HalfLike,
    Rational,
    as_parts,
    lcm_of,
    parse_rational,
)
from .oracle import guard

__all__ = [
    "PeriodicFn",
    "QuasiPoly",
    "psi",
    "base_case",
    "extend_recursive",
    "build_recursive",
    "closure_fn",
    "build_explicit",
]


class PeriodicFn:
    """An exact periodic function on the half-integer lattice.

    ``values[rho]`` is the value at every point s with 2s = rho (mod 2*period);
    even rho are the integer points, odd rho the half-odd ones. The table is
    held as integer numerators ``nums`` over one denominator ``den`` > 0 with
    gcd(den, *nums) = 1, so equal functions at one period have equal integer
    tables. ``values`` is the same table as Fractions, built at construction
    and read by ``at_twice`` (so by QuasiPoly.value and count) and
    ``with_period``; serialization reads ``den`` and ``nums``. A period is a
    positive int, never a bool.
    """

    __slots__ = ("period", "den", "nums", "values")

    def __init__(self, period: int, values: Iterable[Rational | int]):
        vals = tuple(values)
        for v in vals:
            if not isinstance(v, Fraction) and (not isinstance(v, int) or isinstance(v, bool)):
                raise InputError(f"periodic values must be ints or Fractions, got {v!r}")
        den = math.lcm(*{v.denominator for v in vals})
        self._set(period, den, tuple(v.numerator * (den // v.denominator) for v in vals),
                  tuple(v if isinstance(v, Fraction) else Fraction(v) for v in vals))

    @classmethod
    def from_numerators(cls, period: int, den: int, nums: Sequence[int]) -> "PeriodicFn":
        """The function with values nums[rho]/den, for a positive int den; the
        table is reduced by gcd(den, *nums). One int and one Fraction are
        kept per distinct numerator, shared by every cell that holds it."""
        distinct = set(nums)
        g = math.gcd(den, *distinct)
        den //= g
        reduced = {a: a // g for a in distinct}
        cell = {a: Fraction(a, den) for a in reduced.values()}
        nums = tuple(map(reduced.__getitem__, nums))
        fn = cls.__new__(cls)
        fn._set(period, den, nums, tuple(map(cell.__getitem__, nums)))
        return fn

    def _set(self, period: int, den: int, nums: tuple[int, ...], values: tuple[Fraction, ...]):
        if not isinstance(period, int) or isinstance(period, bool) or period < 1:
            raise InputError(f"period must be a positive integer, got {period!r}")
        if len(nums) != 2 * period:
            raise InputError(f"period {period} needs {2 * period} residue values, got {len(nums)}")
        self.period = period
        self.den = den
        self.nums = nums
        self.values = values

    def at_twice(self, twice: int) -> Rational:
        """Value at the point twice/2; the fast path used by QuasiPoly.value."""
        return self.values[twice % (2 * self.period)]

    def with_period(self, target: int) -> "PeriodicFn":
        """Retabulate at a multiple of the current period. Values unchanged."""
        if type(target) is not int or target < 1 or target % self.period:
            raise InputError(f"{target!r} is not a positive multiple of period {self.period}")
        if target == self.period:
            return self
        reps = target // self.period
        fn = PeriodicFn.__new__(PeriodicFn)
        fn._set(target, self.den, self.nums * reps, self.values * reps)
        return fn

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PeriodicFn):
            return NotImplemented
        return self.period == other.period and self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.period, self.den, self.nums))

    def __repr__(self) -> str:
        return f"PeriodicFn(period={self.period})"


class QuasiPoly:
    """A certificate V(s) = sum_j R_j(s) s^(m-j) for one ordered part list.

    Immutable once built. ``coeffs[j-1]`` is R_j; every coefficient period
    divides the master period. Its m tables of 2 * master_period cells are
    checked against the guard limit on construction, so a parsed certificate
    is refused before any table is tiled to the master period.
    """

    __slots__ = ("parts", "coeffs", "master_period")

    def __init__(
        self,
        parts: Sequence[int],
        coeffs: Sequence[PeriodicFn],
        master_period: int | None = None,
    ):
        self.parts = as_parts(parts)
        cs = tuple(coeffs)
        if len(cs) != len(self.parts):
            raise InputError(
                f"{len(self.parts)} parts need {len(self.parts)} coefficient functions, got {len(cs)}"
            )
        period = lcm_of(self.parts) if master_period is None else master_period
        if not isinstance(period, int) or isinstance(period, bool) or period < 1:
            raise InputError(f"master period must be a positive integer, got {period!r}")
        _guard_cells(len(self.parts), period)
        for fn in cs:
            if period % fn.period:
                raise InputError(
                    f"coefficient period {fn.period} does not divide master period {period}"
                )
        self.coeffs = cs
        self.master_period = period

    @property
    def m(self) -> int:
        return len(self.parts)

    @property
    def xi(self) -> HalfInt:
        """The symmetrizing shift sum(parts)/2 between the two frames."""
        return HalfInt(sum(self.parts))

    def value(self, s: HalfLike) -> Rational:
        """V(s) at any half-integer lattice point, by Horner over the powers."""
        sp = HalfInt.coerce(s)
        sf = sp.fraction
        acc = Fraction(0)
        for fn in self.coeffs:
            acc = acc * sf + fn.at_twice(sp.twice)
        return acc

    def count(self, n: int):
        """The count at integer n, i.e. V(n + xi), returned as an exact int.

        A fractional value for n >= 0 means the certificate is wrong and raises;
        for n < 0 the (possibly fractional) continuation value is returned as is.
        """
        if not isinstance(n, int) or isinstance(n, bool):
            raise InputError(f"n must be an integer, got {n!r}")
        v = self.value(HalfInt(2 * n + sum(self.parts)))
        if v.denominator == 1:
            return int(v)
        if n >= 0:
            raise IntegralityError(f"count at n={n} evaluated to {v}, not an integer")
        return v

    def numerator_tables(self, period: int | None = None) -> tuple[int, list[list[int]]]:
        """(den, tables): tables[j-1][rho] is R_j's numerator at 2s = rho over
        den, the lcm of the coefficients' denominators, for rho below twice
        `period` (the master period by default), a positive int, never a bool,
        whose m tables of 2*period cells are checked against the guard limit.
        Each stored table is cut to the requested size before it is scaled to
        den and tiled after, so a short read scales only the cells it returns."""
        if period is None:
            period = self.master_period
        elif type(period) is not int or period < 1:
            raise InputError(f"{period!r} is not a positive integer period")
        else:
            _guard_cells(self.m, period)
        size = 2 * period
        den = math.lcm(*(fn.den for fn in self.coeffs))
        tables = []
        for fn in self.coeffs:
            scale = den // fn.den
            nums = fn.nums[:size]
            if scale != 1:
                nums = [a * scale for a in nums]
            span = len(nums)
            if size % span:
                tables.append([nums[r % span] for r in range(size)])
            else:
                tables.append(list(nums) * (size // span))
        return den, tables

    def aligned(self, target: int) -> "QuasiPoly":
        """Same function, every table retabulated at the target period; its
        m tables of 2*target cells are checked against the guard limit first."""
        if not isinstance(target, int) or target < 1 or target % self.master_period:
            raise InputError(
                f"{target!r} is not a positive multiple of the master period {self.master_period}"
            )
        _guard_cells(self.m, target)
        return QuasiPoly(self.parts, tuple(f.with_period(target) for f in self.coeffs), target)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuasiPoly):
            return NotImplemented
        return (
            self.parts == other.parts
            and self.master_period == other.master_period
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.parts, self.master_period, self.coeffs))

    def __repr__(self) -> str:
        return f"QuasiPoly(parts={self.parts}, master_period={self.master_period})"

    def to_json(self) -> str:
        """Deterministic JSON: fixed key order, numeric residue order, exact strings.

        Written straight from the integer tables, laid out exactly as
        json.dumps(..., indent=2) prints the same document. Each distinct
        numerator a of a coefficient is reduced and formatted once: with
        g = gcd(a, den), p = a/g and q = den/g it reads "p" when q == 1 and
        "p/q" otherwise, the text str(Fraction(a, den)) gives. Every string
        written is digits, "-" and "/", so nothing needs escaping.
        """
        blocks = []
        for power, fn in zip(range(self.m - 1, -1, -1), self.coeffs):
            den = fn.den
            text = {}
            for a in set(fn.nums):
                g = math.gcd(a, den)
                text[a] = f'"{a // g}"' if g == den else f'"{a // g}/{den // g}"'
            cells = ",\n".join([f'        "{rho}": {text[a]}' for rho, a in enumerate(fn.nums)])
            blocks.append(
                f'    {{\n      "power": {power},\n      "period": {fn.period},\n'
                f'      "values": {{\n{cells}\n      }}\n    }}'
            )
        parts = ",\n".join(f"    {d}" for d in self.parts)
        return (
            f'{{\n  "parts": [\n{parts}\n  ],\n'
            f'  "master_period": {self.master_period},\n'
            f'  "xi": "{self.xi}",\n'
            f'  "coefficients": [\n' + ",\n".join(blocks) + "\n  ]\n}"
        )

    @classmethod
    def from_json(cls, text: str) -> "QuasiPoly":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"not valid JSON: {exc}") from exc
        try:
            parts = tuple(raw["parts"])
            entries = sorted(raw["coefficients"], key=lambda e: -e["power"])
            powers = [e["power"] for e in entries]
            if powers != list(range(len(parts) - 1, -1, -1)) or any(
                not isinstance(k, int) or isinstance(k, bool) for k in powers
            ):
                raise InputError(f"coefficient powers must cover {len(parts)-1}..0, got {powers}")
            fns = []
            for entry in entries:
                period, values = entry["period"], entry["values"]
                # each distinct string parsed once, in residue order, so the first
                # bad cell is reported; parse_rational rejects every non-string
                parsed, cells = {}, []
                for rho in range(2 * period):
                    cell = values[str(rho)]
                    if not isinstance(cell, str) or cell not in parsed:
                        parsed[cell] = parse_rational(cell)
                    cells.append(cell)
                den = math.lcm(*(v.denominator for v in parsed.values()))
                nums = {cell: v.numerator * (den // v.denominator) for cell, v in parsed.items()}
                fns.append(PeriodicFn.from_numerators(period, den, [nums[cell] for cell in cells]))
            q = cls(parts, tuple(fns), raw["master_period"])
            if str(q.xi) != raw["xi"]:
                raise InputError(f"shift field {raw['xi']!r} does not match the parts")
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, InputError):
                raise
            raise InputError(f"malformed certificate JSON: {exc}") from exc
        return q


def psi(d: int, x: HalfLike) -> Rational:
    """Indicator that d divides x; half-odd x is never divisible."""
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise InputError(f"modulus must be a positive integer, got {d!r}")
    return Fraction(1) if HalfInt.coerce(x).twice % (2 * d) == 0 else Fraction(0)


def base_case(d1: int) -> QuasiPoly:
    """One part: V(s) is the indicator of d_1 | (s - d_1/2), period d_1."""
    (d1,) = as_parts([d1])
    nums = [1 if (rho - d1) % (2 * d1) == 0 else 0 for rho in range(2 * d1)]
    return QuasiPoly((d1,), (PeriodicFn.from_numerators(d1, 1, nums),), d1)


# one position's shift weights: (den, per_e), per_e[e] the (residue, numerator)
# pairs of exponent e
Weights = tuple[int, tuple[tuple[tuple[int, int], ...], ...]]


@functools.lru_cache(maxsize=1024)
def _shift_weights(dk: int, m: int, size: int) -> Weights:
    """One position's shift weights mod size = 2P, as integer numerators over
    one denominator: (den, per_e), where per_e[e] lists the nonzero
    t^(e-1) B_e(1 - (2p+1) d_k/2t) / e!, p < t/d_k, summed by their residue
    (2p+1) d_k mod size, as (residue, numerator) pairs.

    The sums are the same for every period t that is a multiple of
    L = lcm(d_k, P): by Raabe's multiplication theorem (DLMF 24.4.17) each
    class p = r (mod q), q = L/d_k, sums to the single term at t = L, whose
    argument is a/b with a = 2q-2r-1, b = 2q. The residues of the q classes
    are distinct, since q divides p - p' whenever two keys meet. With beta the
    lcm of the denominators of B_0..B_(m-1), the Appell sum
    B_e(a/b) b^e beta = sum_k C(e,k) (beta B_k) a^(e-k) b^k is an integer, so
    every e sits over den = L (m-1)! beta b^(m-1), reduced by the common gcd.
    Each e's sum, times its scale onto den, is one integer polynomial in a,
    evaluated by Horner.

    The table depends only on the key (dk, m, size), so it is cached per
    process on that key, least recently used first out past 1024 entries, and
    returned as nested tuples that no caller can change. It holds at most q
    (residue, numerator) pairs per e, about 90 bytes each: about 40 kB for
    the key (103, 4, 214), under 4 kB for any key with d_k, P <= 6 and m <= 4
    (the corpus). Both builders, closure_fn and verify's prefix rebuild
    called this one kernel before it was cached, so sharing a cached table
    makes the routes no less independent."""
    t = math.lcm(dk, size // 2)
    q = t // dk
    b = 2 * q
    bs = [bernoulli_number(k) for k in range(m)]
    beta = math.lcm(*(x.denominator for x in bs))
    bb = [x.numerator * (beta // x.denominator) * b**k for k, x in enumerate(bs)]
    top = math.factorial(m - 1)
    scale = [t**e * (top // math.factorial(e)) * b ** (m - 1 - e) for e in range(m)]
    # coeffs[e][k] is the coefficient of a^(e-k) in e's scaled sum
    coeffs = [[math.comb(e, k) * bb[k] * scale[e] for k in range(e + 1)] for e in range(m)]
    per_e: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    for r in range(q):
        a = 2 * q - 2 * r - 1
        key = ((2 * r + 1) * dk) % size
        for row, cs in zip(per_e, coeffs):
            num = 0
            for c in cs:
                num = num * a + c
            if num:
                row.append((key, num))
    den = t * top * beta * b ** (m - 1)
    g = math.gcd(den, *(w for row in per_e for _, w in row))
    return den // g, tuple(tuple((key, w // g) for key, w in row) for row in per_e)


def _shift_fold(d: Sequence[int], m: int, pivot: int) -> tuple[int, dict]:
    """Products of per-position shift sums around a pivot part, folded in the
    residue ring mod size = 2*pivot.

    Position k, with part d[k], offers the weights _shift_weights(d[k], m,
    size). A DP over positions, from a unit weight at the pivot's own
    half-shift (its divisibility indicator), keeps one residue table per
    (total exponent l < m, number of zero exponents z): the sum over
    exponent vectors r of the folded product, which carries
    1/prod r_k!. Times l! that is the multinomial weighting, times l!/(1+z)
    the split weight; no composition is enumerated.

    The tables hold integer numerators: each position has one denominator, so
    after k positions every state shares their product. Returns (den, fold);
    cell values are numerator/den.
    """
    size = 2 * pivot
    den = 1
    fold = {(0, 0): {pivot: 1}}
    for dk in d:
        dk_den, per_e = _shift_weights(dk, m, size)
        den *= dk_den
        nxt: dict[tuple[int, int], dict[int, int]] = {}
        for (l, z), table in fold.items():
            for e in range(m - l):
                out = nxt.setdefault((l + e, z + (e == 0)), {})
                for sh, w in per_e[e]:
                    for res, a in table.items():
                        key = (res + sh) % size
                        out[key] = out.get(key, 0) + a * w
        fold = nxt
    return den, fold


def closure_fn(parts: Sequence[int]) -> PeriodicFn:
    """The last-part-periodic remainder of the free coefficient.

    This is the piece of R_m the one-part extension cannot reach from the
    previous level: the constant remainder with 1/d_m replaced by the shifted
    divisibility indicator and each central Bernoulli symbol replaced by its
    finite shift sum. Every shift sum is reduced mod 2*d_m, so by Raabe's
    theorem (see _shift_weights) it is taken at its own period lcm(d_i, d_m).
    Period of the result: d_m. It is the total-exponent m-1 slice of
    _shift_fold over the prefix, mod 2*d_m: the multinomial over (m-1)! is
    exactly 1/prod r_k!. The slice is summed on numerators over the fold's
    denominator.
    """
    d = as_parts(parts)
    m = len(d)
    table = [0] * (2 * d[-1])
    den, fold = _shift_fold(d[:-1], m, d[-1])
    for (l, _), res_table in fold.items():
        if l == m - 1:
            for res, a in res_table.items():
                table[res] += a
    return PeriodicFn.from_numerators(d[-1], den, table)


def _guard_cells(m: int, period: int) -> None:
    """Check a certificate's m tables of 2*period cells against the guard
    limit (oracle.guard)."""
    guard(m * 2 * period, f"the certificate would take {m} x {2 * period} cells")


# a piece of a certificate held as a sum of pieces: (den, tables), each table
# 2P integer numerators over den for a piece of period P
Piece = tuple[int, list[list[int]]]


def _extend_pieces(pieces: dict[int, Piece], parts: tuple[int, ...]) -> dict[int, Piece]:
    """One recursive step on a certificate held as a sum of pieces.

    ``pieces`` maps a period P to the previous level's m-1 coefficient tables
    of that piece, as integer numerators over the piece's denominator; the
    result maps P to the m tables of the new level. R_j of the new level is a
    cyclic correlation of the previous R_{j-l}, l < j, with the new part's
    shift weights (tau^(l-1) B_l(1 - (2p+1) d_new/2tau) / l! at the shift
    (2p+1) d_new), each times (m-j+l-1)!/(m-j)!: in all
    (m-j+l-1)!/(l! (m-j)!) tau^(l-1), one weight for every j. The correlation
    is shift-invariant, so it runs mod each piece's own 2P with the weights
    summed by residue mod 2P, and a period-P piece stays period P; by Raabe's
    theorem those sums are _shift_weights(d_new, m, 2P), taken at
    lcm(d_new, P) rather than tau. They are integers over one denominator, so
    times (m-1)! every weight is an integer and the correlation runs on
    Python ints, over the previous denominator times the weights' times
    (m-1)!. The l = 0 term of the free coefficient R_m has no previous
    coefficient to read; it is the closure remainder closure_fn, added to the
    period-d_new piece. Pieces are not reduced; _materialise's
    PeriodicFn.from_numerators reduces the final tables once.
    """
    m = len(parts)
    d_new = parts[-1]
    top = math.factorial(m - 1)
    out: dict[int, Piece] = {}
    for period, (prev_den, prev) in pieces.items():
        size = 2 * period
        den, weights = _shift_weights(d_new, m, size)
        tables = [[0] * size for _ in range(m)]
        for j, table in enumerate(tables, 1):
            for i, prev_vals in enumerate(prev[:j]):
                if not any(prev_vals):
                    continue
                l = j - 1 - i
                c = math.factorial(m - j + l - 1) * (top // math.factorial(m - j))
                for shift, b in weights[l]:
                    w = c * b
                    # rotated[rho] is prev_vals at rho - shift (mod size)
                    rotated = prev_vals[size - shift :] + prev_vals[: size - shift]
                    table[:] = [a + w * v for a, v in zip(table, rotated)]
        out[period] = (prev_den * den * top, tables)
    den, tables = out.get(d_new, (1, [[0] * (2 * d_new) for _ in range(m)]))
    closure = closure_fn(parts)
    common = math.lcm(den, closure.den)
    k, kc = common // den, common // closure.den
    tables = [[a * k for a in table] for table in tables]
    tables[-1] = [a + kc * c for a, c in zip(tables[-1], closure.nums)]
    out[d_new] = (common, tables)
    return out


def _materialise(parts: tuple[int, ...], pieces: dict[int, Piece]) -> QuasiPoly:
    """The certificate with every coefficient tabulated at tau = lcm(parts):
    each piece's numerators brought to the pieces' common denominator, tiled
    to 2 tau entries by list repetition, and the tiles summed as ints."""
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
        coeffs.append(PeriodicFn.from_numerators(tau, den, values))
    return QuasiPoly(parts, coeffs, tau)


def extend_recursive(prev: QuasiPoly, d_new: int) -> QuasiPoly:
    """Grow a certificate by one more part.

    The previous certificate is read as one piece at its true period
    lcm(prev.parts), through its coefficient functions, so the period its
    tables are stored at does not matter; the step is _extend_pieces, and the
    result is tabulated at the new lcm.
    """
    (d_new,) = as_parts([d_new])
    parts = prev.parts + (d_new,)
    _guard_cells(len(parts), lcm_of(parts))
    period = lcm_of(prev.parts)
    piece = prev.numerator_tables(period)
    return _materialise(parts, _extend_pieces({period: piece}, parts))


def build_recursive(parts: Sequence[int]) -> QuasiPoly:
    """Certificate by the one-part-at-a-time route.

    The certificate is kept as a sum of pieces, one per distinct part period:
    starting from none, each step correlates every piece at its own period and
    adds closure_fn's piece at the new part's period (_extend_pieces); the
    first step's is the one-part indicator of base_case(d_1). Only the final
    certificate is tabulated at tau.
    """
    d = as_parts(parts)
    _guard_cells(len(d), lcm_of(d))
    pieces: dict[int, Piece] = {}
    for k in range(1, len(d) + 1):
        pieces = _extend_pieces(pieces, d[:k])
    return _materialise(d, pieces)


def build_explicit(parts: Sequence[int]) -> QuasiPoly:
    """Certificate in a single pass over pivot parts and shift sums.

    For each distinct part d_i, _shift_fold runs once over the other positions
    (d with one copy of d_i removed) in the residue ring mod 2*d_i, started at
    the pivot's own half-shift d_i (its divisibility indicator). Pivots with
    equal parts fold equal tables, so the fold is weighted by the multiplicity
    of d_i. Power bucket l weights each (l, zeros) table by l!/(1+zeros),
    which is polypart.split_weight summed over the compositions of l with that
    many zero exponents, times the binomial(m-1, l)/(m-1)! of the closed form.

    All of it runs on integer numerators: the bucket weight
    1/((1+zeros)(m-1-l)!) is taken over top = (m-1)! lcm(1..m), so each part's
    buckets are one piece of period d_i over the fold's denominator times
    top, and _materialise tiles and sums the pieces into the 2*tau tables.
    """
    d = as_parts(parts)
    m = len(d)
    _guard_cells(len(d), lcm_of(d))
    top = math.factorial(m - 1) * math.lcm(*range(1, m + 1))
    pieces: dict[int, Piece] = {}
    for di in dict.fromkeys(d):
        others = list(d)
        others.remove(di)
        folded = [[0] * (2 * di) for _ in range(m)]
        den, fold = _shift_fold(others, m, di)
        for (l, z), res_table in fold.items():
            w = d.count(di) * (top // ((1 + z) * math.factorial(m - 1 - l)))
            for res, a in res_table.items():
                folded[l][res] += w * a
        pieces[di] = (den * top, folded)
    return _materialise(d, pieces)
