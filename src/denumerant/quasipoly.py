"""Quasi-polynomial certificates for restricted partition counting.

A certificate for an ordered part list d = (d_1, ..., d_m) is

    V(s) = sum_{j=1}^{m} R_j(s) * s^(m-j)

with each R_j periodic of a period dividing tau = lcm(d). Counts live in the
shifted frame: the number of solutions of sum x_i d_i = n is V(n + xi) with
xi = sum(d)/2. Two constructions are provided:

  * build_recursive: fold parts in one at a time, from none
    (_extend_pieces, whose first step gives the one-part indicator);
  * build_explicit: a single pass over pivot parts and shift sums.

Both builders hold the certificate as pieces, m tables of 2P integer
numerators over the piece's own denominator for a period P (grouped by period
like Sylvester's waves, but not reduced to the canonical waves), and end in
_materialise, which sums each coefficient's piece tables as integers at the
lcm of their lengths (2 cells for a table constant on each lattice, 2P for
any other) and hands each sum to PeriodicFn.from_numerators. A built
certificate has master period tau. build_recursive keeps one piece per
distinct part period: each step, _extend_pieces, correlates every piece at
its own period (a period-P piece stays period P), over each table's nonzero
cells, and adds closure_fn's table at the new part's period;
extend_recursive runs that step on one certificate read as a single piece.
build_explicit gives each composition of exponents wholly to its first zero
position in a stable sort of the positions by part, not 1/(1+z) of it to
each of its 1 + z zero positions as the paper's formula does. That is exact
for any fixed order, because a composition's pivot term is the same at each
of its zero positions (the argument is in build_explicit). In that order the
copies of a part are adjacent, and their folds sum to one (the run sum in
_shift_fold), so build_explicit folds once per distinct part, that part the
pivot, into one piece of its period.

Two kernels are shared by the folds. _shift_weights tabulates one position's
Bernoulli shift weights by residue; _shift_fold multiplies them over positions
as a DP with state total exponent -> residue table plus one flat integer,
added at every cell of the table's parity class. Its options are the number
of leading positions that skip the e = 0 step and the number of copies of
the pivot's part whose folds it sums: build_explicit passes the index of the
part's first copy in sorted order and its multiplicity, closure_fn 0 and 1.
A position's shift sum runs over p < t/d_k, and read mod 2P it is the same
for every t that is a multiple of L = lcm(d_k, P): class r < q = L/d_k holds
n = t/L values of p, whose arguments are spaced 1/n apart, and Raabe's
multiplication theorem (DLMF 24.4.17) sums them to

    sum_{p = r mod q} t^(e-1) B_e(1 - (2p+1)d_k/2t) / e!
        = L^(e-1) B_e(1 - (2r+1)/2q) / e!.

So the weights are evaluated at t = L, once per class, and no caller passes
a period. Since B_0 = 1, the e = 0 weight is one value on all q classes,
whose keys (2r+1) d_k form one coset of the subgroup gcd(2 d_k, 2P) generates
mod 2P; the fold's e = 0 step sums the table over each coset and spreads the
sum over the shifted coset, not q rotations. When d_k is coprime to the
pivot the coset is the whole parity class: the step averages the table onto
the class, the constant (first-wave) part in Sylvester's terms, and the fold
keeps it as the flat integer, which each later weight row only scales by its
total, instead of P equal cells. At a/b = 1 - (2r+1)/2q the values B_e(a/b)
are integer numerators over b^e and the Bernoulli denominators, so each
position's weights are integers over one denominator. The fold runs on
Python ints, every state after k positions sharing the product of k
denominators, and so does the recursive step's correlation.

_shift_weights is computed once per process per key (d_k, m, 2P); its
docstring gives the cache's bound and why sharing it costs no independence.

closure_fn runs the fold for the one remainder of the free coefficient that
build_recursive cannot reach by extension and returns its integer table at
2 d_m cells, which the recursive step adds into its piece as it is; the step
reads the new part's weights from _shift_weights. While the context variable
_LEVELS is set, for one verify.run_properties call that builds its own
certificates, build_recursive records each level's pieces in it and reads a
level it has already recorded, so verify's prefix certificate costs no
second pass; it is None otherwise, and nothing is kept across calls. Both
builders check the m tables of 2*tau cells against the guard limit
(oracle.guard) before any of this, and every QuasiPoly, built, parsed or
hand-built, checks its m tables of 2*P cells at its master period P when it
is constructed, aligned's larger P included. Everything else stays
independent: the recursive step's cyclic correlation, build_explicit's
product over the pivot, and the counting oracle (oracle.count_dp), so
table-level agreement remains a meaningful check; the oracle, recurrence,
parity and mean-value properties check the shared _materialise.

Periodic coefficients live on the half-integer lattice: a function of period T
stores 2T values indexed by the scaled residue 2s mod 2T, so integer and
half-odd points coexist in one table and every shift is index arithmetic. A
point is the int t = 2s inside; value takes s as an int or a Fraction with
denominator 1 or 2, count passes t = 2n + sum(d) straight to the integer
Horner, and xi is a Fraction. The values are held only as integer numerators
over one positive denominator, reduced so that gcd(den, *nums) = 1; value,
count, to_json and numerator_tables read them, and PeriodicFn.values builds
Fractions from them per read. Every table, built, parsed or hand-built, is
cut to its function's least period by PeriodicFn.from_numerators, the one
constructor body (_least_length), so one function has one stored form: a
file written with its coefficients tiled to tau reads as the built
certificate and writes the built bytes, and PeriodicFn compares and hashes
as plain (den, nums) data.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import math
from fractions import Fraction
from typing import Iterable, Sequence

from .bernoulli import bernoulli_number
from .errors import InputError, IntegralityError
from .exactnum import Rational, as_parts, lcm_of, parse_rational
from .oracle import guard

__all__ = [
    "PeriodicFn",
    "QuasiPoly",
    "extend_recursive",
    "build_recursive",
    "closure_fn",
    "build_explicit",
]


class PeriodicFn:
    """An exact periodic function on the half-integer lattice.

    Its value at every point s with 2s = rho (mod 2*period) is nums[rho]/den;
    even rho are the integer points, odd rho the half-odd ones. It stores only
    the integer numerators ``nums`` over one denominator ``den`` > 0, at the
    function's least period ``period``, reduced so that gcd(den, *nums) = 1:
    one function has one stored form, so equality and hash are those of
    (den, nums), and PeriodicFn(3, [5, 7] * 3) is stored as PeriodicFn(1,
    [5, 7]). ``values`` reads them as Fractions, built on each read. A period
    is a positive int, never a bool. ``PeriodicFn(period, values)`` takes
    ints or Fractions and hands their numerators over the common denominator
    to ``from_numerators``, the one constructor body.
    """

    __slots__ = ("period", "den", "nums")

    def __init__(self, period: int, values: Iterable[Rational | int]):
        vals = tuple(values)
        for v in vals:
            if type(v) is bool or not isinstance(v, (int, Fraction)):
                raise InputError(f"periodic values must be ints or Fractions, got {v!r}")
        den = math.lcm(*{v.denominator for v in vals})
        fn = self.from_numerators(period, den, [v.numerator * (den // v.denominator) for v in vals])
        self.period, self.den, self.nums = fn.period, fn.den, fn.nums

    @classmethod
    def from_numerators(cls, period: int, den: int, nums: Sequence[int]) -> "PeriodicFn":
        """The function with values nums[rho mod 2*period]/den, for int
        numerators over a positive int den, never bools: the table is cut to
        its least period (_least_length) and reduced there by gcd(den, *nums).
        One int is kept per distinct numerator, shared by every cell that
        holds it."""
        if not isinstance(period, int) or isinstance(period, bool) or period < 1:
            raise InputError(f"period must be a positive integer, got {period!r}")
        if not isinstance(den, int) or isinstance(den, bool) or den < 1:
            raise InputError(f"denominator must be a positive integer, got {den!r}")
        if len(nums) != 2 * period:
            raise InputError(f"period {period} needs {2 * period} residue values, got {len(nums)}")
        if any(t is bool or not issubclass(t, int) for t in set(map(type, nums))):
            bad = next(a for a in nums if type(a) is bool or not isinstance(a, int))
            raise InputError(f"numerators must be ints, got {bad!r}")
        if period > 1:  # 2 cells are at their least period already
            nums = nums[: math.lcm(2, _least_length(nums))]
        distinct = set(nums)
        g = math.gcd(den, *distinct)
        reduced = {a: a // g for a in distinct}
        fn = cls.__new__(cls)
        fn.period, fn.den, fn.nums = len(nums) // 2, den // g, tuple(map(reduced.__getitem__, nums))
        return fn

    @property
    def values(self) -> tuple[Fraction, ...]:
        """The table as Fractions, one built per distinct numerator on each read."""
        cell = {a: Fraction(a, self.den) for a in set(self.nums)}
        return tuple(map(cell.__getitem__, self.nums))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PeriodicFn):
            return NotImplemented
        return (self.den, self.nums) == (other.den, other.nums)

    def __hash__(self) -> int:
        return hash((self.den, self.nums))

    def __repr__(self) -> str:
        return f"PeriodicFn(period={self.period})"


class QuasiPoly:
    """A certificate V(s) = sum_j R_j(s) s^(m-j) for one ordered part list.

    Immutable once built. ``coeffs[j-1]`` is R_j, held at its least period
    (PeriodicFn), which must divide the master period. Equality compares
    parts, master period and coefficients. Its m tables of 2 * master_period
    cells are checked against the guard limit on construction, so a parsed
    certificate is refused before any table is read.
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
            if not isinstance(fn, PeriodicFn):
                raise InputError(f"coefficients must be PeriodicFn, got {fn!r}")
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
    def xi(self) -> Fraction:
        """The symmetrizing shift sum(parts)/2 between the two frames."""
        return Fraction(sum(self.parts), 2)

    def value(self, s: int | Fraction) -> Rational:
        """V(s) at any half-integer lattice point s: an int, or a Fraction
        with denominator 1 or 2, never a bool. Evaluated at t = 2s by
        _at_twice."""
        if isinstance(s, int) and not isinstance(s, bool):
            return Fraction(*self._at_twice(2 * s))
        if isinstance(s, Fraction) and s.denominator <= 2:
            return Fraction(*self._at_twice(s.numerator * (2 // s.denominator)))
        raise InputError(f"{s!r} is not a half-integer lattice point")

    def _at_twice(self, t: int) -> tuple[int, int]:
        """V(t/2) as an unreduced (numerator, denominator) pair of ints:
        2^(m-1) den V(t/2), with N_j R_j's numerator at t over den, the lcm
        of the denominators, is the integer sum_j N_j 2^(j-1) t^(m-j), summed
        by Horner in t as in verify._scaled_blocks; the denominator is
        2^(m-1) den."""
        den = math.lcm(*(fn.den for fn in self.coeffs))
        acc = 0
        for j, fn in enumerate(self.coeffs):
            acc = acc * t + (fn.nums[t % (2 * fn.period)] * (den // fn.den) << j)
        return acc, den << (len(self.coeffs) - 1)

    def count(self, n: int):
        """The count at integer n, i.e. V(n + xi), returned as an exact int.

        A fractional value for n >= 0 means the certificate is wrong and raises;
        for n < 0 the (possibly fractional) continuation value is returned as is.
        An integral value is the quotient of one divmod of the Horner sum by
        its denominator; a Fraction is built only for a value that is not.
        """
        if not isinstance(n, int) or isinstance(n, bool):
            raise InputError(f"n must be an integer, got {n!r}")
        num, den = self._at_twice(2 * n + sum(self.parts))
        q, r = divmod(num, den)
        if not r:
            return q
        v = Fraction(num, den)
        if n >= 0:
            raise IntegralityError(f"count at n={n} evaluated to {v}, not an integer")
        return v

    def numerator_tables(self) -> tuple[int, list[list[int]]]:
        """(den, tables): tables[j-1] is R_j's stored table of 2*period
        cells scaled to den, the lcm of the coefficients' denominators, so
        R_j's numerator over den at 2s = rho is tables[j-1][rho mod its
        length]. Nothing is tiled: the tables hold no more cells than the
        coefficients store."""
        den = math.lcm(*(fn.den for fn in self.coeffs))
        tables = []
        for fn in self.coeffs:
            scale = den // fn.den
            tables.append(list(fn.nums) if scale == 1 else [a * scale for a in fn.nums])
        return den, tables

    def aligned(self, target: int) -> "QuasiPoly":
        """The same coefficients under the master period target, a positive
        int multiple of the master period, never a bool. The constructor
        checks its m tables of 2*target cells against the guard limit."""
        if type(target) is not int or target < 1 or target % self.master_period:
            raise InputError(
                f"{target!r} is not a positive multiple of the master period {self.master_period}"
            )
        return QuasiPoly(self.parts, self.coeffs, target)

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
        "p/q" otherwise, the text str(Fraction(a, den)) gives. The residue
        lines of one period are one %s template, built once per call and
        shared by every coefficient at that period, filled with the texts in
        residue order. Every string written is digits, "-" and "/", so
        nothing needs escaping.
        """
        blocks = []
        templates: dict[int, str] = {}
        for power, fn in zip(range(self.m - 1, -1, -1), self.coeffs):
            den = fn.den
            text = {}
            for a in set(fn.nums):
                g = math.gcd(a, den)
                text[a] = f'"{a // g}"' if g == den else f'"{a // g}/{den // g}"'
            template = templates.get(fn.period)
            if template is None:
                template = templates[fn.period] = ",\n".join(
                    [f'        "{rho}": %s' for rho in range(2 * fn.period)]
                )
            cells = template % tuple(map(text.__getitem__, fn.nums))
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
        except ValueError as exc:  # a JSONDecodeError, or an integer over int()'s digit limit
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
                    if str(rho) not in values:
                        raise InputError(
                            f"malformed certificate JSON: the power {entry['power']} coefficient "
                            f"(period {period}) has no residue key {str(rho)!r}"
                        )
                    cell = values[str(rho)]
                    if not isinstance(cell, str) or cell not in parsed:
                        parsed[cell] = parse_rational(cell)
                    cells.append(parsed[cell])
                if len(values) != 2 * period:  # every "0".."2P-1" was read: a key is stray
                    stray = sorted(set(values) - set(map(str, range(2 * period))))
                    raise InputError(f"residue keys {stray} are outside 0..{2 * period - 1}")
                fns.append(PeriodicFn(period, cells))
            q = cls(parts, tuple(fns), raw["master_period"])
            if str(q.xi) != raw["xi"]:
                raise InputError(f"shift field {raw['xi']!r} does not match the parts")
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, InputError):
                raise
            raise InputError(f"malformed certificate JSON: {exc}") from exc
        return q


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
    (the corpus). Both builders, closure_fn and verify's prefix build
    called this one kernel before it was cached, so sharing a cached table
    makes the routes no less independent.

    B_0 = 1, so the q e = 0 weights are all L^(-1) over den, one value on
    the coset of keys; this is asserted as the table is built, and
    _shift_fold's coset step relies on it."""
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
    assert len(per_e[0]) == q and len({w for _, w in per_e[0]}) == 1, (dk, m, size)
    den = t * top * beta * b ** (m - 1)
    g = math.gcd(den, *(w for row in per_e for _, w in row))
    return den // g, tuple(tuple((key, w // g) for key, w in row) for row in per_e)


@functools.lru_cache(maxsize=1024)
def _row_totals(dk: int, m: int, size: int) -> tuple[int, ...]:
    """The total of each row e of _shift_weights(dk, m, size): the factor a
    table constant on its parity class takes from that row. Cached per
    process on the same key and bound as _shift_weights, m ints per key."""
    return tuple(sum(w for _, w in row) for row in _shift_weights(dk, m, size)[1])


def _shift_fold(
    d: Sequence[int], m: int, pivot: int, skip: int, copies: int = 1
) -> tuple[int, list[dict[int, int]], list[int]]:
    """Products of per-position shift sums around a pivot part, folded in the
    residue ring mod size = 2*pivot.

    Position k, with part d[k], offers the weights _shift_weights(d[k], m,
    size). A DP over positions, from a unit weight at the pivot's own
    half-shift (its divisibility indicator), keeps one residue table per
    total exponent l < m: the sum over exponent vectors r of the folded
    product, which carries 1/prod r_k!. Times l! that is the multinomial
    weighting; no composition is enumerated. The first ``skip`` positions
    take exponents e >= 1 only and skip the e = 0 step, so each composition
    reaches the fold of its first zero position only; closure_fn passes 0.

    With copies = c > 1 the call returns the sum of c folds, those with
    skip, skip + 1, ..., skip + c - 1, for a pivot part v whose c - 1 other
    copies are positions skip .. skip + c - 2 (build_explicit passes the
    sorted list less one copy of v and skip = the index of v's first copy).
    Fold j takes B, the e >= 1 step at v, at the first j of those copies and
    A = B + Z at the rest, with Z the e = 0 step at v: mod 2v that is the
    q = 1 rotation by v with weight w0. Every step multiplies by an element of one commutative ring, so the
    operators commute, and by the hockey-stick identity
    sum_(j<c) C(c-1-j, i) = C(c, i+1),

        sum_(j<c) A^(c-1-j) B^j = sum_(i<c) C(c, i+1) Z^i B^(c-1-i).

    So the fold runs once: the copies take B only, the states u_k = B^k x
    are kept as it passes them, and before the first later position (or at
    the end) the state becomes sum_i C(c, i+1) Z^i u_(c-1-i) (_run_sum);
    the later positions take every exponent. At c = 1 that is the state
    itself.

    Every shift (2r+1) d_k has the parity of d_k, so after k positions every
    cell of every table lies in one parity class, pivot + d_0 + ... + d_(k-1)
    mod 2, of P = pivot cells. The state for total exponent l is a table of
    cells plus one integer flat[l], added to the table at every cell of that
    class.

    The e = 0 weights are one value w0 on the coset d_k + <g> of the subgroup
    g = gcd(2 d_k, size) generates (see _shift_weights). So when that coset
    has q > 1 keys, the e = 0 step sums the table over each residue c mod g
    and adds w0 times the sum at every key = c + d_k (mod g), in place of q
    rotations; a zero sum writes nothing. At q = 1 it is one rotation. At
    g = 2 (d_k coprime to the pivot, pivot > 1) the coset is the whole class,
    so the step writes no cells: it adds w0 times the table's sum to flat[l].
    A flat value u correlated with row e is u times the row's total, the sum
    of its weights (_row_totals; for e = 0 that is q w0), so flat moves
    through each later position as m integers, not as P cells. flat is None
    until the first g = 2 step, so a fold with none pays one test per
    position for it.

    The tables hold integer numerators: each position has one denominator, so
    after k positions every table shares their product. Returns (den, fold,
    flat): state l is fold[l] plus flat[l] at every key of the parity class
    pivot + sum(d) mod 2 (all zeros when no g = 2 step ran); cell values are
    numerator/den.
    """
    size = 2 * pivot
    den = 1
    fold: list[dict[int, int]] = [{pivot: 1}] + [{} for _ in range(m - 1)]
    flat: list[int] | None = None
    run_end = skip + copies - 1  # the first position that takes e = 0
    states: list[list[dict[int, int]]] = []  # u_0 .. u_(copies-2)
    for k, dk in enumerate(d):
        if k == run_end and states:
            fold = _run_sum(states + [fold], m, pivot)
        elif skip <= k < run_end:
            states.append(fold)
        dk_den, per_e = _shift_weights(dk, m, size)
        den *= dk_den
        g = math.gcd(2 * dk, size)
        shift, w0 = per_e[0][0]
        zero_step = k >= run_end
        if flat:
            totals = _row_totals(dk, m, size)
            carried = [0] * m
            for l, u in enumerate(flat):
                if u:
                    for e in range(0 if zero_step else 1, m - l):
                        carried[l + e] += u * totals[e]
            flat = carried
        nxt: list[dict[int, int]] = [{} for _ in range(m)]
        for l, table in enumerate(fold):
            if not table:
                continue
            out = nxt[l]
            if zero_step and g < size:
                if g == 2:
                    if flat is None:
                        flat = [0] * m
                    flat[l] += w0 * sum(table.values())
                else:
                    sums: dict[int, int] = {}
                    for res, a in table.items():
                        c = res % g
                        sums[c] = sums.get(c, 0) + a
                    for c, total in sums.items():
                        if total:
                            w = w0 * total
                            for key in range((c + dk) % g, size, g):
                                out[key] = out.get(key, 0) + w
            elif zero_step:
                # q = 1: the coset step gives the same nonzero cells 3-9% slower on corpus and deep
                for res, a in table.items():
                    key = (res + shift) % size
                    out[key] = out.get(key, 0) + a * w0
            for e in range(1, m - l):
                out = nxt[l + e]
                for sh, w in per_e[e]:
                    for res, a in table.items():
                        key = (res + sh) % size
                        out[key] = out.get(key, 0) + a * w
        fold = nxt
    if states and len(d) == run_end:
        fold = _run_sum(states + [fold], m, pivot)
    return den, fold, flat or [0] * m


def _run_sum(states: list[list[dict[int, int]]], m: int, pivot: int) -> list[dict[int, int]]:
    """The sum of a run's c = len(states) folds at the point the run ends:
    sum_(i < c) C(c, i+1) Z^i u_(c-1-i), with u_k = states[k] the fold after
    k copies of the pivot's part took e >= 1 only, and Z that part's e = 0
    step mod 2*pivot: the q = 1 rotation by pivot with weight w0 (see
    _shift_weights). No e = 0 step has run before the run ends, so the
    states carry no flat value. The tables share the fold's denominator,
    since each Z step is over the same denominator as the copy it stands
    for."""
    size = 2 * pivot
    shift, w0 = _shift_weights(pivot, m, size)[1][0][0]
    c = len(states)
    out: list[dict[int, int]] = [{} for _ in range(m)]
    for i, tables in enumerate(reversed(states)):
        coef = math.comb(c, i + 1) * w0**i
        rot = i * shift % size
        for acc, table in zip(out, tables):
            for res, a in table.items():
                key = (res + rot) % size
                acc[key] = acc.get(key, 0) + coef * a
    return out


def closure_fn(parts: Sequence[int]) -> tuple[int, list[int]]:
    """The last-part-periodic remainder of the free coefficient.

    This is the piece of R_m the one-part extension cannot reach from the
    previous level: the constant remainder with 1/d_m replaced by the shifted
    divisibility indicator and each central Bernoulli symbol replaced by its
    finite shift sum. Every shift sum is reduced mod 2*d_m, so by Raabe's
    theorem (see _shift_weights) it is taken at its own period lcm(d_i, d_m).
    It is the total-exponent m-1 state of _shift_fold over the prefix, mod
    2*d_m, with every position taking every exponent (skip 0): the
    multinomial over (m-1)! is exactly 1/prod r_k!. Returns (den, table):
    the state's 2*d_m integer numerators over the fold's denominator, its
    flat value written at every key of the parity class sum(parts) mod 2 and
    its cells added, unreduced, as the recursive step adds them into its
    period-d_m piece.
    """
    d = as_parts(parts)
    m = len(d)
    den, fold, flat = _shift_fold(d[:-1], m, d[-1], 0)
    table = [0] * (2 * d[-1])
    if flat[m - 1]:
        table[sum(d) % 2 :: 2] = [flat[m - 1]] * d[-1]
    for res, a in fold[m - 1].items():
        table[res] += a
    return den, table


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing the positive int n, by trial division."""
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


def _least_length(col: Sequence[int]) -> int:
    """The least number of cells p with which the column repeats: col[i] ==
    col[i + p] wherever both exist. The column's own length is one such p,
    so the least divides it; it is found by descending from that length over
    the length's prime factors q, dividing by q while the column still
    repeats with the quotient, checked by an exact list comparison. The one
    least-period cut, made by PeriodicFn.from_numerators. On a table of 2P
    cells it may be odd; the least period of the function, in s, is then
    lcm(2, p)/2."""
    p = len(col)
    for q in _prime_factors(p):
        while p % q == 0 and col[p // q : p] == col[: p - p // q]:
            p //= q
    return p


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
    (m-1)!. Each previous table is read once for its nonzero cells, and each
    (cell, shift) pair adds into the cell rho + shift mod 2P, found by index
    arithmetic: rho - 2P + shift is a negative index to that cell, as
    shift < 2P. No cell's parity is assumed, and a zero cell costs nothing.
    The l = 0 term of the free coefficient R_m has no previous coefficient to
    read; it is the closure remainder, closure_fn's 2 d_new integer
    numerators over its denominator, added as they are to the period-d_new
    piece. Pieces are not reduced; _materialise's PeriodicFn.from_numerators
    reduces the final tables once.
    """
    m = len(parts)
    d_new = parts[-1]
    top = math.factorial(m - 1)
    out: dict[int, Piece] = {}
    for period, (prev_den, prev) in pieces.items():
        size = 2 * period
        den, weights = _shift_weights(d_new, m, size)
        tables = [[0] * size for _ in range(m)]
        for i, prev_vals in enumerate(prev):
            # rho - size + shift indexes (rho + shift) mod size, as shift < size
            cells = [(rho - size, v) for rho, v in enumerate(prev_vals) if v]
            if not cells:
                continue
            for j in range(i + 1, m + 1):
                l = j - 1 - i
                c = math.factorial(m - j + l - 1) * (top // math.factorial(m - j))
                table = tables[j - 1]
                for shift, b in weights[l]:
                    w = c * b
                    for at, v in cells:
                        table[at + shift] += w * v
        out[period] = (prev_den * den * top, tables)
    den, tables = out.get(d_new, (1, [[0] * (2 * d_new) for _ in range(m)]))
    closure_den, closure = closure_fn(parts)
    common = math.lcm(den, closure_den)
    k, kc = common // den, common // closure_den
    tables = [[a * k for a in table] for table in tables]
    tables[-1] = [a + kc * c for a, c in zip(tables[-1], closure, strict=True)]
    out[d_new] = (common, tables)
    return out


def _materialise(parts: tuple[int, ...], pieces: dict[int, Piece]) -> QuasiPoly:
    """The certificate at master period tau = lcm(parts), every coefficient
    stored at its least period.

    Each piece's numerators are brought to the pieces' common denominator. A
    piece table that is constant on each lattice (t[2:] == t[:-2]) joins the
    sum as its 2 cells, every other one at its piece's 2P. Coefficient j is
    summed at the lcm L_j of those lengths, which divides 2 tau, and handed
    over at L_j cells to PeriodicFn.from_numerators, which cuts it to its
    least period and reduces it there: the sums at 2 tau are the same cells
    repeated, so the function is the one the sums at 2 tau would give."""
    tau = lcm_of(parts)
    den = math.lcm(*(piece_den for piece_den, _ in pieces.values()))
    coeffs = []
    for j in range(len(parts)):
        tiles = []
        for piece_den, tables in pieces.values():
            table = tables[j]
            if any(table):
                if table[2:] == table[:-2]:
                    table = table[:2]
                scale = den // piece_den
                tiles.append([a * scale for a in table])
        size = math.lcm(2, *map(len, tiles))
        values = tiles[0] * (size // len(tiles[0])) if tiles else [0] * size
        for tile in tiles[1:]:
            values = [a + b for a, b in zip(values, tile * (size // len(tile)), strict=True)]
        coeffs.append(PeriodicFn.from_numerators(size // 2, den, values))
    return QuasiPoly(parts, coeffs, tau)


def extend_recursive(prev: QuasiPoly, d_new: int) -> QuasiPoly:
    """Grow a certificate by one more part.

    The previous certificate is read as one piece at its true period
    L = lcm(prev.parts): its numerator_tables(), each at the period its
    coefficient is stored at, are read at rho mod their length for rho < 2L,
    which is R_j's numerator at 2s = rho, so the stored period does not
    matter. The step is _extend_pieces, and the result has the new lcm as
    its master period, each coefficient at its least period (_materialise).
    """
    (d_new,) = as_parts([d_new])
    parts = prev.parts + (d_new,)
    _guard_cells(len(parts), lcm_of(parts))
    period = lcm_of(prev.parts)
    den, tables = prev.numerator_tables()
    piece = (den, [[t[r % len(t)] for r in range(2 * period)] for t in tables])
    return _materialise(parts, _extend_pieces({period: piece}, parts))


# prefix tuple -> the pieces _extend_pieces returned for that level, while one
# verify.run_properties call builds its own certificates; None otherwise
_LEVELS: contextvars.ContextVar[dict[tuple[int, ...], dict[int, Piece]] | None] = (
    contextvars.ContextVar("denumerant_levels", default=None)
)


def build_recursive(parts: Sequence[int]) -> QuasiPoly:
    """Certificate by the one-part-at-a-time route.

    The certificate is kept as a sum of pieces, one per distinct part period:
    starting from none, each step correlates every piece at its own period and
    adds closure_fn's piece at the new part's period (_extend_pieces); the
    first step's is the one-part indicator of d_1 | (s - d_1/2). Only the final
    certificate is materialised, at master period tau with each coefficient
    at its least period. While _LEVELS is set, each level's pieces
    are recorded in it, and a level already recorded is read, not rebuilt.
    """
    d = as_parts(parts)
    _guard_cells(len(d), lcm_of(d))
    levels = _LEVELS.get()
    pieces: dict[int, Piece] = {}
    for k in range(1, len(d) + 1):
        if levels is None:
            pieces = _extend_pieces(pieces, d[:k])
        elif d[:k] in levels:
            pieces = levels[d[:k]]
        else:
            pieces = levels[d[:k]] = _extend_pieces(pieces, d[:k])
    return _materialise(d, pieces)


def build_explicit(parts: Sequence[int]) -> QuasiPoly:
    """Certificate in a single pass over pivot positions and shift sums.

    The paper's formula sums, for every pivot position i, products of the
    other positions' shift sums, one exponent r_k each, around the pivot's
    divisibility indicator, and splits a composition with 1 + z zero
    positions (the pivot among them) evenly over them, 1/(1+z) each. Here
    each composition goes wholly to its first zero position in a stable sort
    of the positions by part, which on a nondecreasing list is list order:
    with s the sorted list, position i's fold runs over s[:i] + s[i+1:] in
    the residue ring mod 2*s_i, started at the pivot's own half-shift s_i,
    and its i leading positions skip the e = 0 step. The c copies of a part
    v are the adjacent positions i .. i+c-1, and _shift_fold sums their c
    folds in one (copies=c; the run sum and its proof are in its
    docstring), so there is one fold per distinct part. Power bucket l
    weights table l by binomial(m-1, l)/(m-1)! times the multinomial l!,
    that is 1/(m-1-l)!.

    Why this is exact: read at a common multiple t of the parts, a position
    k's e = 0 weight is 1/t at each shift (2p+1) d_k, p < t/d_k, and the
    pivot's indicator is a unit at each (2a+1) d_i, a < t/d_i. Their
    convolution is (1/t) #{(p, a) : x = (2p+1) d_k + (2a+1) d_i (mod 2t)},
    which is symmetric in i and k, and the nonzero positions' factors do not
    depend on the pivot. So a composition's pivot term is the same at each
    of its 1 + z zero positions, and summing it with weight 1/(1+z) over
    them equals giving all of it to the first, in any fixed order of the
    positions.

    All of it runs on integer numerators: bucket l's weight is taken over
    top = (m-1)! as (m-1)!/(m-1-l)!. Each part's one fold makes one piece of
    period v over its denominator times top, its flat value added as one
    slice update of its table's parity class, sum(d) mod 2; _materialise
    sums the pieces and cuts each sum to its least period.
    """
    d = as_parts(parts)
    m = len(d)
    _guard_cells(m, lcm_of(d))
    top = math.factorial(m - 1)
    parity = sum(d) % 2  # the class every fold's cells lie in
    ordered = sorted(d)
    pieces: dict[int, Piece] = {}
    i = 0
    for v, run in itertools.groupby(ordered):
        copies = len(list(run))
        den, fold, flat = _shift_fold(ordered[:i] + ordered[i + 1 :], m, v, i, copies)
        i += copies
        folded = [[0] * (2 * v) for _ in range(m)]
        pieces[v] = (den * top, folded)
        for l, res_table in enumerate(fold):
            w = top // math.factorial(m - 1 - l)
            row = folded[l]
            for res, a in res_table.items():
                row[res] += w * a
            if flat[l]:
                u = w * flat[l]
                row[parity::2] = [a + u for a in row[parity::2]]
    return _materialise(d, pieces)
