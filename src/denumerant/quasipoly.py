"""Quasi-polynomial certificates for restricted partition counting.

A certificate for an ordered part list d = (d_1, ..., d_m) is

    V(s) = sum_{j=1}^{m} R_j(s) * s^(m-j)

with each R_j periodic of a period dividing tau = lcm(d). Counts live in the
shifted frame: the number of solutions of sum x_i d_i = n is V(n + xi) with
xi = sum(d)/2. Two constructions are provided:

  * build_recursive: fold parts in one at a time, from none
    (_extend_pieces, whose first step gives the one-part indicator);
  * build_explicit: a single pass over pivot parts and shift sums.

Both builders hold the certificate as pieces, m tables of P integer
numerators over the piece's own denominator for a period P (grouped by period
like Sylvester's waves, but not reduced to the canonical waves), and end in
_materialise, which hands the pieces over as they are: the certificate it
returns, at master period tau, holds them until its stored form is first
read. A fold starts at the pivot's own half-shift and every shift
(2p+1) d_k has d_k's parity, so every table a builder makes lies on one
parity class, sigma = sum(d) mod 2, and is zero on the other: a piece,
keyed by its period P alone, holds only its P natural cells, cell i the
numerator at 2s = 2i + sigma mod 2P, and every reader takes sigma from the
parts. _summed sums each coefficient's piece tables as integers at the lcm
of their lengths (1 cell for a constant table, P for any other) and cuts
each sum to its least length, the one least-period cut; the first read
reduces those natural cells jointly and keeps them as the stored form (_store,
the one path every certificate is stored by), numerator_tables (verify's read)
reduces them by the same joint gcd and keeps nothing, and to_json writes
the natural cells alone, before the first read or after it, keyed
2i + sigma; from_json reads that layout and the one to_json wrote before,
with "0" at every key off the class, coefficient by coefficient.
build_recursive keeps one piece per distinct part period: each step,
_extend_pieces, correlates every piece at its own period (a period-P piece
stays period P), over each table's nonzero cells, and adds closure_fn's
natural cells at the new part's period; extend_recursive runs that
step on one certificate read as one piece at its true period, its natural
rows tiled to it, and refuses one whose coefficient period does not divide
it.
build_explicit gives each composition of exponents wholly to its first zero
position in a stable sort of the positions by part, not 1/(1+z) of it to
each of its 1 + z zero positions as the paper's formula does. That is exact
for any fixed order, because a composition's pivot term is the same at each
of its zero positions (the argument is in build_explicit). In that order the
copies of a part are adjacent, and their folds sum to one (the run sum in
_shift_fold), so build_explicit folds once per distinct part, that part the
pivot, and each fold's result is that part's piece.

Two kernels are shared by the folds. _shift_weights tabulates one position's
Bernoulli shift weights by residue, with each row's total; _fold_step
multiplies a fold state by one position's weights, the state being a DP from
total exponent to a residue table plus one flat integer, added at every cell
of the table's parity class. Every fold is a run of those steps.
_shift_fold runs them over build_explicit's positions and returns the
pivot's piece: m dense tables, table l the state l weighted by
(m-1)!/(m-1-l)! with its flat value written into its class. Its options are
the number of leading positions that skip the e = 0 step and the number of
copies of the pivot's part whose folds it sums: build_explicit passes the
index of the part's first copy in sorted order and its multiplicity, and
keeps the piece as it is. Every leading position adds at least 1 to the
total exponent, so at each of them _shift_fold steps only the buckets and
exponents that the leading positions still to come leave at most m-1: the
others never reach the piece. closure_fn reads bucket m-1 of a state folded
over the prefix, all exponents at every position.
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

closure_fn gives the one remainder of the free coefficient that
build_recursive cannot reach by extension: that bucket, as its d_m natural
integer cells over the fold's denominator, which the recursive step adds into
its piece, with the piece's correlation weights scaled onto the common
denominator; the step reads the new part's weights from _shift_weights.
Called on a list alone, closure_fn folds the prefix itself. _recursive_pass
instead keeps one fold state per distinct part value v, with as many buckets
as v's last level: every level whose part is v reads its bucket from that
state, and each level's part is stepped into every state still to be read, so
each part value's closure is folded once per pass. The states are the
recursive route's own and live for one call. _recursive_pass returns the
recursive certificate and, from the same pass, the one for all but the last
part, which verify.run_properties takes as the recurrence's prefix, so that
prefix costs no second pass; nothing is kept across calls. Both builders
check the m tables of 2*tau cells against the guard limit (oracle.guard)
before any of this, though a piece holds half of them; _store checks the m
tables of 2*P cells at the master period P before it sums anything: when a
parsed or hand-built QuasiPoly is constructed, and again when a built one's
stored form is first built. aligned checks its larger P.
Everything else stays independent: the recursive step's cyclic
correlation, build_explicit's product over the pivot, and the counting
oracle (oracle.count_dp), so table-level agreement remains a meaningful
check; the oracle, recurrence, parity and mean-value properties check the
shared _summed.

Periodic coefficients live on the half-integer lattice: a PeriodicFn of
period T is a table of 2T int or Fraction values, indexed by the scaled
residue 2s mod 2T, so integer and half-odd points coexist in one table and
every shift is index arithmetic. It is only the way in (the constructor)
and the way out (coeffs); no integer form is its own, and from_json reads
a file's natural cells without one. A certificate's coefficients are zero
off the class 2s = sum(d) mod 2: every table a builder makes lies on it,
and the constructor and from_json refuse a coefficient with a nonzero cell
off it. So a certificate's values are held only as its natural cells:
integer rows over one positive denominator, row j R_j's p cells at its
least period p, cell i the numerator at 2s = 2i + sigma, reduced jointly so
that gcd(den, every cell) = 1. A point is the int t = 2s inside; value
takes s as an int or a Fraction with denominator 1 or 2 and is 0 off the
class, count passes t = 2n + sum(d), always on it, straight to the integer
Horner, which reads cell t >> 1, and xi is a Fraction. value, count,
numerator_tables and to_json read the rows, and coeffs lays each row out on
its 2p cells as Fractions, one per distinct numerator, and builds a
PeriodicFn on each read. Every certificate is stored by _store: the
constructor and from_json put each coefficient's natural cells over the lcm
of their denominators and hand them to it as a piece (_hold), so a parsed,
hand-built or built table is cut to its least period at one place, _summed
(by _least_length), and one certificate has one stored form: a file written
with its coefficients tiled to tau, or with "0" at every key off the class,
reads as the built certificate and writes the built bytes, and both compare
and hash as plain data.
"""

from __future__ import annotations

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
    """An exact periodic function on the half-integer lattice, as a table.

    Its value at every point s with 2s = rho (mod 2*period) is values[rho];
    even rho are the integer points, odd rho the half-odd ones. The period
    is a positive int, never a bool, checked before ``values`` is read;
    ``values`` is then read once as a tuple, 2*period ints or Fractions,
    never bools, the types checked once per distinct type, and stored as
    given. Nothing cuts it to a least period or reduces it, so equality and
    hash are those of ``values``: one function at two periods compares
    unequal, PeriodicFn(3, [5, 7] * 3) != PeriodicFn(1, [5, 7]), while
    PeriodicFn(1, [2, 0]) == PeriodicFn(1, [Fraction(2), Fraction(0)]).
    It is the way into a certificate through the QuasiPoly constructor,
    which makes the integer form, and the way out (QuasiPoly.coeffs, built
    from the stored rows at their least periods); from_json builds none.
    """

    __slots__ = ("period", "values")

    def __init__(self, period: int, values: Iterable[Rational | int]):
        if not isinstance(period, int) or isinstance(period, bool) or period < 1:
            raise InputError(f"period must be a positive integer, got {period!r}")
        vals = tuple(values)
        if len(vals) != 2 * period:
            raise InputError(f"period {period} needs {2 * period} residue values, got {len(vals)}")
        for kind in set(map(type, vals)):
            if kind is bool or not issubclass(kind, (int, Fraction)):
                bad = next(v for v in vals if type(v) is kind)
                raise InputError(f"periodic values must be ints or Fractions, got {bad!r}")
        self.period, self.values = period, vals

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PeriodicFn):
            return NotImplemented
        return self.values == other.values

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        return f"PeriodicFn(period={self.period})"


class QuasiPoly:
    """A certificate V(s) = sum_j R_j(s) s^(m-j) for one ordered part list.

    Stored as one slot, _stored = (den, rows): rows[j-1] holds R_j's integer
    numerators over den at its natural cells, the p cells of R_j's least
    period p, which must divide the master period, cell i the numerator at
    2s = 2i + sigma with sigma = sum(parts) mod 2; R_j is 0 on the other
    class. The whole form is reduced jointly, so gcd(den, every cell) = 1.
    That form is canonical (den is the lcm of the coefficients' own reduced
    denominators): equality (parts, master period and stored form) and hash
    compare it, value, count, numerator_tables, aligned and to_json read it,
    and ``coeffs`` builds PeriodicFns of Fractions from it on each read.

    Every certificate is stored by one path, _store: the guard limit on its
    m tables of 2 * master_period cells, then _summed, the one cut to least
    periods, then the joint reduction and the check that each period
    divides the master period. A certificate made by the constructor
    (hand-built) or by from_json (parsed) is stored from the start: the
    constructor reads each PeriodicFn's values, from_json each
    coefficient's residue keys, each refuses a coefficient with a nonzero
    cell off the class sum(parts) mod 2, naming its power and its residue
    modulo the table as given, and each hands every coefficient's natural
    half, as int numerators over the lcm of its denominators, to _store as a
    piece of its own (_hold), so a parsed certificate is refused by the
    guard before any table is summed. One made
    by a builder holds the builder's pieces, with _stored None: the first
    read of the stored form (count, value, coeffs, aligned, ==, hash) runs
    _store on them; numerator_tables and ``to_json`` read the pieces
    without filling. Nothing changes once made.
    The first read may run in several threads at once: each reads the pieces
    slot once, every thread builds an equal stored form, and it is stored
    before the pieces are dropped, so a thread that finds the pieces gone
    finds the stored form.
    """

    __slots__ = ("parts", "master_period", "_stored", "_pieces")

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
        self.master_period = _master_period(self.parts, master_period)
        for fn in cs:
            if not isinstance(fn, PeriodicFn):
                raise InputError(f"coefficients must be PeriodicFn, got {fn!r}")
        sigma = sum(self.parts) % 2
        tables = []
        for j, fn in enumerate(cs):
            vals = fn.values
            if any(vals[1 - sigma :: 2]):
                rho = next(rho for rho in range(1 - sigma, len(vals), 2) if vals[rho])
                raise _off_class(self.parts, len(cs) - 1 - j, rho, fn.period)
            # the natural cells as ints over the lcm of their denominators
            natural = vals[sigma::2]
            den = math.lcm(*{v.denominator for v in natural})
            tables.append((den, [v.numerator * (den // v.denominator) for v in natural]))
        self._hold(tables)

    def _hold(self, tables: list[tuple[int, list[int]]]) -> None:
        """Store the certificate from each coefficient's (den, nums), its
        natural cells as int numerators over den, R_1's first: one piece per
        coefficient, keyed by its index (_summed reads only the values), its
        other tables empty, which _summed skips, handed to _store. The
        constructor's and from_json's way in, after their own checks."""
        m = len(tables)
        self._pieces = {
            j: (den, [nums if i == j else () for i in range(m)]) for j, (den, nums) in enumerate(tables)
        }
        self._store()

    @property
    def coeffs(self) -> tuple[PeriodicFn, ...]:
        """R_1 .. R_m as PeriodicFns of Fractions, built from the stored form
        on each read, one Fraction per distinct numerator: each row's natural
        cells laid out on its 2p cells, 0 off the class sum(parts) mod 2."""
        den, rows = self._stored or self._store()
        sigma = sum(self.parts) % 2
        cell = {a: Fraction(a, den) for a in set().union(*rows, (0,))}
        fns = []
        for row in rows:
            cells = [cell[0]] * (2 * len(row))
            cells[sigma::2] = map(cell.__getitem__, row)
            fns.append(PeriodicFn(len(row), cells))
        return tuple(fns)

    def _store(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """Build the stored form from the pieces, keep it and drop the
        pieces; the stored form another thread kept if the pieces are gone.
        The one path to the stored form, for a builder's pieces and for the
        constructor's alike: the m tables of 2 * master_period cells are
        checked against the guard limit, the pieces' natural cells are summed
        and each row cut to its least period (_summed), the rows are reduced
        by the joint gcd, with one int kept per distinct numerator, and each
        row's period, its length, is checked to divide the master period. No
        step reads the zero class."""
        pieces = self._pieces  # read once: another thread may drop it
        if pieces is None:
            return self._stored
        period = self.master_period
        _guard_cells(self.m, period)
        den, rows = _summed(pieces, self.m)
        distinct = set().union(*rows)
        g = math.gcd(den, *distinct)
        cell = {a: a // g for a in distinct}.__getitem__
        stored = den // g, tuple(tuple(map(cell, row)) for row in rows)
        for row in stored[1]:
            if period % len(row):
                raise InputError(f"coefficient period {len(row)} does not divide master period {period}")
        self._stored = stored
        self._pieces = None
        return stored

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
        _at_twice; 0 at any t off the class sum(parts) mod 2, where every
        coefficient is 0."""
        if isinstance(s, int) and not isinstance(s, bool):
            t = 2 * s
        elif isinstance(s, Fraction) and s.denominator <= 2:
            t = s.numerator * (2 // s.denominator)
        else:
            raise InputError(f"{s!r} is not a half-integer lattice point")
        if (t - sum(self.parts)) % 2:
            return Fraction(0)
        return Fraction(*self._at_twice(t))

    def _at_twice(self, t: int) -> tuple[int, int]:
        """V(t/2), for t on the class sum(parts) mod 2, as an unreduced
        (numerator, denominator) pair of ints: t = 2i + sigma reads natural
        cell i, so with N_j = rows[j-1][(t >> 1) mod its length] R_j's
        numerator at t over the stored den, 2^(m-1) den V(t/2) is the integer
        sum_j N_j 2^(j-1) t^(m-j), summed by Horner in t as in
        verify._scaled_blocks; the denominator is 2^(m-1) den."""
        den, rows = self._stored or self._store()
        i = t >> 1
        acc = j = 0
        for row in rows:  # a counted j: enumerate's tuples cost about 8% of a count on CPython 3.11
            acc = acc * t + (row[i % len(row)] << j)
            j += 1
        return acc, den << (len(rows) - 1)

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
        """(den, tables): R_j's natural cells over den at its least period p,
        in fresh lists, reduced so that gcd(den, every cell) = 1: R_j's
        numerator at 2s = 2i + sum(parts) mod 2 is tables[j-1][i mod p], and
        R_j is 0 on the other class. The same values before and after the
        first read, which this never makes: a filled certificate's stored
        rows are copied, and one that still holds its pieces gives their
        sums (_summed) divided by one joint gcd, nothing kept."""
        pieces = self._pieces  # read once: another thread may drop it
        if pieces is None:
            den, rows = self._stored
            return den, [list(row) for row in rows]
        den, rows = _summed(pieces, self.m)
        g = math.gcd(den, *itertools.chain.from_iterable(rows))
        return den // g, [[a // g for a in row] for row in rows]

    def aligned(self, target: int) -> "QuasiPoly":
        """The same coefficients under the master period target, a positive
        int multiple of the master period, never a bool: the m tables of
        2*target cells are checked against the guard limit, then the stored
        form is shared as it is."""
        if type(target) is not int or target < 1 or target % self.master_period:
            raise InputError(
                f"{target!r} is not a positive multiple of the master period {self.master_period}"
            )
        _guard_cells(self.m, target)
        cert = QuasiPoly.__new__(QuasiPoly)
        cert.parts, cert.master_period, cert._pieces = self.parts, target, None
        cert._stored = self._stored or self._store()
        return cert

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuasiPoly):
            return NotImplemented
        return (
            self.parts == other.parts
            and self.master_period == other.master_period
            and (self._stored or self._store()) == (other._stored or other._store())
        )

    def __hash__(self) -> int:
        return hash((self.parts, self.master_period, self._stored or self._store()))

    def __repr__(self) -> str:
        return f"QuasiPoly(parts={self.parts}, master_period={self.master_period})"

    def to_json(self) -> str:
        """Deterministic JSON: fixed key order, numeric residue order, exact strings.

        Written straight from integer tables, laid out exactly as
        json.dumps(..., indent=2) prints the same document: one den and one
        row per coefficient, its natural cells at its least period over den:
        the summed pieces (_summed), unreduced, while nothing has read the
        stored form, and the stored form after. Each coefficient's "values"
        holds its P natural cells alone, cell i at key 2i + sigma with
        sigma = sum(parts) mod 2: the coefficient is zero on the other
        class, and no key of it is written. Each distinct numerator a is
        reduced and formatted once: with g = gcd(a, den), p = a/g and
        q = den/g it reads "p" when q == 1 and "p/q" otherwise, the text
        str(Fraction(a, den)) gives, whatever common factor a and den share. The residue lines of one
        period are one %s template, its keys written by one %-format of the
        residues, built once per call and shared by every coefficient at
        that period, filled with the texts in residue order. Every string
        written is digits, "-" and "/", so nothing needs escaping.
        """
        pieces = self._pieces  # read once: another thread may drop it
        den, rows = self._stored if pieces is None else _summed(pieces, self.m)
        text = {}
        for a in set().union(*rows):
            g = math.gcd(a, den)
            text[a] = f'"{a // g}"' if g == den else f'"{a // g}/{den // g}"'
        # one residue line per natural cell, keyed 2i + sigma
        sigma = sum(self.parts) % 2
        blocks = []
        templates: dict[int, str] = {}
        for power, nums in zip(range(self.m - 1, -1, -1), rows):
            period = len(nums)
            template = templates.get(period)
            if template is None:
                lines = ",\n        ".join(['"%d": %%s'] * period)
                template = templates[period] = lines % tuple(range(sigma, 2 * period, 2))
            cells = template % tuple(map(text.__getitem__, nums))
            blocks.append(
                f'    {{\n      "power": {power},\n      "period": {period},\n'
                f'      "values": {{\n        {cells}\n      }}\n    }}'
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
        """The certificate a JSON document holds, or InputError naming the
        first fault found. Each coefficient's "values" is read in its own
        layout (_read_values): its natural keys alone, as to_json writes
        them, or every key "0".."2P-1", as to_json wrote them before, at
        any period its least period divides. Its natural cells go to _store
        as the constructor's do (_hold), with no PeriodicFn built, so every
        layout of one certificate reads as that certificate and writes
        to_json's bytes."""
        try:
            raw = json.loads(text)
        except (ValueError, RecursionError) as exc:
            # a JSONDecodeError, an integer over int()'s digit limit, or nesting
            # deeper than the decoder's recursion reaches
            raise InputError(f"not valid JSON: {exc}") from exc
        # the shapes are checked before anything is read from them, so each
        # refusal names its fault rather than the Python error of the read
        bad = "malformed certificate JSON:"
        if not isinstance(raw, dict):
            raise InputError(f"{bad} the document must be an object, got {type(raw).__name__}")
        _check_keys(raw, {"parts", "master_period", "xi", "coefficients"}, "the document")
        try:
            parts, entries = raw["parts"], raw["coefficients"]
            for name, value in (("parts", parts), ("coefficients", entries)):
                if not isinstance(value, list):
                    raise InputError(f"{bad} {name} must be a list, got {value!r}")
            for entry in entries:
                if not isinstance(entry, dict):
                    raise InputError(f"{bad} each coefficient must be an object, got {entry!r}")
                _check_keys(entry, {"power", "period", "values"}, "a coefficient")
                power = entry["power"]
                if type(power) is not int:
                    raise InputError(f"{bad} coefficient powers must be integers, got {power!r}")
            parts = as_parts(parts)
            entries = sorted(entries, key=lambda e: -e["power"])
            powers = [e["power"] for e in entries]
            if powers != list(range(len(parts) - 1, -1, -1)):
                raise InputError(f"coefficient powers must cover {len(parts)-1}..0, got {powers}")
            tables = []
            for entry in entries:
                period, values = entry["period"], entry["values"]
                if not isinstance(period, int) or isinstance(period, bool) or period < 1:
                    raise InputError(f"period must be a positive integer, got {period!r}")
                if not isinstance(values, dict):
                    raise InputError(
                        f"{bad} the power {entry['power']} coefficient's values must be an "
                        f"object, got {type(values).__name__}"
                    )
                tables.append(_read_values(values, period, entry["power"], parts))
            q = cls.__new__(cls)
            q.parts, q.master_period = parts, _master_period(parts, raw["master_period"])
            q._hold(tables)
            if str(q.xi) != raw["xi"]:
                raise InputError(f"shift field {raw['xi']!r} does not match the parts")
        except (TypeError, ValueError) as exc:
            if isinstance(exc, InputError):
                raise
            raise InputError(f"malformed certificate JSON: {exc}") from exc
        return q


def _read_values(values: dict, period: int, power: int, parts: tuple[int, ...]) -> tuple[int, list[int]]:
    """One coefficient's "values" object as (den, nums): its P = period
    natural cells, cell i at key 2i + sigma with sigma = sum(parts) mod 2,
    as int numerators over the lcm of their denominators.

    The keys must be the P natural ones, or every key "0".."2P-1" with each
    cell off the class zero. Any other key set is refused: a missing
    natural key first, named in residue order, then keys outside 0..2P-1,
    then a part of the keys off the class, naming the first one missing.
    Each key string is built once and looked up once, and each distinct
    cell string parsed once, in the order of its first residue, so the
    first bad cell is the one reported; parse_rational refuses every
    non-string."""
    bad = "malformed certificate JSON:"
    sigma = sum(parts) % 2
    cells = None
    natural = len(values) == period
    if natural or len(values) == 2 * period:  # the natural keys or every key, if none is missing
        keys = map(str, range(sigma, 2 * period, 2) if natural else range(2 * period))
        try:
            cells = [values[key] for key in keys]
        except KeyError:
            pass
    if cells is None:
        # the faults in the order they are named, each key found without
        # building more keys than the document holds
        key = next((key for key in map(str, range(sigma, 2 * period, 2)) if key not in values), None)
        if key is not None:
            raise InputError(
                f"{bad} the power {power} coefficient (period {period}) has no residue key {key!r}"
            )
        stray = set(values).difference(map(str, range(2 * period)))
        if stray:
            raise InputError(f"residue keys {sorted(stray)} are outside 0..{2 * period - 1}")
        key = next(key for key in map(str, range(1 - sigma, 2 * period, 2)) if key not in values)
        raise InputError(
            f"{bad} the power {power} coefficient (period {period}) has no residue key "
            f"{key!r} but other keys off its class 2s = {sigma} mod 2: it must have all or none"
        )
    if set(map(type, cells)) != {str}:
        for cell in cells:  # a non-string cell, so one of them raises
            parse_rational(cell)
    parsed = {cell: parse_rational(cell) for cell in dict.fromkeys(cells)}
    if len(cells) != period:
        if any(parsed[cell] for cell in set(cells[1 - sigma :: 2])):
            rho = next(rho for rho in range(1 - sigma, 2 * period, 2) if parsed[cells[rho]])
            raise _off_class(parts, power, rho, period)
        cells = cells[sigma::2]
    den = math.lcm(*(v.denominator for v in parsed.values()))
    num = {cell: v.numerator * (den // v.denominator) for cell, v in parsed.items()}
    return den, list(map(num.__getitem__, cells))


def _off_class(parts: tuple[int, ...], power: int, rho: int, period: int) -> InputError:
    """The refusal of a coefficient with a nonzero cell at residue rho off
    its class 2s = sum(parts) mod 2, in a table of the given period."""
    return InputError(
        f"the power {power} coefficient of {parts} has a nonzero cell at residue 2s = {rho} "
        f"(mod {2 * period}), off its class 2s = {sum(parts) % 2} mod 2"
    )


def _master_period(parts: tuple[int, ...], period) -> int:
    """The master period given for a certificate of these parts, checked to
    be a positive int, never a bool: lcm(parts) when it is None."""
    period = lcm_of(parts) if period is None else period
    if not isinstance(period, int) or isinstance(period, bool) or period < 1:
        raise InputError(f"master period must be a positive integer, got {period!r}")
    return period


def _check_keys(obj: dict, keys: set[str], where: str) -> None:
    """Refuse a certificate JSON object whose keys are not exactly ``keys``,
    naming the unknown keys first, then the missing ones, each sorted."""
    for word, names in (("unknown", set(obj) - keys), ("missing", keys - set(obj))):
        if names:
            raise InputError(f"malformed certificate JSON: {word} keys {sorted(names)} in {where}")


# one position's shift weights: (den, per_e, totals), per_e[e] the (residue,
# numerator) pairs of exponent e and totals[e] their sum
Weights = tuple[int, tuple[tuple[tuple[int, int], ...], ...], tuple[int, ...]]

# a piece of a certificate held as a sum of pieces, keyed by its period P:
# (den, tables), each table the P integer numerators over den of its natural
# cells, cell i at 2s = 2i + sigma mod 2P with sigma = sum(parts) mod 2; the
# other class is zero
Piece = tuple[int, list[list[int]]]

# a fold's state after k positions: (den, tables, flat), tables[l] the residue
# table of total exponent l and flat[l] the integer added at every cell of its
# parity class (None until the first e = 0 step at a part coprime to the
# pivot), every numerator over den, the product of the k positions'
# denominators; len(tables) is the fold's m
FoldState = tuple[int, list[dict[int, int]], list[int] | None]


@functools.lru_cache(maxsize=1024)
def _shift_weights(dk: int, m: int, size: int) -> Weights:
    """One position's shift weights mod size = 2P, as integer numerators over
    one denominator: (den, per_e, totals), where per_e[e] lists the nonzero
    t^(e-1) B_e(1 - (2p+1) d_k/2t) / e!, p < t/d_k, summed by their residue
    (2p+1) d_k mod size, as (residue, numerator) pairs, and totals[e] is the
    sum of row e's numerators: the factor a table constant on its parity
    class takes from that row.

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
    (residue, numerator) pairs per e, about 90 bytes each, and m totals: about
    40 kB for the key (103, 4, 214), under 4 kB for any key with d_k, P <= 6
    and m <= 4 (the corpus). Both builders, closure_fn and verify's prefix
    build called this one kernel before it was cached, so sharing a cached
    table makes the routes no less independent.

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
    rows = tuple(tuple((key, w // g) for key, w in row) for row in per_e)
    return den // g, rows, tuple(sum(w for _, w in row) for row in rows)


def _fold_start(pivot: int, m: int) -> FoldState:
    """The fold's state before any position: a unit at the pivot's own
    half-shift, its divisibility indicator, in bucket 0 of m."""
    return 1, [{pivot: 1}] + [{} for _ in range(m - 1)], None


def _fold_step(state: FoldState, dk: int, size: int, zero_step: bool, cap: int) -> FoldState:
    """One position of the fold: the state times the shift sums of part dk
    mod size, _shift_weights(dk, m, size), each bucket l moving to l + e.
    Exponents run from 1, or from 0 when zero_step, and no bucket above cap
    is written: bucket l moves only by e <= cap - l. _shift_fold lowers cap
    at its leading positions, and every other step passes m - 1. The one
    step every fold takes, in both builders (see _shift_fold for the state's
    form, the coset step and the flat carry)."""
    den, fold, flat = state
    m = len(fold)
    dk_den, per_e, totals = _shift_weights(dk, m, size)
    g = math.gcd(2 * dk, size)
    shift, w0 = per_e[0][0]
    first = 0 if zero_step else 1
    if flat:
        carried = [0] * m
        for l, u in enumerate(flat):
            if u:
                for e in range(first, cap + 1 - l):
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
        for e in range(1, cap + 1 - l):
            out = nxt[l + e]
            for sh, w in per_e[e]:
                for res, a in table.items():
                    key = (res + sh) % size
                    out[key] = out.get(key, 0) + a * w
    return den * dk_den, nxt, flat


def _shift_fold(d: Sequence[int], m: int, pivot: int, skip: int, copies: int = 1) -> Piece:
    """The pivot's piece: products of per-position shift sums around a pivot
    part, folded in the residue ring mod size = 2*pivot and weighted by power
    bucket.

    Position k, with part d[k], offers the weights _shift_weights(d[k], m,
    size). A DP over positions, one _fold_step each, from a unit weight at
    the pivot's own half-shift (its divisibility indicator), keeps one
    residue table per total exponent l < m: the sum over exponent vectors r
    of the folded product, which carries 1/prod r_k!. Times l! that is the
    multinomial weighting; no composition is enumerated. The first ``skip``
    positions take exponents e >= 1 only and skip the e = 0 step, so each
    composition reaches the fold of its first zero position only.

    Each of those leading positions adds at least 1 to the total exponent,
    and only totals up to m-1 reach the piece. So at a position k < skip,
    with r = skip-1-k leading positions still to come, the step moves only
    buckets l <= m-2-r, and only by exponents e <= m-1-r-l (its cap is
    m-1-r): any other total would pass m-1 by the last leading position.
    No integer of the piece changes, den included. The run's copies and
    the later positions step every bucket.

    With copies = c > 1 the call returns the sum of c folds, those with
    skip, skip + 1, ..., skip + c - 1, for a pivot part v whose c - 1 other
    copies are positions skip .. skip + c - 2 (build_explicit passes the
    sorted list less one copy of v and skip = the index of v's first copy).
    Fold j takes B, the e >= 1 step at v, at the first j of those copies and
    A = B + Z at the rest, with Z the e = 0 step at v: mod 2v that is the
    q = 1 rotation by v with weight w0. Every step multiplies by an element
    of one commutative ring, so the operators commute, and by the
    hockey-stick identity sum_(j<c) C(c-1-j, i) = C(c, i+1),

        sum_(j<c) A^(c-1-j) B^j = sum_(i<c) C(c, i+1) Z^i B^(c-1-i).

    So the fold runs once: the copies take B only, the states u_k = B^k x
    are kept as it passes them, and right after the last copy's step the
    state becomes sum_i C(c, i+1) Z^i u_(c-1-i) (_run_sum); the later
    positions take every exponent. At c = 1 that is the state itself.

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
    A flat value u correlated with row e is u times the row's total (for
    e = 0 that is q w0), so flat moves through each later position as m
    integers, not as P cells. flat is None until the first g = 2 step, so a
    fold with none pays one test per position for it.

    Each position has one denominator, so after k positions every state
    shares their product. Returns the piece (den, tables) on the class
    sigma = pivot + sum(d) mod 2: m lists of the pivot's P natural integer
    numerators over den, that product times (m-1)!, cell i the numerator at
    2s = 2i + sigma mod 2P, so a residue res writes cell res >> 1. Table l
    is state l weighted by (m-1)!/(m-1-l)!, binomial(m-1, l) times the
    multinomial l!, over (m-1)!, with its flat value written at every cell.
    """
    size = 2 * pivot
    state = _fold_start(pivot, m)
    last = skip + copies - 2  # the run's last other copy; e = 0 from the next position on
    states: list[list[dict[int, int]]] = []  # u_0 .. u_(copies-2)
    for k, dk in enumerate(d):
        if skip <= k <= last:
            states.append(state[1])
        # skip - 1 - k forced positions follow k < skip, each adding at least 1
        state = _fold_step(state, dk, size, k > last, min(m - 1, m - skip + k))
        if states and k == last:
            den, fold, flat = state
            state = den, _run_sum(states + [fold], m, pivot), flat
    top = math.factorial(m - 1)
    den, fold, flat = state
    tables = []
    for l, table in enumerate(fold):
        w = top // math.factorial(m - 1 - l)
        row = [w * flat[l]] * pivot if flat and flat[l] else [0] * pivot
        for res, a in table.items():  # res = 2i + the class, so cell i is res >> 1
            row[res >> 1] += w * a
        tables.append(row)
    return den * top, tables


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


def closure_fn(
    parts: Sequence[int], states: dict[int, FoldState] | None = None
) -> tuple[int, list[int]]:
    """The last-part-periodic remainder of the free coefficient.

    This is the piece of R_m the one-part extension cannot reach from the
    previous level: the constant remainder with 1/d_m replaced by the shifted
    divisibility indicator and each central Bernoulli symbol replaced by its
    finite shift sum. Every shift sum is reduced mod 2*d_m, so by Raabe's
    theorem (see _shift_weights) it is taken at its own period lcm(d_i, d_m).
    It is bucket m-1 of the fold over the prefix around the pivot d_m
    (_fold_step), with every position taking every exponent, so its weight
    is exactly 1/prod r_k!. Returns (den, row): the fold's denominator and
    bucket m-1's d_m natural integer numerators, its flat value written into
    every cell, cell i the numerator at 2s = 2i + sum(parts) mod 2d_m (a
    residue res of the bucket is cell res >> 1); the other class is zero and
    not held. The recursive step adds the row into its period-d_m piece.

    With ``states`` None the fold runs here, one position per prefix part at
    m buckets. _recursive_pass passes its states instead, one per distinct
    part value v, each folded over the parts before the current level with
    m = K_v buckets, K_v v's last level. A state's rational values do not
    depend on its m, only its integer scale does (see _shift_weights), so
    bucket m-1 of d_m's state is this level's table. The call then drops
    that state at d_m's last level and steps d_m into every state still
    held, d_m's own included when d_m comes again, so each part value's
    closure is folded once per pass, not once per level.
    """
    d = as_parts(parts)
    m, pivot = len(d), d[-1]
    if states is None:
        state = _fold_start(pivot, m)
        for dk in d[:-1]:
            state = _fold_step(state, dk, 2 * pivot, True, m - 1)
        states = {pivot: state}
    den, fold, flat = states[pivot]
    row = [flat[m - 1] if flat else 0] * pivot
    for res, a in fold[m - 1].items():  # res = 2i + the class, so cell i is res >> 1
        row[res >> 1] += a
    if len(fold) == m:
        del states[pivot]
    for v, later in states.items():
        states[v] = _fold_step(later, pivot, 2 * v, True, len(later[1]) - 1)
    return den, row


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
    least-period cut, made by _summed on a class's natural cells, where p
    cells are period p."""
    p = len(col)
    for q in _prime_factors(p):
        while p % q == 0 and col[p // q : p] == col[: p - p // q]:
            p //= q
    return p


def _guard_cells(m: int, period: int) -> None:
    """Check a certificate's m tables of 2*period cells against the guard
    limit (oracle.guard)."""
    guard(m * 2 * period, f"the certificate would take {m} x {2 * period} cells")


def _extend_pieces(
    pieces: dict[int, Piece],
    parts: tuple[int, ...],
    states: dict[int, FoldState] | None = None,
) -> dict[int, Piece]:
    """One recursive step on a certificate held as a sum of pieces.

    ``pieces`` maps a period P to the previous level's m-1 coefficient
    tables of that piece, as the P natural integer numerators over the
    piece's denominator on the class sum(parts[:-1]) mod 2 (see Piece); the
    result maps P to the m tables of the new level, on the class sum(parts)
    mod 2. R_j of the new level is a cyclic correlation of the previous
    R_{j-l}, l < j, with the new part's
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
    (cell, shift) pair adds into a natural cell of the new class: shift has
    d_new's parity, so the cell at 2s = 2x + sigma moves to 2s = 2x' +
    sigma', sigma and sigma' the previous and new classes, x' = x +
    (shift >> 1) + 1 when sigma and d_new are odd and x + (shift >> 1)
    otherwise, found by index arithmetic as a negative index from x - P.
    Both classes and that offset come from the parts, once per call. A zero
    cell costs nothing.
    The l = 0 term of the free coefficient R_m has no previous coefficient to
    read; it is the closure remainder, closure_fn's d_new natural integer
    numerators over its denominator, added cell for cell to the piece of
    period d_new. closure_fn runs first, and that piece's correlation
    weights take the scale that puts it over the lcm of the two
    denominators, so no table is rescaled after the correlation.
    ``states`` is handed to closure_fn as it is: the recursive pass's
    closure states, or None for a fold of its own. Pieces are not reduced;
    the final tables are reduced once, by to_json per cell or jointly when
    the stored form is first read.
    """
    m = len(parts)
    d_new = parts[-1]
    top = math.factorial(m - 1)
    # shift moves the cell at 2s = 2x + sum(parts[:-1]) mod 2 to 2s = 2x' + sigma:
    # x' = x + (shift >> 1) + off, off = 1 when that class and d_new are odd
    off = sum(parts[:-1]) & d_new & 1
    closure_den, closure = closure_fn(parts, states)
    out: dict[int, Piece] = {}
    for period, (prev_den, prev) in pieces.items():
        den, weights, _ = _shift_weights(d_new, m, 2 * period)
        den *= prev_den * top
        k = 1
        if period == d_new:  # the closure's scale onto the common den rides on the weights
            k = math.lcm(den, closure_den) // den
            den *= k
        tables = [[0] * period for _ in range(m)]
        for i, prev_vals in enumerate(prev):
            # x - period + off + (shift >> 1) indexes x' mod period, as
            # x + off + (shift >> 1) < 2 * period
            cells = [(x - period + off, v) for x, v in enumerate(prev_vals) if v]
            if not cells:
                continue
            for j in range(i + 1, m + 1):
                l = j - 1 - i
                c = math.factorial(m - j + l - 1) * (top // math.factorial(m - j)) * k
                table = tables[j - 1]
                for shift, b in weights[l]:
                    w = c * b
                    shift >>= 1
                    for at, v in cells:
                        table[at + shift] += w * v
        out[period] = (den, tables)
    den, tables = out.get(d_new, (closure_den, [[0] * d_new for _ in range(m)]))
    kc = den // closure_den
    tables[-1] = [a + kc * c for a, c in zip(tables[-1], closure, strict=True)]
    out[d_new] = (den, tables)
    return out


def _summed(pieces: dict[int, Piece], m: int) -> tuple[int, list[list[int]]]:
    """The m coefficients the pieces sum to, as (den, rows): den the
    pieces' common denominator and rows[j-1] R_j's numerators over den,
    unreduced, cut to the function's least period p, as its p natural cells
    on the pieces' one class (see Piece).

    A piece table that is constant (t[1:] == t[:-1]) joins the sum as its
    one cell, every other one at its piece's P; a piece not over den
    already is scaled onto it. The tiles are added shortest first, each
    partial sum at the lcm of the lengths so far, which divides tau: the sums
    at tau are the same cells repeated, so the function is the one the sums
    at tau would give. For (2,3,5,7)'s free coefficient that is 6 + 30 + 210
    cells, not 3 x 210. The pieces are read, never changed."""
    den = math.lcm(*(piece_den for piece_den, _ in pieces.values()))
    rows = []
    for j in range(m):
        tiles = []
        for piece_den, tables in pieces.values():
            table = tables[j]
            if any(table):
                if table[1:] == table[:-1]:
                    table = table[:1]
                if piece_den != den:
                    scale = den // piece_den
                    table = [a * scale for a in table]
                tiles.append(table)
        tiles.sort(key=len)
        values = tiles[0] if tiles else [0]
        for tile in tiles[1:]:
            size = math.lcm(len(values), len(tile))
            values = [
                a + b
                for a, b in zip(values * (size // len(values)), tile * (size // len(tile)), strict=True)
            ]
        if len(values) > 1:  # 1 cell is at its least length already
            values = values[: _least_length(values)]
        rows.append(values)
    return den, rows


def _materialise(parts: tuple[int, ...], pieces: dict[int, Piece]) -> QuasiPoly:
    """The certificate at master period tau = lcm(parts) over a builder's
    pieces. Nothing is summed here: the first read of its stored form sums
    the pieces (_summed), stores every row at its least period and drops
    the pieces, and to_json before that writes from the summed pieces. The
    builder has checked the m tables of 2 tau cells against the guard limit
    before its first fold, and the first read checks them again."""
    cert = QuasiPoly.__new__(QuasiPoly)
    cert.parts, cert.master_period, cert._stored, cert._pieces = parts, lcm_of(parts), None, pieces
    return cert


def extend_recursive(prev: QuasiPoly, d_new: int) -> QuasiPoly:
    """Grow a certificate by one more part.

    The previous certificate is read as one piece at its true period L =
    lcm(prev.parts): its numerator_tables(), the natural cells of each
    coefficient at its least period (read without filling prev), are tiled
    to L cells. A coefficient whose period does not divide L, which a
    hand-built certificate at a larger master period may hold, is no
    certificate of its parts and raises InputError, naming the period and L.
    The step is _extend_pieces, and the result has the new lcm as its master
    period and holds its pieces until its coefficients are read, each then
    stored at its least period (_materialise).
    """
    (d_new,) = as_parts([d_new])
    parts = prev.parts + (d_new,)
    _guard_cells(len(parts), lcm_of(parts))
    period = lcm_of(prev.parts)
    den, tables = prev.numerator_tables()
    for t in tables:
        if period % len(t):
            raise InputError(
                f"coefficient period {len(t)} of {prev.parts} does not divide lcm(parts) = {period}"
            )
    return _materialise(parts, _extend_pieces({period: (den, [t * (period // len(t)) for t in tables])}, parts))


def _recursive_pass(parts: Sequence[int]) -> tuple[QuasiPoly | None, QuasiPoly]:
    """(prefix, cert): the one-part-at-a-time route's certificates for
    parts[:-1] (None for one part) and for parts, from one pass.

    The certificate is kept as a sum of pieces, one per distinct part period:
    starting from none, each step correlates every piece at its own period and
    adds closure_fn's piece at the new part's period (_extend_pieces); the
    first step's is the one-part indicator of d_1 | (s - d_1/2). Each
    certificate holds its level's pieces, which share no table, until its
    coefficients are read, each then stored at its least period (_materialise).

    The closures come from one fold state per distinct part value v, with
    K_v buckets for K_v v's last level, which closure_fn reads and steps
    (see there): about sum_v K_v^3 bucket steps in all, against sum_k k^3
    for a fold per level, the same when the parts are distinct.
    """
    d = as_parts(parts)
    _guard_cells(len(d), lcm_of(d))
    last = {v: k for k, v in enumerate(d, 1)}  # each part value's last level
    states = {v: _fold_start(v, k) for v, k in last.items()}
    pieces: dict[int, Piece] = {}
    for k in range(1, len(d) + 1):  # d is not empty, so prev is always bound
        prev, pieces = pieces, _extend_pieces(pieces, d[:k], states)
    return (_materialise(d[:-1], prev) if len(d) > 1 else None), _materialise(d, pieces)


def build_recursive(parts: Sequence[int]) -> QuasiPoly:
    """Certificate by the one-part-at-a-time route (see _recursive_pass)."""
    return _recursive_pass(parts)[1]


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
    docstring), so there is one fold per distinct part. The fold weights
    power bucket l by binomial(m-1, l)/(m-1)! times the multinomial l!,
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

    All of it runs on integer numerators: each part's one fold returns its
    piece of period v, the buckets weighted over (m-1)! (see _shift_fold),
    and the certificate holds the pieces until its coefficients are read
    (_materialise), when their sums are cut to their least periods.
    """
    d = as_parts(parts)
    m = len(d)
    _guard_cells(m, lcm_of(d))
    ordered = sorted(d)
    pieces: dict[int, Piece] = {}
    i = 0
    for v, run in itertools.groupby(ordered):
        copies = len(list(run))
        pieces[v] = _shift_fold(ordered[:i] + ordered[i + 1 :], m, v, i, copies)
        i += copies
    return _materialise(d, pieces)
