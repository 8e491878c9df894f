"""Property harness: structural checks on certificates, with minimal counterexamples.

Each check scans its argument space in increasing absolute value and returns
its failures as (key, counterexample) pairs in scan order, with the note its
pass carries. One rule (_result) makes every PropertyResult: no failure is a
pass with the note; otherwise the failure of least key is reported, the
first found on a tie, so a failure reported is a smallest one, under the
first certificate label on a tie. The checks read certificates through
QuasiPoly.numerator_tables: integer numerators over one common denominator,
reduced jointly, each coefficient as the P natural cells of its least period
P, cell i the value at 2s = 2i + sigma, sigma = sum(parts) mod 2. Off that
class every coefficient is 0 by representation (the QuasiPoly constructor
refuses any other), so no check reads it, and a failure at cell i is keyed
and reported at 2s = 2i + sigma. No read fills a certificate; the oracle
alone also words a failure through the failing certificate's count.
run_properties reads each certificate once and keeps the distinct views,
each under the first label that holds it; a view is reduced and at its least
periods, so equal views are the same function, and every check scans the
distinct ones: equal certificates are checked once, a parsed file and the
built certificate it equals included. The recurrence and parity laws are
identities between coefficient tables on every natural class, reporting the
smallest failing class of 2s; parity mirrors cell i to cell -i - sigma, and
checks each column on the classes of its own period, where a failing class
repeats. The recurrence checks every
view against one prefix certificate, the recursive route's, read and shifted
once; when run_properties builds the certificates itself, that prefix comes
from the same pass as the recursive certificate (quasipoly._recursive_pass),
so no level is built twice. It forms each
Taylor row, and compares the two sides, at the lcm of the column lengths
involved, so a coefficient of period 1 is shifted as 2 cells, not 2 tau. The
oracle compares count_dp with integer Horner run by columns (_scaled_blocks),
one block of n at a time: the blocks are as long as the lcm of every column's
period, each a list pass per coefficient, and the first block that holds a
mismatch ends the scan with that block's failures; by default every class
gets m points. Zeros runs the same evaluator on the forced zeros
2s = m mod 2, ..., m - 2 alone, which lie in the first m classes, and only
when m = sigma mod 2: otherwise every one is off the class, 0 by
representation. The mean value is one integer sum per coefficient over its
natural cells, against a polynomial part whose
product over parts also runs on ints (over beta^m, one Fraction per
coefficient, see polypart.v1_explicit). Path-agreement passes a single
distinct view at once and otherwise compares each pair of columns at the lcm
of their lengths. Fractions are built only to word a failure. Results never
stop early across properties; a report carries one result per requested
property."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from . import oracle, polypart, quasipoly
from .errors import InputError, IntegralityError
from .exactnum import as_parts, lcm_of

__all__ = [
    "BUILDERS",
    "PROPERTIES",
    "PropertyResult",
    "VerifyReport",
    "default_n_max",
    "run_properties",
    "iter_multisets",
]

@dataclass
class PropertyResult:
    name: str
    passed: bool
    counterexample: Optional[dict] = None
    note: Optional[str] = None

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass
class VerifyReport:
    parts: tuple[int, ...]
    results: list[PropertyResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json_dict(self) -> dict:
        return {
            "parts": list(self.parts),
            "passed": self.passed,
            "results": [r.to_json_dict() for r in self.results],
        }

    def render_text(self) -> str:
        lines = [f"parts {','.join(str(d) for d in self.parts)}"]
        for r in self.results:
            status = "pass" if r.passed else "FAIL"
            line = f"  {r.name:<15} {status}"
            if r.note:
                line += f"  ({r.note})"
            if r.counterexample:
                detail = " ".join(f"{k}={v}" for k, v in r.counterexample.items())
                line += f"  {detail}"
            lines.append(line)
        lines.append("all properties passed" if self.passed else "verification FAILED")
        return "\n".join(lines)


def default_n_max(parts: Sequence[int]) -> int:
    """Oracle bound: n = 0..m*tau-1 gives every residue class m points, which fix
    a degree m-1 quasi-polynomial, so agreement up to it is a proof."""
    d = as_parts(parts)
    tau = lcm_of(d)
    return max(3 * tau + 10, len(d) * tau - 1)


Certs = Mapping[str, quasipoly.QuasiPoly]
# a certificate as integer numerator tables over one denominator, reduced
# jointly, each coefficient as the P natural cells of its least period P: cell
# i holds R_j at 2s = 2i + sum(parts) mod 2, and R_j is 0 on the other class
# (QuasiPoly.numerator_tables). A failure at cell i is keyed by 2i + sigma
View = tuple[int, list[list[int]]]
# what a check returns: its failures as (key, counterexample) in scan order,
# and the note its pass carries
Checked = tuple[list[tuple[int, dict]], Optional[str]]


def _scaled_blocks(tables: list[list[int]], t: int, stop: int, block: int) -> Iterator[list[int]]:
    """2^(m-1) den V(t/2) at t, t + 2, ..., t + 2(stop - 1), for t on the
    natural class, yielded block values at a time, the last block possibly
    shorter: integers, since the value at t = 2i + sigma is
    sum_j N_j[i mod P_j] 2^(j-1) t^(m-j), for N_j's P_j natural cells. stop
    is positive, and block a multiple of every P_j or at least stop. Each
    N_j is read once from cell t >> 1 on, rotated so the cells a block
    visits in turn are contiguous, tiled or cut to the block and
    pre-shifted by j-1. Every block is then one integer Horner pass
    [a * t + c for ...] per coefficient."""
    width = min(block, stop)
    cols = []
    for j, col in enumerate(tables):
        r = (t >> 1) % len(col)
        stepped = col[r : r + width] + col[:r]
        stepped = (stepped * -(-width // len(stepped)))[:width]
        cols.append([c << j for c in stepped] if j else stepped)
    head, rest = cols[0], cols[1:]
    for start in range(0, stop, width):
        ts = range(t + 2 * start, t + 2 * min(start + width, stop), 2)
        acc = head if len(ts) == width else head[: len(ts)]
        for col in rest:
            acc = [a * x + c for a, x, c in zip(acc, ts, col)]
        yield acc


def _first_difference(a: list[int], b: list[int]) -> int | None:
    """The first class where two periodic columns differ, each tiled to the
    lcm of their lengths, or None."""
    if len(a) != len(b):
        size = math.lcm(len(a), len(b))
        a, b = _tiled(a, size), _tiled(b, size)
    if a == b:
        return None
    return next(k for k, (x, y) in enumerate(zip(a, b)) if x != y)


def _counted(cert: quasipoly.QuasiPoly, n: int) -> str:
    """The certificate's count at n as text, or why it is not an integer."""
    try:
        return str(cert.count(n))
    except IntegralityError as exc:
        return str(exc)


def _check_oracle(parts, certs: Certs, views: list[tuple[str, View]], n_max: int) -> Checked:
    counts = oracle.count_dp(parts, n_max).counts
    shift = len(parts) - 1
    # every view is evaluated over the same blocks of n, one lcm of every
    # column's period long, so a block's failures are compared at equal n
    block = math.lcm(*(len(col) for _, (_, tables) in views for col in tables))
    scans = [
        (label, den << shift, _scaled_blocks(tables, sum(parts), n_max + 1, block))
        for label, (den, tables) in views
    ]
    for start in range(0, n_max + 1, block):
        want = counts[start : start + block]
        failures = []
        for label, scale, blocks in scans:
            k = _first_difference(next(blocks), [c * scale for c in want])
            if k is not None:
                n = start + k
                failures.append(
                    (k, {"path": label, "n": n, "expected": str(counts[n]), "actual": _counted(certs[label], n)})
                )
        if failures:
            return failures, None
    return [], f"n up to {n_max}"


def _rotated(col: list[int], shift: int) -> list[int]:
    """The column read at rho - shift, for rho in range(len(col)): the same
    periodic function shifted, at any period the column is stored at."""
    k = len(col) - shift % len(col)
    return col[k:] + col[:k]


def _tiled(col: list[int], size: int) -> list[int]:
    """The column repeated to size cells, a multiple of its length."""
    return col * (size // len(col))


def _shifted(cols: list[list[int]], a: int, b: int) -> list[list[int]]:
    """Coefficient rows of b^(n-1) p(s + a/b), for p of degree n-1 given
    highest power first, each column periodic at its own length: row k is
    sum_{i<=k} C(n-1-i, k-i) a^(k-i) b^(n-1-k+i) p_i, summed in i with the
    partial sum at the lcm of the lengths of p_0..p_i, so short columns are
    added at their own lengths and only the long ones at the full length."""
    n = len(cols)
    out = []
    for k in range(n):
        acc = [0]
        for i in range(k + 1):
            w = math.comb(n - 1 - i, k - i) * a ** (k - i) * b ** (n - 1 - k + i)
            size = math.lcm(len(acc), len(cols[i]))
            acc = [x + w * y for x, y in zip(_tiled(acc, size), _tiled(cols[i], size))]
        out.append(acc)
    return out


def _check_recurrence(parts, views: list[tuple[str, View]], prefix: quasipoly.QuasiPoly | None) -> Checked:
    m = len(parts)
    if m == 1:
        return [], "vacuous for a single part"
    dm = parts[-1]
    sigma = sum(parts) % 2
    # One polynomial identity per class 2s = rho, on integer numerators:
    # V(s) - V(s - d_m) = V_{m-1}(s - d_m/2), the right side scaled by 2^(m-2).
    # Every class of both master periods is checked. The full-period iterate
    # V(s + tau) - V(s) = sum_p V_{m-1}(s + tau - (2p+1) d_m/2) telescopes from it.
    # Every view is checked against one V_{m-1}, the recursive route's, read
    # and shifted once: the prefix run_properties' recursive pass gave, or
    # with injected certificates (prefix None) one built here.
    # Every column is read at its stored period, and each side of a row is
    # periodic with the lcm of the lengths it was formed from, so comparing
    # the sides at the lcm of their lengths finds the same smallest failing
    # class as a comparison at the lcm of the master periods. Off the class
    # both sides are 0, so only natural cells are compared: V(s - d_m) is
    # cell i - d_m, and V_{m-1}(s - d_m/2), on the prefix's class sigma',
    # is its cell i - h, h = (d_m + sigma' - sigma)/2.
    if prefix is None:
        prefix = quasipoly.build_recursive(parts[:-1])
    den_prev, prev = prefix.numerator_tables()
    h = (dm + sum(parts[:-1]) % 2 - sigma) // 2
    half = _shifted([_rotated(col, h) for col in prev], -dm, 2)
    rhs_den = den_prev << (m - 2)
    failures = []
    for label, (den, tables) in views:
        back = _shifted([_rotated(col, dm) for col in tables], -dm, 1)
        scale = den * rhs_den
        for k, (col, sh, rhs) in enumerate(zip(tables, back, [[0]] + half)):
            # both sides of row k over den * rhs_den
            a = [(x - y) * rhs_den for x, y in zip(_tiled(col, len(sh)), sh)]
            b = [y * den for y in rhs]
            i = _first_difference(a, b)
            if i is not None:
                failures.append((2 * i + sigma, {
                    "path": label, "s": str(Fraction(2 * i + sigma, 2)), "power": m - 1 - k,
                    "lhs": str(Fraction(a[i % len(a)], scale)), "rhs": str(Fraction(b[i % len(b)], scale)),
                }))
    return failures, None


def _check_parity(parts, views: list[tuple[str, View]]) -> Checked:
    sigma = sum(parts) % 2
    # V(-s) = -(-1)^m V(s) on the class of s holds iff R_j(-s) = (-1)^(j-1) R_j(s)
    # for every j; rho and -rho give the same condition, so rho <= P_j covers
    # every class of R_j's stored period P_j, smallest |s| first, and a failing
    # class repeats with P_j. Off the natural grid (2s != sum(parts) mod 2) both
    # cells are zero by representation (the QuasiPoly constructor refuses any
    # other), so only natural cells are read: rho = 2i + sigma mirrors to
    # -rho = 2(-i - sigma) + sigma, cell -i - sigma, for 2i + sigma <= P_j.
    failures = []
    for label, (den, tables) in views:
        for j, col in enumerate(tables, 1):
            count = (len(col) - sigma) // 2 + 1
            mirror = col[::-1] if sigma else col[:1] + col[:0:-1]
            plus, minus = col[:count], mirror[:count]
            want = plus if j % 2 else [-x for x in plus]
            if minus != want:
                i = next(i for i, (x, w) in enumerate(zip(minus, want)) if x != w)
                failures.append((2 * i + sigma, {
                    "path": label, "s": str(Fraction(2 * i + sigma, 2)), "coefficient": j,
                    "R_j(-s)": str(Fraction(minus[i], den)), "R_j(s)": str(Fraction(plus[i], den)),
                }))
    return failures, "off-grid values identically zero"


def _check_zeros(parts, views: list[tuple[str, View]]) -> Checked:
    m = len(parts)
    if m == 1:
        return [], "no forced zeros at this order"
    # the forced zeros V(t/2) = 0 sit at the m // 2 points t = m mod 2, ..., m - 2,
    # evaluated as one block per view; off the class sum(parts) mod 2 every
    # point is 0 by representation
    if (m - sum(parts)) % 2:
        return [], None
    points = m // 2
    failures = []
    for label, (den, tables) in views:
        values = next(_scaled_blocks(tables, m % 2, points, points))
        k = _first_difference(values, [0] * points)
        if k is not None:
            failures.append((k, {
                "path": label, "s": str(Fraction(m % 2 + 2 * k, 2)),
                "value": str(Fraction(values[k], den << (m - 1))),
            }))
    return failures, None


def _check_path_agreement(parts, views: list[tuple[str, View]]) -> Checked:
    if len(views) == 1:
        return [], None
    # Otherwise each pair of columns is cross-multiplied by the other's
    # denominator and compared at the lcm of their lengths; a failure is
    # keyed by its class 2s = 2i + sigma, so the smallest one is reported,
    # at its smallest coefficient.
    sigma = sum(parts) % 2
    by_label = dict(views)
    (den_a, ta), (den_b, tb) = by_label["explicit"], by_label["recursive"]
    failures = []
    for j, (ca, cb) in enumerate(zip(ta, tb), 1):
        i = _first_difference([x * den_b for x in ca], [y * den_a for y in cb])
        if i is not None:
            failures.append((2 * i + sigma, {
                "s": str(Fraction(2 * i + sigma, 2)), "coefficient": j,
                "explicit": str(Fraction(ca[i % len(ca)], den_a)),
                "recursive": str(Fraction(cb[i % len(cb)], den_b)),
            }))
    return failures, None


def _check_mean_value(parts, views: list[tuple[str, View]]) -> Checked:
    # keyed by the coefficient, so the first failing coefficient is reported
    failures = []
    for j, want in enumerate(polypart.v1_explicit(parts), 1):
        for label, (den, tables) in views:
            col = tables[j - 1]
            total, count = sum(col), den * len(col)
            if total * want.denominator != want.numerator * count:
                failures.append((j, {
                    "path": label, "coefficient": j,
                    "expected": str(want), "actual": str(Fraction(total, count)),
                }))
    return failures, None


def _result(name: str, failures: list[tuple[int, dict]], note: Optional[str]) -> PropertyResult:
    """A check's failures as its PropertyResult: a pass with the note when
    there are none, otherwise the counterexample of least key, the first
    found on a tie (min keeps the first of equal keys)."""
    counterexample = min(failures, key=lambda failure: failure[0])[1] if failures else None
    return PropertyResult(name, not failures, counterexample, None if failures else note)


# name -> check -> (failures, note), in report order; _run_checks passes each
# check, by keyword, the arguments its signature names. views lists the
# distinct views of the certificates as (label, view), each under the first
# label that gives it. failures lists (key, counterexample) pairs in scan order and
# note is what a pass carries; _result makes the PropertyResult of both
_CHECKS = {
    "oracle": _check_oracle,
    "recurrence": _check_recurrence,
    "parity": _check_parity,
    "zeros": _check_zeros,
    "path-agreement": _check_path_agreement,
    "mean-value": _check_mean_value,
}
PROPERTIES = tuple(_CHECKS)
# certificate label -> builder, looked up in quasipoly at call time. A patched
# build_explicit reaches every caller; a patched build_recursive reaches the
# CLI's eval and cert and the recurrence's prefix for injected certificates,
# not run_properties' default path, which runs quasipoly._recursive_pass.
BUILDERS = {
    "explicit": lambda parts: quasipoly.build_explicit(parts),
    "recursive": lambda parts: quasipoly.build_recursive(parts),
}


def run_properties(
    parts: Sequence[int],
    props: Iterable[str] | None = None,
    n_max: int | None = None,
    certs: Mapping[str, quasipoly.QuasiPoly] | None = None,
) -> VerifyReport:
    """Run the requested properties (all of them by default) on one part list.

    `props` is an iterable of PROPERTIES names, read once, never a bare
    string. `certs` may inject prebuilt or deliberately broken certificates,
    one QuasiPoly per BUILDERS label ("explicit", "recursive"), each for
    exactly these parts; by default both are built here, and the
    recurrence's prefix certificate, the recursive route's for parts[:-1],
    comes from the recursive certificate's own pass
    (quasipoly._recursive_pass). With injected certificates the recurrence
    builds that prefix itself, build_recursive(parts[:-1]). `n_max`, the
    oracle's bound, is a nonnegative int, never a bool; it defaults to
    default_n_max(parts).
    """
    d = as_parts(parts)
    if props is None:
        selected = PROPERTIES
    elif isinstance(props, str):
        raise InputError(f"props must be a sequence of property names, not the string {props!r}")
    else:
        props = tuple(props)
        if not props:
            raise InputError(f"no properties requested; valid: {', '.join(PROPERTIES)}")
        unknown = [p for p in props if p not in PROPERTIES]
        if unknown:
            raise InputError(f"unknown properties {unknown}; valid: {', '.join(PROPERTIES)}")
        selected = tuple(p for p in PROPERTIES if p in props)
    if n_max is None:
        n_max = default_n_max(d)
    elif not isinstance(n_max, int) or isinstance(n_max, bool) or n_max < 0:
        raise InputError(f"n_max must be a nonnegative integer, got {n_max!r}")
    if certs is not None:
        if set(certs) != set(BUILDERS):
            raise InputError(f"certs must have exactly the keys {', '.join(BUILDERS)}; got {list(certs)}")
        for label, cert in certs.items():
            if not isinstance(cert, quasipoly.QuasiPoly):
                raise InputError(f"certificate {label!r} must be a QuasiPoly, got {cert!r}")
            if cert.parts != d:
                raise InputError(f"certificate {label!r} is for parts {cert.parts}, not {d}")
        return _run_checks(d, selected, n_max, certs)
    explicit = quasipoly.build_explicit(d)
    prefix, recursive = quasipoly._recursive_pass(d)
    return _run_checks(d, selected, n_max, {"explicit": explicit, "recursive": recursive}, prefix)


def _run_checks(d: tuple[int, ...], selected: Sequence[str], n_max: int, certs: Certs, prefix=None) -> VerifyReport:
    """The selected checks on the certificates, in PROPERTIES order. Each
    certificate is read once; equal views give equal verdicts, so only the
    distinct ones are kept, each under its first label, and every check scans
    those. A view is reduced and at its least periods, so two are equal as
    data exactly when they are the same function. No read fills a
    certificate. prefix is the recurrence's prefix certificate, or None for
    it to build."""
    views: list[tuple[str, View]] = []
    for label, cert in certs.items():
        view = cert.numerator_tables()
        if all(view != seen for _, seen in views):
            views.append((label, view))
    given = {"parts": d, "certs": certs, "views": views, "n_max": n_max, "prefix": prefix}
    report = VerifyReport(parts=d)
    for name in selected:
        check = _CHECKS[name]
        code = check.__code__
        named = {arg: given[arg] for arg in code.co_varnames[: code.co_argcount]}
        report.results.append(_result(name, *check(**named)))
    return report


def iter_multisets(max_m: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """Every nondecreasing part list with 1 <= m <= max_m and parts <= max_part."""
    for bound in (max_m, max_part):
        if not isinstance(bound, int) or isinstance(bound, bool) or bound < 1:
            raise InputError(f"bounds must be positive integers, got {bound!r}")
    for m in range(1, max_m + 1):
        yield from combinations_with_replacement(range(1, max_part + 1), m)
