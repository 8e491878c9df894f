"""Property harness: structural checks on certificates, with minimal counterexamples.

Each check scans its argument space in increasing absolute value, so the first
failure reported is a smallest one. A certificate holds its coefficients as
integer numerators; each is taken once per run_properties call, when a
property first needs it, over one common denominator on every class of its
own master period (QuasiPoly.numerator_tables). The oracle, recurrence, parity,
zeros and mean-value checks run on those tables: the recurrence and parity
laws as identities between coefficient tables on every class of the master
period, reporting the smallest failing class of 2s; the oracle and zeros by
integer Horner, the oracle at m points per class by default, counting each
distinct certificate once; the mean value as one integer sum per coefficient.
Path-agreement compares the two certificates' integer tables at the lcm of
their master periods.
Fractions are built only to word a failure. Results never stop early across
properties; a report carries one result per requested property."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Callable, Iterator, Mapping, Optional, Sequence

from . import oracle, polypart, quasipoly
from .errors import InputError, IntegralityError
from .exactnum import HalfInt, as_parts, lcm_of

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
        return {
            "name": self.name,
            "passed": self.passed,
            "counterexample": self.counterexample,
            "note": self.note,
        }


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
# a certificate as integer numerator tables over one denominator, on every
# class of its master period (QuasiPoly.numerator_tables), and the per-call
# reader that gives each label's tables once
View = tuple[int, list[list[int]]]
Views = Callable[[str], View]


def _scaled_counts(parts, tables: list[list[int]]) -> Iterator[int]:
    """2^(m-1) den V(n + xi) for n = 0, 1, 2, ...: an integer, since with
    t = 2n + sum(parts) it is sum_j N_j[t mod 2P] 2^(j-1) t^(m-j). Integer
    Horner in t on one row per class of the parity of t, each N_j pre-shifted
    by j-1."""
    size = len(tables[0])
    t = sum(parts)
    rows: list[tuple[int, ...]] = [()] * size
    for rho in range(t % 2, size, 2):
        rows[rho] = tuple(col[rho] << j for j, col in enumerate(tables))
    while True:
        acc = 0
        for c in rows[t % size]:
            acc = acc * t + c
        yield acc
        t += 2


def _check_oracle(parts, certs: Certs, views: Views, n_max: int) -> PropertyResult:
    counts = oracle.count_dp(parts, n_max).counts
    # Equal tables give equal counts, so each distinct certificate is evaluated
    # once, under the first label that holds it; the first failure is unchanged.
    scans: list[tuple[str, View, Iterator[int]]] = []
    for label in certs:
        view = views(label)
        if all(view != seen for _, seen, _ in scans):
            scans.append((label, view, _scaled_counts(parts, view[1])))
    shift = len(parts) - 1
    for n, want in enumerate(counts):
        for label, (den, _), got in scans:
            if next(got) != (want * den) << shift:
                try:
                    actual = str(certs[label].count(n))
                except IntegralityError as exc:
                    actual = str(exc)
                return PropertyResult(
                    "oracle", False,
                    {"path": label, "n": n, "expected": str(want), "actual": actual},
                )
    return PropertyResult("oracle", True, note=f"n up to {n_max}")


def _rotated(col: list[int], shift: int) -> list[int]:
    """The table read at rho - shift, for rho in range(len(col))."""
    k = len(col) - shift % len(col)
    return col[k:] + col[:k]


def _shifted(tables: list[list[int]], a: int, b: int) -> list[list[int]]:
    """Coefficient tables of b^(n-1) p(s + a/b), for p of degree n-1 given
    highest power first: entry k is sum_{i<=k} C(n-1-i, k-i) a^(k-i) b^(n-1-k+i) p_i."""
    n = len(tables)
    out = []
    for k in range(n):
        acc = [0] * len(tables[0])
        for i in range(k + 1):
            w = math.comb(n - 1 - i, k - i) * a ** (k - i) * b ** (n - 1 - k + i)
            acc = [x + w * y for x, y in zip(acc, tables[i])]
        out.append(acc)
    return out


def _check_recurrence(parts, certs: Certs, views: Views) -> PropertyResult:
    m = len(parts)
    if m == 1:
        return PropertyResult("recurrence", True, note="vacuous for a single part")
    dm = parts[-1]
    # One polynomial identity per class 2s = rho, on integer numerators:
    # V(s) - V(s - d_m) = V_{m-1}(s - d_m/2), the right side scaled by 2^(m-2).
    # Every class of both master periods is checked. The full-period iterate
    # V(s + tau) - V(s) = sum_p V_{m-1}(s + tau - (2p+1) d_m/2) telescopes from it.
    first = None
    for label in certs:
        den, cur = views(label)
        den_prev, prev = BUILDERS[label](parts[:-1]).numerator_tables()
        size = math.lcm(len(cur[0]), len(prev[0]))
        back = _shifted([_rotated(col, 2 * dm) for col in cur], -dm, 1)
        half = _shifted([_rotated(col, dm) for col in prev], -dm, 2)
        lhs = [[x - y for x, y in zip(col, sh)] * (size // len(col)) for col, sh in zip(cur, back)]
        rhs = [[0] * size] + [col * (size // len(col)) for col in half]
        rhs_den = den_prev << (m - 2)
        for k, (a, b) in enumerate(zip(lhs, rhs)):
            a_s, b_s = [x * rhs_den for x in a], [y * den for y in b]
            if a_s != b_s:
                rho = next(r for r, (x, y) in enumerate(zip(a_s, b_s)) if x != y)
                if first is None or rho < first[0]:
                    first = (rho, k, label, Fraction(a[rho], den), Fraction(b[rho], rhs_den))
    if first is None:
        return PropertyResult("recurrence", True)
    rho, k, label, a, b = first
    return PropertyResult(
        "recurrence", False,
        {"path": label, "s": str(HalfInt(rho)), "power": m - 1 - k, "lhs": str(a), "rhs": str(b)},
    )


def _check_parity(parts, certs: Certs, views: Views) -> PropertyResult:
    natural = sum(parts) % 2
    # V(-s) = -(-1)^m V(s) on the class of s holds iff R_j(-s) = (-1)^(j-1) R_j(s)
    # for every j; rho and -rho give the same condition, so rho <= P covers every
    # class of the master period P, smallest |s| first. Off-grid classes are
    # described, never asserted.
    all_zero = symmetric = True
    first = None
    for label in certs:
        den, tables = views(label)
        half = len(tables[0]) // 2
        for j, col in enumerate(tables, 1):
            plus, minus = col[: half + 1], col[:1] + col[: half - 1 : -1]
            want = plus if j % 2 else [-x for x in plus]
            if minus != want:
                bad = [rho for rho, (x, y) in enumerate(zip(minus, want)) if x != y]
                on_grid = [rho for rho in bad if rho % 2 == natural]
                if on_grid and (first is None or on_grid[0] < first[0]):
                    first = (on_grid[0], label, j, minus[on_grid[0]], plus[on_grid[0]], den)
                symmetric = symmetric and len(on_grid) == len(bad)
            all_zero = all_zero and not any(plus[1 - natural :: 2] + minus[1 - natural :: 2])
    if first is not None:
        rho, label, j, minus, plus, den = first
        return PropertyResult(
            "parity", False,
            {"path": label, "s": str(HalfInt(rho)), "coefficient": j,
             "R_j(-s)": str(Fraction(minus, den)), "R_j(s)": str(Fraction(plus, den))},
        )
    if all_zero:
        note = "off-grid values identically zero"
    elif symmetric:
        note = "off-grid values nonzero but symmetric"
    else:
        note = "off-grid symmetry deviates (reported only)"
    return PropertyResult("parity", True, note=note)


def _zero_points_twice(m: int) -> list[int]:
    if m % 2 == 0:
        return [2 * k for k in range(m // 2)]
    return [2 * k + 1 for k in range((m - 1) // 2)]


def _check_zeros(parts, certs: Certs, views: Views) -> PropertyResult:
    pts = _zero_points_twice(len(parts))
    if not pts:
        return PropertyResult("zeros", True, note="no forced zeros at this order")
    shift = len(parts) - 1
    for t in pts:
        for label in certs:
            den, tables = views(label)
            acc = 0  # 2^(m-1) den V(t/2), by _scaled_counts' integer Horner
            for j, col in enumerate(tables):
                acc = acc * t + (col[t % len(col)] << j)
            if acc:
                return PropertyResult(
                    "zeros", False,
                    {"path": label, "s": str(HalfInt(t)), "value": str(Fraction(acc, den << shift))},
                )
    return PropertyResult("zeros", True)


def _check_path_agreement(parts, certs: Certs) -> PropertyResult:
    a, b = certs["explicit"], certs["recursive"]
    # compared at the lcm of the two master periods, tau for builder output.
    # Each coefficient's table is reduced, so equal functions have equal
    # denominators and numerators; the smallest differing class 2s is
    # reported, and its smallest coefficient.
    size = 2 * math.lcm(a.master_period, b.master_period)
    first = None
    for j, (fa, fb) in enumerate(zip(a.coeffs, b.coeffs), 1):
        na = fa.nums * (size // len(fa.nums))
        nb = fb.nums * (size // len(fb.nums))
        if fa.den != fb.den or na != nb:
            rho = next(r for r, (x, y) in enumerate(zip(na, nb)) if x * fb.den != y * fa.den)
            if first is None or rho < first[0]:
                first = (rho, j, fa, fb)
    if first is None:
        return PropertyResult("path-agreement", True)
    rho, j, fa, fb = first
    return PropertyResult(
        "path-agreement", False,
        {"s": str(HalfInt(rho)), "coefficient": j,
         "explicit": str(fa.at_twice(rho)), "recursive": str(fb.at_twice(rho))},
    )


def _check_mean_value(parts, certs: Certs, views: Views) -> PropertyResult:
    consts = polypart.v1_explicit(parts)
    parity = sum(parts) % 2
    for j in range(1, len(parts) + 1):
        want = consts.coeffs[j - 1]
        for label in certs:
            den, tables = views(label)
            col = tables[j - 1]
            total, count = sum(col[parity::2]), den * (len(col) // 2)
            if total * want.denominator != want.numerator * count:
                return PropertyResult(
                    "mean-value", False,
                    {"path": label, "coefficient": j,
                     "expected": str(want), "actual": str(Fraction(total, count))},
                )
    return PropertyResult("mean-value", True)


# name -> check(parts, certs, views, n_max), in report order; only the oracle
# uses n_max, and path-agreement reads the certificates themselves
_CHECKS = {
    "oracle": _check_oracle,
    "recurrence": lambda parts, certs, views, n_max: _check_recurrence(parts, certs, views),
    "parity": lambda parts, certs, views, n_max: _check_parity(parts, certs, views),
    "zeros": lambda parts, certs, views, n_max: _check_zeros(parts, certs, views),
    "path-agreement": lambda parts, certs, views, n_max: _check_path_agreement(parts, certs),
    "mean-value": lambda parts, certs, views, n_max: _check_mean_value(parts, certs, views),
}
PROPERTIES = tuple(_CHECKS)
# certificate label -> builder; run_properties checks one certificate of each.
# The builders are looked up in quasipoly at call time, so patching them there
# reaches every caller.
BUILDERS = {
    "explicit": lambda parts: quasipoly.build_explicit(parts),
    "recursive": lambda parts: quasipoly.build_recursive(parts),
}


def run_properties(
    parts: Sequence[int],
    props: Sequence[str] | None = None,
    n_max: int | None = None,
    certs: Mapping[str, quasipoly.QuasiPoly] | None = None,
) -> VerifyReport:
    """Run the requested properties (all of them by default) on one part list.

    `certs` may inject prebuilt or deliberately broken certificates, one per
    BUILDERS label ("explicit", "recursive"), each for exactly these parts; by
    default both are built here.
    """
    d = as_parts(parts)
    if props is None:
        selected = PROPERTIES
    else:
        if not props:
            raise InputError(f"no properties requested; valid: {', '.join(PROPERTIES)}")
        unknown = [p for p in props if p not in PROPERTIES]
        if unknown:
            raise InputError(f"unknown properties {unknown}; valid: {', '.join(PROPERTIES)}")
        selected = tuple(p for p in PROPERTIES if p in set(props))
    if certs is None:
        certs = {label: build(d) for label, build in BUILDERS.items()}
    elif set(certs) != set(BUILDERS):
        raise InputError(f"certs must have exactly the keys {', '.join(BUILDERS)}; got {list(certs)}")
    else:
        for label, cert in certs.items():
            if cert.parts != d:
                raise InputError(f"certificate {label!r} is for parts {cert.parts}, not {d}")
    if n_max is None:
        n_max = default_n_max(d)
    elif n_max < 0:
        raise InputError("n_max must be nonnegative")

    read: dict[str, View] = {}

    def views(label: str) -> View:
        # each certificate is read on first use, at most once per call
        if label not in read:
            read[label] = certs[label].numerator_tables()
        return read[label]

    report = VerifyReport(parts=d)
    for name in selected:
        report.results.append(_CHECKS[name](d, certs, views, n_max))
    return report


def iter_multisets(max_m: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """Every nondecreasing part list with 1 <= m <= max_m and parts <= max_part."""
    if max_m < 1 or max_part < 1:
        raise InputError("bounds must be positive")
    for m in range(1, max_m + 1):
        yield from combinations_with_replacement(range(1, max_part + 1), m)
