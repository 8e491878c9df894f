"""Property harness: structural checks on certificates, with minimal counterexamples.

Each check scans its argument space in increasing absolute value, so the first
failure reported is a smallest one. Certificates are read only through
QuasiPoly.numerator_tables: integer numerators over one common denominator.
run_properties reads each certificate once, on every class of its own master
period, and keeps the distinct views, each under the first label that holds
it; every check scans that list, so equal certificates are checked once. The
recurrence and parity laws are identities between coefficient tables on every
class of the master period, reporting the smallest failing class of 2s;
parity also requires every off-grid cell (2s != sum(parts) mod 2) to be zero.
The recurrence checks every view against one prefix certificate, the
recursive route's, read and shifted once. The oracle uses integer Horner
(_scaled_counts), at m points per class by default; zeros the same Horner at
the forced zeros 2s = m mod 2, ..., m - 2, which lie in the first m classes;
the mean value one integer sum per coefficient. Path-agreement passes a single
distinct view at once and otherwise compares the two views at the lcm of their
lengths.
Fractions are built only to word a failure. Results never stop early across
properties; a report carries one result per requested property."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterator, Mapping, Optional, Sequence

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
# a certificate as integer numerator tables over one denominator, on every
# class of its master period (QuasiPoly.numerator_tables)
View = tuple[int, list[list[int]]]


def _scaled_counts(tables: list[list[int]], t: int) -> Iterator[int]:
    """2^(m-1) den V(t/2) at t, t + 2, t + 4, ...: an integer, since it is
    sum_j N_j[t mod 2P] 2^(j-1) t^(m-j). Integer Horner in t on one row per
    class, each N_j pre-shifted by j-1, built when the class is first met."""
    size = len(tables[0])
    rows: list[tuple[int, ...] | None] = [None] * size
    while True:
        rho = t % size
        row = rows[rho]
        if row is None:
            row = rows[rho] = tuple(col[rho] << j for j, col in enumerate(tables))
        acc = 0
        for c in row:
            acc = acc * t + c
        yield acc
        t += 2


def _check_oracle(parts, certs: Certs, views: list[tuple[str, View]], n_max: int) -> PropertyResult:
    counts = oracle.count_dp(parts, n_max).counts
    scans = [(label, den, _scaled_counts(tables, sum(parts))) for label, (den, tables) in views]
    shift = len(parts) - 1
    for n, want in enumerate(counts):
        for label, den, got in scans:
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


def _check_recurrence(parts, certs: Certs, views: list[tuple[str, View]], n_max: int) -> PropertyResult:
    m = len(parts)
    if m == 1:
        return PropertyResult("recurrence", True, note="vacuous for a single part")
    dm = parts[-1]
    # One polynomial identity per class 2s = rho, on integer numerators:
    # V(s) - V(s - d_m) = V_{m-1}(s - d_m/2), the right side scaled by 2^(m-2).
    # Every class of both master periods is checked. The full-period iterate
    # V(s + tau) - V(s) = sum_p V_{m-1}(s + tau - (2p+1) d_m/2) telescopes from it.
    # Every view is checked against one V_{m-1}, the recursive route's, read
    # and shifted once.
    den_prev, prev = quasipoly.build_recursive(parts[:-1]).numerator_tables()
    half = _shifted([_rotated(col, dm) for col in prev], -dm, 2)
    rhs_den = den_prev << (m - 2)
    first = None
    for label, (den, cur) in views:
        size = math.lcm(len(cur[0]), len(prev[0]))
        back = _shifted([_rotated(col, 2 * dm) for col in cur], -dm, 1)
        lhs = [[x - y for x, y in zip(col, sh)] * (size // len(col)) for col, sh in zip(cur, back)]
        rhs = [[0] * size] + [col * (size // len(col)) for col in half]
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


def _check_parity(parts, certs: Certs, views: list[tuple[str, View]], n_max: int) -> PropertyResult:
    natural = sum(parts) % 2
    # V(-s) = -(-1)^m V(s) on the class of s holds iff R_j(-s) = (-1)^(j-1) R_j(s)
    # for every j; rho and -rho give the same condition, so rho <= P covers every
    # class of the master period P, smallest |s| first. Off the natural grid
    # (2s != sum(parts) mod 2) both cells must be zero, which also makes them
    # symmetric.
    first = None
    for label, (den, tables) in views:
        half = len(tables[0]) // 2
        for j, col in enumerate(tables, 1):
            plus, minus = col[: half + 1], col[:1] + col[: half - 1 : -1]
            want = plus if j % 2 else [-x for x in plus]
            if minus != want or any(plus[1 - natural :: 2]):
                rho = next(
                    rho for rho, (x, y, w) in enumerate(zip(minus, plus, want))
                    if x != w or (y and rho % 2 != natural)
                )
                if first is None or rho < first[0]:
                    first = (rho, label, j, minus[rho], plus[rho], den)
    if first is None:
        return PropertyResult("parity", True, note="off-grid values identically zero")
    rho, label, j, minus, plus, den = first
    return PropertyResult(
        "parity", False,
        {"path": label, "s": str(HalfInt(rho)), "coefficient": j,
         "R_j(-s)": str(Fraction(minus, den)), "R_j(s)": str(Fraction(plus, den))},
    )


def _check_zeros(parts, certs: Certs, views: list[tuple[str, View]], n_max: int) -> PropertyResult:
    m = len(parts)
    if m == 1:
        return PropertyResult("zeros", True, note="no forced zeros at this order")
    # the forced zeros V(t/2) = 0 sit at t = m mod 2, ..., m - 2
    scans = [(label, den, _scaled_counts(tables, m % 2)) for label, (den, tables) in views]
    for t in range(m % 2, m - 1, 2):
        for label, den, got in scans:
            acc = next(got)
            if acc:
                return PropertyResult(
                    "zeros", False,
                    {"path": label, "s": str(HalfInt(t)), "value": str(Fraction(acc, den << (m - 1)))},
                )
    return PropertyResult("zeros", True)


def _check_path_agreement(parts, certs: Certs, views: list[tuple[str, View]], n_max: int) -> PropertyResult:
    if len(views) == 1:
        return PropertyResult("path-agreement", True)
    # Otherwise both views are tiled to the lcm of their lengths (2 tau for
    # builder output) and cross-multiplied by the other's denominator; the
    # smallest differing class 2s is reported, and its smallest coefficient.
    by_label = dict(views)
    (den_a, ta), (den_b, tb) = by_label["explicit"], by_label["recursive"]
    size = math.lcm(len(ta[0]), len(tb[0]))
    first = None
    for j, (ca, cb) in enumerate(zip(ta, tb), 1):
        xa = [x * den_b for x in ca] * (size // len(ca))
        xb = [y * den_a for y in cb] * (size // len(cb))
        if xa != xb:
            rho = next(r for r, (x, y) in enumerate(zip(xa, xb)) if x != y)
            if first is None or rho < first[0]:
                first = (rho, j)
    if first is None:
        return PropertyResult("path-agreement", True)
    rho, j = first
    return PropertyResult(
        "path-agreement", False,
        {"s": str(HalfInt(rho)), "coefficient": j,
         "explicit": str(Fraction(ta[j - 1][rho % len(ta[0])], den_a)),
         "recursive": str(Fraction(tb[j - 1][rho % len(tb[0])], den_b))},
    )


def _check_mean_value(parts, certs: Certs, views: list[tuple[str, View]], n_max: int) -> PropertyResult:
    consts = polypart.v1_explicit(parts)
    parity = sum(parts) % 2
    for j in range(1, len(parts) + 1):
        want = consts[j - 1]
        for label, (den, tables) in views:
            col = tables[j - 1]
            total, count = sum(col[parity::2]), den * (len(col) // 2)
            if total * want.denominator != want.numerator * count:
                return PropertyResult(
                    "mean-value", False,
                    {"path": label, "coefficient": j,
                     "expected": str(want), "actual": str(Fraction(total, count))},
                )
    return PropertyResult("mean-value", True)


# name -> check(parts, certs, views, n_max), in report order. views lists the
# distinct certificate views as (label, view), each under the first label that
# holds it; only the oracle uses n_max
_CHECKS = {
    "oracle": _check_oracle,
    "recurrence": _check_recurrence,
    "parity": _check_parity,
    "zeros": _check_zeros,
    "path-agreement": _check_path_agreement,
    "mean-value": _check_mean_value,
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

    # each certificate is read once; equal tables give equal verdicts, so
    # every check scans each distinct view once, under its first label
    views: list[tuple[str, View]] = []
    for label, cert in certs.items():
        view = cert.numerator_tables()
        if all(view != seen for _, seen in views):
            views.append((label, view))
    report = VerifyReport(parts=d)
    for name in selected:
        report.results.append(_CHECKS[name](d, certs, views, n_max))
    return report


def iter_multisets(max_m: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """Every nondecreasing part list with 1 <= m <= max_m and parts <= max_part."""
    for bound in (max_m, max_part):
        if not isinstance(bound, int) or isinstance(bound, bool) or bound < 1:
            raise InputError(f"bounds must be positive integers, got {bound!r}")
    for m in range(1, max_m + 1):
        yield from combinations_with_replacement(range(1, max_part + 1), m)
