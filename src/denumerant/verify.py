"""Property harness: structural checks on certificates, with minimal counterexamples.

Each check scans its argument space in increasing absolute value, so the first
failure reported is a smallest one. Results never stop early across
properties; a report carries one result per requested property.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterator, Mapping, Optional, Sequence

from . import oracle, polypart, quasipoly
from .errors import InputError, IntegralityError
from .exactnum import HalfInt, as_parts, lcm_of

__all__ = [
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
    return 3 * lcm_of(as_parts(parts)) + 10


def _check_oracle(parts, certs: Mapping[str, quasipoly.QuasiPoly], n_max: int) -> PropertyResult:
    table = oracle.count_dp(parts, n_max)
    for n in range(n_max + 1):
        for label, cert in certs.items():
            try:
                got = cert.count(n)
            except IntegralityError as exc:
                return PropertyResult(
                    "oracle", False,
                    {"path": label, "n": n, "expected": str(table[n]), "actual": str(exc)},
                )
            if got != table[n]:
                return PropertyResult(
                    "oracle", False,
                    {"path": label, "n": n, "expected": str(table[n]), "actual": str(got)},
                )
    return PropertyResult("oracle", True, note=f"n up to {n_max}")


def _check_recurrence(parts, certs: Mapping[str, quasipoly.QuasiPoly]) -> PropertyResult:
    m = len(parts)
    if m == 1:
        return PropertyResult("recurrence", True, note="vacuous for a single part")
    dm = parts[-1]
    builders = {"explicit": quasipoly.build_explicit, "recursive": quasipoly.build_recursive}
    prevs = {label: builders[label](parts[:-1]) for label in certs}
    tau = lcm_of(parts)
    delta = tau // dm
    for rho in range(2 * tau):
        for label, cert in certs.items():
            prev = prevs[label]
            lhs = cert.value(HalfInt(rho)) - cert.value(HalfInt(rho - 2 * dm))
            rhs = prev.value(HalfInt(rho - dm))
            if lhs != rhs:
                return PropertyResult(
                    "recurrence", False,
                    {"path": label, "relation": "single-step", "s": str(HalfInt(rho)),
                     "lhs": str(lhs), "rhs": str(rhs)},
                )
            # iterated form over one full period of the last part
            lhs = cert.value(HalfInt(rho + 2 * tau)) - cert.value(HalfInt(rho))
            rhs = sum(
                (prev.value(HalfInt(rho + 2 * tau - (2 * p + 1) * dm)) for p in range(delta)),
                Fraction(0),
            )
            if lhs != rhs:
                return PropertyResult(
                    "recurrence", False,
                    {"path": label, "relation": "full-period", "s": str(HalfInt(rho)),
                     "lhs": str(lhs), "rhs": str(rhs)},
                )
    return PropertyResult("recurrence", True)


def _check_parity(parts, certs: Mapping[str, quasipoly.QuasiPoly]) -> PropertyResult:
    m = len(parts)
    sign = -1 if m % 2 == 0 else 1
    tau = lcm_of(parts)
    natural = sum(parts) % 2
    limit = 4 * tau  # twice the bound |s| <= 2*tau
    for t in range(natural, limit + 1, 2):
        for label, cert in certs.items():
            plus = cert.value(HalfInt(t))
            minus = cert.value(HalfInt(-t))
            if minus != sign * plus:
                return PropertyResult(
                    "parity", False,
                    {"path": label, "s": str(HalfInt(t)),
                     "V(-s)": str(minus), "expected": str(sign * plus)},
                )
    # off-grid points are evaluated and described, never asserted
    off = 1 - natural
    all_zero = True
    symmetric = True
    for t in range(off, limit + 1, 2):
        for cert in certs.values():
            plus = cert.value(HalfInt(t))
            minus = cert.value(HalfInt(-t))
            if plus or minus:
                all_zero = False
            if minus != sign * plus:
                symmetric = False
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


def _check_zeros(parts, certs: Mapping[str, quasipoly.QuasiPoly]) -> PropertyResult:
    pts = _zero_points_twice(len(parts))
    if not pts:
        return PropertyResult("zeros", True, note="no forced zeros at this order")
    for t in pts:
        for label, cert in certs.items():
            v = cert.value(HalfInt(t))
            if v:
                return PropertyResult(
                    "zeros", False,
                    {"path": label, "s": str(HalfInt(t)), "value": str(v)},
                )
    return PropertyResult("zeros", True)


def _check_path_agreement(parts, certs: Mapping[str, quasipoly.QuasiPoly]) -> PropertyResult:
    tau = lcm_of(parts)
    a = certs["explicit"].aligned(tau)
    b = certs["recursive"].aligned(tau)
    for rho in range(2 * tau):
        for j in range(1, len(parts) + 1):
            va = a.coeffs[j - 1].values[rho]
            vb = b.coeffs[j - 1].values[rho]
            if va != vb:
                return PropertyResult(
                    "path-agreement", False,
                    {"s": str(HalfInt(rho)), "coefficient": j,
                     "explicit": str(va), "recursive": str(vb)},
                )
    return PropertyResult("path-agreement", True)


def _check_mean_value(parts, certs: Mapping[str, quasipoly.QuasiPoly]) -> PropertyResult:
    consts = polypart.v1_explicit(parts)
    parity = sum(parts) % 2
    for j in range(1, len(parts) + 1):
        want = consts.coeffs[j - 1]
        for label, cert in certs.items():
            got = cert.coeffs[j - 1].natural_average(parity)
            if got != want:
                return PropertyResult(
                    "mean-value", False,
                    {"path": label, "coefficient": j,
                     "expected": str(want), "actual": str(got)},
                )
    return PropertyResult("mean-value", True)


# name -> check(parts, certs, n_max), in report order; only the oracle uses n_max
_CHECKS = {
    "oracle": _check_oracle,
    "recurrence": lambda parts, certs, n_max: _check_recurrence(parts, certs),
    "parity": lambda parts, certs, n_max: _check_parity(parts, certs),
    "zeros": lambda parts, certs, n_max: _check_zeros(parts, certs),
    "path-agreement": lambda parts, certs, n_max: _check_path_agreement(parts, certs),
    "mean-value": lambda parts, certs, n_max: _check_mean_value(parts, certs),
}
PROPERTIES = tuple(_CHECKS)


def run_properties(
    parts: Sequence[int],
    props: Sequence[str] | None = None,
    n_max: int | None = None,
    certs: Mapping[str, quasipoly.QuasiPoly] | None = None,
) -> VerifyReport:
    """Run the requested properties (all of them by default) on one part list.

    `certs` may inject prebuilt or deliberately broken certificates keyed
    "explicit" / "recursive"; by default both are built here.
    """
    d = as_parts(parts)
    if props is None:
        selected = PROPERTIES
    else:
        unknown = [p for p in props if p not in PROPERTIES]
        if unknown:
            raise InputError(f"unknown properties {unknown}; valid: {', '.join(PROPERTIES)}")
        selected = tuple(p for p in PROPERTIES if p in set(props))
    if certs is None:
        certs = {
            "explicit": quasipoly.build_explicit(d),
            "recursive": quasipoly.build_recursive(d),
        }
    if n_max is None:
        n_max = default_n_max(d)
    elif n_max < 0:
        raise InputError("n_max must be nonnegative")

    report = VerifyReport(parts=d)
    for name in selected:
        report.results.append(_CHECKS[name](d, certs, n_max))
    return report


def iter_multisets(max_m: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """Every nondecreasing part list with 1 <= m <= max_m and parts <= max_part."""
    if max_m < 1 or max_part < 1:
        raise InputError("bounds must be positive")
    for m in range(1, max_m + 1):
        yield from combinations_with_replacement(range(1, max_part + 1), m)
