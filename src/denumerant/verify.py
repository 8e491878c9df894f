"""Property harness: structural checks on certificates, with minimal counterexamples.

Each check scans its argument space in increasing absolute value, so the first
failure reported is a smallest one. The recurrence and parity laws are checked
as identities between coefficient tables, one residue class of 2s at a time,
and report the smallest failing class; the oracle check covers m points per
class by default. Results never stop early across properties; a report
carries one result per requested property.
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


def _column(cert: quasipoly.QuasiPoly, rho: int) -> polypart.Polynomial:
    """V restricted to the class 2s = rho, as a polynomial in s."""
    return polypart.Polynomial(fn.at_twice(rho) for fn in cert.coeffs)


def _check_recurrence(parts, certs: Mapping[str, quasipoly.QuasiPoly]) -> PropertyResult:
    m = len(parts)
    if m == 1:
        return PropertyResult("recurrence", True, note="vacuous for a single part")
    dm = parts[-1]
    prevs = {label: BUILDERS[label](parts[:-1]) for label in certs}
    # One polynomial identity per class; the full-period iterate
    # V(s + tau) - V(s) = sum_p V_{m-1}(s + tau - (2p+1) d_m/2) telescopes from it.
    for rho in range(2 * lcm_of(parts)):
        for label, cert in certs.items():
            lhs = _column(cert, rho) - _column(cert, rho - 2 * dm).shifted(-dm)
            rhs = _column(prevs[label], rho - dm).shifted(Fraction(-dm, 2))
            for power, a, b in zip(range(m - 1, -1, -1), lhs.coeffs, (0,) + rhs.coeffs):
                if a != b:
                    return PropertyResult(
                        "recurrence", False,
                        {"path": label, "s": str(HalfInt(rho)), "power": power,
                         "lhs": str(a), "rhs": str(b)},
                    )
    return PropertyResult("recurrence", True)


def _check_parity(parts, certs: Mapping[str, quasipoly.QuasiPoly]) -> PropertyResult:
    m = len(parts)
    sign = -1 if m % 2 == 0 else 1
    natural = sum(parts) % 2
    # V(-s) = sign V(s) on the class of s holds iff R_j(-s) (-1)^(m-j) = sign R_j(s)
    # for every j; rho and -rho give the same condition, so rho <= tau covers every
    # class, smallest |s| first. Off-grid classes are described, never asserted.
    all_zero = symmetric = True
    for rho in range(lcm_of(parts) + 1):
        on_grid = rho % 2 == natural
        for label, cert in certs.items():
            for j, fn in enumerate(cert.coeffs, 1):
                plus, minus = fn.at_twice(rho), fn.at_twice(-rho)
                if minus * (-1) ** (m - j) != sign * plus:
                    if on_grid:
                        return PropertyResult(
                            "parity", False,
                            {"path": label, "s": str(HalfInt(rho)), "coefficient": j,
                             "R_j(-s)": str(minus), "R_j(s)": str(plus)},
                        )
                    symmetric = False
                if not on_grid and (plus or minus):
                    all_zero = False
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
    BUILDERS label ("explicit", "recursive"); by default both are built here.
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
