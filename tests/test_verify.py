"""The property harness itself: detection power and minimality of counterexamples."""

from fractions import Fraction

import pytest

from denumerant import (
    InputError,
    PeriodicFn,
    QuasiPoly,
    build_explicit,
    build_recursive,
    iter_multisets,
    run_properties,
)
from denumerant.verify import BUILDERS, PROPERTIES, default_n_max


def _tampered(cert: QuasiPoly, coeff_index: int, rho: int, delta=Fraction(1)) -> QuasiPoly:
    """Copy of a certificate with one table entry nudged."""
    fns = list(cert.coeffs)
    fn = fns[coeff_index]
    vals = list(fn.values)
    vals[rho] += delta
    fns[coeff_index] = PeriodicFn(fn.period, vals)
    return QuasiPoly(cert.parts, tuple(fns), cert.master_period)


class TestCleanRuns:
    def test_all_properties_pass(self):
        report = run_properties((1, 2, 3))
        assert report.passed
        assert [r.name for r in report.results] == list(PROPERTIES)
        assert all(r.counterexample is None for r in report.results)

    def test_single_part(self):
        report = run_properties((4,))
        assert report.passed
        by_name = {r.name: r for r in report.results}
        assert by_name["recurrence"].note == "vacuous for a single part"
        assert by_name["parity"].note == "off-grid values identically zero"

    def test_subset_selection_keeps_canonical_order(self):
        report = run_properties((1, 2), props=["zeros", "oracle"])
        assert [r.name for r in report.results] == ["oracle", "zeros"]

    def test_unknown_property_rejected(self):
        with pytest.raises(InputError):
            run_properties((1, 2), props=["oracle", "speed"])

    def test_empty_property_list_rejected(self):
        with pytest.raises(InputError):
            run_properties((1, 2), props=[])

    def test_missing_certificate_rejected(self):
        parts = (1, 2)
        with pytest.raises(InputError, match="exactly the keys"):
            run_properties(parts, certs={"explicit": build_explicit(parts)})

    def test_extra_certificate_rejected(self):
        parts = (1, 2)
        certs = {label: build(parts) for label, build in BUILDERS.items()}
        certs["other"] = build_explicit(parts)
        with pytest.raises(InputError, match="exactly the keys"):
            run_properties(parts, certs=certs)

    def test_default_n_max(self):
        assert default_n_max((1, 2, 3)) == 28
        assert default_n_max((4,)) == 22
        # m*tau - 1 = 839 exceeds 3*tau + 10 = 640: m points in every class
        assert default_n_max((2, 3, 5, 7)) == 839


class TestDetection:
    def test_oracle_failure_minimal_n(self):
        parts = (1, 2)
        good = build_recursive(parts)
        # nudging the free coefficient on the odd-n residue class breaks every
        # odd n, so the minimal counterexample is n = 1
        broken = _tampered(build_explicit(parts), 1, 1)
        report = run_properties(parts, certs={"explicit": broken, "recursive": good})
        assert not report.passed
        by_name = {r.name: r for r in report.results}
        assert by_name["oracle"].passed is False
        assert by_name["oracle"].counterexample["n"] == 1
        assert by_name["oracle"].counterexample["path"] == "explicit"
        assert by_name["path-agreement"].passed is False
        assert by_name["path-agreement"].counterexample["coefficient"] == 2

    def test_integrality_failure_reported(self):
        parts = (1, 2)
        broken = _tampered(build_explicit(parts), 1, 1, Fraction(1, 3))
        report = run_properties(
            parts, props=["oracle"],
            certs={"explicit": broken, "recursive": build_recursive(parts)},
        )
        assert not report.passed
        assert report.results[0].counterexample["n"] == 1

    def test_recurrence_identity_failure(self):
        parts = (1, 2, 3)
        # add (s-2)(s-8) = s^2 - 10 s + 16 on the class 2s = 4 (mod 12): it
        # vanishes at s = 2 and s = 8, the points a sampled check would visit
        broken = build_explicit(parts)
        for index, delta in enumerate((1, -10, 16)):
            broken = _tampered(broken, index, 4, Fraction(delta))
        report = run_properties(
            parts, props=["recurrence"],
            certs={"explicit": broken, "recursive": build_recursive(parts)},
        )
        assert not report.passed
        cex = report.results[0].counterexample
        assert cex["path"] == "explicit"
        assert cex["s"] == "2"
        assert cex["power"] == 2

    def test_parity_failure(self):
        parts = (1, 2, 3)
        good = build_recursive(parts)
        # 2s = 8 and 2s = -8 = 4 (mod 12) are one class; its smallest |s| is 2
        broken = _tampered(good, 1, 8)
        report = run_properties(
            parts, props=["parity"],
            certs={"explicit": build_explicit(parts), "recursive": broken},
        )
        assert not report.passed
        cex = report.results[0].counterexample
        assert cex["path"] == "recursive"
        assert cex["s"] == "2"
        assert cex["coefficient"] == 2
        assert cex["R_j(s)"] == str(good.coeffs[1].values[4])
        assert cex["R_j(-s)"] == str(good.coeffs[1].values[8] + 1)

    def test_mean_value_failure(self):
        parts = (1, 2)
        broken = _tampered(build_explicit(parts), 0, 3)  # odd residue: on the natural grid
        report = run_properties(
            parts, props=["mean-value"],
            certs={"explicit": broken, "recursive": build_recursive(parts)},
        )
        assert not report.passed
        assert report.results[0].counterexample["coefficient"] == 1

    def test_report_render_and_json(self):
        report = run_properties((2, 3))
        text = report.render_text()
        assert "parts 2,3" in text
        assert "all properties passed" in text
        data = report.to_json_dict()
        assert data["passed"] is True
        assert {r["name"] for r in data["results"]} == set(PROPERTIES)


class TestMultisets:
    def test_enumeration(self):
        assert list(iter_multisets(1, 2)) == [(1,), (2,)]
        assert list(iter_multisets(2, 2)) == [(1,), (2,), (1, 1), (1, 2), (2, 2)]

    def test_counts(self):
        assert len(list(iter_multisets(4, 6))) == 209
        assert len(list(iter_multisets(5, 6))) == 461

    def test_bad_bounds(self):
        with pytest.raises(InputError):
            list(iter_multisets(0, 3))
