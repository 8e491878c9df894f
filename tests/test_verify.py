"""The property harness itself: detection power and minimality of counterexamples."""

import itertools
import math
from fractions import Fraction

import pytest

from denumerant import (
    HalfInt,
    InputError,
    IntegralityError,
    PeriodicFn,
    PropertyResult,
    QuasiPoly,
    build_explicit,
    build_recursive,
    count_dp,
    iter_multisets,
    lcm_of,
    run_properties,
)
from denumerant import quasipoly, verify
from denumerant.verify import BUILDERS, PROPERTIES, default_n_max
from helpers import poly_sub, taylor_shift


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

    def test_parity_off_grid_failure(self):
        # (1, 2, 3) sums to 6, so 2s = 3 is off the natural grid: a nonzero
        # cell there fails at the smallest such class, even when the cells at
        # s and -s are equal, which keeps the symmetry law
        parts = (1, 2, 3)
        good = build_explicit(parts)
        for broken in (_tampered(good, 0, 9), _tampered(_tampered(good, 0, 9), 0, 3)):
            report = run_properties(
                parts, props=["parity"],
                certs={"explicit": broken, "recursive": build_recursive(parts)},
            )
            assert not report.passed
            cex = report.results[0].counterexample
            assert (cex["path"], cex["s"], cex["coefficient"]) == ("explicit", "3/2", 1)
            assert cex["R_j(-s)"] == "1"  # 2s = 9 = -3 (mod 12)
            assert cex["R_j(s)"] == str(broken.coeffs[0].values[3])

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


class TestCertificateChecks:
    def test_path_agreement_at_a_multiple_of_the_period(self):
        parts = (2, 3)
        explicit = build_explicit(parts).aligned(12)
        report = run_properties(parts, certs={"explicit": explicit, "recursive": build_recursive(parts)})
        assert report.passed
        # a nudge in the upper half of the period-12 table is seen there, at 2s = 13
        broken = _tampered(explicit, 1, 13)
        report = run_properties(
            parts, props=["path-agreement"],
            certs={"explicit": broken, "recursive": build_recursive(parts)},
        )
        cex = report.results[0].counterexample
        assert (cex["s"], cex["coefficient"]) == ("13/2", 2)
        # the report does not depend on the order of the labels
        swapped = {"recursive": build_recursive(parts), "explicit": broken}
        assert run_properties(parts, props=["path-agreement"], certs=swapped).results == report.results

    @pytest.mark.parametrize("parts", [(1, 2), (3, 1, 2), (2, 3, 5, 7), (1, 1, 2, 2, 3)])
    def test_default_run_builds_one_prefix(self, monkeypatch, parts):
        # both certificates, and one prefix for the recurrence: the recursive
        # route's, against which the explicit certificate is checked too
        built = {}
        for name in ("build_explicit", "build_recursive"):
            def counting(p, name=name, real=getattr(quasipoly, name)):
                built[name, tuple(p)] = built.get((name, tuple(p)), 0) + 1
                return real(p)

            monkeypatch.setattr(quasipoly, name, counting)
        assert run_properties(parts).passed
        assert built == {
            ("build_explicit", parts): 1,
            ("build_recursive", parts): 1,
            ("build_recursive", parts[:-1]): 1,
        }

    @pytest.mark.parametrize(
        "cert_parts, props", [((1, 2, 3), ["oracle"]), ((1, 2, 3), None), ((2, 1), None)]
    )
    def test_certificates_for_other_parts_rejected(self, cert_parts, props):
        certs = {label: build(cert_parts) for label, build in BUILDERS.items()}
        with pytest.raises(InputError, match="is for parts"):
            run_properties((1, 2), props=props, certs=certs)


def _period(parts, certs) -> int:
    """A common period of the certificates and the parts' own: scanning its
    classes covers every class of each master period."""
    return math.lcm(lcm_of(parts), *(cert.master_period for cert in certs.values()))


def _recurrence_direct(parts, certs) -> PropertyResult:
    """The recurrence check column by column on Fractions: the reference for
    the integer-table identities."""
    m = len(parts)
    if m == 1:
        return PropertyResult("recurrence", True, note="vacuous for a single part")
    dm = parts[-1]
    prevs = {label: BUILDERS[label](parts[:-1]) for label in certs}

    def column(cert, rho):
        return [fn.at_twice(rho) for fn in cert.coeffs]

    for rho in range(2 * _period(parts, certs)):
        for label, cert in certs.items():
            lhs = poly_sub(column(cert, rho), taylor_shift(column(cert, rho - 2 * dm), -dm))
            rhs = taylor_shift(column(prevs[label], rho - dm), Fraction(-dm, 2))
            for power, a, b in zip(range(m - 1, -1, -1), lhs, [0] + rhs):
                if a != b:
                    return PropertyResult(
                        "recurrence", False,
                        {"path": label, "s": str(HalfInt(rho)), "power": power,
                         "lhs": str(a), "rhs": str(b)},
                    )
    return PropertyResult("recurrence", True)


def _parity_direct(parts, certs) -> PropertyResult:
    """The parity check cell by cell on Fractions: the reference for the
    integer-table comparison. On the natural grid a cell must satisfy the
    symmetry law; off it, both cells at s and -s must be zero."""
    m = len(parts)
    sign = -1 if m % 2 == 0 else 1
    natural = sum(parts) % 2
    for rho in range(_period(parts, certs) + 1):
        on_grid = rho % 2 == natural
        for label, cert in certs.items():
            for j, fn in enumerate(cert.coeffs, 1):
                plus, minus = fn.at_twice(rho), fn.at_twice(-rho)
                broken = minus * (-1) ** (m - j) != sign * plus if on_grid else plus or minus
                if broken:
                    return PropertyResult(
                        "parity", False,
                        {"path": label, "s": str(HalfInt(rho)), "coefficient": j,
                         "R_j(-s)": str(minus), "R_j(s)": str(plus)},
                    )
    return PropertyResult("parity", True, note="off-grid values identically zero")


def _assert_identities_match_reference(parts, certs):
    report = run_properties(parts, props=["recurrence", "parity"], certs=certs)
    assert report.results == [_recurrence_direct(parts, certs), _parity_direct(parts, certs)]


class TestIntegerIdentities:
    def test_builder_certificates_match_reference(self):
        for parts in list(iter_multisets(4, 6)) + [(2, 3, 5, 7), (3, 1, 2)]:
            certs = {label: build(parts) for label, build in BUILDERS.items()}
            _assert_identities_match_reference(parts, certs)

    @pytest.mark.parametrize("parts", [(1, 2), (1, 2, 3), (3, 1, 2), (2, 3, 4), (2, 3, 5), (1, 1, 2, 3)])
    def test_tampered_certificates_match_reference(self, parts):
        good = {label: build(parts) for label, build in BUILDERS.items()}
        size = 2 * lcm_of(parts)
        failures = 0
        for index in range(len(parts)):
            for rho in (0, 1, 3, size // 2 + 1, size - 1):
                for delta in (Fraction(1), Fraction(-1, 3)):
                    for which in (("explicit",), ("recursive",), ("explicit", "recursive")):
                        certs = {
                            label: _tampered(cert, index, rho, delta) if label in which else cert
                            for label, cert in good.items()
                        }
                        report = run_properties(parts, props=["recurrence", "parity"], certs=certs)
                        assert report.results == [
                            _recurrence_direct(parts, certs), _parity_direct(parts, certs)
                        ]
                        failures += not report.passed
        assert failures  # the nudges are seen, not only matched

    def test_certificate_at_twice_the_period_matches_reference(self):
        parts = (1, 2, 3)
        doubled = build_explicit(parts).aligned(12)
        recursive = build_recursive(parts)
        _assert_identities_match_reference(parts, {"explicit": doubled, "recursive": recursive})
        # nudges above the first period, on and off the natural grid
        for rho, delta in ((18, Fraction(1)), (19, Fraction(1, 3)), (23, Fraction(-2))):
            broken = _tampered(doubled, 2, rho, delta)
            certs = {"explicit": broken, "recursive": recursive}
            _assert_identities_match_reference(parts, certs)
            assert not run_properties(parts, props=["recurrence"], certs=certs).passed

    def test_classes_above_the_first_period_are_checked(self):
        # the constant raised at 2s = 14 (mod 24): a class of the stored period
        # 12 beyond tau = 6, so only a scan of every stored class sees it
        parts = (1, 2, 3)
        broken = _tampered(build_explicit(parts).aligned(12), 2, 14)
        certs = {"explicit": broken, "recursive": build_recursive(parts)}
        _assert_identities_match_reference(parts, certs)
        recurrence, parity = run_properties(parts, props=["recurrence", "parity"], certs=certs).results
        assert (recurrence.passed, parity.passed) == (False, False)
        assert recurrence.counterexample["s"] == "7"
        assert parity.counterexample["s"] == "5"


def _oracle_direct(parts, certs, n_max) -> PropertyResult:
    """The oracle check on Fractions, QuasiPoly.count against count_dp: the
    reference for the integer Horner."""
    table = count_dp(parts, n_max)
    distinct = {}
    for label, cert in certs.items():
        if all(cert != seen for seen in distinct.values()):
            distinct[label] = cert
    for n in range(n_max + 1):
        for label, cert in distinct.items():
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


def _assert_oracle_matches_reference(parts, certs, n_max=None):
    report = run_properties(parts, props=["oracle"], n_max=n_max, certs=certs)
    want = _oracle_direct(parts, certs, default_n_max(parts) if n_max is None else n_max)
    assert report.results == [want]
    return want


class TestIntegerOracle:
    def test_builder_certificates_match_reference(self):
        for parts in list(iter_multisets(4, 6)) + [(2, 3, 5, 7)]:
            certs = {label: build(parts) for label, build in BUILDERS.items()}
            assert _assert_oracle_matches_reference(parts, certs).passed

    @pytest.mark.parametrize("parts", [(4,), (1, 2), (2, 3, 4), (3, 1, 2), (1, 1, 2, 3), (2, 3, 5, 7)])
    def test_tampered_certificates_match_reference(self, parts):
        good = {label: build(parts) for label, build in BUILDERS.items()}
        size = 2 * lcm_of(parts)
        deltas = itertools.cycle((Fraction(1), Fraction(1, 3), Fraction(-2), Fraction(-2, 7)))
        seen = set()
        for index in range(len(parts)):
            for rho in (0, 1, 3, size // 2 + 1, size - 1):
                for which in (("explicit",), ("recursive",), ("explicit", "recursive")):
                    delta = next(deltas)
                    certs = {
                        label: _tampered(cert, index, rho % size, delta) if label in which else cert
                        for label, cert in good.items()
                    }
                    result = _assert_oracle_matches_reference(parts, certs)
                    if not result.passed:
                        seen.add("not an integer" in result.counterexample["actual"])
        assert seen == {False, True}  # both kinds of failure are seen, not only matched

    def test_short_range_and_stored_period_match_reference(self):
        parts = (1, 2, 3)
        doubled = build_explicit(parts).aligned(12)
        for rho, delta in ((14, Fraction(1)), (19, Fraction(1)), (22, Fraction(-1, 3))):
            certs = {"explicit": _tampered(doubled, 2, rho, delta), "recursive": build_recursive(parts)}
            for n_max in (0, 5, None):
                _assert_oracle_matches_reference(parts, certs, n_max)


class TestOracleCounts:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Every n the oracle evaluates, through its per-point integer counts."""
        seen = []
        scaled_counts = verify._scaled_counts

        def counting(tables, t):
            for n, value in enumerate(scaled_counts(tables, t)):
                seen.append(n)
                yield value

        monkeypatch.setattr(verify, "_scaled_counts", counting)
        return seen

    # points each property evaluates on one certificate of (1, 2, 3): the
    # oracle's n = 0..n_max and the one forced zero at 2s = 1
    POINTS = {"oracle": default_n_max((1, 2, 3)) + 1, "zeros": 1}

    def test_equal_certificates_counted_once(self, calls):
        parts = (1, 2, 3)
        for prop, points in self.POINTS.items():
            calls.clear()
            report = run_properties(parts, props=[prop])
            assert report.passed
            assert len(calls) == points, prop

    def test_distinct_valid_certificates_both_counted(self, calls):
        parts = (1, 2, 3)
        certs = {"explicit": build_explicit(parts).aligned(12), "recursive": build_recursive(parts)}
        for prop, points in self.POINTS.items():
            calls.clear()
            assert run_properties(parts, props=[prop], certs=certs).passed
            assert len(calls) == 2 * points, prop

    # +1 on the constant at 2s = 8 (mod 12) breaks n = 1, 7, 13, ...
    def _oracle(self, order, tampered):
        parts = (1, 2, 3)
        good = {label: BUILDERS[label](parts) for label in order}
        certs = {
            label: _tampered(cert, 2, 8) if label in tampered else cert
            for label, cert in good.items()
        }
        return run_properties(parts, props=["oracle"], certs=certs).results[0]

    def test_only_recursive_tampered(self):
        result = self._oracle(("explicit", "recursive"), ("recursive",))
        assert result.counterexample == {"path": "recursive", "n": 1, "expected": "1", "actual": "2"}

    def test_both_tampered_alike(self, calls):
        result = self._oracle(("explicit", "recursive"), ("explicit", "recursive"))
        assert result.counterexample == {"path": "explicit", "n": 1, "expected": "1", "actual": "2"}
        assert calls == [0, 1]

    def test_recursive_first_order(self):
        assert self._oracle(("recursive", "explicit"), ()).passed
        result = self._oracle(("recursive", "explicit"), ("explicit", "recursive"))
        assert result.counterexample == {"path": "recursive", "n": 1, "expected": "1", "actual": "2"}
        result = self._oracle(("recursive", "explicit"), ("explicit",))
        assert result.counterexample == {"path": "explicit", "n": 1, "expected": "1", "actual": "2"}


def _zeros_direct(parts, certs) -> PropertyResult:
    """The zeros check on Fractions, through QuasiPoly.value: the reference for
    the integer Horner. The forced zeros sit at 2s = t = m mod 2, ..., m - 2."""
    m = len(parts)
    if m == 1:
        return PropertyResult("zeros", True, note="no forced zeros at this order")
    for t in range(m % 2, m - 1, 2):
        for label, cert in certs.items():
            v = cert.value(HalfInt(t))
            if v:
                return PropertyResult(
                    "zeros", False, {"path": label, "s": str(HalfInt(t)), "value": str(v)}
                )
    return PropertyResult("zeros", True)


class TestIntegerZeros:
    def test_builder_certificates_match_reference(self):
        for parts in list(iter_multisets(4, 6)) + [(2, 3, 5, 7), (1, 1, 2, 2, 3)]:
            certs = {label: build(parts) for label, build in BUILDERS.items()}
            assert run_properties(parts, props=["zeros"], certs=certs).results == [
                _zeros_direct(parts, certs)
            ]

    @pytest.mark.parametrize("parts", [(1, 2), (1, 2, 3), (2, 3, 4), (1, 1, 2, 3), (2, 1, 2, 1, 3)])
    def test_tampered_certificates_match_reference(self, parts):
        good = {label: build(parts) for label, build in BUILDERS.items()}
        good["explicit"] = good["explicit"].aligned(2 * lcm_of(parts))
        failures = 0
        for index in range(len(parts)):
            for rho in range(4):
                for which in (("explicit",), ("recursive",), ("explicit", "recursive")):
                    certs = {
                        label: _tampered(cert, index, rho, Fraction(-2, 7)) if label in which else cert
                        for label, cert in good.items()
                    }
                    report = run_properties(parts, props=["zeros"], certs=certs)
                    assert report.results == [_zeros_direct(parts, certs)]
                    failures += not report.passed
        assert failures  # the nudges are seen, not only matched

    @pytest.mark.parametrize("props", [["zeros"], None])
    @pytest.mark.parametrize("parts", [(1, 2), (1, 2, 3), (2, 3, 5, 7), (1, 1, 2, 2, 3), (4,)])
    def test_reads_each_certificate_once(self, monkeypatch, parts, props):
        # run_properties reads each certificate once, before any check, and
        # every check shares that view (the recurrence's one prefix aside)
        certs = {label: build(parts) for label, build in BUILDERS.items()}
        reads = []
        numerator_tables = QuasiPoly.numerator_tables

        def recording(self, period=None):
            if self.parts == parts:
                reads.append((id(self), period))
            return numerator_tables(self, period)

        monkeypatch.setattr(QuasiPoly, "numerator_tables", recording)
        assert run_properties(parts, props=props, certs=certs).passed
        assert sorted(reads) == sorted((id(cert), None) for cert in certs.values())

    def test_verify_reads_no_values(self, monkeypatch):
        # a passing run reads integer tables only; QuasiPoly.value is left to
        # the wording of an oracle failure
        certs = {
            parts: {label: build(parts) for label, build in BUILDERS.items()}
            for parts in [(1, 2, 3), (2, 3, 5, 7), (1, 1, 2, 2, 3)]
        }

        def refuse(self, s):
            raise AssertionError("QuasiPoly.value called")

        monkeypatch.setattr(QuasiPoly, "value", refuse)
        for parts, built in certs.items():
            assert run_properties(parts, certs=built).passed, parts


def _path_agreement_direct(parts, certs) -> PropertyResult:
    """The path-agreement check column by column on Fractions, at the lcm of
    the two master periods: the reference for the integer views."""
    a, b = certs["explicit"], certs["recursive"]
    for rho in range(2 * math.lcm(a.master_period, b.master_period)):
        for j, (fa, fb) in enumerate(zip(a.coeffs, b.coeffs), 1):
            if fa.at_twice(rho) != fb.at_twice(rho):
                return PropertyResult(
                    "path-agreement", False,
                    {"s": str(HalfInt(rho)), "coefficient": j,
                     "explicit": str(fa.at_twice(rho)), "recursive": str(fb.at_twice(rho))},
                )
    return PropertyResult("path-agreement", True)


class TestPathAgreement:
    @pytest.mark.parametrize(
        "parts", [(1, 2), (1, 2, 3), (2, 3, 4), (1, 1, 2, 3), (2, 1, 2, 1, 3), (2, 3, 5, 7)]
    )
    def test_tampered_certificates_match_reference(self, parts):
        tau = lcm_of(parts)
        built = {label: build(parts) for label, build in BUILDERS.items()}
        # one certificate stored at 2 tau, the other at tau, and both at tau
        layouts = [built, {**built, "explicit": built["explicit"].aligned(2 * tau)}]
        deltas = itertools.cycle((Fraction(1), Fraction(-1, 3), Fraction(2, 7)))
        failures = 0
        for good in layouts:
            assert run_properties(parts, props=["path-agreement"], certs=good).results == [
                _path_agreement_direct(parts, good)
            ]
            for index in range(len(parts)):
                for rho in (0, 1, 3, tau + 1, 2 * tau - 1):
                    for which in (("explicit",), ("recursive",), ("explicit", "recursive")):
                        delta = next(deltas)
                        certs = {
                            label: _tampered(cert, index, rho, delta) if label in which else cert
                            for label, cert in good.items()
                        }
                        report = run_properties(parts, props=["path-agreement"], certs=certs)
                        assert report.results == [_path_agreement_direct(parts, certs)]
                        failures += not report.passed
        assert failures  # the nudges are seen, not only matched
