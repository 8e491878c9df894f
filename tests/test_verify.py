"""The property harness itself: detection power and minimality of counterexamples."""

import itertools
import json
import math
import re
from fractions import Fraction

import pytest

from denumerant import (
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
from helpers import at_twice, full_json, poly_sub, taylor_shift, tiled_json, tiled_values


def _tampered(cert: QuasiPoly, coeff_index: int, rho: int, delta=Fraction(1)) -> QuasiPoly | None:
    """Copy of a certificate with one entry of its tables at the master period
    nudged, rho < 2 * master_period: the coefficient's table is tiled here to
    the master period first, so the nudge reaches one class of it whatever
    period the coefficient is stored at. A nudge off the class 2s = sum(parts)
    mod 2 is no certificate of its parts: the constructor refuses it, as
    asserted here, and None is returned, so no check ever sees one."""
    fns = list(cert.coeffs)
    vals = tiled_values(fns[coeff_index], cert.master_period)
    vals[rho] += delta
    fns[coeff_index] = PeriodicFn(cert.master_period, vals)
    if (rho - sum(cert.parts)) % 2:
        with pytest.raises(InputError, match=f"coefficient of {re.escape(str(cert.parts))} has a nonzero cell"):
            QuasiPoly(cert.parts, tuple(fns), cert.master_period)
        return None
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

    def test_iterator_props_read_once(self):
        # the validation pass must not exhaust a one-shot iterable
        report = run_properties((1, 2), props=iter(["oracle"]))
        assert [r.name for r in report.results] == ["oracle"]
        assert report.passed
        with pytest.raises(InputError, match="no properties requested"):
            run_properties((1, 2), props=iter([]))

    @pytest.mark.parametrize("props", ["oracle", "zeros", ""])
    def test_bare_string_props_rejected(self, props):
        # a string is a sequence of letters, not of property names
        with pytest.raises(InputError, match="not the string"):
            run_properties((1, 2), props=props)
        assert [r.name for r in run_properties((1, 2), props=["oracle"]).results] == ["oracle"]

    @pytest.mark.parametrize("bad", [1, "cert", None, build_explicit((1, 2)).coeffs[0]])
    @pytest.mark.parametrize("label", ["explicit", "recursive"])
    def test_non_certificate_rejected(self, label, bad):
        parts = (1, 2)
        certs = {name: build(parts) for name, build in BUILDERS.items()}
        certs[label] = bad
        with pytest.raises(InputError, match=f"certificate '{label}' must be a QuasiPoly"):
            run_properties(parts, certs=certs)

    def test_first_non_certificate_named(self):
        with pytest.raises(InputError, match="certificate 'explicit' must be a QuasiPoly, got 1"):
            run_properties((1, 2), certs={"explicit": 1, "recursive": 2})

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

    @pytest.mark.parametrize("n_max", ["5", 5.0, True, False, -1])
    @pytest.mark.parametrize("props", [None, ["parity"]])
    def test_bad_n_max_refused_before_any_build(self, monkeypatch, n_max, props):
        def unbuilt(parts):
            raise AssertionError("a certificate was built")

        for name in ("build_explicit", "build_recursive", "_recursive_pass"):
            monkeypatch.setattr(quasipoly, name, unbuilt)
        with pytest.raises(InputError, match=r"^n_max must be a nonnegative integer, got "):
            run_properties((1, 2), props=props, n_max=n_max)

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
        assert cex["R_j(s)"] == str(at_twice(good.coeffs[1], 4))
        assert cex["R_j(-s)"] == str(at_twice(good.coeffs[1], 8) + 1)

    def test_parity_off_grid_failure(self):
        # (1, 2, 3) sums to 6, so 2s = 3 is off the natural grid: a nonzero
        # cell there, even one whose cells at s and -s are equal, which keeps
        # the symmetry law, is refused when the certificate is built or read
        # from a file, naming the smallest such residue, so parity's note
        # holds for every certificate it sees
        parts = (1, 2, 3)
        good = build_explicit(parts)
        fn = good.coeffs[0]
        assert fn.period == 1
        # the residue is named modulo the table as given, at period 6 and in
        # the tiled file alike, though 2s = 3 and 9 raised alike is period 3
        for residues, where in (((9,), "9 (mod 12)"), ((9, 3), "3 (mod 12)")):
            vals = tiled_values(fn, 6)
            for rho in residues:
                vals[rho] += 1
            coeffs = (PeriodicFn(6, vals),) + good.coeffs[1:]
            message = re.escape(
                f"the power 2 coefficient of (1, 2, 3) has a nonzero cell at residue "
                f"2s = {where}, off its class 2s = 0 mod 2"
            )
            with pytest.raises(InputError, match=message):
                QuasiPoly(parts, coeffs)
            raw = json.loads(tiled_json(full_json(good.to_json())))
            for rho in residues:
                raw["coefficients"][0]["values"][str(rho)] = "1"
            with pytest.raises(InputError, match=message):
                QuasiPoly.from_json(json.dumps(raw))
        assert run_properties(parts, props=["parity"]).results[0].note == "off-grid values identically zero"

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


class TestTieAcrossViews:
    """Two unequal certificates that fail a property at the same least key:
    each is nudged at the same cell by its own delta, so the views stay
    distinct, and the counterexample names the first label in certs order."""

    PROPS = ["oracle", "recurrence", "parity", "zeros", "mean-value"]
    # where a counterexample is, apart from its path and the values there
    WHERE = ("n", "s", "power", "coefficient")

    @pytest.mark.parametrize("parts", [(3, 1), (1, 2, 3, 2)])
    def test_first_label_wins_a_tie(self, parts):
        # R_m at 2s = 0: on the natural grid (sum(parts) even), a forced
        # zero (m even), and R_m(0) = -R_m(0) for even m; d_m < tau, so the
        # nudge is not d_m-periodic and the recurrence sees it. All five
        # properties fail there on both certificates
        good = {label: build(parts) for label, build in BUILDERS.items()}
        deltas = {"explicit": Fraction(1), "recursive": Fraction(-1, 3)}
        bad = {label: _tampered(cert, len(parts) - 1, 0, deltas[label]) for label, cert in good.items()}
        assert bad["explicit"] != bad["recursive"]
        where = {}
        for label, cert in bad.items():
            alone = run_properties(parts, props=self.PROPS, certs=dict.fromkeys(BUILDERS, cert))
            assert not any(r.passed for r in alone.results)
            where[label] = [
                {k: r.counterexample[k] for k in self.WHERE if k in r.counterexample}
                for r in alone.results
            ]
        assert where["explicit"] == where["recursive"]
        for order in (list(BUILDERS), list(BUILDERS)[::-1]):
            report = run_properties(parts, props=self.PROPS, certs={label: bad[label] for label in order})
            assert [r.name for r in report.results] == self.PROPS
            for r, at in zip(report.results, where["explicit"]):
                assert r.counterexample["path"] == order[0], r.name
                assert {k: r.counterexample[k] for k in at} == at


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
        # route's, against which the explicit certificate is checked too. The
        # recursive certificate and its prefix come from one pass, so no
        # build_recursive call is made
        built = {}
        for name in ("build_explicit", "build_recursive", "_recursive_pass"):
            def counting(p, name=name, real=getattr(quasipoly, name)):
                built[name, tuple(p)] = built.get((name, tuple(p)), 0) + 1
                return real(p)

            monkeypatch.setattr(quasipoly, name, counting)
        assert run_properties(parts).passed
        assert built == {("build_explicit", parts): 1, ("_recursive_pass", parts): 1}

    @pytest.mark.parametrize("parts", [(1, 2), (3, 1, 2), (2, 3, 5, 7), (1, 1, 2, 2, 3), (5, 7, 9)])
    def test_default_run_fills_no_certificate(self, monkeypatch, parts):
        # a passing default run reads the explicit and recursive certificates
        # and the recurrence's prefix as natural views and fills none of
        # them: QuasiPoly._store is never called, and all three still hold
        # their pieces afterwards
        made, stores = [], []
        build_explicit, recursive_pass, store = quasipoly.build_explicit, quasipoly._recursive_pass, QuasiPoly._store

        def explicit(p):
            made.append(build_explicit(p))
            return made[-1]

        def one_pass(p):
            prefix, cert = recursive_pass(p)
            made.extend((prefix, cert))
            return prefix, cert

        def storing(self):
            stores.append(self)
            return store(self)

        monkeypatch.setattr(quasipoly, "build_explicit", explicit)
        monkeypatch.setattr(quasipoly, "_recursive_pass", one_pass)
        monkeypatch.setattr(QuasiPoly, "_store", storing)
        assert run_properties(parts).passed
        assert stores == []
        assert len(made) == 3 and all(cert._pieces is not None for cert in made)

    @pytest.mark.parametrize("parts", [(1, 2), (3, 1, 2), (2, 3, 5, 7), (1, 1, 2, 2, 3)])
    def test_one_recursive_pass_per_call(self, monkeypatch, parts):
        # the default path's prefix is level m-1 of the recursive
        # certificate's own pass: m steps per call, not m + (m-1). With
        # injected certificates the prefix is built, in m-1 steps. Nothing is
        # kept from one call to the next.
        steps = []

        def counting(pieces, p, *rest, real=quasipoly._extend_pieces):
            steps.append(p)
            return real(pieces, p, *rest)

        monkeypatch.setattr(quasipoly, "_extend_pieces", counting)
        m = len(parts)
        assert run_properties(parts).passed
        assert steps == [parts[:k] for k in range(1, m + 1)]
        assert run_properties(parts).passed
        assert len(steps) == 2 * m
        certs = {label: build(parts) for label, build in BUILDERS.items()}
        steps.clear()
        assert run_properties(parts, certs=certs).passed
        assert steps == [parts[:k] for k in range(1, m)]

    def test_levels_cleared_when_a_build_raises(self, monkeypatch):
        # a call whose pass raises after its first level leaves nothing
        # behind: the next call still takes its m steps
        steps = []

        def counting(pieces, p, *rest, real=quasipoly._extend_pieces):
            steps.append(p)
            return real(pieces, p, *rest)

        def failing(pieces, p, *rest, real=quasipoly._extend_pieces):
            if len(p) == 2:
                raise RuntimeError("build failed")
            return real(pieces, p, *rest)

        monkeypatch.setattr(quasipoly, "_extend_pieces", failing)
        with pytest.raises(RuntimeError, match="build failed"):
            run_properties((1, 2, 3))
        monkeypatch.setattr(quasipoly, "_extend_pieces", counting)
        assert run_properties((1, 2, 3)).passed
        assert steps == [(1,), (1, 2), (1, 2, 3)]

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
    # coeffs builds its PeriodicFns on each read, so each certificate's are read once
    fns = {label: cert.coeffs for label, cert in certs.items()}
    prevs = {label: BUILDERS[label](parts[:-1]).coeffs for label in certs}

    def column(coeffs, rho):
        return [at_twice(fn, rho) for fn in coeffs]

    for rho in range(2 * _period(parts, certs)):
        for label, coeffs in fns.items():
            lhs = poly_sub(column(coeffs, rho), taylor_shift(column(coeffs, rho - 2 * dm), -dm))
            rhs = taylor_shift(column(prevs[label], rho - dm), Fraction(-dm, 2))
            for power, a, b in zip(range(m - 1, -1, -1), lhs, [0] + rhs):
                if a != b:
                    return PropertyResult(
                        "recurrence", False,
                        {"path": label, "s": str(Fraction(rho, 2)), "power": power,
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
    fns = {label: cert.coeffs for label, cert in certs.items()}
    for rho in range(_period(parts, certs) + 1):
        on_grid = rho % 2 == natural
        for label, coeffs in fns.items():
            for j, fn in enumerate(coeffs, 1):
                plus, minus = at_twice(fn, rho), at_twice(fn, -rho)
                broken = minus * (-1) ** (m - j) != sign * plus if on_grid else plus or minus
                if broken:
                    return PropertyResult(
                        "parity", False,
                        {"path": label, "s": str(Fraction(rho, 2)), "coefficient": j,
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
                        if None in certs.values():  # off the class: refused
                            continue
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
        # nudges above the first period, on the natural grid; off it they are
        # refused when the certificate is built
        for rho, delta in ((18, Fraction(1)), (19, Fraction(1, 3)), (22, Fraction(1, 3)), (23, Fraction(-2))):
            broken = _tampered(doubled, 2, rho, delta)
            if broken is None:
                continue
            certs = {"explicit": broken, "recursive": recursive}
            _assert_identities_match_reference(parts, certs)
            assert not run_properties(parts, props=["recurrence"], certs=certs).passed

    @pytest.mark.parametrize("parts", [(1,), (1, 1), (1, 2), (2, 3), (1, 2, 3), (2, 3, 4), (1, 1, 2, 3)])
    def test_views_at_different_periods_match_reference(self, parts):
        # one view at 2 tau or 3 tau next to the other at tau, clean and with
        # one cell nudged above the first period of either view
        tau = lcm_of(parts)
        for factor in (2, 3):
            for long_label in BUILDERS:
                built = {label: build(parts) for label, build in BUILDERS.items()}
                built[long_label] = built[long_label].aligned(factor * tau)
                _assert_identities_match_reference(parts, built)
                failures = 0
                for label, cert in built.items():
                    size = 2 * cert.master_period
                    for rho in (size - 1, size - 2, (size // 2 + 1) % size, (size // 2 + 2) % size):
                        certs = {**built, label: _tampered(cert, len(parts) - 1, rho, Fraction(-1, 3))}
                        if None in certs.values():  # off the class: refused
                            continue
                        _assert_identities_match_reference(parts, certs)
                        failures += not run_properties(parts, props=["recurrence"], certs=certs).passed
                # the nudges are seen, not only matched; one part has no recurrence
                assert failures or len(parts) == 1

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
                    if None in certs.values():  # off the class: refused
                        continue
                    result = _assert_oracle_matches_reference(parts, certs)
                    if not result.passed:
                        seen.add("not an integer" in result.counterexample["actual"])
        assert seen == {False, True}  # both kinds of failure are seen, not only matched

    def test_short_range_and_stored_period_match_reference(self):
        parts = (1, 2, 3)
        doubled = build_explicit(parts).aligned(12)
        for rho, delta in ((14, Fraction(1)), (19, Fraction(1)), (22, Fraction(-1, 3))):
            certs = {"explicit": _tampered(doubled, 2, rho, delta), "recursive": build_recursive(parts)}
            if certs["explicit"] is None:  # off the class: refused
                continue
            for n_max in (0, 5, None):
                _assert_oracle_matches_reference(parts, certs, n_max)

    @pytest.mark.parametrize("parts", [(1,), (1, 1), (1, 2), (2, 3), (1, 2, 3), (2, 3, 4), (1, 1, 2, 3)])
    def test_views_at_different_periods_match_reference(self, parts):
        # the blocks of n are as long as the lcm of the view periods, so every
        # view is compared over the same n; the smallest failing n is
        # reported, ties going to the earlier view
        tau = lcm_of(parts)
        for factor in (2, 3):
            for long_label in BUILDERS:
                built = {label: build(parts) for label, build in BUILDERS.items()}
                built[long_label] = built[long_label].aligned(factor * tau)
                for n_max in (0, factor * tau - 1, factor * tau, None):
                    assert _assert_oracle_matches_reference(parts, built, n_max).passed
                failures = 0
                for rho in range(2 * factor * tau):
                    for which in (("explicit",), ("recursive",), ("explicit", "recursive")):
                        certs = {
                            label: _tampered(cert, len(parts) - 1, rho % (2 * cert.master_period))
                            if label in which else cert
                            for label, cert in built.items()
                        }
                        if None in certs.values():  # off the class: refused
                            continue
                        failures += not _assert_oracle_matches_reference(parts, certs).passed
                assert failures  # the nudges are seen, not only matched


    @pytest.mark.parametrize("parts", [(4,), (5,), (6,), (7,)])
    def test_one_part_short_range_matches_reference(self, parts):
        # n_max + 1 below the period P = d, and past P / 2, makes a scan that
        # wraps around the table once without covering it; a single part has
        # no Horner pass to cut a block, so the evaluator alone must give it
        # exactly n_max + 1 values
        (d,) = parts
        good = {label: build(parts) for label, build in BUILDERS.items()}
        for n_max in range(2 * d + 1):
            assert _assert_oracle_matches_reference(parts, good, n_max).passed
            for label in BUILDERS:
                for rho in range(2 * good[label].master_period):
                    certs = dict(good, **{label: _tampered(good[label], 0, rho)})
                    if certs[label] is not None:  # None off the class: refused
                        _assert_oracle_matches_reference(parts, certs, n_max)


class TestOracleCounts:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Every point each view is evaluated at, as the index n of the point
        from the start of its scan, through the block evaluator."""
        seen = []
        scaled_blocks = verify._scaled_blocks

        def counting(tables, t, stop, block):
            n = 0
            for values in scaled_blocks(tables, t, stop, block):
                seen.extend(range(n, n + len(values)))
                n += len(values)
                yield values

        monkeypatch.setattr(verify, "_scaled_blocks", counting)
        return seen

    # points each property evaluates on one certificate of (1, 2, 4): the
    # oracle's n = 0..n_max and the one forced zero at 2s = 1, on the class
    # sum(parts) mod 2 (that of (1, 2, 3) is off it, and evaluated at none)
    POINTS = {"oracle": default_n_max((1, 2, 4)) + 1, "zeros": 1}

    def test_equal_certificates_counted_once(self, calls):
        # built here, and injected as one certificate read from a file tiled
        # to the master period next to its equal built one
        parts = (1, 2, 4)
        built = build_explicit(parts)
        assert any(fn.period < built.master_period for fn in built.coeffs)
        read = QuasiPoly.from_json(tiled_json(full_json(built.to_json())))
        mixed = {"explicit": read, "recursive": build_recursive(parts)}
        for certs in (None, mixed):
            for prop, points in self.POINTS.items():
                calls.clear()
                report = run_properties(parts, props=[prop], certs=certs)
                assert report.passed
                assert len(calls) == points, prop

    def test_distinct_valid_certificates_both_counted(self, calls):
        # two certificates that differ only at 2s = 5 (mod 8), the class of
        # n = 3 (mod 4) and of no forced zero: both pass the oracle up to
        # n = 2 and the zeros, and each is scanned. A certificate aligned to
        # another master period is the same function, one view, scanned once
        parts = (1, 2, 4)
        certs = {"explicit": build_explicit(parts), "recursive": _tampered(build_recursive(parts), 2, 5)}
        aligned = {"explicit": build_explicit(parts).aligned(8), "recursive": build_recursive(parts)}
        for prop, points in {"oracle": 3, "zeros": 1}.items():
            for pair, views in ((certs, 2), (aligned, 1)):
                calls.clear()
                assert run_properties(parts, props=[prop], n_max=2, certs=pair).passed
                assert len(calls) == views * points, prop
        assert not run_properties(parts, props=["oracle"], n_max=3, certs=certs).passed

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
        # one view, evaluated up to the end of the first block that fails:
        # n = 0..5, one block of the lcm of the column periods, tau = 6 of (1, 2, 3)
        assert calls == list(range(6))

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
            v = cert.value(Fraction(t, 2))
            if v:
                return PropertyResult(
                    "zeros", False, {"path": label, "s": str(Fraction(t, 2)), "value": str(v)}
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
                    if None in certs.values():  # off the class: refused
                        continue
                    report = run_properties(parts, props=["zeros"], certs=certs)
                    assert report.results == [_zeros_direct(parts, certs)]
                    failures += not report.passed
        # the nudges are seen, not only matched, where the forced zeros lie on
        # the class sum(parts) mod 2; off it they are 0 by representation
        assert failures or (len(parts) - sum(parts)) % 2

    @pytest.mark.parametrize("props", [["zeros"], None])
    @pytest.mark.parametrize("parts", [(1, 2), (1, 2, 3), (2, 3, 5, 7), (1, 1, 2, 2, 3), (4,)])
    def test_reads_each_certificate_once(self, monkeypatch, parts, props):
        # run_properties reads each certificate once, before any check,
        # without filling it, and keeps the distinct views, which every check
        # shares (the recurrence's one prefix aside). The two built
        # certificates are equal; the explicit one aligned to twice its
        # master period is not equal to the recursive one, but it is the same
        # function, so each pair gives one view
        def fresh():
            return {label: build(parts) for label, build in BUILDERS.items()}

        built = fresh()
        aligned = {**built, "explicit": built["explicit"].aligned(2 * lcm_of(parts))}
        assert built["explicit"] == built["recursive"] != aligned["explicit"]
        reads, scanned = [], []
        numerator_tables, check_zeros = QuasiPoly.numerator_tables, verify._check_zeros

        def recording(self):
            if self.parts == parts:
                reads.append(id(self))
            return numerator_tables(self)

        def scanning(parts, views):
            scanned.append(len(views))
            return check_zeros(parts, views)

        monkeypatch.setattr(QuasiPoly, "numerator_tables", recording)
        monkeypatch.setitem(verify._CHECKS, "zeros", scanning)
        for certs in (fresh(), {**fresh(), "explicit": build_explicit(parts).aligned(2 * lcm_of(parts))}):
            reads.clear()
            scanned.clear()
            assert run_properties(parts, props=props, certs=certs).passed
            assert reads == [id(certs[label]) for label in BUILDERS]
            assert scanned == [1]
            assert certs["recursive"]._pieces is not None

    def test_verify_reads_no_values(self, monkeypatch):
        # a passing run reads integer tables only; the wording of an oracle
        # failure calls QuasiPoly.count, and nothing calls QuasiPoly.value
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
    pairs = list(enumerate(zip(a.coeffs, b.coeffs), 1))
    for rho in range(2 * math.lcm(a.master_period, b.master_period)):
        for j, (fa, fb) in pairs:
            if at_twice(fa, rho) != at_twice(fb, rho):
                return PropertyResult(
                    "path-agreement", False,
                    {"s": str(Fraction(rho, 2)), "coefficient": j,
                     "explicit": str(at_twice(fa, rho)), "recursive": str(at_twice(fb, rho))},
                )
    return PropertyResult("path-agreement", True)


class TestPathAgreement:
    @pytest.mark.parametrize(
        "parts", [(1, 2), (1, 2, 3), (2, 3, 4), (1, 1, 2, 3), (2, 1, 2, 1, 3), (2, 3, 5, 7)]
    )
    def test_tampered_certificates_match_reference(self, parts):
        tau = lcm_of(parts)
        built = {label: build(parts) for label, build in BUILDERS.items()}
        # one certificate at master period 2 tau, the other at tau, and both at tau
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
                        if None in certs.values():  # off the class: refused
                            continue
                        report = run_properties(parts, props=["path-agreement"], certs=certs)
                        assert report.results == [_path_agreement_direct(parts, certs)]
                        failures += not report.passed
        assert failures  # the nudges are seen, not only matched


def _least_period_brute(col: list[int]) -> int:
    """The smallest divisor p of len(col) with col equal to its first p cells
    repeated, tried over every divisor in increasing order."""
    size = len(col)
    return next(p for p in range(1, size + 1) if size % p == 0 and col == col[:p] * (size // p))


def _tiled_tables(cert: QuasiPoly, period: int) -> list[list[int]]:
    """The certificate's numerator_tables, each repeated here to 2 * period
    cells, for a multiple period of its master period."""
    return [col * (2 * period // len(col)) for col in cert.numerator_tables()[1]]


class TestOwnPeriods:
    """quasipoly._least_length, the one least-period cut, on columns tiled in
    the test to the master period or beyond, so every cut starts from a
    column longer than its least period wherever that period is short."""

    def _assert_cut(self, tables):
        cut = [quasipoly._least_length(col) for col in tables]
        assert cut == [_least_period_brute(col) for col in tables]
        assert all(col == col[:p] * (len(col) // p) for col, p in zip(tables, cut))

    def test_builder_tables(self):
        for parts in list(iter_multisets(4, 6)) + [(2, 3, 5, 7), (5, 7, 9), (1, 2, 3, 4, 5, 6)]:
            for build in BUILDERS.values():
                cert = build(parts)
                self._assert_cut(_tiled_tables(cert, cert.master_period))

    def test_aligned_and_tampered_tables(self):
        for parts in [(1,), (1, 1), (1, 2, 3), (2, 3, 4), (2, 2, 3, 3), (5, 6, 7)]:
            tau = lcm_of(parts)
            for factor in (1, 2, 3, 4):
                tables = _tiled_tables(build_explicit(parts), factor * tau)
                self._assert_cut(tables)
                size = len(tables[0])
                for rho in {0, 1, size // 2, size - 1}:
                    for j in range(len(tables)):
                        tampered = [list(col) for col in tables]
                        tampered[j][rho] += 1
                        self._assert_cut(tampered)

    @pytest.mark.parametrize("size", [8, 9, 12, 16, 18, 27, 36, 60])
    def test_periods_with_repeated_primes(self, size):
        # every divisor of the length as the true period, and a one-cell break
        # of each, which leaves the full length
        for p in (p for p in range(1, size + 1) if size % p == 0):
            base = [(7 * r * r + 3) % 11 for r in range(p)]
            if p > 1 and len(set(base)) == 1:
                base[-1] += 1
            col = base * (size // p)
            self._assert_cut([col, [0] * size, [5] * size])
            broken = list(col)
            broken[size - 1] += 1
            self._assert_cut([broken])

    def test_period_47027(self):
        # (31, 37, 41): tau = 47027, tiled here to 2 tau = 94054 = 2 * 31 * 37 * 41 cells
        parts = (31, 37, 41)
        cert = build_recursive(parts)
        tables = _tiled_tables(cert, cert.master_period)
        assert len(tables[0]) == 94054
        self._assert_cut(tables)
        tampered = [list(col) for col in tables]
        tampered[0][94053] += 1
        self._assert_cut(tampered[:1])


class TestScaledBlocks:
    """The block evaluator against QuasiPoly.count at every n <= default_n_max."""

    @pytest.mark.parametrize("parts", [(1,), (6,), (1, 1, 1), (1, 2, 3), (3, 4, 5), (2, 3, 5, 7)])
    def test_matches_count(self, parts):
        m = len(parts)
        tau = lcm_of(parts)
        assert tau in (1, 6, 60, 210)
        n_max = default_n_max(parts)
        for cert in (build_explicit(parts), build_recursive(parts).aligned(2 * tau)):
            den, tables = cert.numerator_tables()
            want = [(cert.count(n) * den) << (m - 1) for n in range(n_max + 1)]
            period = cert.master_period
            # stop both on a block boundary and off it, for blocks of one and
            # of several master periods
            for block in (period, 3 * period):
                for stop in (n_max + 1, block * (n_max // block), block * (n_max // block) + 1, 1):
                    if stop == 0:
                        continue
                    blocks = list(verify._scaled_blocks(tables, sum(parts), stop, block))
                    assert [len(b) for b in blocks[:-1]] == [block] * (len(blocks) - 1)
                    assert 0 < len(blocks[-1]) <= block
                    assert [v for b in blocks for v in b] == want[:stop], (block, stop)

    @pytest.mark.parametrize("parts", [(4,), (5,), (7,), (2, 5), (3, 4, 5)])
    def test_scan_between_half_and_one_period(self, parts):
        # P / 2 < stop < P: the scan wraps past the end of the table without
        # covering it, and every block holds exactly its share of the stop
        # values, for one part as for several, from starts t on the class
        # sum(parts) mod 2, the only ones the checks pass
        m = len(parts)
        cert = build_explicit(parts)
        den, tables = cert.numerator_tables()
        period = cert.master_period
        for t in (sum(parts), sum(parts) + 2, 2 * period - 2 + sum(parts) % 2):
            for stop in range(period // 2 + 1, period):
                for block in (stop, period, 2 * period):
                    blocks = list(verify._scaled_blocks(tables, t, stop, block))
                    assert [len(b) for b in blocks] == [stop], (t, stop, block)
                    want = [cert.value(Fraction(t + 2 * k, 2)) * (den << (m - 1)) for k in range(stop)]
                    assert blocks[0] == want, (t, stop, block)

    @pytest.mark.parametrize("parts", [(1, 1, 1), (1, 2, 3), (2, 3, 5, 7), (1, 1, 2, 2, 3)])
    def test_short_scan_at_any_start(self, parts):
        # a scan shorter than the period, from any t on the class sum(parts)
        # mod 2, as zeros makes it: the values 2^(m-1) den V(t/2) at t, t + 2,
        # ...; zeros makes none off the class, where V is 0
        m = len(parts)
        cert = build_explicit(parts)
        den, tables = cert.numerator_tables()
        for t in range(-3, 2 * cert.master_period + 3):
            if (t - sum(parts)) % 2:
                assert cert.value(Fraction(t, 2)) == 0
                continue
            for stop in (1, 2, 5):
                got = next(verify._scaled_blocks(tables, t, stop, stop))
                want = [cert.value(Fraction(t + 2 * k, 2)) * (den << (m - 1)) for k in range(stop)]
                assert got == want, (t, stop)


def _kernel_tampered(cert: QuasiPoly, bumps: dict[int, int]) -> QuasiPoly:
    """Copy of a certificate with a d_m-periodic function K added to its free
    coefficient R_m, read at the master period: bumps maps a class of 2s mod
    2 d_m to K's value there, zero elsewhere. K(s) = K(s - d_m), so
    V(s) - V(s - d_m) is unchanged: K is in the recurrence's kernel. R_m's
    table is tiled here to the master period before K is added."""
    *fns, last = cert.coeffs
    size = 2 * cert.parts[-1]
    vals = [v + bumps.get(rho % size, 0) for rho, v in enumerate(tiled_values(last, cert.master_period))]
    return QuasiPoly(cert.parts, (*fns, PeriodicFn(cert.master_period, vals)), cert.master_period)


class TestTamperMatrix:
    """Which properties catch a kernel tamper of R_m on (2, 3, 5, 7), applied
    to one certificate or to both. sum(parts) = 17 is odd, so the natural
    grid is odd 2s. Both tampers are +1 and -1 at 2s = +-c (mod 14): 7-periodic,
    antisymmetric like R_4, and of mean zero, so recurrence, parity's symmetry
    and mean-value pass. On the grid (c = 1) only the oracle, and
    path-agreement when the certificates differ, catch it. Off the grid
    (c = 2) the tampered certificate is refused when it is built (None
    here), before any check: no certificate has a nonzero cell there. This
    pins what verify catches today; a stronger check may only add failures
    here."""

    PARTS = (2, 3, 5, 7)
    TAMPERS = {"on-grid": {1: 1, 13: -1}, "off-grid": {2: 1, 12: -1}}
    FAILS = {
        ("on-grid", ("explicit",)): ["oracle", "path-agreement"],
        ("on-grid", ("recursive",)): ["oracle", "path-agreement"],
        ("on-grid", ("explicit", "recursive")): ["oracle"],
        ("off-grid", ("explicit",)): None,
        ("off-grid", ("recursive",)): None,
        ("off-grid", ("explicit", "recursive")): None,
    }
    # the refusal of an off-grid tamper: R_4's first nonzero off-class cell,
    # 2s = 2, in the tampered table's period lcm(7, R_4's)
    REFUSED = re.escape(
        "the power 0 coefficient of (2, 3, 5, 7) has a nonzero cell at residue 2s = 2 (mod 420), "
        "off its class 2s = 1 mod 2"
    )

    @pytest.mark.parametrize(
        "tamper, which", list(FAILS), ids=lambda k: "+".join(k) if isinstance(k, tuple) else k
    )
    def test_failing_properties(self, tamper, which):
        parts = self.PARTS
        good = {label: build(parts) for label, build in BUILDERS.items()}
        if self.FAILS[tamper, which] is None:
            for label in which:
                with pytest.raises(InputError, match=self.REFUSED):
                    _kernel_tampered(good[label], self.TAMPERS[tamper])
            return
        certs = {
            label: _kernel_tampered(cert, self.TAMPERS[tamper]) if label in which else cert
            for label, cert in good.items()
        }
        report = run_properties(parts, certs=certs)
        assert [r.name for r in report.results if not r.passed] == self.FAILS[tamper, which]
        for r in report.results:
            if not r.passed and r.name != "path-agreement":
                assert r.counterexample["path"] == which[0]

    def test_tamper_is_in_the_recurrence_kernel(self):
        # the tampered R_4 differs from the built one on the natural grid,
        # and V(s) - V(s - 7) is unchanged at every class
        cert = build_explicit(self.PARTS)
        bad = _kernel_tampered(cert, self.TAMPERS["on-grid"])
        assert bad != cert
        for t in range(-30, 30):
            s = Fraction(t, 2)
            assert bad.value(s) - bad.value(s - 7) == cert.value(s) - cert.value(s - 7)
        assert bad.value(Fraction(1, 2)) - cert.value(Fraction(1, 2)) == 1


class TestMixedStoredPeriods:
    """A certificate read from a file written with every coefficient tiled to
    the master period is the built certificate: equal, at the same stored
    periods, writing the built bytes, and read by verify at those periods.
    Next to a built certificate it gives, byte for byte, the report of two
    built certificates: clean and with each TestTamperMatrix tamper, on
    either side or both; a tamper off the class of the parts is refused,
    read or built alike."""

    @pytest.mark.parametrize("parts", [(2, 3, 5, 7), (1, 2, 3, 4, 5, 6, 7, 8), (31, 37, 41)])
    def test_reports_match_stored_alike(self, parts):
        built = {label: build(parts) for label, build in BUILDERS.items()}
        tiled = {
            label: QuasiPoly.from_json(tiled_json(full_json(cert.to_json()))) for label, cert in built.items()
        }
        assert any(fn.period < cert.master_period for cert in built.values() for fn in cert.coeffs)
        for label, cert in built.items():
            assert tiled[label] == cert
            assert [fn.period for fn in tiled[label].coeffs] == [fn.period for fn in cert.coeffs]
            assert tiled[label].to_json() == cert.to_json()
        cases = [("clean", (), tiled, built)]
        for tamper, which in TestTamperMatrix.FAILS:
            bumps = TestTamperMatrix.TAMPERS[tamper]
            if all((rho - sum(parts)) % 2 for rho in bumps):  # off the class: refused
                for label in which:
                    for certs in (tiled, built):
                        with pytest.raises(InputError, match="off its class"):
                            _kernel_tampered(certs[label], bumps)
                continue
            read, made = (
                {label: _kernel_tampered(c, bumps) if label in which else c for label, c in certs.items()}
                for certs in (tiled, built)
            )
            cases.append((tamper, which, read, made))
        failures = 0
        for tamper, which, read, made in cases:
            want = json.dumps(run_properties(parts, certs=made).to_json_dict())
            for label in BUILDERS:
                mixed = {**made, label: read[label]}
                got = json.dumps(run_properties(parts, certs=mixed).to_json_dict())
                assert got == want, (parts, tamper, which, label)
            assert json.dumps(run_properties(parts, certs=read).to_json_dict()) == want
            failures += '"passed": false' in want
        # every tamper on the class of these parts fails: the off-grid ones of
        # (2, 3, 5, 7) are on the grid of 1..8, whose sum is even
        assert failures == len(cases) - 1 == len(TestTamperMatrix.FAILS) // 2

    def test_tiled_file_read_at_least_periods(self, monkeypatch):
        # (31, 37, 41) tiled to tau = 47027 with every key writes 3 x 94054
        # cells; read back and injected, its explicit certificate is read by
        # the recurrence at the built one's 1 + 1 + 47027 natural cells. The
        # built recursive certificate is read at the same cells, without
        # being filled, and its equal view is dropped; next to a recursive
        # certificate with one cell of R_3 nudged, both are read at those
        # cells
        parts = (31, 37, 41)
        built = {label: build(parts) for label, build in BUILDERS.items()}
        text = tiled_json(full_json(built["explicit"].to_json()))
        assert sum(len(entry["values"]) for entry in json.loads(text)["coefficients"]) == 3 * 94054
        # tiled in the natural layout it writes half of them, and reads the same
        natural = tiled_json(built["explicit"].to_json())
        assert sum(len(entry["values"]) for entry in json.loads(natural)["coefficients"]) == 3 * 47027
        assert QuasiPoly.from_json(natural) == QuasiPoly.from_json(text) == built["explicit"]
        certs = {**built, "explicit": QuasiPoly.from_json(text)}
        assert sum(map(len, certs["explicit"].numerator_tables()[1])) == 47029
        cells = {}
        numerator_tables = QuasiPoly.numerator_tables

        def counting(self):
            den, tables = numerator_tables(self)
            for label, cert in certs.items():
                if cert is self:
                    cells[label] = sum(map(len, tables))
            return den, tables

        monkeypatch.setattr(QuasiPoly, "numerator_tables", counting)
        assert run_properties(parts, props=["recurrence"], certs=certs).passed
        assert cells == {"explicit": 47029, "recursive": 47029}
        assert certs["recursive"]._pieces is not None
        certs["recursive"] = _tampered(built["recursive"], 2, 1)
        cells.clear()
        assert not run_properties(parts, props=["recurrence"], certs=certs).passed
        assert cells == {"explicit": 47029, "recursive": 47029}
