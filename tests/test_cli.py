"""Command-line interface: outputs, formats, and exit codes."""

import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from denumerant import QuasiPoly, quasipoly
from denumerant.cli import main
from helpers import full_json, tiled_values
from test_cert_bytes import PINNED, PINNED_NATURAL


@pytest.fixture()
def runner():
    return CliRunner()


def _nudge_builder(monkeypatch, delta):
    """Patch quasipoly.build_explicit to add delta to the free coefficient
    on its whole class 2s = sum(parts) mod 2, its table tiled here to the
    master period, so every count it gives is off by delta."""
    real = quasipoly.build_explicit

    def nudged(parts):
        cert = real(parts)
        *fns, last = cert.coeffs
        sigma = sum(parts) % 2
        vals = [v + delta * (rho % 2 == sigma) for rho, v in enumerate(tiled_values(last, cert.master_period))]
        last = quasipoly.PeriodicFn(cert.master_period, vals)
        return QuasiPoly(cert.parts, (*fns, last), cert.master_period)

    monkeypatch.setattr(quasipoly, "build_explicit", nudged)


class TestEval:
    def test_single_value(self, runner):
        res = runner.invoke(main, ["eval", "--parts", "1,2,3", "--n", "5"])
        assert res.exit_code == 0
        assert res.output.strip() == "5"

    def test_zero_count(self, runner):
        res = runner.invoke(main, ["eval", "--parts", "2,4", "--n", "5"])
        assert res.exit_code == 0
        assert res.output.strip() == "0"

    def test_range_plain(self, runner):
        res = runner.invoke(
            main, ["eval", "--parts", "1,2", "--n", "0..4", "--method", "explicit"]
        )
        assert res.exit_code == 0
        assert res.output.strip() == "1 1 2 2 3"

    def test_methods_agree(self, runner):
        outputs = set()
        for method in ["explicit", "recursive", "oracle"]:
            res = runner.invoke(
                main, ["eval", "--parts", "2,3", "--n", "0..20", "--method", method]
            )
            assert res.exit_code == 0
            outputs.add(res.output)
        assert len(outputs) == 1

    def test_caret_notation(self, runner):
        res = runner.invoke(
            main, ["eval", "--parts", "1,2", "--n", "10^3", "--method", "oracle"]
        )
        assert res.exit_code == 0
        assert res.output.strip() == "501"

    def test_csv_format(self, runner):
        res = runner.invoke(
            main, ["eval", "--parts", "1,2", "--n", "0..2", "--format", "csv"]
        )
        assert res.exit_code == 0
        assert res.output == "n,count\n0,1\n1,1\n2,2\n"

    def test_json_format(self, runner):
        res = runner.invoke(
            main, ["eval", "--parts", "1,2", "--n", "0..2", "--format", "json"]
        )
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert data == {"parts": [1, 2], "method": "explicit", "n": [0, 1, 2], "counts": [1, 1, 2]}

    @pytest.mark.parametrize(
        "args",
        [
            ["eval", "--parts", "0", "--n", "1"],
            ["eval", "--parts", "1,x", "--n", "1"],
            ["eval", "--parts", "", "--n", "1"],
            ["eval", "--parts", "1,2", "--n", "5..1"],
            ["eval", "--parts", "1,2", "--n", "-3"],
            ["eval", "--parts", "1,2", "--n", "2..4", "--method", "fast"],
        ],
    )
    def test_usage_errors_exit_2(self, runner, args):
        res = runner.invoke(main, args)
        assert res.exit_code == 2, res.output

    def test_non_integer_count_exit_1(self, runner, monkeypatch):
        _nudge_builder(monkeypatch, Fraction(1, 2))
        res = runner.invoke(main, ["eval", "--parts", "1,2", "--n", "3"])
        assert res.exit_code == 1, res.output
        assert "count at n=3 evaluated to 5/2, not an integer" in res.output


class TestCert:
    def test_deterministic_output(self, runner):
        a = runner.invoke(main, ["cert", "--parts", "2,3"])
        b = runner.invoke(main, ["cert", "--parts", "2,3"])
        assert a.exit_code == 0 and b.exit_code == 0
        assert a.output == b.output

    def test_round_trip_and_counts(self, runner):
        res = runner.invoke(main, ["cert", "--parts", "1,2"])
        assert res.exit_code == 0
        cert = QuasiPoly.from_json(res.output)
        assert [cert.count(n) for n in range(9)] == [n // 2 + 1 for n in range(9)]

    @pytest.mark.parametrize("method", ["explicit", "recursive"])
    def test_pinned_bytes(self, runner, method):
        res = runner.invoke(main, ["cert", "--parts", "2,3,5,7", "--method", method])
        assert res.exit_code == 0
        # the pinned document and the one newline click.echo adds: the bytes
        # written, and with "0" at every key off the class, the bytes written
        # before the natural residues alone were
        assert res.output.endswith("\n")
        text = res.output[:-1]
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_NATURAL[(2, 3, 5, 7)]
        assert hashlib.sha256(full_json(text).encode()).hexdigest() == PINNED[(2, 3, 5, 7)]

    def test_methods_produce_same_function(self, runner):
        outs = {}
        for method in ["explicit", "recursive"]:
            res = runner.invoke(main, ["cert", "--parts", "2,3", "--method", method])
            assert res.exit_code == 0
            outs[method] = QuasiPoly.from_json(res.output)
        assert outs["explicit"] == outs["recursive"]


class TestVerify:
    def test_pass_exit_zero(self, runner):
        res = runner.invoke(main, ["verify", "--parts", "1,2,3"])
        assert res.exit_code == 0
        assert "all properties passed" in res.output

    def test_props_subset(self, runner):
        res = runner.invoke(main, ["verify", "--parts", "2,3", "--props", "zeros,parity"])
        assert res.exit_code == 0
        assert "oracle" not in res.output

    def test_json_format(self, runner):
        res = runner.invoke(main, ["verify", "--parts", "1,2", "--format", "json"])
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert data["passed"] is True

    def test_unknown_prop_exit_2(self, runner):
        res = runner.invoke(main, ["verify", "--parts", "1,2", "--props", "oracle,magic"])
        assert res.exit_code == 2

    def test_empty_props_exit_2(self, runner):
        res = runner.invoke(main, ["verify", "--parts", "1,2", "--props", ","])
        assert res.exit_code == 2
        assert "no properties given" in res.output

    def test_failure_exit_1(self, runner, monkeypatch):
        real = quasipoly.build_explicit

        def sabotaged(parts):
            cert = real(parts)
            fns = list(cert.coeffs)
            vals = tiled_values(fns[-1], cert.master_period)
            vals[1] += 1  # odd residue class: the one counts actually visit
            fns[-1] = quasipoly.PeriodicFn(cert.master_period, vals)
            return QuasiPoly(cert.parts, tuple(fns), cert.master_period)

        monkeypatch.setattr(quasipoly, "build_explicit", sabotaged)
        res = runner.invoke(main, ["verify", "--parts", "1,2", "--props", "oracle"])
        assert res.exit_code == 1
        assert "FAIL" in res.output


class TestBench:
    def test_reports_and_agrees(self, runner):
        res = runner.invoke(
            main, ["bench", "--parts", "1,2,3", "--n", "500", "--repeat", "3"]
        )
        assert res.exit_code == 0
        assert "agree          yes" in res.output
        assert "count          " in res.output

    def test_csv(self, runner):
        res = runner.invoke(
            main,
            ["bench", "--parts", "1,2", "--n", "10^2", "--format", "csv", "--repeat", "2"],
        )
        assert res.exit_code == 0
        lines = res.output.strip().splitlines()
        assert lines[0] == "metric,value"
        row = dict(l.split(",", 1) for l in lines[1:])
        assert row["count"] == "51"
        assert row["agree"] == "yes"

    def test_build_time_includes_first_read(self, runner, monkeypatch):
        # the first read of a built certificate sums its pieces: that is
        # build time, not a hidden cost of the first timed evaluation
        def slow(self, real=QuasiPoly._store):
            time.sleep(0.05)
            return real(self)

        monkeypatch.setattr(QuasiPoly, "_store", slow)
        res = runner.invoke(main, ["bench", "--parts", "1,2,3", "--n", "50", "--repeat", "1"])
        assert res.exit_code == 0, res.output
        row = dict(line.split(maxsplit=1) for line in res.output.splitlines())
        assert float(row["build_seconds"]) >= 0.05, res.output

    def test_timed_loop_starts_filled(self, runner, monkeypatch):
        # bench fills the stored form with one untimed count before its timed
        # loop: every timed evaluation finds the pieces gone
        holds_pieces = []

        def recording(self, n, real=QuasiPoly.count):
            holds_pieces.append(self._pieces is not None)
            return real(self, n)

        monkeypatch.setattr(QuasiPoly, "count", recording)
        res = runner.invoke(main, ["bench", "--parts", "2,3,5", "--n", "50", "--repeat", "3"])
        assert res.exit_code == 0, res.output
        assert holds_pieces == [True, False, False, False]

    def test_disagreement_exit_1(self, runner, monkeypatch):
        _nudge_builder(monkeypatch, 1)
        res = runner.invoke(main, ["bench", "--parts", "1,2", "--n", "4", "--repeat", "1"])
        assert res.exit_code == 1, res.output
        assert "count          4" in res.output
        assert "agree          NO" in res.output

    def test_huge_repeat_refused(self, runner):
        res = runner.invoke(
            main, ["bench", "--parts", "1,2", "--n", "5", "--repeat", "100000000000"]
        )
        assert res.exit_code == 2, res.output
        assert "--repeat would time 100000000000 evaluations, over the limit" in res.output


class TestCorpus:
    def test_tiny_sweep(self, runner):
        res = runner.invoke(main, ["corpus", "--max-m", "1", "--max-part", "2"])
        assert res.exit_code == 0
        assert "2 sets checked, 0 failing" in res.output

    def test_props_subset_sweep(self, runner):
        res = runner.invoke(
            main,
            ["corpus", "--max-m", "2", "--max-part", "3", "--props", "oracle,zeros"],
        )
        assert res.exit_code == 0
        assert "9 sets checked, 0 failing" in res.output

    def test_json(self, runner):
        res = runner.invoke(
            main,
            ["corpus", "--max-m", "1", "--max-part", "3", "--props", "zeros", "--format", "json"],
        )
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert data["sets"] == 3 and data["failures"] == 0

    def test_failures_exit_1(self, runner, monkeypatch):
        _nudge_builder(monkeypatch, 1)
        res = runner.invoke(main, ["corpus", "--max-m", "1", "--max-part", "2"])
        assert res.exit_code == 1, res.output
        assert "2 sets checked, 2 failing" in res.output

    def test_bad_bounds_exit_2(self, runner):
        res = runner.invoke(main, ["corpus", "--max-m", "0", "--max-part", "2"])
        assert res.exit_code == 2

    def test_over_guard_limit_exit_2(self, runner, monkeypatch):
        # C(6 + 4, 4) - 1 = 209 multisets of 1 to 4 parts from 1..6, one over
        monkeypatch.setenv("RPF_GUARD_LIMIT", "208")
        res = runner.invoke(main, ["corpus", "--max-m", "4", "--max-part", "6"])
        assert res.exit_code == 2, res.output
        assert "at least 209 part lists, over the limit 208" in res.output

    @pytest.mark.parametrize("bound", ["30", "1000000000"])
    def test_huge_sweep_refused(self, runner, bound):
        # C(60, 30) - 1, about 1.2e17 lists, and a binomial of about 6e8
        # digits: both refused before the first list, the second before its
        # binomial is computed
        res = runner.invoke(main, ["corpus", "--max-m", bound, "--max-part", bound])
        assert res.exit_code == 2, res.output
        assert "over the limit" in res.output


@pytest.mark.parametrize(
    "args, message",
    [
        (["bench", "--parts", "1,2", "--n", "-1"], "n must be nonnegative"),
        (["bench", "--parts", "1,2", "--n", "x"], "expected an integer"),
        (["verify", "--parts", "1,2", "--n-max", "-1"], "n-max must be nonnegative"),
        (["corpus", "--max-m", "1", "--max-part", "1", "--n-max", "-2"], "n-max must be nonnegative"),
        # a sign binds looser than the power: -10^2 is -100, not (-10)^2
        (["eval", "--parts", "1,2", "--n=-10^2"], "counts are defined for n >= 0"),
        (["eval", "--parts", "1,2", "--n", "0..-2^2"], "empty range"),
        (["bench", "--parts", "1,2", "--n=-2^2"], "n must be nonnegative"),
        (["verify", "--parts", "1,2", "--n-max=-2^2"], "n-max must be nonnegative"),
        (["eval", "--parts", "1,2", "--n", "10^-1"], "negative exponent"),
        (["bench", "--parts", "1,2", "--n", "5", "--repeat", "0"], "repeat must be positive"),
    ],
)
def test_nonnegative_integer_options_exit_2(runner, args, message):
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert message in res.output


def test_power_over_digit_limit_exit_2(runner):
    # rejected from its bit length, like a plain integer of that length
    res = runner.invoke(main, ["eval", "--parts", "1,2", "--n", "10^5000"])
    assert res.exit_code == 2, res.output
    assert "digits allowed" in res.output


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_count_over_digit_limit_exit_2(runner, fmt):
    # n has 2201 digits, the count (n+1)(n+2)/2 about 4400: more than str() prints
    res = runner.invoke(main, ["eval", "--parts", "1,1,1", "--n", "10^2200", "--format", fmt])
    assert res.exit_code == 2, res.output
    assert f"more than the {sys.get_int_max_str_digits()} digits" in res.output


def test_last_count_of_range_checked_against_digit_limit(runner):
    # n = 10^4300 - 2 and 10^4300 - 1, written out; the counts are n + 1. Only
    # the last, 10^4300, has more digits than str() prints, and the first,
    # 10^4300 - 1, is not printed either
    lo, hi = 10**4300 - 2, 10**4300 - 1
    res = runner.invoke(main, ["eval", "--parts", "1,1", "--n", f"{lo}..{hi}"])
    assert res.exit_code == 2, res.output
    assert f"more than the {sys.get_int_max_str_digits()} digits" in res.output
    assert str(hi) not in res.output


def test_count_at_digit_limit_prints(runner):
    # n + 1 = 10^4299 + 1 has exactly 4300 digits, the most str() prints
    res = runner.invoke(main, ["eval", "--parts", "1,1", "--n", "10^4299"])
    assert res.exit_code == 0, res.output
    assert res.output.strip() == str(10**4299 + 1)


@pytest.mark.parametrize(
    "n, code",
    [
        # (10^20 - 1)^215 has 4300 digits, the most int() reads, as a power
        # and written out; log10(10^20 - 1) rounds to 20.0 as a float, so a
        # float estimate of its digits refused the power
        ("99999999999999999999^215", 0),
        (str((10**20 - 1) ** 215), 0),
        ("10^4299", 0),
        ("10^4300", 2),
    ],
    ids=["power-4300-digits", "written-4300-digits", "10^4299", "10^4300"],
)
def test_power_digit_limit_is_exact(runner, n, code):
    # one part: every count is 1
    res = runner.invoke(main, ["eval", "--parts", "1", "--n", n])
    assert res.exit_code == code, res.output
    if code == 0:
        assert res.output.strip() == "1"
    else:
        assert "digits allowed" in res.output


def test_huge_power_refused_before_it_is_computed(runner):
    # 3^(10^18) has about 4.8 * 10^17 digits: refused from its bit length
    start = time.perf_counter()
    res = runner.invoke(main, ["eval", "--parts", "1", "--n", "3^1000000000000000000"])
    assert time.perf_counter() - start < 1
    assert res.exit_code == 2, res.output
    assert "digits allowed" in res.output


@pytest.mark.parametrize(
    "args",
    [
        ["eval", "--parts", "1,2", "--n", "0..200"],
        ["eval", "--parts", "1,2", "--method", "oracle", "--n", "200"],
        ["bench", "--parts", "1,2", "--n", "200", "--repeat", "1"],
        ["verify", "--parts", "1,2", "--props", "oracle", "--n-max", "200"],
    ],
)
def test_over_guard_limit_exit_2(runner, monkeypatch, args):
    monkeypatch.setenv("RPF_GUARD_LIMIT", "100")
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert "over the limit 100" in res.output


@pytest.mark.parametrize("args", [
    ["eval", "--parts", "1,2", "--n", "5"],
    ["eval", "--parts", "1,2", "--n", "0..5"],
    ["cert", "--parts", "1,2"],
])
def test_malformed_guard_limit_exit_2(runner, monkeypatch, args):
    # the builders' guard reads the limit, and the library's InputError is a
    # usage error, not a traceback with the exit code of a failed verification;
    # a range reads the limit while --n is parsed, and --n is not to blame
    monkeypatch.setenv("RPF_GUARD_LIMIT", "abc")
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "RPF_GUARD_LIMIT must be an integer" in res.output
    assert "'--n'" not in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize("args", [
    ["eval", "--parts", "1", "--n", "0"],
    ["cert", "--parts", "1,2"],
])
def test_negative_guard_limit_exit_2(runner, monkeypatch, args):
    # a negative limit is a usage error naming the variable, not a limit
    # that every range or table is over
    monkeypatch.setenv("RPF_GUARD_LIMIT", "-5")
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "RPF_GUARD_LIMIT must not be negative, got '-5'" in res.output
    assert "over the limit" not in res.output
    assert "Traceback" not in res.output


def test_certificate_over_guard_limit_exit_2(runner):
    # 4 tables of 2 * lcm = 2 * 97*101*103*107 cells, about 8.6e8: refused
    # before any table is allocated
    res = runner.invoke(main, ["cert", "--parts", "97,101,103,107"])
    assert res.exit_code == 2, res.output
    assert "over the limit" in res.output


def test_module_entry_point():
    """`python -m denumerant.cli` runs the command group from a checkout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    cmd = [sys.executable, "-m", "denumerant.cli", "verify"]
    ok = subprocess.run(cmd + ["--parts", "1,2"], capture_output=True, text=True, env=env)
    assert ok.returncode == 0
    assert "all properties passed" in ok.stdout
    bad = subprocess.run(cmd + ["--parts", "0"], capture_output=True, text=True, env=env)
    assert bad.returncode == 2
