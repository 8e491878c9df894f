"""The names the benchmark under perfbench/ relies on all exist.

perfbench/run.py reads the library through `dn.<name>` and perfbench/tracing.py
patches layer functions by module and name; a removal that breaks either
fails here rather than in a benchmark run. Its --corrupt self-test path is
checked here too, and so is the shape of every committed BENCH_*.json.
"""

import importlib
import importlib.util
import json
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import denumerant

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
MODULES = ["denumerant"] + [f"denumerant.{m.name}" for m in pkgutil.iter_modules(denumerant.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def test_run_names_exist():
    names = set(re.findall(r"\bdn\.(\w+)", (PERFBENCH / "run.py").read_text()))
    assert {"build_explicit", "build_recursive", "run_properties", "count_dp"} <= names
    assert sorted(n for n in names if not hasattr(denumerant, n)) == []


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = [
        (mod, attr, getattr(mod, attr))
        for name, mod in list(sys.modules.items())
        if name == "denumerant" or name.startswith("denumerant.")
        for attr in ("build_explicit", "split_weight", "compositions", "count_dp")
        if hasattr(mod, attr)
    ]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(getattr(mod, attr) is not orig for mod, attr, orig in originals)
    finally:
        tracer.uninstall()
    assert all(getattr(mod, attr) is orig for mod, attr, orig in originals)


def test_tracer_sees_closure_fn():
    # the recursive step calls closure_fn by its module name, once per level,
    # so the tracer's quasipoly.closure_fn layer counts every call
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        denumerant.build_recursive((1, 2, 3, 4))
    finally:
        tracer.uninstall()
    assert tracer.calls["quasipoly.closure_fn"] == 4


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


@pytest.mark.parametrize("parts", [(1, 2, 3, 4), (5, 6, 7), (1, 1, 2, 2, 3, 3)])
def test_corrupted_certificate_fails_the_oracle(parts):
    # run.py's --corrupt self-test raises one cell of a Fraction list and rebuilds
    # the certificate from it; the integer tables must carry exactly that change
    clean = denumerant.build_explicit(parts)
    bad = _load_run().corrupted(denumerant, clean)
    assert [fn.den for fn in clean.coeffs] == [fn.den for fn in bad.coeffs]
    diffs = [
        (j, rho, b - a)
        for j, (fa, fb) in enumerate(zip(clean.coeffs, bad.coeffs))
        for rho, (a, b) in enumerate(zip(fa.nums, fb.nums))
        if a != b
    ]
    assert diffs == [(len(parts) - 1, sum(parts) % 2, clean.coeffs[-1].den)]
    certs = {"explicit": bad, "recursive": denumerant.build_recursive(parts)}
    report = denumerant.run_properties(parts, certs=certs)
    oracle = next(r for r in report.results if r.name == "oracle")
    assert not oracle.passed and oracle.counterexample["path"] == "explicit"


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_bench_file_covers_every_end_to_end_metric(path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bench = json.loads(path.read_text())
    assert {"python", "nproc", "git_sha"} <= set(bench)
    for workload in spec["workloads"]:
        metrics = bench["workloads"][workload["name"]]
        for metric in spec["end_to_end"]:
            entry = metrics[metric["name"]]
            assert entry["unit"] == metric["unit"], (workload["name"], metric["name"])
            assert entry["q1"] <= entry["median"] <= entry["q3"], (workload["name"], metric["name"])
