"""The names the benchmark under perfbench/ relies on all exist.

perfbench/run.py reads the library through `dn.<name>` and perfbench/tracing.py
patches layer functions by module and name; a removal that breaks either
fails here rather than in a benchmark run.
"""

import importlib
import importlib.util
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import denumerant

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
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
