#!/usr/bin/env python3
"""Self-test of the benchmark itself. Run from the repository root:

    python3 perfbench/selftest.py

Checks, on reduced-size runs of the corpus workload, that:
  * an untraced run emits exactly the end-to-end metrics of BENCHMARK.json,
    with their units, and passes its correctness gate;
  * a traced run does the same for the per-layer metrics;
  * a run whose first certificate is corrupted (one residue value changed)
    counts the failure and exits non-zero;
  * without the library sources next to it, the benchmark exits non-zero
    and prints no result.
Exits 0 when every check holds, 1 with a message otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REDUCED = ["--workload", "corpus", "--seed", "7", "--seconds", "1", "--limit", "8"]


def fail(message: str) -> None:
    sys.exit(f"selftest: FAIL: {message}")


def run(script: Path, *args: str) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, str(script), *args],
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout


def result_of(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    if not lines:
        fail("no output")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys are {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(f"attempted is {result['attempted']!r}")
    return result


def check_metrics(result: dict, spec: list[dict], label: str) -> None:
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in spec}
    if set(got) != set(want):
        fail(f"{label}: missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        value = got[name]["value"]
        if got[name]["unit"] != unit:
            fail(f"{label}: {name} has unit {got[name]['unit']!r}, expected {unit!r}")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            fail(f"{label}: {name} is not a number: {value!r}")


def main() -> int:
    run_py = HERE / "run.py"
    for trace, spec in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
        code, out = run(run_py, *REDUCED, "--trace", trace)
        result = result_of(out)
        if code != 0 or not result["correct"] or result["failed"]:
            fail(f"reduced run with --trace {trace}: exit {code}, result {result}")
        check_metrics(result, spec, f"--trace {trace}")
        if trace == "0" and any(result["metrics"][m["name"]]["value"] <= 0 for m in spec):
            fail(f"an end-to-end metric is not positive: {result['metrics']}")
        print(f"selftest: reduced run --trace {trace}: {len(spec)} metrics, "
              f"{result['attempted']} operations, all correct")

    code, out = run(run_py, *REDUCED, "--trace", "0", "--corrupt")
    result = result_of(out)
    if code == 0 or result["correct"] or result["failed"] < 1:
        fail(f"corrupted certificate not caught: exit {code}, result {result}")
    print(f"selftest: corrupted certificate caught: {result['failed']} of "
          f"{result['attempted']} operations failed, exit {code}")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        code, out = run(bare / "perfbench" / "run.py", *REDUCED, "--trace", "0")
    finally:
        shutil.rmtree(bare)
    if code == 0 or '"correct"' in out:
        fail(f"run without library sources: exit {code}, stdout {out!r}")
    print(f"selftest: without library sources the benchmark exits {code} and prints no result")
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
