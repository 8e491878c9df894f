#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for denumerant: certify, verify, evaluate.

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload deep --seed 1 --seconds 30 --trace 1

One client in one process, closed loop, no threads. Each run makes three
passes over a seeded list of part multisets:

  cert    build_explicit + to_json per list (the `denumerant cert` path)
  verify  run_properties with all six properties and the default n_max
  eval    QuasiPoly.count(n) on the certificates the cert pass built

With ``--trace 0`` the passes run interleaved for ``--seconds`` and the
end-to-end metrics are reported, scaled to a reference machine speed (see
`Slowdown`). With ``--trace 1`` one fixed round of the same work runs twice,
untraced and then under `tracing.Tracer`, and the per-layer metrics are
reported. Every
output is checked outside the timed regions; a mismatch counts as a failed
operation and makes the run exit with code 1. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
See README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Fixed lists; the seed orders them and draws the evaluation points. Part
# order changes build cost by up to 5x, so every list stays nondecreasing, and
# corpus takes every multiset in its bounds: a sample's cost would vary by seed.
# No list takes much over 1 s per call: a call's time varies by about 13%
# between runs here, so a pass needs many calls per run to be steady.
DEEP = [
    (1, 2, 3, 4, 5),
    (1, 1, 2, 3, 4),
    (1, 1, 1, 2, 2, 3),
    (1, 1, 2, 2, 3, 3),
    (1, 2, 2, 3, 3, 4),
    (2, 2, 3, 3, 4, 4),
]
WIDE = [(2, 3, 5, 7), (5, 6, 7), (3, 7, 10), (3, 7, 11), (4, 5, 11), (5, 7, 9)]

N_QUERIES = 1000
N_DIGITS = 12  # n is drawn log-uniformly from [0, 10^12)
DP_BOUND = 10_000  # eval counts up to here are checked against count_dp, above against build_recursive
WARMUP_PARTS = (1, 2, 3, 4)
SETUP_REPEATS = 7
# Weights of each loop's share of busy time. Eval's is small so that its runs
# (20-40 us each) spread thinly over the whole run.
SHARES = {"cert": 0.4, "verify": 0.5, "eval": 0.06, "reference": 0.05}
TRACE_EVAL_ROUNDS = 3
# A typical duration of reference_kernel on the 2-core x86-64 VM (Python
# 3.11) this was written on; timings are scaled to this speed (see Slowdown).
REFERENCE_NS = 3_000_000
NEAREST_REFERENCE = 3  # reference runs on each side of a timed operation

END_TO_END_UNITS = {
    "setup_s": "s",
    "cert_per_s": "1/s",
    "verify_per_s": "1/s",
    "eval_per_s": "1/s",
    "eval_p50_us": "us",
    "eval_p90_us": "us",
    "cert_kb": "kB",
    "peak_rss_mb": "MB",
}
HIGHER_IS_BETTER = {"cert_per_s", "verify_per_s", "eval_per_s"}


def load_library():
    """Import denumerant from this checkout's src/; exit non-zero if it is not there."""
    if not (SRC / "denumerant" / "__init__.py").is_file():
        sys.exit(f"run.py: no denumerant sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import denumerant
    import denumerant.cli  # noqa: F401  (its import cost is part of set-up)

    if Path(denumerant.__file__).resolve().parent != SRC / "denumerant":
        sys.exit(f"run.py: imported denumerant from {denumerant.__file__}, not from {SRC}")
    return denumerant


def make_inputs(dn, workload: str, seed: int, limit: int | None):
    """Part lists and (list index, n) queries, all determined by the seed."""
    rng = random.Random(f"{workload}:{seed}")
    pool = {"corpus": list(dn.iter_multisets(4, 6)), "deep": DEEP, "wide": WIDE}[workload]
    lists = rng.sample(pool, len(pool))
    if limit is not None:
        lists = lists[:limit]
    queries = [
        (k % len(lists), int(10 ** (N_DIGITS * rng.random())) - 1) for k in range(N_QUERIES)
    ]
    return lists, queries


def reference_kernel(_=None):
    """Fixed pure-Python work, Fraction and dict arithmetic like the library's,
    that never calls the library: its duration tracks the machine's speed."""
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i, i + 3) * Fraction(3, i + 1)
    table: dict[int, int] = {}
    for i in range(3000):
        table[i % 97] = table.get(i % 97, 0) + i * i
    return acc, table[0]


def warm_up(dn) -> None:
    cert = dn.build_explicit(WARMUP_PARTS)
    cert.to_json()
    dn.run_properties(WARMUP_PARTS)
    cert.count(10**6)


def environment() -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            if proc.returncode == 0:
                sha = proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "loadavg": list(os.getloadavg()),
    }


def measure_setup(args) -> tuple[float, float]:
    """Seconds from interpreter start to ready, over fresh interpreters.

    Returns the median as measured, and the median with each probe divided by
    the slowdown of reference_kernel runs just before and after it.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.limit is not None:
        cmd += ["--limit", str(args.limit)]
    clock = time.perf_counter_ns

    def reference_ns():
        t0 = clock()
        reference_kernel()
        return clock() - t0

    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        around = [reference_ns() for _ in range(NEAREST_REFERENCE)]
        start = clock()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = (clock() - start) / 1e9
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            sys.exit(f"run.py: set-up probe failed with code {proc.returncode}")
        around += [reference_ns() for _ in range(NEAREST_REFERENCE)]
        raw.append(elapsed)
        scaled.append(elapsed * REFERENCE_NS / statistics.median(around))
    return statistics.median(raw), statistics.median(scaled)


class Loop:
    """A closed loop over n items: op(0), op(1), ... cyclically, one call at a time.

    Keeps each item's start times and durations in ns, its first output, and
    the number of later runs whose output differed from the first. An
    exception is an output that equals nothing, so it always counts as a
    failure.
    """

    def __init__(self, n_items: int, op):
        self.n_items = n_items
        self.op = op
        self.starts = [array("q") for _ in range(n_items)]
        self.samples = [array("q") for _ in range(n_items)]
        self.first: list = [None] * n_items
        self.repeat_failed = [0] * n_items
        self.runs = 0
        self.busy_ns = 0

    def step(self) -> None:
        i = self.runs % self.n_items
        clock = time.perf_counter_ns
        t0 = clock()
        try:
            out = self.op(i)
        except Exception as exc:  # a failed operation is counted, not fatal
            out = exc
        dt = clock() - t0
        self.starts[i].append(t0)
        self.samples[i].append(dt)
        self.busy_ns += dt
        if self.runs < self.n_items:
            self.first[i] = out
        elif isinstance(out, Exception) or out != self.first[i]:
            self.repeat_failed[i] += 1
        self.runs += 1

    def tally(self, ok) -> tuple[int, int]:
        """(attempted, failed); a wrong first output fails every run of its item."""
        failed = sum(
            len(s) if not ok(i, self.first[i]) else self.repeat_failed[i]
            for i, s in enumerate(self.samples)
        )
        return self.runs, failed


def interleave(shares: list[tuple[Loop, float]], until) -> None:
    """Step the loop furthest below its share of busy time until `until()` holds.

    Interleaving spreads each loop's runs over the whole run, and keeps the
    reference loop's runs next to every timed operation (see Slowdown).
    """
    # shares count from now, so a loop that joins late does not run alone to catch up
    base = [loop.busy_ns for loop, _ in shares]
    while not until():
        min(((loop.busy_ns - b) / share, n, loop)
            for n, ((loop, share), b) in enumerate(zip(shares, base)))[2].step()


class Passes:
    """The three operations, over one workload's inputs."""

    def __init__(self, dn, lists, queries):
        self.dn = dn
        self.lists = lists
        self.queries = queries
        self.certs: list = []

    def cert(self, i):
        cert = self.dn.build_explicit(self.lists[i])
        return cert, cert.to_json()

    def verify(self, i):
        return self.dn.run_properties(self.lists[i])

    def verify_by_property(self, i, tracer=None):
        """The same work as `verify`, one run_properties call per property."""
        dn, parts = self.dn, self.lists[i]
        certs = {"explicit": dn.build_explicit(parts), "recursive": dn.build_recursive(parts)}
        report = dn.VerifyReport(parts=dn.as_parts(parts))
        for prop in dn.PROPERTIES:
            if tracer is None:
                report.results += dn.run_properties(parts, props=(prop,), certs=certs).results
                continue
            before = tracer.calls["quasipoly.value"]
            sub = tracer.call(f"verify.{prop}", dn.run_properties, (parts,),
                              {"props": (prop,), "certs": certs})
            tracer.counts[f"verify.{prop}.points"] += tracer.calls["quasipoly.value"] - before
            report.results += sub.results
        return report

    def keep_certs(self, cert_loop: "Loop") -> None:
        """Evaluate the certificates the cert loop's first cycle built."""
        self.certs = [None if isinstance(out, Exception) else out[0] for out in cert_loop.first]

    def eval(self, k):
        i, n = self.queries[k]
        return self.certs[i].count(n)


def corrupted(dn, cert):
    """`cert` with one natural-grid residue of its free coefficient raised by one."""
    coeffs = list(cert.coeffs)
    last = coeffs[-1]
    values = list(last.values)
    values[sum(cert.parts) % 2] += 1
    coeffs[-1] = dn.PeriodicFn(last.period, values)
    return dn.QuasiPoly(cert.parts, coeffs, cert.master_period)


class Checker:
    """Independent expected outputs, computed outside every timed region."""

    def __init__(self, dn, lists, queries):
        self.dn = dn
        self.lists = lists
        self.recursive = [dn.build_recursive(p) for p in lists]
        small: dict[int, int] = {}
        for i, n in queries:
            if n <= DP_BOUND:
                small[i] = max(small.get(i, 0), n)
        tables = {i: dn.count_dp(lists[i], top) for i, top in small.items()}
        self.expected_counts = [
            tables[i][n] if n <= DP_BOUND else self.recursive[i].count(n) for i, n in queries
        ]

    def cert_ok(self, i, out) -> bool:
        if isinstance(out, Exception):
            return False
        cert, text = out
        back = self.dn.QuasiPoly.from_json(text)
        tau = self.dn.lcm_of(self.lists[i])
        return back == cert and back.to_json() == text and back == self.recursive[i].aligned(tau)

    def verify_ok(self, i, out) -> bool:
        return (
            not isinstance(out, Exception)
            and out.parts == self.dn.as_parts(self.lists[i])
            and [r.name for r in out.results] == list(self.dn.PROPERTIES)
            and out.passed
        )

    def eval_ok(self, k, out) -> bool:
        return not isinstance(out, Exception) and out == self.expected_counts[k]


class Slowdown:
    """How much slower than REFERENCE_NS the machine ran, at each moment of a run.

    The machine this was written on changes speed by up to 2x within seconds
    (other tenants share it), which moves every timing alike. A loop of
    reference_kernel runs interleaved with the workload; each timed operation
    is divided by the median slowdown of the reference runs nearest to it in
    time, which leaves what the library itself costs. The kernel never calls
    the library, so a change to the library cannot move the scale.
    """

    def __init__(self, reference: "Loop"):
        self.mid = [t + d // 2 for t, d in zip(reference.starts[0], reference.samples[0])]
        self.ratio = [d / REFERENCE_NS for d in reference.samples[0]]
        self._memo: dict[int, float] = {}

    def at(self, t_ns: int) -> float:
        k = bisect.bisect(self.mid, t_ns)
        if k not in self._memo:
            near = self.ratio[max(0, k - NEAREST_REFERENCE): k + NEAREST_REFERENCE]
            self._memo[k] = statistics.median(near)
        return self._memo[k]

    def scaled(self, loop: "Loop") -> list[list[float]]:
        return [
            [d / self.at(t + d // 2) for t, d in zip(starts, samples)]
            for starts, samples in zip(loop.starts, loop.samples)
        ]


def timed_metrics(setup_s: float, cert, verify, ev) -> dict:
    """The timed end-to-end metrics from per-item durations in ns.

    A rate takes each item at the median of its runs: items / sum of medians.
    A query's latency is the median of its runs, which keeps a stall in one
    run out of the tail; p50 and p90 are over the distinct queries.
    """
    def rate_per_s(samples):
        return len(samples) / (sum(statistics.median(s) for s in samples) / 1e9)

    deciles = statistics.quantiles([statistics.median(s) for s in ev], n=10)
    return {
        "setup_s": setup_s,
        "cert_per_s": rate_per_s(cert),
        "verify_per_s": rate_per_s(verify),
        "eval_per_s": rate_per_s(ev),
        "eval_p50_us": deciles[4] / 1e3,
        "eval_p90_us": deciles[8] / 1e3,
    }


def run_timed(dn, args, lists, queries):
    setup_raw, setup_scaled = measure_setup(args)
    passes = Passes(dn, lists, queries)
    reference = Loop(1, reference_kernel)
    deadline = time.perf_counter_ns() + int(args.seconds * 1e9)
    cert = Loop(len(lists), passes.cert)
    verify = Loop(len(lists), passes.verify)
    shares = [(cert, SHARES["cert"]), (verify, SHARES["verify"]), (reference, SHARES["reference"])]
    # eval starts once the cert loop has built every certificate
    interleave(shares, lambda: cert.runs >= cert.n_items)
    if args.corrupt:
        bad = corrupted(dn, cert.first[0][0])
        cert.first[0] = (bad, bad.to_json())
    passes.keep_certs(cert)
    ev = Loop(len(queries), passes.eval)
    loops = (cert, verify, ev, reference)
    interleave(shares + [(ev, SHARES["eval"])], lambda: time.perf_counter_ns() >= deadline
               and all(loop.runs >= loop.n_items for loop in loops))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checker = Checker(dn, lists, queries)
    counts = [cert.tally(checker.cert_ok), verify.tally(checker.verify_ok), ev.tally(checker.eval_ok)]
    slowdown = Slowdown(reference)
    metrics = timed_metrics(setup_scaled, *(slowdown.scaled(loop) for loop in (cert, verify, ev)))
    metrics["cert_kb"] = sum(len(out[1]) for out in cert.first if not isinstance(out, Exception)) / 1e3
    metrics["peak_rss_mb"] = peak_rss_mb
    detail = {
        "timed_runs": {"cert": cert.runs, "verify": verify.runs, "eval": ev.runs,
                       "reference": reference.runs},
        "median_slowdown": statistics.median(slowdown.ratio),
        "unscaled": timed_metrics(setup_raw, cert.samples, verify.samples, ev.samples),
    }
    return counts, metrics, END_TO_END_UNITS, detail


def fixed_round(passes, tracer=None):
    """One cert and one verify per list, then TRACE_EVAL_ROUNDS evals per query.

    The reference loop runs interleaved, as in a timed run. With a tracer,
    each operation is a root span carrying its part list's id. Returns the
    reference loop and the cert, verify and eval loops.
    """
    def traced(name, op, list_of=lambda i: i):
        if tracer is None:
            return op

        def run(i):
            tracer.list_id = list_of(i)
            return tracer.call(name, op, (i,))
        return run

    reference = Loop(1, reference_kernel)

    def run_with_reference(loop, cycles=1):
        interleave([(loop, 1.0), (reference, SHARES["reference"])],
                   lambda: loop.runs >= cycles * loop.n_items)
        return loop

    cert = run_with_reference(Loop(len(passes.lists), traced("cert", passes.cert)))
    passes.keep_certs(cert)
    verify = run_with_reference(
        Loop(len(passes.lists), traced("verify", lambda i: passes.verify_by_property(i, tracer))))
    ev = run_with_reference(
        Loop(len(passes.queries), traced("eval", passes.eval, lambda k: passes.queries[k][0])),
        TRACE_EVAL_ROUNDS)
    return reference, cert, verify, ev


def busy_s(loops, slowdown=None) -> float:
    """Seconds spent in the loops' operations, each scaled by `slowdown` if given."""
    if slowdown is None:
        return sum(loop.busy_ns for loop in loops) / 1e9
    return sum(sum(map(sum, slowdown.scaled(loop))) for loop in loops) / 1e9


# per-layer metrics: layer and the fields reported for it
LAYER_FIELDS = [
    ("polypart.split_weight", ("calls", "self_s")),
    ("polypart.v1_explicit", ("self_s",)),
    ("bernoulli.bernoulli_poly", ("calls", "self_s", "distinct_ratio")),
    ("quasipoly.build_explicit", ("calls", "self_s", "distinct_ratio")),
    ("quasipoly.closure_fn", ("calls", "self_s")),
    ("quasipoly.extend_recursive", ("calls", "self_s")),
    ("quasipoly.value", ("calls", "self_s")),
    ("quasipoly.count", ("calls", "self_s")),
    ("quasipoly.to_json", ("self_s",)),
    ("oracle.count_dp", ("self_s",)),
]
COUNTERS = ["exactnum.compositions.count", "quasipoly.cert_cells", "oracle.count_dp.cells"]


def layer_metric(tracer, layer: str, field: str, scale: float) -> tuple[float, str]:
    if field == "calls":
        return tracer.calls[layer], "count"
    if field == "self_s":
        return tracer.self_ns[layer] / 1e9 * scale, "s"
    if field == "total_s":
        return tracer.total_ns[layer] / 1e9 * scale, "s"
    return tracer.distinct_ratio(layer), "ratio"


def run_traced(dn, args, lists, queries):
    from tracing import Tracer

    plain_reference, *plain = fixed_round(Passes(dn, lists, queries))
    tracer = Tracer()
    tracer.install()
    try:
        traced_reference, *traced = fixed_round(Passes(dn, lists, queries), tracer)
    finally:
        tracer.uninstall()

    checker = Checker(dn, lists, queries)
    oks = (checker.cert_ok, checker.verify_ok, checker.eval_ok)
    counts = [loop.tally(ok) for run in (plain, traced) for loop, ok in zip(run, oks)]
    traced_s = busy_s(traced, Slowdown(traced_reference))
    untraced_s = busy_s(plain, Slowdown(plain_reference))
    traced_raw_s = busy_s(traced)
    # layer times are scaled by the traced round's mean slowdown
    scale = traced_s / traced_raw_s

    metrics = {}
    for layer, fields in LAYER_FIELDS + [(f"verify.{p}", ("self_s", "total_s")) for p in dn.PROPERTIES]:
        for field in fields:
            metrics[f"{layer}.{field}"] = layer_metric(tracer, layer, field, scale)
    for counter in COUNTERS + [f"verify.{p}.points" for p in dn.PROPERTIES]:
        metrics[counter] = (tracer.counts[counter], "count")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    shares = {
        name: round(ns / 1e9 / traced_raw_s, 4) for name, ns in tracer.self_ns.most_common()
    }
    values = {name: v for name, (v, _) in metrics.items()}
    units = {name: u for name, (_, u) in metrics.items()}
    detail = {"traced_s": traced_raw_s, "untraced_s": busy_s(plain),
              "scaled_traced_s": traced_s, "scaled_untraced_s": untraced_s,
              "self_share_of_traced_time": shares}
    return counts, values, units, detail


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("corpus", "deep", "wide"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="how long the interleaved passes run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int, default=None,
                    help="use only the first N part lists (reduced-size self-test)")
    ap.add_argument("--corrupt", action="store_true",
                    help="self-test: corrupt one built certificate; the run must fail")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0 or (args.limit is not None and args.limit < 1):
        ap.error("--seconds and --limit must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    env = environment() if not args.setup_probe else None
    dn = load_library()
    lists, queries = make_inputs(dn, args.workload, args.seed, args.limit)
    warm_up(dn)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    print("env " + json.dumps(env))
    print("inputs " + json.dumps({"lists": lists, "n": [n for _, n in queries]}))
    run = run_traced if args.trace else run_timed
    counts, metrics, units, detail = run(dn, args, lists, queries)
    attempted = sum(a for a, _ in counts)
    failed = sum(f for _, f in counts)
    print("detail " + json.dumps(detail))
    print(f"{'fail_ratio':<44} {failed / attempted:>14.6g} ratio  (lower is better; "
          f"{failed} of {attempted} operations)")
    for name, value in metrics.items():
        direction = ""
        if not args.trace:
            direction = "  (higher is better)" if name in HIGHER_IS_BETTER else "  (lower is better)"
        print(f"{name:<44} {value:>14.6g} {units[name]}{direction}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
              "inputs": {"lists": lists, "queries": queries}, "detail": detail, **result}
    with open(OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
