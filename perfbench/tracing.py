"""Span tracer for the benchmark: wraps the library's public functions from outside.

Nothing under ``src/`` knows about it. `Tracer.install` swaps each layer
function named in ``LAYERS`` for a timing wrapper in every ``denumerant``
module namespace that holds it (``from .x import f`` copies the reference, so
patching the defining module alone would miss most callers), and
`Tracer.uninstall` puts the originals back.

Coarse layers (builders, JSON, the DP oracle, the benchmark's own per-list
operations and per-property calls) are recorded as spans: id, parent id, name,
start, end and the id of the part list being processed. Fine-grained calls
(``QuasiPoly.value``/``count``, ``bernoulli_poly``, ``split_weight``) run
hundreds of thousands of times per pass; they are timed and counted at the
same boundary but not recorded, which keeps the tracer's own cost down.

Self time of a layer is its duration minus the time its children cover. A
child charges its parent for its whole wrapper, bookkeeping included, so the
tracer's cost lands in no layer's self time; it shows in
``trace.overhead_ratio`` instead.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from collections import Counter, defaultdict


def _count_dp_cells(tracer, args, result):
    tracer.counts["oracle.count_dp.cells"] += len(result.parts) * len(result.counts)


def _cert_cells(tracer, args, result):
    tracer.counts["quasipoly.cert_cells"] += sum(2 * fn.period for fn in args[0].coeffs)


# (module, attribute, recorded as a span?, distinct key of the arguments, hook on the result)
LAYERS = [
    ("bernoulli", "bernoulli_poly", False, lambda args: args, None),
    ("polypart", "split_weight", False, None, None),
    ("polypart", "v1_explicit", True, None, None),
    ("quasipoly", "build_explicit", True, lambda args: tuple(args[0]), None),
    ("quasipoly", "build_recursive", True, None, None),
    ("quasipoly", "extend_recursive", True, None, None),
    ("quasipoly", "closure_fn", True, None, None),
    ("quasipoly", "QuasiPoly.value", False, None, None),
    ("quasipoly", "QuasiPoly.count", False, None, None),
    ("quasipoly", "QuasiPoly.to_json", True, None, _cert_cells),
    ("oracle", "count_dp", True, None, _count_dp_cells),
]
# generators: only the items they yield are counted
COUNTED = [("exactnum", "compositions")]


class Tracer:
    """In-memory spans, per-layer self times, call counts and counters."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, name, start ns, end ns, list id)
        self.list_id: int | None = None
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.keys: defaultdict = defaultdict(set)
        self._stack: list[list[int]] = []  # per open call: [ns covered by children, span id]
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name, fn, args=(), kwargs=None, record=True, key=None, hook=None):
        """Run fn(*args, **kwargs) as one traced call of the layer `name`."""
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [0, next(self._ids) if record else 0]
        stack.append(frame)
        clock = time.perf_counter_ns
        start = clock()
        try:
            result = fn(*args, **(kwargs or {}))
        except BaseException:
            stack.pop()
            raise
        end = clock()
        stack.pop()
        self.self_ns[name] += end - start - frame[0]
        self.total_ns[name] += end - start
        self.calls[name] += 1
        if record:
            self.spans.append((frame[1], parent[1] if parent else 0, name, start, end, self.list_id))
        if key is not None:
            self.keys[name].add(key(args))
        if hook is not None:
            hook(self, args, result)
        if parent is not None:
            parent[0] += clock() - start
        return result

    def _timed(self, name, fn, record, key, hook):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, record, key, hook)

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name + ".count"] += 1
                yield item

        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, package: str, attr: str, orig, new) -> None:
        for name, mod in list(sys.modules.items()):
            if (name == package or name.startswith(package + ".")) and getattr(mod, attr, None) is orig:
                self._patch(mod, attr, new)

    def install(self, package: str = "denumerant") -> None:
        for module, attr, record, key, hook in LAYERS:
            owner = sys.modules[f"{package}.{module}"]
            cls_name, _, attr = attr.rpartition(".")
            name = f"{module}.{attr}"
            if cls_name:  # a method: patch the class once
                cls = getattr(owner, cls_name)
                self._patch(cls, attr, self._timed(name, getattr(cls, attr), record, key, hook))
            else:
                orig = getattr(owner, attr)
                self._patch_everywhere(package, attr, orig, self._timed(name, orig, record, key, hook))
        for module, attr in COUNTED:
            orig = getattr(sys.modules[f"{package}.{module}"], attr)
            self._patch_everywhere(package, attr, orig, self._counted(f"{module}.{attr}", orig))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def distinct_ratio(self, name: str) -> float:
        return len(self.keys[name]) / self.calls[name] if self.calls[name] else 0.0

    def write(self, path) -> None:
        """Write every recorded span, in the order the spans closed."""
        fields = ["id", "parent", "name", "start_ns", "end_ns", "list"]
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh, separators=(",", ":"))
