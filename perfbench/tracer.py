"""Spans and counts around the public functions of every comphr module.

The layers are the modules (`linalg`, `two_level`, `composite`, `npod`,
`metrics`, `cli`).  `Tracer.install` wraps every public function a module
defines, plus `ScanResult.to_csv`, and rebinds the wrapper under every name
that holds the original in any loaded comphr module: `npod` calls
`expm_hermitian` through its own `from .linalg import ...` binding, so
wrapping only `comphr.linalg` would miss it.  `uninstall` puts the originals
back, so untraced runs execute the unmodified program.

Spans live in flat arrays while the run lasts (name, op, parent, start, end)
and are written out once at the end.  A span's self time is its duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import math
import os
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict

PACKAGE = "comphr"
LAYERS = ("linalg", "two_level", "composite", "npod", "metrics", "cli")
#: Public methods traced besides module-level functions: the CSV writer.
METHODS = (("metrics", "ScanResult", "to_csv"),)
#: Name of the benchmark's own span around each op.
OP_SPAN = "bench.op"


def _flops(n: int) -> int:
    """Computed cost of exp(-iht) for one n x n Hermitian matrix, in real flops.

    Model: 36 n^3 for the complex eigendecomposition with vectors (four real
    flops per complex multiply-add, about 9 n^3 of them), 8 n^3 for the
    reconstruction matmul, 6 n^2 for the phase scaling.
    """
    return 44 * n ** 3 + 6 * n * n


def _bytes(n: int) -> int:
    """Computed bytes touched per matrix: six passes over an n x n complex stack, two over n eigenvalues."""
    return 6 * 16 * n * n + 2 * 8 * n


def _count_expm_stack(c, arg, result):
    shape = getattr(arg("h"), "shape", ())
    if len(shape) < 2:
        return
    n = int(shape[-1])
    batch = math.prod(int(d) for d in shape[:-2])
    c["linalg.matrices"] += batch
    c["linalg.flops_computed"] += batch * _flops(n)
    c["linalg.bytes_computed"] += batch * _bytes(n)
    # Input, eigenvectors, scaled eigenvectors and result are live at once.
    c["linalg.peak_stack_mb"] = max(c["linalg.peak_stack_mb"], batch * 4 * 16 * n * n / 1e6)


def _count_pulse(c, arg, result):
    if arg("area") == 0:
        return
    c["npod.pulses"] += 1
    rectangular = arg("sys").shape.kind == "rectangular"
    c["npod.slices"] += 1 if rectangular else int(arg("substeps"))


def _count_sequence(c, arg, result):
    if arg("area") > 0:
        c["composite.pulses"] += len(arg("seq").pulse_phases)


def _count_scan_2d(c, arg, result):
    grid = arg("grid")
    c["metrics.points"] += int(grid.axis1.points) * int(grid.axis2.points)


def _count_scan_area(c, arg, result):
    c["metrics.points"] += int(arg("grid").axis1.points) * len(arg("families"))


def _count_to_csv(c, arg, result):
    f = arg("f")
    if isinstance(f, (str, bytes)) or hasattr(f, "__fspath__"):
        c["metrics.csv_bytes"] += os.path.getsize(f)


def _count_infidelity(c, arg, result):
    c["metrics.infidelity_calls"] += 1


#: Counts recorded at the wrappers, keyed by span name.  A counter runs after
#: the wrapped call returns and sees its arguments by parameter name.
COUNTERS = {
    "linalg.expm_hermitian_stack": _count_expm_stack,
    "npod.pulse_propagator": _count_pulse,
    "two_level.shaped_propagator": lambda c, arg, r: c.update({"two_level.slices": int(arg("substeps"))}),
    "two_level.constant_propagator": lambda c, arg, r: c.update({"two_level.slices": 1}),
    "composite.sequence_propagator": _count_sequence,
    "metrics.scan_2d": _count_scan_2d,
    "metrics.scan_area": _count_scan_area,
    "metrics.infidelity": _count_infidelity,
    "metrics.ScanResult.to_csv": _count_to_csv,
}


def _binder(fn):
    """Fast by-name argument lookup for calls of fn (positional, keyword, default)."""
    index = {p.name: (i, p.default) for i, p in enumerate(inspect.signature(fn).parameters.values())}

    def bind(args, kwargs):
        def arg(name):
            i, default = index[name]
            return args[i] if i < len(args) else kwargs.get(name, default)
        return arg
    return bind


def self_times(parents, starts, ends) -> array:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread's call stack, so the children of a span are
    disjoint intervals inside it and their durations add up to the time they
    cover.
    """
    out = array("d", (e - s for s, e in zip(starts, ends)))
    for sid, p in enumerate(parents):
        if p >= 0:
            out[p] -= ends[sid] - starts[sid]
    return out


class Tracer:
    """In-memory span recorder; `install` and `uninstall` swap the wrappers in and out."""

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name = array("l")
        self.op = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.uncounted = 0
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple[object, str, object]] = []
        self._self_cache: tuple[int, array] = (0, array("d"))

    def _intern(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def _open(self, name_index: int) -> int:
        sid = len(self.start)
        self.name.append(name_index)
        self.op.append(self._op)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(math.nan)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, span_name: str):
        index = self._intern(span_name)
        counter = COUNTERS.get(span_name)
        bind = _binder(fn) if counter else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if counter is not None:
                try:
                    counter(tracer.counts[tracer._op], bind(args, kwargs), result)
                except (KeyError, TypeError, AttributeError, ValueError, OSError):
                    # The program's signature moved away from the counter;
                    # the call itself succeeded and its result is returned.
                    tracer.uncounted += 1
            return result

        return traced

    def targets(self) -> list[tuple[object, str, object, str]]:
        """(owner, attribute, original, span name) for every traced callable."""
        found = []
        for layer in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    found.append((mod, attr, obj, f"{layer}.{attr}"))
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules.get(f"{PACKAGE}.{layer}"), cls_name, None)
            if cls is not None and inspect.isfunction(cls.__dict__.get(meth)):
                found.append((cls, meth, cls.__dict__[meth], f"{layer}.{cls_name}.{meth}"))
        return found

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for owner, attr, original, span_name in self.targets():
            wrapper = self._wrap(original, span_name)
            wrappers[id(original)] = (original, wrapper)
            if isinstance(owner, type):
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) inside the benchmark's own root span for op `op_id`."""
        self._op = op_id
        sid = self._open(self._intern(OP_SPAN))
        try:
            return fn(*args)
        finally:
            self._close(sid)
            self._op = -1

    def summary(self, op_ids) -> tuple[Counter, dict[str, float]]:
        """Counts and per-name self times summed over the spans of the given ops.

        Counts include `<layer>.calls`: spans whose parent belongs to another
        layer (or to the benchmark), i.e. calls into the layer.  Self times
        include `<layer>.self_s` and `<span name>` for every span name.
        """
        ops = set(op_ids)
        selfs = self.self_times()
        layer_of = [n.split(".", 1)[0] for n in self.names]
        counts = Counter()
        for op in ops:
            for key, value in self.counts.get(op, {}).items():
                if key.endswith("peak_stack_mb"):
                    counts[key] = max(counts[key], value)
                else:
                    counts[key] += value
        times: dict[str, float] = defaultdict(float)
        for sid in range(len(self.start)):
            if self.op[sid] not in ops:
                continue
            name = self.name[sid]
            layer = layer_of[name]
            times[self.names[name]] += selfs[sid]
            times[f"{layer}.self_s"] += selfs[sid]
            p = self.parent[sid]
            if p < 0 or layer_of[self.name[p]] != layer:
                counts[f"{layer}.calls"] += 1
        return counts, times

    def self_times(self) -> array:
        if self._self_cache[0] != len(self.start):
            self._self_cache = (len(self.start), self_times(self.parent, self.start, self.end))
        return self._self_cache[1]

    def write(self, path) -> int:
        """Write every span as gzip CSV (id, parent, op, name, start, end; seconds). Returns the span count."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("id,parent,op,name,start_s,end_s\n")
            for sid in range(len(self.start)):
                f.write(f"{sid},{self.parent[sid]},{self.op[sid]},{self.names[self.name[sid]]},"
                        f"{self.start[sid] - t0:.9f},{self.end[sid] - t0:.9f}\n")
        return len(self.start)


#: Per-layer metrics the traced run reports: (name, unit).  Times are medians
#: over the traced blocks; counts are those of one block and repeat exactly.
PER_LAYER = (
    ("linalg.calls", "count"), ("linalg.matrices", "count"), ("linalg.self_s", "s"),
    ("linalg.matrices_per_unit", "count"), ("linalg.flops_computed", "flop"),
    ("linalg.bytes_computed", "B"), ("linalg.peak_stack_mb", "MB"),
    ("npod.calls", "count"), ("npod.pulses", "count"), ("npod.slices", "count"),
    ("npod.self_s", "s"),
    ("two_level.calls", "count"), ("two_level.slices", "count"), ("two_level.self_s", "s"),
    ("composite.calls", "count"), ("composite.pulses", "count"), ("composite.self_s", "s"),
    ("metrics.points", "count"), ("metrics.kernel_s", "s"), ("metrics.infidelity_calls", "count"),
    ("metrics.self_s", "s"), ("metrics.csv_s", "s"), ("metrics.csv_bytes", "B"),
    ("metrics.csv_mb_per_s", "MB/s"),
    ("cli.calls", "count"), ("cli.self_s", "s"),
    ("trace.overhead_pct", "%"),
)
#: Self times reported under their own metric name, by span name.
SPAN_TIMES = {"metrics.kernel_s": "metrics.composite_amplitudes",
              "metrics.csv_s": "metrics.ScanResult.to_csv"}


def layer_metrics(tracer: Tracer, blocks, units_per_block: int, overhead_pct: float) -> dict:
    """Per-layer metrics of one traced block, from the spans of every traced block."""
    summaries = [tracer.summary(block) for block in blocks]
    counts = summaries[0][0]
    values = {}
    for name, unit in PER_LAYER:
        if unit == "s":
            key = SPAN_TIMES.get(name, name)
            values[name] = statistics.median(times.get(key, 0.0) for _, times in summaries)
        else:
            values[name] = counts.get(name, 0)
    values["linalg.matrices_per_unit"] = counts.get("linalg.matrices", 0) / units_per_block
    csv_s = values["metrics.csv_s"]
    values["metrics.csv_mb_per_s"] = values["metrics.csv_bytes"] / 1e6 / csv_s if csv_s > 0 else 0.0
    values["trace.overhead_pct"] = overhead_pct
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
