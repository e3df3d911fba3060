"""comphr benchmark: one workload, one seed, a fixed measuring time.

Run from the root of a checkout:

    python3 perfbench/run.py --workload map-shortcut --seed 1 --seconds 35 --trace 0

The program is imported from the checkout's own ``src`` tree; without it the
benchmark exits with code 2.  Human-readable lines go to standard output, and
the last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a separate traced run with ``--trace 1``.  A JSON run record (and,
when traced, every span) is written to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, layer_metrics
from workloads import WORKLOADS, load_reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_RUNS = 7
#: At most this many traced blocks per traced run, which bounds the span count.
MAX_TRACED_BLOCKS = 3
#: A latency percentile is reported only with this many samples beyond it.
SAMPLES_BEYOND_PERCENTILE = 10
#: Per-command limit for the README commands of the traced run.
README_TIMEOUT_S = 60

# The five README commands, run once each as a subprocess in the traced run.
README_CONFIG = {"couplings": [3.0, 4.0], "coupling_phases": [0.0, 0.5], "shape": "rectangular",
                 "detuning": 0.0, "hr_phase": 1.0, "family": {"family": "bb", "n": 3}}
README_COMMANDS = (
    ("phases", ["phases", "--family", "bb", "--n", "5"]),
    ("hr", ["hr", "--config", "system.json", "--area", "0.9pi", "--out", "result.json"]),
    ("scan-area", ["scan-area", "--n", "1,3,5,9", "--phi", "pi/2", "--points", "161",
                   "--out", "area_scan.csv"]),
    ("scan-2d", ["scan-2d", "--family", "universal", "--n", "5", "--variant", "2", "--phi", "pi",
                 "--out", "universal_map.csv"]),
    ("scan-2d-full", ["scan-2d", "--family", "universal", "--n", "5", "--variant", "2",
                      "--phi", "pi", "--full", "--N", "3", "--seed", "7",
                      "--out", "universal_map_full.csv"]),
)


def import_program():
    """Import comphr from the checkout's src tree, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import comphr
    import comphr.cli  # noqa: F401  (loads every module the tracer wraps)

    if Path(comphr.__file__).resolve().parent != (SRC / "comphr").resolve():
        raise ImportError(f"comphr was imported from {comphr.__file__}, not from {SRC}")
    return comphr


def setup_probe(workload_name: str, seed: int) -> int:
    """Body of one fresh interpreter timed by `setup_s`: import, build inputs, report ready."""
    comphr = import_program()
    cls = WORKLOADS[workload_name]
    workload = cls(comphr, seed, WORK_DIR, {cls.name: {}})
    next(iter(workload.ops()))
    print("ready", flush=True)
    return 0


def time_setup(workload_name: str, seed: int) -> float:
    """Wall time until a fresh interpreter has imported comphr and built the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload_name, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def machine_record(np) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    threads = {k: os.environ.get(k, "unset")
               for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": threads}


def host_probe_ms(np) -> float:
    """Median time of a fixed numpy workload: a host-speed diagnostic, never a normalizer."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2000, 4, 4)) + 1j * rng.standard_normal((2000, 4, 4))
    h = a + a.conj().swapaxes(-1, -2)
    m = np.linalg.eigh(h[:2, :2, :2])[1][0]
    reps = []
    for _ in range(4):  # the first repeat warms up and is dropped
        t0 = time.perf_counter()
        for _ in range(3):
            np.linalg.eigh(h)
        u = m
        for _ in range(5000):
            u = m @ u
        reps.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(reps[1:])


class Ledger:
    """Ops attempted, and the reason for each one that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, workload, op, tracer=None, op_id=-1) -> float:
        """Run and check one op; returns its latency in seconds."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                output = workload.execute(op)
            else:
                output = tracer.run_op(op_id, workload.execute, op)
        except Exception as exc:  # a failed op is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"{type(exc).__name__}: {exc}")
            return time.perf_counter() - t0
        latency = time.perf_counter() - t0
        try:
            problem = workload.check(op, output)
        except Exception as exc:  # an unreadable output is a failed check
            problem = f"output check raised {type(exc).__name__}: {exc}"
        if problem:
            self.failures.append(problem)
        return latency

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failures.append(reason)


def percentile_line(latencies: list[float]) -> tuple[float | None, str]:
    """p90 when at least 10 samples lie beyond it, else None and the reason."""
    n = len(latencies)
    if n * 0.1 < SAMPLES_BEYOND_PERCENTILE:
        need = SAMPLES_BEYOND_PERCENTILE * 10
        return None, f"not reported: {n} ops, p90 needs at least {need}"
    return statistics.quantiles(latencies, n=10)[8], f"n={n} ops"


def run_untraced(workload, seconds: float, ledger: Ledger, probe_setup) -> dict:
    """Closed loop for `seconds`, with the set-up probes spread evenly over it.

    Time spent in a probe extends the deadline, so ops get the full measuring
    time and the probes sample the whole run rather than one stretch of it.
    """
    ops = iter(workload.ops())
    for _ in range(workload.trace_ops):  # warm-up: one cycle, checked, not timed
        ledger.run(workload, next(ops))
    samples, setup = [], []
    start = time.perf_counter()
    paused = 0.0
    while not samples or time.perf_counter() - paused < start + seconds:
        op = next(ops)
        samples.append((workload.items(op), ledger.run(workload, op)))
        now = time.perf_counter()
        if len(setup) < SETUP_RUNS and now - paused - start >= len(setup) * seconds / SETUP_RUNS:
            setup.append(probe_setup())
            paused += time.perf_counter() - now
    while len(setup) < SETUP_RUNS:
        setup.append(probe_setup())
    return {"samples": samples, "setup_s": setup}


def run_traced(workload, seconds: float, ledger: Ledger, tracer) -> dict:
    """Alternate the same block of ops untraced and traced; the block is one op cycle."""
    ops = iter(workload.ops())
    block = [next(ops) for _ in range(workload.trace_ops)]
    for op in block:  # warm-up, checked, not timed
        ledger.run(workload, op)
    untraced, traced, blocks = [], [], []
    deadline = time.perf_counter() + seconds
    op_id = 0
    while not traced or (len(traced) < MAX_TRACED_BLOCKS and time.perf_counter() < deadline):
        untraced.append(sum(ledger.run(workload, op) for op in block))
        ids = list(range(op_id, op_id + len(block)))
        op_id += len(block)
        tracer.install()
        try:
            traced.append(sum(ledger.run(workload, op, tracer, i) for op, i in zip(block, ids)))
        finally:
            tracer.uninstall()
        blocks.append(ids)
    return {"units": sum(workload.items(op) for op in block), "blocks": blocks,
            "untraced_block_s": untraced, "traced_block_s": traced}


def run_readme_commands(ledger: Ledger, workdir: Path) -> dict:
    """Wall time of each README command as a fresh subprocess, start-up included."""
    (workdir / "system.json").write_text(json.dumps(README_CONFIG), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = {}
    for name, args in README_COMMANDS:
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "comphr.cli", *args], cwd=workdir,
                                  env=env, capture_output=True, timeout=README_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            ledger.fail(f"README command {name} timed out")
            continue
        times[name] = time.perf_counter() - t0
        if proc.returncode != 0:
            ledger.fail(f"README command {name} exited with {proc.returncode}")
    return times


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "comphr" / "__init__.py").is_file():
        print(f"error: no comphr source tree under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    comphr = import_program()
    import numpy as np

    machine = machine_record(np)
    probe_start = host_probe_ms(np)
    workdir = WORK_DIR / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ledger = Ledger()
    try:
        workload = WORKLOADS[args.workload](comphr, args.seed, workdir, load_reference())
        if args.trace:
            tracer = Tracer()
            result = run_traced(workload, args.seconds, ledger, tracer)
            readme = run_readme_commands(ledger, workdir)
        else:
            result = run_untraced(workload, args.seconds, ledger,
                                  lambda: time_setup(args.workload, args.seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    probe_end = host_probe_ms(np)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    print(f"comphr benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + json.dumps(machine, sort_keys=True))
    print(f"host_probe_ms: start={probe_start:.2f} end={probe_end:.2f} "
          "(diagnostic only, never used to normalize a metric)")
    failed = len(ledger.failures)
    for reason in ledger.failures[:5]:
        print(f"FAILED: {reason}")
    record = {"args": vars(args), "machine": machine,
              "host_probe_ms": {"start": probe_start, "end": probe_end},
              "failures": ledger.failures}
    unit = workload.unit

    if args.trace:
        untraced_s = statistics.median(result["untraced_block_s"])
        traced_s = statistics.median(result["traced_block_s"])
        overhead_pct = 100.0 * (traced_s / untraced_s - 1.0)
        metrics = layer_metrics(tracer, result["blocks"], result["units"], overhead_pct)
        spans = tracer.write(OUT_DIR / f"{stem}-spans.csv.gz")
        rate = f"{unit}_per_s"
        print(f"traced block: {result['units']} {unit} in {len(result['blocks'][0])} ops; "
              f"{len(result['blocks'])} traced and {len(result['untraced_block_s'])} untraced blocks; "
              f"{spans} spans written to {OUT_DIR.name}/{stem}-spans.csv.gz")
        print(f"{rate}: untraced {result['units'] / untraced_s:.6g}, traced "
              f"{result['units'] / traced_s:.6g}; tracing overhead {overhead_pct:.2f}%")
        if tracer.uncounted:
            print(f"warning: {tracer.uncounted} calls could not be counted")
        for name, m in metrics.items():
            print(f"{name:26s} {m['value']:.6g} {m['unit']}")
        for name, seconds in readme.items():
            print(f"readme {name:14s} {seconds:.4f} s (subprocess wall time, diagnostic)")
        record.update(readme_s=readme, trace=result, uncounted_calls=tracer.uncounted)
    else:
        setup_times = result["setup_s"]
        lat = [t for _, t in result["samples"]]
        n = len(lat)
        items = sum(i for i, _ in result["samples"])
        # Total work over total op time, not over a median: a shared 2-vCPU
        # Xeon VM drifts between a fast and a ~1.7x slower mode, and a mean
        # moves smoothly with the share of slow ops where a median jumps
        # between the modes.
        rate = items / sum(lat)
        p50 = statistics.median(lat)
        p90, p90_note = percentile_line(lat)
        setup_s = statistics.median(setup_times)
        rows = [
            (f"{unit}_per_s", f"{rate:.6g} {unit}/s", f"n={n} ops, {items} {unit}"),
            ("latency_p50_s", f"{p50:.6g} s", f"n={n} ops"),
            ("latency_p90_s", "-" if p90 is None else f"{p90:.6g} s", p90_note),
            ("setup_s", f"{setup_s:.6g} s", f"n={len(setup_times)} fresh interpreters"),
            ("peak_rss_mb", f"{peak_rss_mb:.6g} MB", "n=1 process"),
            ("error_rate", f"{failed / ledger.attempted:.6g}",
             f"{failed} of {ledger.attempted} ops failed"),
        ]
        for name, value, note in rows:
            print(f"{name:16s} {value:24s} {note}")
        metrics = {"items_per_s": metric(rate, "items/s"), "latency_p50_s": metric(p50, "s"),
                   "setup_s": metric(setup_s, "s"), "peak_rss_mb": metric(peak_rss_mb, "MB")}
        record.update(ops=result["samples"], setup_s=setup_times, p90_s=p90)
    record["metrics"] = metrics
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, default=str)
    print(json.dumps({"correct": failed == 0, "attempted": ledger.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
