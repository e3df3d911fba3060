"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/selftest.py

They import comphr from the checkout's src tree, as the benchmark does.  The
file is not named test_*.py, so the repository's own test run does not
collect it.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

comphr = run.import_program()
REFERENCE = wl.load_reference()


def make(name: str, seed: int, workdir, reference=REFERENCE):
    return wl.WORKLOADS[name](comphr, seed, workdir, reference)


def first_ops(workload, k: int) -> list:
    ops = iter(workload.ops())
    return [next(ops) for _ in range(k)]


def test_self_time_of_a_synthetic_nest():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9].
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    assert list(tr.self_times(parents, starts, ends)) == [3.0, 2.0, 1.0, 4.0]


def test_layer_summary_splits_self_time_and_counts_calls_into_a_layer():
    t = tr.Tracer()
    names = {n: t._intern(n) for n in ("bench.op", "npod.f", "linalg.g", "linalg.h")}
    rows = [  # (name, parent, start, end): op -> npod.f -> linalg.g -> linalg.h
        ("bench.op", -1, 0.0, 8.0), ("npod.f", 0, 1.0, 7.0),
        ("linalg.g", 1, 2.0, 6.0), ("linalg.h", 2, 3.0, 4.0),
    ]
    for name, parent, start, end in rows:
        t.name.append(names[name])
        t.op.append(0)
        t.parent.append(parent)
        t.start.append(start)
        t.end.append(end)
    counts, times = t.summary([0])
    assert times["npod.self_s"] == 2.0
    assert times["linalg.self_s"] == 4.0
    assert times["linalg.h"] == 1.0
    assert counts["npod.calls"] == 1 and counts["linalg.calls"] == 1


def test_tracer_rebinds_every_module_name_and_restores_originals():
    original = comphr.linalg.expm_hermitian
    assert comphr.npod.expm_hermitian is original
    t = tr.Tracer()
    t.install()
    try:
        assert comphr.npod.expm_hermitian is not original
        assert comphr.expm_hermitian is comphr.linalg.expm_hermitian is comphr.npod.expm_hermitian
        sys3 = comphr.npod.NPodSystem((1.0,), (0.0,))
        t.run_op(0, comphr.npod.pulse_propagator, sys3, np.pi)
    finally:
        t.uninstall()
    assert comphr.npod.expm_hermitian is original
    assert comphr.linalg.expm_hermitian is original
    names = [t.names[i] for i in t.name]
    assert names[:3] == ["bench.op", "npod.pulse_propagator", "npod.npod_hamiltonian"]
    assert "linalg.expm_hermitian" in names and "linalg.expm_hermitian_stack" in names
    counts, _ = t.summary([0])
    assert counts["npod.pulses"] == 1 and counts["linalg.matrices"] == 1


def test_tracing_leaves_the_csv_output_unchanged(tmp_path):
    w = make("map-shortcut", 0, tmp_path)
    op = wl.SHORTCUT_MAPS[1]
    plain = w.execute(op).read_bytes()
    t = tr.Tracer()
    t.install()
    try:
        traced = t.run_op(0, w.execute, op).read_bytes()
    finally:
        t.uninstall()
    assert traced == plain
    counts, times = t.summary([0])
    assert counts["metrics.csv_bytes"] == len(plain)
    assert counts["metrics.points"] == wl.SHORTCUT_GRID ** 2
    assert times["metrics.ScanResult.to_csv"] > 0


def test_reference_perturbed_by_1e6_is_a_failure(tmp_path):
    # map-shortcut: a real op against its stored samples.
    w = make("map-shortcut", 0, tmp_path)
    op = wl.SHORTCUT_MAPS[1]
    out = w.execute(op)
    assert w.check(op, out) is None
    bumped = {k: [list(s) for s in v] for k, v in REFERENCE["map-shortcut"].items()}
    bumped[op[0]][7][2] += 1e-6
    assert "deviate" in make("map-shortcut", 0, tmp_path, {"map-shortcut": bumped}).check(op, out)

    # gates-shaped: one rectangular N = 50 gate against its stored amplitude.
    g = make("gates-shaped", 0, tmp_path)
    gate = (6, "u5v2", "1.1", "-0.1")
    block = [g.gate(*gate)]
    assert g.check((gate,), block) is None
    key = wl.gate_key(wl.GATE_SLOTS[6][0], *gate[1:])
    bumped = dict(REFERENCE["gates-shaped"])
    bumped[key] = [bumped[key][0] + 1e-6] + bumped[key][1:]
    assert key in make("gates-shaped", 0, tmp_path, {"gates-shaped": bumped}).check((gate,), block)


def test_map_full_check_compares_every_point_with_the_shortcut(tmp_path):
    shortcut = np.array(REFERENCE["map-full"]["shortcut"])
    areas, dets = np.meshgrid(np.linspace(0, 2, wl.FULL_GRID), np.linspace(-2, 2, wl.FULL_GRID),
                              indexing="ij")

    def write(values):
        path = tmp_path / "full.csv"
        rows = zip(areas.ravel(), dets.ravel(), values)
        path.write_text("A_over_pi,Delta_over_Omega,F\n"
                        + "".join(f"{a:.17g},{d:.17g},{f:.17g}\n" for a, d, f in rows))
        return path

    w = make("map-full", 0, tmp_path)
    assert w.check(3, write(shortcut)) is None
    bumped = shortcut.copy()
    bumped[-1] += 1e-6
    assert "deviates" in w.check(3, write(bumped))


def test_an_exception_in_an_op_is_a_failure(tmp_path):
    class Broken:
        def execute(self, op):
            raise ValueError("boom")

    ledger = run.Ledger()
    ledger.run(Broken(), None)
    assert ledger.attempted == 1 and ledger.failures == ["ValueError: boom"]


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_two_traced_runs_with_one_seed_give_identical_counts(name, tmp_path):
    counts = []
    for _ in range(2):
        t = tr.Tracer()
        ledger = run.Ledger()
        result = run.run_traced(make(name, 5, tmp_path), 0.0, ledger, t)
        assert ledger.failures == []
        metrics = tr.layer_metrics(t, result["blocks"], result["units"], 0.0)
        counts.append({k: m["value"] for k, m in metrics.items()
                       if m["unit"] not in ("s", "MB/s", "%")})
    assert counts[0] == counts[1]
    assert counts[0]["linalg.matrices"] > 0


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_a_different_seed_changes_parameters_but_not_sizes(name, tmp_path):
    a, b = make(name, 1, tmp_path), make(name, 2, tmp_path)
    ops_a, ops_b = first_ops(a, 6), first_ops(b, 6)
    assert ops_a != ops_b
    assert [a.items(op) for op in ops_a] == [b.items(op) for op in ops_b]
    if name == "gates-shaped":
        slots = [[gate[0] for gate in op] for op in ops_a + ops_b]
        assert all(s == list(range(len(wl.GATE_SLOTS))) for s in slots)
    else:
        def grid(w, op):
            argv = w.argv(op, "out.csv")
            return argv[argv.index("--apoints") + 1], argv[argv.index("--dpoints") + 1]
        assert {grid(a, op) for op in ops_a} == {grid(b, op) for op in ops_b}
