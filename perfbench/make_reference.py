"""Regenerate perfbench/reference.json from the program in the checkout's src tree.

    python3 perfbench/make_reference.py

The committed file was generated from the seed code; regenerate it only when
a change is meant to alter results beyond the benchmark's tolerances.
"""

from __future__ import annotations

import json
import shutil
import sys

import numpy as np

from run import WORK_DIR, import_program
from workloads import (
    FULL_GRID,
    GATE_AREA_FACTORS,
    GATE_DETUNINGS,
    GATE_FAMILIES,
    GATE_SLOTS,
    REFERENCE_PATH,
    SHORTCUT_GRID,
    SHORTCUT_MAPS,
    GatesShaped,
    MapFull,
    MapShortcut,
    bright_vector,
    gate_key,
    read_map_csv,
)

SAMPLE_SEED = 20161605
SAMPLES_PER_MAP = 64
#: Systems with at least this many states store only the bright-to-bright amplitude.
COMPACT_DIM = 10


def _num(x: float) -> float:
    """15 significant digits: far below the 1e-9 tolerance, and a smaller file."""
    return float(f"{x:.15g}")


def _sample_indices(points: int) -> list[tuple[int, int]]:
    rng = np.random.default_rng(SAMPLE_SEED)
    mid, last = points // 2, points - 1
    fixed = [(mid, mid), (0, 0), (0, last), (last, 0), (last, last)]
    drawn = rng.integers(0, points, size=(SAMPLES_PER_MAP, 2))
    return fixed + [(int(i), int(j)) for i, j in drawn]


def shortcut_maps(comphr, workdir) -> dict:
    w = MapShortcut(comphr, 0, workdir, {MapShortcut.name: {}})
    out = {}
    for op in SHORTCUT_MAPS:
        rows = read_map_csv(w.execute(op), SHORTCUT_GRID)
        out[op[0]] = [[i, j, _num(rows[i, j, 2])] for i, j in _sample_indices(SHORTCUT_GRID)]
    return out


def full_map(comphr, workdir) -> dict:
    w = MapFull(comphr, 0, workdir, {MapFull.name: {}})
    argv = w.argv(0, workdir / "shortcut.csv")
    if argv[1:6] != ["--full", "--N", "3", "--seed", "0"]:
        raise RuntimeError("unexpected map-full command line")
    if comphr.cli.main(argv[:1] + argv[6:]) != 0:
        raise RuntimeError("shortcut scan failed")
    shortcut = read_map_csv(workdir / "shortcut.csv", FULL_GRID)[:, :, 2]
    doc = {"shortcut": [_num(x) for x in shortcut.ravel()]}
    problem = MapFull(comphr, 0, workdir, {MapFull.name: doc}).check(0, w.execute(0))
    if problem:
        raise RuntimeError(f"full map disagrees with the shortcut: {problem}")
    return doc


def gate_blocks(comphr, workdir) -> dict:
    g = GatesShaped(comphr, 0, workdir, {GatesShaped.name: {}})
    out = {}
    for k, (slot, n, _, _) in enumerate(GATE_SLOTS):
        system = g.slots[k][2]
        for family, _ in GATE_FAMILIES:
            for area in GATE_AREA_FACTORS:
                for det in GATE_DETUNINGS:
                    block = g.gate(k, family, area, det)
                    if n >= COMPACT_DIM:
                        v = bright_vector(system)
                        u = complex(v.conj() @ block @ v)
                        rebuilt = np.eye(n) + (u - 1.0) * np.outer(v, v.conj())
                        dev = float(np.max(np.abs(block - rebuilt)))
                        if dev > 1e-12:
                            raise RuntimeError(f"{slot}: dark states are not spectators ({dev:.2e})")
                        block = np.array([u])
                    flat = block.ravel()
                    out[gate_key(slot, family, area, det)] = [
                        _num(x) for z in flat for x in (z.real, z.imag)]
    return out


def dump(doc: dict) -> str:
    """JSON with one reference entry per line."""
    lines = ["{"]
    for i, (section, body) in enumerate(doc.items()):
        if not isinstance(body, dict):
            lines.append(f" {json.dumps(section)}: {json.dumps(body)},")
            continue
        lines.append(f" {json.dumps(section)}: {{")
        items = list(body.items())
        for j, (key, value) in enumerate(items):
            comma = "," if j < len(items) - 1 else ""
            lines.append(f"  {json.dumps(key)}: {json.dumps(value)}{comma}")
        lines.append(" }" + ("," if i < len(doc) - 1 else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


def main() -> int:
    comphr = import_program()
    workdir = WORK_DIR / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        doc = {
            "about": "Generated by perfbench/make_reference.py from comphr "
                     f"{comphr.__version__}; values to 15 significant digits.",
            MapShortcut.name: shortcut_maps(comphr, workdir),
            MapFull.name: full_map(comphr, workdir),
            GatesShaped.name: gate_blocks(comphr, workdir),
        }
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    text = dump(doc)
    json.loads(text)
    REFERENCE_PATH.write_text(text, encoding="utf-8")
    print(f"wrote {REFERENCE_PATH} ({len(text)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
