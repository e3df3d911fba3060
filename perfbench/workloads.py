"""The three benchmark workloads: inputs drawn from a seed, one op, output checks.

Each workload is single-client and closed-loop: the loop in ``run.py``
starts the next op when the previous one returns.  A workload never holds a
reference to a comphr function; it looks every name up on the module at call
time, so the tracer's rebinding (see ``tracer.py``) sees every call.

Output checks compare values within tolerance against ``reference.json``,
which ``make_reference.py`` generated from the seed code.  They never compare
bytes: a faster kernel may move results by about 1e-14.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

#: Tolerance on every value compared with the stored reference.
REFERENCE_TOL = 1e-9
#: Bound on the infidelity at the nominal point A = pi, Delta = 0.
NOMINAL_TOL = 1e-12

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Grid ranges are passed explicitly so that a change of CLI defaults cannot
# silently change the workload.
_RANGES = ["--amin", "0", "--amax", "2", "--dmin", "-2", "--dmax", "2"]

# map-shortcut: (key, family flags, reflection phase).  The seed picks the order.
SHORTCUT_MAPS = (
    ("u5v2", ["--family", "universal", "--n", "5", "--variant", "2"], "pi"),
    ("bb1", ["--family", "bb", "--n", "1"], "pi"),
    ("bb9", ["--family", "bb", "--n", "9"], "pi/2"),
)
SHORTCUT_GRID = 301
FULL_GRID = 41
#: Seeds of the random N = 3 system that map-full draws from, one per op.
FULL_SYSTEM_SEEDS = tuple(range(16))

# gates-shaped: every gate draws its family, area and detuning from these sets.
GATE_FAMILIES = (("n3", ("bb", 3)), ("n5", ("bb", 5)),
                 ("u3v1", ("universal", 3, 1)), ("u5v2", ("universal", 5, 2)))
GATE_AREA_FACTORS = ("0.8", "0.9", "1", "1.1", "1.2")   # times pi
# Units of the rms Rabi peak.  Exact resonance is left out: there the seed
# code rejects its own shaped two-level gates (Propagator2's 1e-12 unitarity
# check fails after 2n x 1000 slices, defect 1e-12 to 7e-12), so every op
# would fail.  Detuned gates pass with defects below 4.2e-13.
GATE_DETUNINGS = ("-0.2", "-0.1", "0.1", "0.2")
GATE_HR_PHASE = math.pi
GATE_SUBSTEPS = 1000
#: Envelope of the tabulated gates: sin^2 sampled at 11 points, peak exactly 1.
TABULATED_SAMPLES = tuple((k / 10, math.sin(math.pi * k / 10) ** 2) for k in range(11))
#: The 8 gates of one op: (slot, manifold dimension N or 0 for two-level, shape, system seed).
GATE_SLOTS = (
    ("2lvl-gauss", 0, "gaussian", None),
    ("2lvl-tab", 0, "tabulated", None),
    ("n3-gauss-a", 3, "gaussian", 11),
    ("n3-gauss-b", 3, "gaussian", 12),
    ("n3-tab-a", 3, "tabulated", 11),
    ("n3-tab-b", 3, "tabulated", 12),
    ("n50-rect-a", 50, "rectangular", 21),
    ("n50-rect-b", 50, "rectangular", 22),
)


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def max_deviation(actual, reference) -> float:
    """Largest elementwise |actual - reference|; inf on a shape mismatch or NaN."""
    a = np.asarray(actual)
    r = np.asarray(reference)
    if a.shape != r.shape:
        return math.inf
    dev = float(np.max(np.abs(a - r))) if a.size else 0.0
    return dev if math.isfinite(dev) else math.inf


def read_map_csv(path, points: int, cells: np.ndarray | None = None) -> np.ndarray:
    """Rows of a scan-2d CSV as a (points, points, 3) array of (A/pi, Delta/Omega, F).

    Every row must hold three values.  A boolean (points, points) mask
    `cells` limits number parsing to those grid cells; the others read as NaN.
    """
    with open(path, encoding="utf-8") as f:
        header, _, body = f.read().partition("\n")
    if header != "A_over_pi,Delta_over_Omega,F":
        raise ValueError("unexpected CSV header")
    lines = body.splitlines()
    if len(lines) != points * points or any(line.count(",") != 2 for line in lines):
        raise ValueError(f"expected {points * points} rows of three values")
    rows = np.arange(points * points) if cells is None else np.flatnonzero(cells)
    values = np.full((points * points, 3), np.nan)
    values[rows] = np.array(",".join(lines[k] for k in rows).split(","), dtype=float).reshape(-1, 3)
    return values.reshape(points, points, 3)


def _axes_problem(rows: np.ndarray, points: int) -> str | None:
    areas = np.linspace(0.0, 2.0, points)
    dets = np.linspace(-2.0, 2.0, points)
    if max_deviation(rows[:, 0, 0], areas) > NOMINAL_TOL:
        return "area axis differs from the requested grid"
    if max_deviation(rows[0, :, 1], dets) > NOMINAL_TOL:
        return "detuning axis differs from the requested grid"
    return None


def _nominal_problem(values: np.ndarray) -> str | None:
    mid = values.shape[0] // 2, values.shape[1] // 2
    if not values[mid] <= NOMINAL_TOL:
        return f"nominal infidelity {values[mid]:.3e} exceeds {NOMINAL_TOL:g}"
    return None


class Workload:
    """Base class: `ops` yields op parameters, `execute` runs one, `check` verifies it."""

    name = ""
    #: What one item of throughput is: grid points or gates.
    unit = ""
    #: Ops in one traced block: one full cycle of the op sequence.
    trace_ops = 1

    def __init__(self, comphr, seed: int, workdir: Path, reference: dict):
        self.comphr = comphr
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.reference = reference[self.name]

    def ops(self):
        raise NotImplementedError

    def items(self, op) -> int:
        raise NotImplementedError

    def execute(self, op):
        raise NotImplementedError

    def check(self, op, output) -> str | None:
        """None when the output matches the reference, else a one-line reason."""
        raise NotImplementedError


class MapShortcut(Workload):
    """README `scan-2d` on a 301x301 grid, default two-level shortcut, CSV to a file."""

    name = "map-shortcut"
    unit = "points"
    trace_ops = len(SHORTCUT_MAPS)

    def ops(self):
        order = np.random.default_rng(self.seed).permutation(len(SHORTCUT_MAPS))
        return itertools.cycle([SHORTCUT_MAPS[int(k)] for k in order])

    def argv(self, op, out) -> list[str]:
        _, family, phi = op
        points = str(SHORTCUT_GRID)
        return ["scan-2d", *family, "--phi", phi, *_RANGES,
                "--apoints", points, "--dpoints", points, "--out", str(out)]

    def items(self, op) -> int:
        return SHORTCUT_GRID * SHORTCUT_GRID

    def execute(self, op):
        out = self.workdir / "map-shortcut.csv"
        code = self.comphr.cli.main(self.argv(op, out))
        if code != 0:
            raise RuntimeError(f"comphr scan-2d exited with {code}")
        return out

    def check(self, op, output) -> str | None:
        samples = np.array(self.reference[op[0]])
        i, j = samples[:, 0].astype(int), samples[:, 1].astype(int)
        # Only the axes, the nominal point and the samples are checked, so
        # only they are parsed: a full parse would cost a quarter of an op.
        cells = np.zeros((SHORTCUT_GRID, SHORTCUT_GRID), dtype=bool)
        cells[:, 0] = cells[0, :] = True
        cells[SHORTCUT_GRID // 2, SHORTCUT_GRID // 2] = True
        cells[i, j] = True
        rows = read_map_csv(output, SHORTCUT_GRID, cells)
        problem = _axes_problem(rows, SHORTCUT_GRID) or _nominal_problem(rows[:, :, 2])
        if problem:
            return problem
        dev = max_deviation(rows[i, j, 2], samples[:, 2])
        if dev > REFERENCE_TOL:
            return f"{op[0]}: sampled points deviate from the reference by {dev:.3e}"
        return None


class MapFull(Workload):
    """README cross-check `scan-2d --full --N 3 --seed <s>`, u5v2, phi = pi, 41x41."""

    name = "map-full"
    unit = "points"
    trace_ops = 1

    def ops(self):
        rng = np.random.default_rng(self.seed)
        while True:
            yield int(rng.choice(FULL_SYSTEM_SEEDS))

    def argv(self, op, out) -> list[str]:
        points = str(FULL_GRID)
        return ["scan-2d", "--full", "--N", "3", "--seed", str(op),
                "--family", "universal", "--n", "5", "--variant", "2", "--phi", "pi",
                *_RANGES, "--apoints", points, "--dpoints", points, "--out", str(out)]

    def items(self, op) -> int:
        return FULL_GRID * FULL_GRID

    def execute(self, op):
        out = self.workdir / "map-full.csv"
        code = self.comphr.cli.main(self.argv(op, out))
        if code != 0:
            raise RuntimeError(f"comphr scan-2d --full exited with {code}")
        return out

    def check(self, op, output) -> str | None:
        rows = read_map_csv(output, FULL_GRID)
        problem = _axes_problem(rows, FULL_GRID) or _nominal_problem(rows[:, :, 2])
        if problem:
            return problem
        # The infidelity does not depend on the system, so every op is
        # compared, point by point, with the two-level shortcut map.
        shortcut = np.array(self.reference["shortcut"]).reshape(FULL_GRID, FULL_GRID)
        dev = max_deviation(rows[:, :, 2], shortcut)
        if dev > REFERENCE_TOL:
            return f"system seed {op}: full map deviates from the shortcut by {dev:.3e}"
        return None


def bright_vector(system) -> np.ndarray:
    """Normalized coupling vector, computed here rather than by the code under test."""
    chi = np.array(system.couplings)
    return chi * np.exp(1j * np.array(system.coupling_phases)) / np.linalg.norm(chi)


def reference_block(entry, system) -> np.ndarray:
    """Manifold block of a stored reference entry.

    Entries hold flat [re, im, ...] lists.  A one-element entry stores only
    the bright-to-bright amplitude u of a large system, whose block is then
    I + (u - 1)|v><v| because the dark states are exact spectators; the
    generator checked this against the full block.
    """
    z = np.array(entry[0::2]) + 1j * np.array(entry[1::2])
    if z.size == 1:
        v = bright_vector(system)
        return np.eye(v.size, dtype=complex) + (z[0] - 1.0) * np.outer(v, v.conj())
    dim = math.isqrt(z.size)
    return z.reshape(dim, dim)


def gate_key(slot: str, family: str, area: str, detuning: str) -> str:
    return f"{slot}|{family}|{area}|{detuning}"


class GatesShaped(Workload):
    """A batch of 8 single gates: shaped two-level, shaped N = 3 and rectangular N = 50."""

    name = "gates-shaped"
    unit = "gates"
    trace_ops = 1

    def __init__(self, comphr, seed, workdir, reference):
        super().__init__(comphr, seed, workdir, reference)
        composite, npod, two_level = comphr.composite, comphr.npod, comphr.two_level
        self.families = {}
        for label, spec in GATE_FAMILIES:
            if spec[0] == "bb":
                self.families[label] = composite.bb_phases(spec[1])
            else:
                self.families[label] = composite.universal_phases(spec[1], spec[2])
        shapes = {"gaussian": two_level.gaussian(3.0),
                  "tabulated": two_level.tabulated(TABULATED_SAMPLES),
                  "rectangular": two_level.rectangular()}
        self.slots = []
        for slot, n, shape, system_seed in GATE_SLOTS:
            system = None
            if n:
                rng = np.random.default_rng(system_seed)
                v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                system = npod.NPodSystem(tuple(np.abs(v)), tuple(np.angle(v)), shapes[shape])
            self.slots.append((slot, shapes[shape], system))

    def ops(self):
        rng = np.random.default_rng(self.seed)
        while True:
            yield tuple(
                (k, GATE_FAMILIES[int(rng.integers(len(GATE_FAMILIES)))][0],
                 GATE_AREA_FACTORS[int(rng.integers(len(GATE_AREA_FACTORS)))],
                 GATE_DETUNINGS[int(rng.integers(len(GATE_DETUNINGS)))])
                for k in range(len(GATE_SLOTS)))

    def items(self, op) -> int:
        return len(op)

    def gate(self, slot_index: int, family: str, area: str, detuning: str) -> np.ndarray:
        _, shape, system = self.slots[slot_index]
        fam = self.families[family]
        a = float(area) * math.pi
        d = float(detuning)
        if system is None:
            composite = self.comphr.composite
            seq = composite.gate_sequence(fam, 2.0 * GATE_HR_PHASE)
            return composite.sequence_propagator(seq, a, d, shape, GATE_SUBSTEPS).u
        return self.comphr.npod.composite_hr(system, fam, GATE_HR_PHASE, a, d, GATE_SUBSTEPS)

    def execute(self, op):
        return [self.gate(*g) for g in op]

    def check(self, op, output) -> str | None:
        for (k, family, area, det), block in zip(op, output):
            slot, _, system = self.slots[k]
            key = gate_key(slot, family, area, det)
            dev = max_deviation(block, reference_block(self.reference[key], system))
            if dev > REFERENCE_TOL:
                return f"{key}: block deviates from the reference by {dev:.3e}"
        return None


WORKLOADS = {w.name: w for w in (MapShortcut, MapFull, GatesShaped)}
