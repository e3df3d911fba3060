"""Gate-infidelity metrics and robustness scans over pulse area and detuning.

The infidelity of a realized manifold propagator M' against the target
reflection M is the raw Frobenius distance sqrt(sum |M'_jk - M_jk|^2); no
global-phase alignment is performed (at the nominal point the two matrices
are equal outright, not merely up to phase).

Because the dark states are exact spectators, the manifold propagator is
(I - |v><v|) + u00 |v><v| with u00 the bright-to-bright amplitude of the
two-level composite at the rms parameters, so the infidelity collapses to
|u00 - e^{i phi}| independently of the dimension and of v.  Scans propagate
this two-level shortcut as the N = 1 system unless they are given a system,
which they then propagate through all N+1 levels as a cross-check.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .composite import PhaseList, gate_sequence
from .errors import ValidationError
from .linalg import require_square
from .npod import HouseholderTarget, NPodSystem, householder_matrix
from .two_level import DEFAULT_SUBSTEPS, STACK_ELEMENTS, grid_chunks, star_propagator

AXIS_AREA = "area_over_pi"
AXIS_DETUNING = "detuning_over_omega"
_AXIS_NAMES = (AXIS_AREA, AXIS_DETUNING)
#: The two-level shortcut: the bright-ancilla pair alone, an N-pod with N = 1.
_SHORTCUT = NPodSystem((1.0,), (0.0,))


@dataclass(frozen=True)
class ScanAxis:
    """One scan axis in dimensionless units (A/pi or Delta/Omega)."""

    name: str
    start: float
    stop: float
    points: int

    def __post_init__(self):
        if self.name not in _AXIS_NAMES:
            raise ValidationError(f"axis name must be one of {_AXIS_NAMES}, got {self.name!r}")
        # bounds before int(): they reject nan and inf, and an int too large for a float
        if not (2 <= self.points <= STACK_ELEMENTS and int(self.points) == self.points):
            raise ValidationError(f"an axis needs a whole number of points, at least 2 "
                                  f"and at most {STACK_ELEMENTS} points")
        if not (np.isfinite(self.start) and np.isfinite(self.stop) and self.start < self.stop):
            raise ValidationError("axis range must satisfy start < stop")
        if not math.isfinite(float(self.stop) - float(self.start)):
            raise ValidationError("axis range must span a finite interval")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, int(self.points))


@dataclass(frozen=True)
class ScanGrid:
    """One or two scan axes with at most STACK_ELEMENTS grid points in all."""

    axis1: ScanAxis
    axis2: ScanAxis | None = None

    def __post_init__(self):
        points = self.axis1.points * (1 if self.axis2 is None else self.axis2.points)
        if points > STACK_ELEMENTS:
            raise ValidationError(f"a scan grid holds at most {STACK_ELEMENTS} points, "
                                  f"got {int(points)}")


@dataclass(frozen=True, eq=False)
class ScanResult:
    """Infidelity values on a grid: (families, points) for 1D, (points1, points2) for 2D."""

    grid: ScanGrid
    labels: tuple[str, ...]
    values: np.ndarray

    def to_csv(self, f) -> None:
        """Write the CSV form (17 significant digits, deterministic byte-for-byte)."""
        if isinstance(f, (str, bytes)) or hasattr(f, "__fspath__"):
            with open(f, "w", encoding="utf-8", newline="") as handle:
                self.to_csv(handle)
            return
        xs = self.grid.axis1.values()
        if self.grid.axis2 is None:
            f.write(",".join(["A_over_pi"] + [f"F_{label}" for label in self.labels]) + "\n")
            _write_rows(f, np.column_stack([xs, self.values.T]))
        else:
            f.write("A_over_pi,Delta_over_Omega,F\n")
            _write_map(f, xs, self.grid.axis2.values(), self.values)

    def csv_text(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


#: Every number in an output file: 17 significant digits round-trip a float64.
_NUMBER = "%.17g"
#: Rows formatted per write, which bounds the text held in memory for any grid.
_CSV_ROWS = 4096
#: A map line before its detuning is filled in, which leaves "%s,<detuning>,%.17g\n".
_MAP_LINE = "%%s," + _NUMBER + ",%" + _NUMBER + "\n"


def _write_rows(f, block: np.ndarray) -> None:
    """Write every row of a 2-D float block as a CSV line."""
    row = ",".join([_NUMBER] * block.shape[1]) + "\n"
    for first in range(0, len(block), _CSV_ROWS):
        part = block[first:first + _CSV_ROWS]
        f.write((row * len(part)) % tuple(part.ravel().tolist()))


def _write_map(f, xs: np.ndarray, ys: np.ndarray, values: np.ndarray) -> None:
    """Write the line (xs[i], ys[j], values[i, j]) of every grid point, i major.

    Each axis value is formatted once.  The detunings are cut into chunks of
    at most _CSV_ROWS, and each chunk gets one template that already holds
    the text of its detunings; an area row fills in its area text and the F
    of each point.  The templates serve every area row, so together they
    hold the text of each detuning once.
    """
    templates = []
    for first in range(0, ys.size, _CSV_ROWS):
        part = ys[first:first + _CSV_ROWS].tolist()
        templates.append((slice(first, first + len(part)), (_MAP_LINE * len(part)) % tuple(part)))
    for x, row in zip(xs, values):
        area = _NUMBER % x
        for cols, template in templates:
            infidelities = row[cols].tolist()
            fields = [area] * (2 * len(infidelities))
            fields[1::2] = infidelities
            f.write(template % tuple(fields))


def infidelity(actual, target) -> float:
    """Frobenius distance between equal-size square matrices (no phase alignment)."""
    a = require_square(actual, "actual")
    b = require_square(target, "target")
    if a.shape != b.shape:
        raise ValidationError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def bb_infidelity_analytic(hr_phase: float, area: float, n: int):
    """Resonant broadband composite-reflection infidelity: 2 sin(phi/2) cos^(2n)(A/2)."""
    if int(n) != n or n < 1:
        raise ValidationError("n must be a positive integer")
    return 2.0 * np.abs(np.sin(0.5 * hr_phase)) * np.cos(0.5 * np.asarray(area)) ** (2 * int(n))


def _areas(axis: ScanAxis) -> np.ndarray:
    """The values of an A/pi axis as areas in radians.

    Both ends times pi are checked in Python floats, which overflow to inf
    without the warning numpy would print.
    """
    if not (math.isfinite(float(axis.start) * math.pi)
            and math.isfinite(float(axis.stop) * math.pi)):
        raise ValidationError("area axis overflows when converted to radians")
    return axis.values() * math.pi


def _infidelity_map(family: PhaseList, hr_phase: float, system: NPodSystem, areas, dets,
                    substeps: int = DEFAULT_SUBSTEPS) -> np.ndarray:
    """Infidelity of the system's manifold block at every (area, detuning) pair.

    The grid is passed to the kernel in the kernel's own blocks for one
    slice on N + 1 levels (see :func:`comphr.two_level.grid_chunks`): whole
    detuning columns of at most BLOCK_ELEMENTS propagator elements, and a
    long column in area ranges.  The propagators of one block and the
    temporaries of their distances are all the scan holds besides its
    result, and the kernel decomposes each detuning of a block once, not
    once per point (see ``star_propagator``).
    """
    n = system.n_states
    target = householder_matrix(HouseholderTarget(system.bright, hr_phase))
    phases = gate_sequence(family, 2.0 * hr_phase).pulse_phases
    values = np.empty((areas.size, dets.size))
    for rows, cols in grid_chunks(areas.size, dets.size, n + 1, 1):
        u = star_propagator(system.bright, phases, areas[rows, None], dets[None, cols],
                            system.shape, substeps)
        values[rows, cols] = np.linalg.norm(u[..., :n, :n] - target, axis=(-2, -1))
    return values


def scan_area(families: Sequence[PhaseList], hr_phase: float, grid: ScanGrid) -> ScanResult:
    """Resonant infidelity versus rms pulse area for each family (exact propagators)."""
    if grid.axis2 is not None:
        raise ValidationError("scan_area takes a one-dimensional grid")
    if grid.axis1.name != AXIS_AREA:
        raise ValidationError(f"scan_area needs a {AXIS_AREA} axis")
    if len(families) == 0:
        raise ValidationError("scan_area needs at least one family")
    areas = _areas(grid.axis1)
    values = np.stack([_infidelity_map(fam, hr_phase, _SHORTCUT, areas, np.zeros(1))[:, 0]
                       for fam in families])
    return ScanResult(grid=grid, labels=tuple(f.label for f in families), values=values)


def scan_2d(family: PhaseList, hr_phase: float, grid: ScanGrid, *,
            system: NPodSystem | None = None,
            substeps: int = DEFAULT_SUBSTEPS) -> ScanResult:
    """Infidelity over an (area, detuning) grid for one family.

    Without a system this propagates the two-level shortcut, the N = 1
    system.  A given system is propagated through all N+1 levels instead,
    with `substeps` slices per shaped pulse, which cross-checks the shortcut.
    """
    if grid.axis2 is None:
        raise ValidationError("scan_2d takes a two-dimensional grid")
    if grid.axis1.name != AXIS_AREA or grid.axis2.name != AXIS_DETUNING:
        raise ValidationError(f"scan_2d needs axes ({AXIS_AREA}, {AXIS_DETUNING})")
    values = _infidelity_map(family, hr_phase, _SHORTCUT if system is None else system,
                             _areas(grid.axis1), grid.axis2.values(), substeps)
    return ScanResult(grid=grid, labels=(family.label,), values=values)
