"""Gate-infidelity metrics and robustness scans over pulse area and detuning.

The infidelity of a realized manifold propagator M' against the target
reflection M is the raw Frobenius distance sqrt(sum |M'_jk - M_jk|^2); no
global-phase alignment is performed (at the nominal point the two matrices
are equal outright, not merely up to phase).

Because the dark states are exact spectators, the manifold propagator is
(I - |v><v|) + u00 |v><v| with u00 the bright-to-bright amplitude of the
two-level composite at the rms parameters, so the infidelity collapses to
|u00 - e^{i phi}| independently of the dimension and of v.  Scans use this
two-level shortcut unless they are given a system, which they then propagate
through all N+1 levels as a cross-check.
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
        if not (math.isfinite(self.points) and self.points >= 2 and int(self.points) == self.points):
            raise ValidationError("an axis needs at least 2 points")
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
            header = ",".join(["A_over_pi"] + [f"F_{label}" for label in self.labels])
            blocks = [np.column_stack([xs, self.values.T])]
        else:
            header = "A_over_pi,Delta_over_Omega,F"
            ys = self.grid.axis2.values()
            blocks = (np.column_stack([np.full(ys.size, x), ys, row])
                      for x, row in zip(xs, self.values))
        _write_rows(f, header, blocks)

    def csv_text(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


#: Every number in an output file: 17 significant digits round-trip a float64.
_NUMBER = "{:.17g}"
#: Rows formatted per write, which bounds the text held in memory for any grid.
_CSV_ROWS = 4096


def _write_rows(f, header: str, blocks) -> None:
    """Write the header line, then every row of each 2-D float block as CSV."""
    f.write(header + "\n")
    for block in blocks:
        row = ",".join([_NUMBER] * block.shape[1]) + "\n"
        for first in range(0, len(block), _CSV_ROWS):
            part = block[first:first + _CSV_ROWS]
            f.write((row * len(part)).format(*part.ravel().tolist()))


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


def _shortcut_infidelity(family: PhaseList, hr_phase: float, areas, detunings) -> np.ndarray:
    seq = gate_sequence(family, 2.0 * hr_phase)
    u = star_propagator((1.0,), seq.pulse_phases, areas, detunings)
    return np.abs(u[..., 0, 0] - np.exp(1j * hr_phase))


def _areas(axis: ScanAxis) -> np.ndarray:
    """The values of an A/pi axis as areas in radians.

    Both ends times pi are checked in Python floats, which overflow to inf
    without the warning numpy would print.
    """
    if not (math.isfinite(float(axis.start) * math.pi)
            and math.isfinite(float(axis.stop) * math.pi)):
        raise ValidationError("area axis overflows when converted to radians")
    return axis.values() * math.pi


def scan_area(families: Sequence[PhaseList], hr_phase: float, grid: ScanGrid) -> ScanResult:
    """Resonant infidelity versus rms pulse area for each family (exact propagators)."""
    if grid.axis2 is not None:
        raise ValidationError("scan_area takes a one-dimensional grid")
    if grid.axis1.name != AXIS_AREA:
        raise ValidationError(f"scan_area needs a {AXIS_AREA} axis")
    if len(families) == 0:
        raise ValidationError("scan_area needs at least one family")
    areas = _areas(grid.axis1)
    values = np.stack([_shortcut_infidelity(fam, hr_phase, areas, 0.0) for fam in families])
    return ScanResult(grid=grid, labels=tuple(f.label for f in families), values=values)


def scan_2d(family: PhaseList, hr_phase: float, grid: ScanGrid, *,
            system: NPodSystem | None = None,
            substeps: int = DEFAULT_SUBSTEPS) -> ScanResult:
    """Infidelity over an (area, detuning) grid for one family.

    Without a system this evaluates the detuned two-level composite and the
    manifold reconstruction |u00 - e^{i phi}|.  A given system is propagated
    through all N+1 levels at every grid point instead, with `substeps`
    slices per shaped pulse, and the manifold block is compared with the
    target reflection; this cross-checks the shortcut.  The grid is then
    evaluated in blocks of area rows (a row split into detuning ranges if it
    is longer) of at most STACK_ELEMENTS propagator elements, and each block
    decomposes its detunings once, not once per point (see
    :func:`comphr.two_level.grid_chunks` and ``star_propagator``).
    """
    if grid.axis2 is None:
        raise ValidationError("scan_2d takes a two-dimensional grid")
    if grid.axis1.name != AXIS_AREA or grid.axis2.name != AXIS_DETUNING:
        raise ValidationError(f"scan_2d needs axes ({AXIS_AREA}, {AXIS_DETUNING})")
    areas = _areas(grid.axis1)
    dets = grid.axis2.values()
    if system is None:
        values = _shortcut_infidelity(family, hr_phase, areas[:, None], dets[None, :])
    else:
        n = system.n_states
        target = householder_matrix(HouseholderTarget(system.bright, hr_phase))
        phases = gate_sequence(family, 2.0 * hr_phase).pulse_phases
        values = np.empty((areas.size, dets.size))
        for rows, cols in grid_chunks(areas.size, dets.size, (n + 1) ** 2):
            u = star_propagator(system.bright, phases, areas[rows, None], dets[None, cols],
                                system.shape, substeps)
            values[rows, cols] = np.linalg.norm(u[..., :n, :n] - target, axis=(-2, -1))
    return ScanResult(grid=grid, labels=(family.label,), values=values)
