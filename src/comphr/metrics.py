"""Gate-infidelity metrics and robustness scans over pulse area and detuning.

The infidelity of a realized manifold propagator M' against the target
reflection M is the raw Frobenius distance sqrt(sum |M'_jk - M_jk|^2); no
global-phase alignment is performed (at the nominal point the two matrices
are equal outright, not merely up to phase).

Because the dark states are exact spectators, the manifold propagator is
(I - |v><v|) + u00 |v><v| with u00 the bright-to-bright amplitude of the
two-level composite at the rms parameters, so the infidelity collapses to
|u00 - e^{i phi}| independently of the dimension and of v.  Scans use this
two-level shortcut by default; full (N+1)-level propagation is available as a
cross-check.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .composite import PhaseList, gate_sequence
from .errors import ValidationError
from .linalg import frobenius_distance, require_square
from .npod import HouseholderTarget, NPodSystem, householder_matrix
from .two_level import DEFAULT_SUBSTEPS, stack_chunks, star_propagator

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
        if int(self.points) != self.points or self.points < 2:
            raise ValidationError("an axis needs at least 2 points")
        if not (np.isfinite(self.start) and np.isfinite(self.stop) and self.start < self.stop):
            raise ValidationError("axis range must satisfy start < stop")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, int(self.points))


@dataclass(frozen=True)
class ScanGrid:
    axis1: ScanAxis
    axis2: ScanAxis | None = None


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
        if self.grid.axis2 is None:
            self._write_1d(f)
        else:
            self._write_2d(f)

    def _write_1d(self, f) -> None:
        f.write(",".join(["A_over_pi"] + [f"F_{label}" for label in self.labels]) + "\n")
        xs = self.grid.axis1.values()
        for j, x in enumerate(xs):
            row = [_fmt(x)] + [_fmt(self.values[i, j]) for i in range(len(self.labels))]
            f.write(",".join(row) + "\n")

    def _write_2d(self, f) -> None:
        f.write("A_over_pi,Delta_over_Omega,F\n")
        xs = self.grid.axis1.values()
        ys = self.grid.axis2.values()
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                f.write(f"{_fmt(x)},{_fmt(y)},{_fmt(self.values[i, j])}\n")

    def csv_text(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


def _fmt(x) -> str:
    return format(float(x), ".17g")


def infidelity(actual, target) -> float:
    """Frobenius distance between equal-size square matrices (no phase alignment)."""
    a = require_square(actual, "actual")
    b = require_square(target, "target")
    return frobenius_distance(a, b)


def bb_infidelity_analytic(hr_phase: float, area: float, n: int):
    """Resonant broadband composite-reflection infidelity: 2 sin(phi/2) cos^(2n)(A/2)."""
    if int(n) != n or n < 1:
        raise ValidationError("n must be a positive integer")
    return 2.0 * np.abs(np.sin(0.5 * hr_phase)) * np.cos(0.5 * np.asarray(area)) ** (2 * int(n))


def composite_amplitudes(pulse_phases: Sequence[float], areas, detunings) -> np.ndarray:
    """Stacked 2x2 propagators of a rectangular composite over an (area, detuning) grid.

    `areas` and `detunings` broadcast against each other; the peak Rabi
    frequency is 1, so entries are functions of (A, Delta/Omega) only.  All
    pulses share the same base propagator (one spectral exponential per grid
    point) and differ by their imprinted phases.
    """
    return star_propagator((1.0,), pulse_phases, areas, detunings)


def _shortcut_infidelity(family: PhaseList, hr_phase: float, areas, detunings) -> np.ndarray:
    seq = gate_sequence(family, 2.0 * hr_phase)
    u = composite_amplitudes(seq.pulse_phases, areas, detunings)
    return np.abs(u[..., 0, 0] - np.exp(1j * hr_phase))


def scan_area(families: Sequence[PhaseList], hr_phase: float, grid: ScanGrid) -> ScanResult:
    """Resonant infidelity versus rms pulse area for each family (exact propagators)."""
    if grid.axis2 is not None:
        raise ValidationError("scan_area takes a one-dimensional grid")
    if grid.axis1.name != AXIS_AREA:
        raise ValidationError(f"scan_area needs a {AXIS_AREA} axis")
    if len(families) == 0:
        raise ValidationError("scan_area needs at least one family")
    areas = grid.axis1.values() * math.pi
    values = np.stack([_shortcut_infidelity(fam, hr_phase, areas, 0.0) for fam in families])
    return ScanResult(grid=grid, labels=tuple(f.label for f in families), values=values)


def scan_2d(family: PhaseList, hr_phase: float, grid: ScanGrid, *, full: bool = False,
            system: NPodSystem | None = None,
            substeps: int = DEFAULT_SUBSTEPS) -> ScanResult:
    """Infidelity over an (area, detuning) grid for one family.

    The default path evaluates the detuned two-level composite and the
    manifold reconstruction |u00 - e^{i phi}|.  With full=True the given
    system is propagated through all N+1 levels at every grid point instead,
    and the manifold block is compared with the target reflection; this
    cross-checks the shortcut.  The grid is then evaluated in chunks of at
    most STACK_ELEMENTS propagator elements (see :mod:`comphr.two_level`).
    """
    if grid.axis2 is None:
        raise ValidationError("scan_2d takes a two-dimensional grid")
    if grid.axis1.name != AXIS_AREA or grid.axis2.name != AXIS_DETUNING:
        raise ValidationError(f"scan_2d needs axes ({AXIS_AREA}, {AXIS_DETUNING})")
    areas = grid.axis1.values() * math.pi
    dets = grid.axis2.values()
    if not full:
        values = _shortcut_infidelity(family, hr_phase, areas[:, None], dets[None, :])
    else:
        if system is None:
            raise ValidationError("full-propagation scans need an explicit system")
        n = system.n_states
        target = householder_matrix(HouseholderTarget(system.bright, hr_phase))
        phases = gate_sequence(family, 2.0 * hr_phase).pulse_phases
        a, d = (x.reshape(-1) for x in np.meshgrid(areas, dets, indexing="ij"))
        values = np.empty(a.size)
        for rows in stack_chunks(a.size, (n + 1) ** 2):
            u = star_propagator(system.bright, phases, a[rows], d[rows], system.shape, substeps)
            values[rows] = np.linalg.norm(u[:, :n, :n] - target, axis=(-2, -1))
        values = values.reshape(areas.size, dets.size)
    return ScanResult(grid=grid, labels=(family.label,), values=values)
