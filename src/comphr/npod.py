"""Star-coupled (N+1)-level systems and composite Householder reflections.

N degenerate states (indices 0..N-1) are coupled to a single ancilla (index
N) with a shared envelope f(t): coupling k has amplitude chi_k, phase beta_k,
and the ancilla carries the detuning.  A time-independent basis change splits
the manifold into one bright state

    |v> = (1/chi) * sum_k chi_k e^{i beta_k} |k>,      chi = sqrt(sum chi_k^2),

driven at the rms Rabi frequency chi*f(t), plus N-1 dark states that never
couple.  Driving the bright-ancilla pair through a composite phase gate of
phase alpha = 2*phi therefore turns the manifold propagator into the
Householder reflection

    M(v, phi) = I + (e^{i phi} - 1) |v><v|,

with the standard reflection I - 2|v><v| at phi = pi.

For gate-level simulations the couplings only fix the direction of v: they
are rescaled jointly so the rms peak Rabi frequency is 1, making the
per-pulse rms area and the detuning the dimensionless error parameters A and
Delta/Omega (a systematic source error scales all couplings identically and
leaves v untouched).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .composite import GateSequence, PhaseList, _gate_propagator, gate_sequence
from .errors import ValidationError, echo
from .linalg import expm_hermitian, require_square
from .two_level import (
    DEFAULT_SUBSTEPS,
    RECTANGULAR,
    STACK_ELEMENTS,
    PulseShape,
    _require_substeps,
    _star_generators,
    rectangular,
    star_propagator,
)

#: Tolerance on the norm of a vector claiming to be normalized.
NORMALIZATION_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class NPodSystem:
    """Couplings chi_k >= 0, phases beta_k, shared envelope, ancilla detuning."""

    couplings: tuple[float, ...]
    coupling_phases: tuple[float, ...]
    shape: PulseShape = rectangular()
    detuning: float = 0.0

    def __post_init__(self):
        couplings = tuple(float(c) for c in self.couplings)
        phases = tuple(float(b) for b in self.coupling_phases)
        if len(couplings) < 1:
            raise ValidationError("an N-pod needs at least one coupled state")
        _require_stackable(len(couplings))
        if len(phases) != len(couplings):
            raise ValidationError("couplings and coupling_phases must have equal length")
        if not all(np.isfinite(c) and c >= 0.0 for c in couplings):
            raise ValidationError("couplings must be finite and >= 0")
        if not all(np.isfinite(b) for b in phases):
            raise ValidationError("coupling phases must be finite")
        if max(couplings) == 0.0:
            raise ValidationError("at least one coupling must be positive")
        if not np.isfinite(self.detuning):
            raise ValidationError("detuning must be finite")
        object.__setattr__(self, "couplings", couplings)
        object.__setattr__(self, "coupling_phases", phases)
        # pulse_propagator divides by the rms, so its reciprocal must be finite too
        rms = self.rms_peak
        if not (0.0 < rms < math.inf and math.isfinite(1.0 / rms)):
            raise ValidationError("the rms coupling must be finite and nonzero")

    @property
    def n_states(self) -> int:
        """Number of manifold states N (the full system has N+1 levels)."""
        return len(self.couplings)

    @property
    def rms_peak(self) -> float:
        return math.hypot(*self.couplings)

    @property
    def bright(self) -> np.ndarray:
        """Normalized coupling vector chi_k e^{i beta_k} / chi."""
        return np.array(self.couplings) * np.exp(1j * np.array(self.coupling_phases)) / self.rms_peak


@dataclass(frozen=True, eq=False)
class HouseholderTarget:
    """Normalized complex reflection vector v plus the reflection phase."""

    v: np.ndarray
    hr_phase: float = math.pi

    def __post_init__(self):
        v = np.asarray(self.v, dtype=complex).reshape(-1)
        if v.size < 1:
            raise ValidationError("reflection vector must be nonempty")
        defect = abs(np.linalg.norm(v) - 1.0)
        if not defect <= NORMALIZATION_TOL:
            raise ValidationError(f"reflection vector is not normalized (defect {defect:.3e})")
        if not np.isfinite(self.hr_phase):
            raise ValidationError("hr_phase must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "v", v)


@dataclass(frozen=True, eq=False)
class MSReduction:
    """Morris-Shore reduction: bright vector and rms peak (the dark states are spectators)."""

    rms_peak: float
    bright: np.ndarray


def _require_stackable(n_states: int) -> None:
    """Reject an N whose (N+1)x(N+1) propagator alone exceeds STACK_ELEMENTS.

    The kernel chunks grids and slice stacks, but every chunk holds at least
    one propagator, so only this bound keeps its memory flat.
    """
    if (n_states + 1) ** 2 > STACK_ELEMENTS:
        raise ValidationError(f"an N-pod may have at most {math.isqrt(STACK_ELEMENTS) - 1} "
                              f"coupled states, got {echo(str(n_states))}")


def householder_matrix(target: HouseholderTarget) -> np.ndarray:
    """I + (e^{i phi} - 1) |v><v|; the standard reflection I - 2|v><v| at phi = pi."""
    v = target.v
    coeff = np.exp(1j * target.hr_phase) - 1.0
    return np.eye(v.size, dtype=complex) + coeff * np.outer(v, v.conj())


def ms_reduce(sys: NPodSystem) -> MSReduction:
    """Bright vector and rms Rabi peak of the system."""
    return MSReduction(rms_peak=sys.rms_peak, bright=sys.bright)


def npod_hamiltonian(sys: NPodSystem, pulse_phase: float = 0.0,
                     envelope: float = 1.0) -> np.ndarray:
    """Instantaneous (N+1)x(N+1) generator at a given envelope value and drive phase."""
    coupling = np.array(sys.couplings) * np.exp(1j * (np.array(sys.coupling_phases) + pulse_phase))
    return _star_generators(coupling, envelope, sys.detuning)


def pulse_propagator(sys: NPodSystem, area: float, pulse_phase: float = 0.0,
                     substeps: int = DEFAULT_SUBSTEPS) -> np.ndarray:
    """Full (N+1)-level propagator of a single pulse of the given rms area.

    Couplings are rescaled so the rms peak Rabi frequency is 1 and the
    duration carries the area.  Rectangular pulses use one exact exponential;
    other envelopes use `substeps` midpoint slices.  The drive phase and
    `substeps` are checked as the kernel checks them, whatever the envelope
    and the area.
    """
    if not np.isfinite(area) or area < 0.0:
        raise ValidationError("area must be finite and >= 0")
    if not math.isfinite(float(pulse_phase)):
        raise ValidationError("drive phase must be finite")
    _require_substeps(substeps)
    if area == 0.0:
        return np.eye(sys.n_states + 1, dtype=complex)
    if sys.shape.kind != RECTANGULAR:
        return star_propagator(sys.bright, (pulse_phase,), area, sys.detuning, sys.shape, substeps)
    return expm_hermitian(npod_hamiltonian(sys, pulse_phase, 1.0 / sys.rms_peak), area)


def npod_propagator(sys: NPodSystem, seq: GateSequence, area: float,
                    substeps: int = DEFAULT_SUBSTEPS) -> np.ndarray:
    """Full-system propagator of a composite gate sequence (first pulse acts first)."""
    return _gate_propagator(sys.bright, seq, area, sys.detuning, sys.shape, substeps)


def manifold_block(u) -> np.ndarray:
    """Leading N x N sub-block of an (N+1)-level propagator (ancilla row/column dropped)."""
    a = require_square(u, "propagator")
    if a.shape[0] < 2:
        raise ValidationError("propagator must be at least 2x2")
    return np.array(a[:-1, :-1])


def composite_hr(sys: NPodSystem, family: PhaseList, hr_phase: float, area: float,
                 detuning: float | None = None,
                 substeps: int = DEFAULT_SUBSTEPS) -> np.ndarray:
    """Manifold propagator of the composite Householder sequence (alpha = 2*hr_phase).

    `detuning` overrides the system's own; None keeps `sys.detuning`.  At
    (area = pi, detuning = 0) the result equals householder_matrix(v, hr_phase)
    with v the normalized coupling vector.
    """
    seq = gate_sequence(family, 2.0 * hr_phase)
    detuning = sys.detuning if detuning is None else float(detuning)
    return manifold_block(_gate_propagator(sys.bright, seq, area, detuning, sys.shape, substeps))


def random_system(n_states: int, seed: int = 0, shape: PulseShape = rectangular()) -> NPodSystem:
    """N-pod with a random reflection vector: complex-normal entries, then normalization."""
    if int(n_states) != n_states or n_states < 1:
        raise ValidationError("n_states must be a positive integer")
    if int(seed) != seed or seed < 0:
        raise ValidationError("seed must be a non-negative integer")
    _require_stackable(int(n_states))
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(int(n_states)) + 1j * rng.standard_normal(int(n_states))
    v = v / np.linalg.norm(v)
    return NPodSystem(couplings=tuple(np.abs(v)),
                      coupling_phases=tuple(np.angle(v)),
                      shape=shape)

