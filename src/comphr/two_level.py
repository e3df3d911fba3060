"""Driven two-state dynamics: pulse envelopes and exact propagators.

Conventions (hbar = 1, all frequencies angular):

* A pulse with peak Rabi frequency ``omega_peak``, envelope ``f`` (peak 1),
  constant detuning ``Delta`` and constant drive phase ``phi`` has

      H(t) = 0.5 * [[0,                       omega_peak*f(t)*e^{i phi}],
                    [omega_peak*f(t)*e^{-i phi},              2*Delta  ]].

* On resonance the propagator of a pulse of area A depends only on A and phi:
  a = cos(A/2), b = -i*e^{i phi}*sin(A/2) in the Cayley-Klein form
  [[a, b], [-conj(b), conj(a)]].

* A constant phase shift of the drive multiplies u[0,1] by e^{i phi} and
  u[1,0] by e^{-i phi} and leaves the diagonal untouched.  This is exact for
  any envelope and any detuning (the phase is a diagonal conjugation of the
  generator), so propagators are computed at phase 0 and the phase imprinted
  afterwards.

* Detuned propagators are kept in this frame (2*Delta on the second diagonal
  entry), NOT renormalized to unit determinant: the multilevel reduction in
  :mod:`comphr.npod` consumes the literal element u[0,0] of this frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import SERIAL_BLAS, expm_hermitian, expm_hermitian_stack, unitarity_defect

RECTANGULAR = "rectangular"
GAUSSIAN = "gaussian"
TABULATED = "tabulated"

#: Unitarity tolerance for anything claiming to be a propagator.
PROPAGATOR_TOL = 1e-12

#: Default number of piecewise-constant slices for shaped pulses.
DEFAULT_SUBSTEPS = 1000


@dataclass(frozen=True)
class PulseShape:
    """Dimensionless pulse envelope f on the unit time interval, 0 <= f <= 1, peak 1.

    kind:
        ``rectangular`` -- f = 1 throughout.
        ``gaussian``    -- f(x) = exp(-(2c(x - 1/2))^2) with c = ``truncation``,
                           i.e. a Gaussian of 1/e half-width 1/(2c) cut at
                           +-c half-widths; the quoted pulse area is the area
                           of the truncated envelope.
        ``tabulated``   -- linear interpolation of (time, value) samples,
                           rescaled onto [0, 1].
    """

    kind: str
    truncation: float = 3.0
    samples: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.kind not in (RECTANGULAR, GAUSSIAN, TABULATED):
            raise ValidationError(f"unknown pulse shape kind {self.kind!r}")
        if self.kind == GAUSSIAN and not (np.isfinite(self.truncation) and self.truncation > 0):
            raise ValidationError("gaussian truncation must be a positive half-width count")
        if self.kind == TABULATED:
            if self.samples is None or len(self.samples) < 2:
                raise ValidationError("tabulated shape needs at least 2 samples")
            samples = tuple((float(t), float(v)) for t, v in self.samples)
            times = np.array([t for t, _ in samples])
            values = np.array([v for _, v in samples])
            if not np.all(np.isfinite(times)) or not np.all(np.isfinite(values)):
                raise ValidationError("tabulated samples must be finite")
            if np.any(np.diff(times) <= 0):
                raise ValidationError("tabulated sample times must be strictly increasing")
            if values.min() < 0.0 or values.max() > 1.0:
                raise ValidationError("tabulated values must lie in [0, 1]")
            if abs(values.max() - 1.0) > 1e-9:
                raise ValidationError("tabulated envelope must reach peak value 1")
            object.__setattr__(self, "samples", samples)

    def envelope(self, x):
        """Envelope values at normalized times x in [0, 1]."""
        x = np.asarray(x, dtype=float)
        if self.kind == RECTANGULAR:
            return np.ones_like(x)
        if self.kind == GAUSSIAN:
            return np.exp(-((2.0 * self.truncation * (x - 0.5)) ** 2))
        times = np.array([t for t, _ in self.samples])
        values = np.array([v for _, v in self.samples])
        xs = (times - times[0]) / (times[-1] - times[0])
        return np.interp(x, xs, values)

    def unit_integral(self) -> float:
        """Integral of the envelope over the unit interval."""
        if self.kind == RECTANGULAR:
            return 1.0
        if self.kind == GAUSSIAN:
            c = self.truncation
            return math.sqrt(math.pi) * math.erf(c) / (2.0 * c)
        times = np.array([t for t, _ in self.samples])
        values = np.array([v for _, v in self.samples])
        xs = (times - times[0]) / (times[-1] - times[0])
        return float(np.trapezoid(values, xs))


def rectangular() -> PulseShape:
    return PulseShape(RECTANGULAR)


def gaussian(truncation: float = 3.0) -> PulseShape:
    return PulseShape(GAUSSIAN, truncation=truncation)


def tabulated(samples) -> PulseShape:
    return PulseShape(TABULATED, samples=tuple(tuple(s) for s in samples))


@dataclass(frozen=True)
class PulseSpec:
    """One constituent pulse: envelope, peak Rabi frequency, duration, detuning, phase."""

    shape: PulseShape
    omega_peak: float
    duration: float
    detuning: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.omega_peak) and self.omega_peak >= 0.0):
            raise ValidationError("omega_peak must be finite and >= 0")
        if not (np.isfinite(self.duration) and self.duration > 0.0):
            raise ValidationError("duration must be finite and > 0")
        if not np.isfinite(self.detuning) or not np.isfinite(self.phase):
            raise ValidationError("detuning and phase must be finite")

    @property
    def area(self) -> float:
        """Pulse area omega_peak * integral of the envelope over the pulse."""
        return self.omega_peak * self.duration * self.shape.unit_integral()


def pulse_with_area(shape: PulseShape, area: float, detuning: float = 0.0,
                    phase: float = 0.0, omega_peak: float = 1.0) -> PulseSpec:
    """Pulse of the requested area at fixed peak Rabi frequency (duration solved for)."""
    if not (np.isfinite(area) and area > 0.0):
        raise ValidationError("area must be finite and > 0")
    if omega_peak <= 0.0:
        raise ValidationError("omega_peak must be > 0 to fix a duration")
    duration = area / (omega_peak * shape.unit_integral())
    return PulseSpec(shape, omega_peak, duration, detuning, phase)


@dataclass(frozen=True, eq=False)
class Propagator2:
    """2x2 unitary propagator with Cayley-Klein accessors a = u[0,0], b = u[0,1]."""

    u: np.ndarray

    def __post_init__(self):
        a = np.array(self.u, dtype=complex)
        if a.shape != (2, 2):
            raise ValidationError(f"propagator must be 2x2, got {a.shape}")
        defect = unitarity_defect(a)
        if defect > PROPAGATOR_TOL:
            raise ValidationError(f"propagator is not unitary (defect {defect:.3e})")
        a.setflags(write=False)
        object.__setattr__(self, "u", a)

    @property
    def a(self) -> complex:
        return complex(self.u[0, 0])

    @property
    def b(self) -> complex:
        return complex(self.u[0, 1])


def resonant_propagator(area: float, phase: float = 0.0) -> Propagator2:
    """Exact resonant propagator of a pulse of the given area; shape-independent."""
    if not np.isfinite(area) or area < 0.0:
        raise ValidationError("area must be finite and >= 0")
    a = math.cos(0.5 * area)
    b = -1j * np.exp(1j * phase) * math.sin(0.5 * area)
    return Propagator2(np.array([[a, b], [-np.conj(b), np.conj(a)]]))


def apply_phase(prop: Propagator2, phase: float) -> Propagator2:
    """Imprint a constant drive phase: u[0,1] -> u[0,1]*e^{i phase}, u[1,0] -> u[1,0]*e^{-i phase}."""
    u = np.array(prop.u)
    u[0, 1] *= np.exp(1j * phase)
    u[1, 0] *= np.exp(-1j * phase)
    return Propagator2(u)


def constant_propagator(pulse: PulseSpec) -> Propagator2:
    """Exact propagator of a rectangular pulse at constant detuning.

    Returns exp(-i*T/2 * [[0, Omega], [Omega, 2*Delta]]) with the pulse phase
    imprinted on the off-diagonal elements.  Reduces to
    :func:`resonant_propagator` when the detuning vanishes.
    """
    if pulse.shape.kind != RECTANGULAR:
        raise ValidationError("constant_propagator needs a rectangular pulse; "
                              "use shaped_propagator for other envelopes")
    h = 0.5 * np.array([[0.0, pulse.omega_peak],
                        [pulse.omega_peak, 2.0 * pulse.detuning]], dtype=complex)
    u = expm_hermitian(h, pulse.duration)
    return apply_phase(Propagator2(u), pulse.phase)


def shaped_propagator(pulse: PulseSpec, substeps: int = DEFAULT_SUBSTEPS,
                      window: tuple[float, float] = (0.0, 1.0)) -> Propagator2:
    """Piecewise-constant propagator of an arbitrary-envelope pulse.

    The pulse (or the sub-interval `window`, in fractions of the duration) is
    split into `substeps` equal slices, each advanced exactly with the
    spectral exponential of the slice-midpoint Hamiltonian.  Unitary to
    round-off by construction; second-order accurate in the slice width.
    """
    substeps = _slice_count(substeps)
    lo, hi = float(window[0]), float(window[1])
    if not (0.0 <= lo < hi <= 1.0):
        raise ValidationError("window must satisfy 0 <= lo < hi <= 1")
    peak = np.array([pulse.omega_peak], dtype=complex)

    def generators(first, last):
        mid = lo + (hi - lo) * (np.arange(first, last) + 0.5) / substeps
        return _star_generators(peak, pulse.shape.envelope(mid), pulse.detuning)

    u = slice_product(generators, substeps, (hi - lo) * pulse.duration / substeps, 4)
    return apply_phase(Propagator2(u), pulse.phase)


# ---------------------------------------------------------------------------
# Batched propagation kernel

#: Most complex elements one propagator stack may hold.  Grids and slice
#: stacks are evaluated in pieces of at most this size, so peak memory stays
#: flat whatever grid or number of substeps is asked for.
STACK_ELEMENTS = 1 << 20


def stack_chunks(count: int, elements_each: int):
    """Consecutive index ranges over `count` items of `elements_each` complex elements.

    Each range holds at most STACK_ELEMENTS elements, and at least one item.
    """
    step = max(1, STACK_ELEMENTS // elements_each)
    for first in range(0, count, step):
        yield slice(first, min(first + step, count))


def time_ordered_product(u: np.ndarray) -> np.ndarray:
    """u[..., m-1, :, :] @ ... @ u[..., 0, :, :] for a stack whose first element acts first.

    Pairwise tree reduction over axis -3: about log2(m) batched matmuls in
    place of m - 1 sequential ones.  An odd element out is folded into the
    last pair, which keeps the time order.
    """
    while u.shape[-3] > 1:
        count = u.shape[-3]
        even = count - count % 2
        pairs = u[..., 1:even:2, :, :] @ u[..., 0:even:2, :, :]
        if count % 2:
            pairs[..., -1, :, :] = u[..., -1, :, :] @ pairs[..., -1, :, :]
        u = pairs
    return u[..., 0, :, :]


def slice_product(generators, count: int, dt, elements_per_slice: int) -> np.ndarray:
    """Time-ordered product exp(-i h_{m-1} dt) ... exp(-i h_0 dt) of `count` slices.

    `generators(first, last)` returns the generators of slices first..last-1
    stacked on axis -3; leading axes broadcast against `dt`, and
    `elements_per_slice` is the size of one slice over those axes.  Slices
    are exponentiated in groups within STACK_ELEMENTS elements, each group is
    multiplied by :func:`time_ordered_product`, and the groups in time order.

    The product then takes one Newton-Schulz step towards its polar factor,
    u (3 - u^dagger u) / 2.  Slices that share an eigenbasis (all slices of a
    resonant pulse do) share the round-off of their eigenvectors, which adds
    up coherently to a unitarity defect near 5e-13 per 1000 slices.  The
    step removes that defect to first order and moves the result by no more
    than the defect itself.
    """
    u = None
    for part in stack_chunks(count, elements_per_slice):
        group = time_ordered_product(expm_hermitian_stack(generators(part.start, part.stop), dt))
        u = group if u is None else group @ u
    eye = np.eye(u.shape[-1])
    return u @ (1.5 * eye - 0.5 * (u.conj().swapaxes(-1, -2) @ u))


def star_propagator(bright, pulse_phases, areas, detunings=0.0,
                    shape: PulseShape = rectangular(),
                    substeps: int = DEFAULT_SUBSTEPS) -> np.ndarray:
    """Propagator of a pulse train on a star-coupled (N+1)-level system.

    N manifold states (indices 0..N-1) couple to one ancilla (index N)
    through the complex coupling vector `bright`, rescaled to unit norm so
    the rms peak Rabi frequency is 1; the ancilla carries the detuning.  The
    pulses share area, envelope and detuning and differ only in their drive
    phase; `pulse_phases` lists them in execution order (the first acts
    first).  `areas` (rms pulse areas) and `detunings` (units of the rms
    peak) broadcast against each other, and the result has shape
    broadcast(areas, detunings) + (N+1, N+1).  The two-level propagator of
    this module's frame is the case bright = [1].

    Every grid point takes one spectral decomposition at drive phase 0, or
    one per slice for a shaped envelope, whose `substeps` midpoint slices
    are multiplied by :func:`slice_product`.  A drive phase p is the diagonal
    conjugation D u D^dagger with D = diag(e^{ip}, ..., e^{ip}, 1), applied
    as an elementwise rescale, so each pulse after the first costs one
    batched matmul.  The grid is evaluated in chunks whose stacks stay within
    STACK_ELEMENTS elements, on one BLAS thread (see linalg.SERIAL_BLAS).
    """
    coupling = np.asarray(bright, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(coupling))
    if not (math.isfinite(norm) and norm > 0.0):
        raise ValidationError("bright vector must be finite and nonzero")
    coupling = coupling / norm
    phases = tuple(float(p) for p in pulse_phases)
    if not phases or not all(math.isfinite(p) for p in phases):
        raise ValidationError("a pulse train needs at least one finite drive phase")
    a, d = np.broadcast_arrays(np.asarray(areas, dtype=float), np.asarray(detunings, dtype=float))
    if not (np.all(np.isfinite(a)) and np.all(a >= 0.0)):
        raise ValidationError("areas must be finite and >= 0")
    if not np.all(np.isfinite(d)):
        raise ValidationError("detunings must be finite")
    dim = coupling.size + 1
    sliced = shape.kind != RECTANGULAR
    count = _slice_count(substeps) if sliced else 1
    durations = (a / shape.unit_integral()).reshape(-1)
    dets = d.reshape(-1)
    parts = []
    with SERIAL_BLAS:
        for rows in stack_chunks(durations.size, count * dim * dim):
            if sliced:
                det = dets[rows, None]

                def generators(first, last):
                    mid = (np.arange(first, last) + 0.5) / count
                    return _star_generators(coupling, shape.envelope(mid), det)

                u = slice_product(generators, count, durations[rows, None] / count,
                                  det.size * dim * dim)
            else:
                u = expm_hermitian_stack(_star_generators(coupling, 1.0, dets[rows]),
                                         durations[rows])
            parts.append(_pulse_train(u, phases))
    return (parts[0] if len(parts) == 1 else np.concatenate(parts)).reshape(a.shape + (dim, dim))


def _slice_count(substeps) -> int:
    if int(substeps) != substeps or substeps < 1:
        raise ValidationError("substeps must be a positive integer")
    return int(substeps)


def _star_generators(coupling: np.ndarray, envelope, detunings) -> np.ndarray:
    """Generators [[0, f c/2], [f c^dagger/2, Delta]] over broadcast stacks of f and Delta.

    Manifold states first, ancilla last, as in :func:`comphr.npod.npod_hamiltonian`;
    the shape is broadcast(f, Delta) + (N+1, N+1).
    """
    half = 0.5 * np.multiply.outer(envelope, coupling)
    detunings = np.asarray(detunings, dtype=float)
    n = coupling.size
    shape = np.broadcast_shapes(half.shape[:-1], detunings.shape) + (n + 1, n + 1)
    h = np.zeros(shape, dtype=complex)
    h[..., :n, n] = half
    h[..., n, :n] = half.conj()
    h[..., n, n] = detunings
    return h


def _pulse_train(u0: np.ndarray, phases: tuple[float, ...]) -> np.ndarray:
    """Product of D(p) u0 D(p)^dagger over `phases`, the first phase acting first."""
    n = u0.shape[-1] - 1
    # D(p) u0 D(p)^dagger multiplies entry (j, k) by e^{i p (s_j - s_k)}, s = (1, ..., 1, 0).
    sign = np.zeros((n + 1, n + 1))
    sign[:n, n] = 1.0
    sign[n, :n] = -1.0
    u = None
    for p in phases:
        pulse = u0 * np.exp(1j * p * sign)
        u = pulse if u is None else pulse @ u
    return u
