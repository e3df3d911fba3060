"""Driven two-state dynamics: pulse envelopes and the batched propagation kernel.

Conventions (hbar = 1, all frequencies angular, the peak Rabi frequency is
the unit of frequency):

* A pulse of area A with envelope f (peak 1), constant detuning Delta and
  constant drive phase phi lasts T = A / (integral of f over [0, 1]) and has

      H(t) = 0.5 * [[0,                f(t/T)*e^{i phi}],
                    [f(t/T)*e^{-i phi},          2*Delta]],    0 <= t <= T.

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

* A rectangular pulse of duration T has determinant e^{-i Delta T}: it is
  the frame phase e^{-i Delta T/2} times an SU(2) matrix.  A train of such
  pulses is therefore fixed by its first row and the frame phase it has
  accumulated, which is how the kernel composes rectangular two-level
  trains (Cayley-Klein form).  Its generator depends on the detuning
  alone, so the kernel decomposes each detuning once for all the areas of
  a block.

* On N + 1 levels a drive phase p acts through D(p) = diag(e^{ip}, ...,
  e^{ip}, 1), which is e^{ip} times the identity plus a rank-one term on the
  ancilla.  A rectangular train is therefore composed in the eigenbasis of
  its generator: each pulse is one rank-one update and one diagonal phase,
  with no matrix product per point.  This is exact algebra on the full
  propagator, with no Morris-Shore reduction and no two-level closed form,
  so full propagation stays an independent check of the shortcut.

The single pulse above is ``star_propagator((1.0,), (phi,), A, Delta, shape,
substeps)``, the N = 1 star system, and a rectangular pulse is one slice.
:func:`star_propagator` computes every propagator of the package except two:
:func:`resonant_propagator`, the closed form that tests compare against, and
the single rectangular pulse of :func:`comphr.npod.pulse_propagator`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import SERIAL_BLAS, expm_hermitian_stack, unitarity_defect

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
        if self.kind == GAUSSIAN:
            if not (np.isfinite(self.truncation) and self.truncation > 0):
                raise ValidationError("gaussian truncation must be a positive half-width count")
            # |2c(x - 1/2)| <= c, so the envelope's exponent is finite if c * c is
            c = float(self.truncation)
            if not math.isfinite(c * c):
                raise ValidationError(f"gaussian truncation {c!r} overflows the envelope")
        if self.kind == TABULATED:
            if self.samples is None or len(self.samples) < 2:
                raise ValidationError("tabulated shape needs at least 2 samples")
            samples = tuple((float(t), float(v)) for t, v in self.samples)
            times = np.array([t for t, _ in samples])
            values = np.array([v for _, v in samples])
            if not np.all(np.isfinite(times)) or not np.all(np.isfinite(values)):
                raise ValidationError("tabulated samples must be finite")
            with np.errstate(over="ignore"):
                steps, span = np.diff(times), times[-1] - times[0]
            if np.any(steps <= 0):
                raise ValidationError("tabulated sample times must be strictly increasing")
            if not np.isfinite(span):
                raise ValidationError("tabulated sample times must span a finite interval")
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
        return np.interp(x, *self._unit_samples())

    def unit_integral(self) -> float:
        """Integral of the envelope over the unit interval."""
        if self.kind == RECTANGULAR:
            return 1.0
        if self.kind == GAUSSIAN:
            c = self.truncation
            return math.sqrt(math.pi) * math.erf(c) / (2.0 * c)
        xs, values = self._unit_samples()
        return float(np.trapezoid(values, xs))

    def _unit_samples(self) -> tuple[np.ndarray, np.ndarray]:
        """Tabulated (times, values) with the times rescaled onto [0, 1]."""
        times, values = np.array(self.samples).T
        return (times - times[0]) / (times[-1] - times[0]), values


def rectangular() -> PulseShape:
    return PulseShape(RECTANGULAR)


def gaussian(truncation: float = 3.0) -> PulseShape:
    return PulseShape(GAUSSIAN, truncation=truncation)


def tabulated(samples) -> PulseShape:
    return PulseShape(TABULATED, samples=tuple(tuple(s) for s in samples))


@dataclass(frozen=True, eq=False)
class Propagator2:
    """A checked 2x2 unitary `u`, read-only; its row 0 holds the Cayley-Klein pair (a, b)."""

    u: np.ndarray

    def __post_init__(self):
        a = np.array(self.u, dtype=complex)
        if a.shape != (2, 2):
            raise ValidationError(f"propagator must be 2x2, got {a.shape}")
        defect = unitarity_defect(a)
        if not defect <= PROPAGATOR_TOL:
            raise ValidationError(f"propagator is not unitary (defect {defect:.3e})")
        a.setflags(write=False)
        object.__setattr__(self, "u", a)


def resonant_propagator(area: float, phase: float = 0.0) -> Propagator2:
    """Exact resonant propagator of a pulse of the given area; shape-independent."""
    if not np.isfinite(area) or area < 0.0:
        raise ValidationError("area must be finite and >= 0")
    a = math.cos(0.5 * area)
    b = -1j * np.exp(1j * phase) * math.sin(0.5 * area)
    return Propagator2(np.array([[a, b], [-np.conj(b), np.conj(a)]]))


# ---------------------------------------------------------------------------
# Batched propagation kernel

#: Most complex elements one propagator stack may hold.  Grids and slice
#: stacks are evaluated in pieces of at most this size, so peak memory stays
#: flat whatever grid or number of substeps is asked for.
STACK_ELEMENTS = 1 << 20

#: Elements of the grid blocks the kernel works in (512 KB of complex128):
#: small enough that a block's elementwise temporaries stay in cache.
BLOCK_ELEMENTS = 1 << 15


def stack_chunks(count: int, elements_each: int, budget: int | None = None):
    """Consecutive index ranges over `count` items of `elements_each` complex elements.

    Each range holds at most `budget` (default STACK_ELEMENTS) elements, and
    at least one item.
    """
    budget = STACK_ELEMENTS if budget is None else budget
    step = max(1, budget // max(1, elements_each))
    for first in range(0, count, step):
        yield slice(first, min(first + step, count))


def grid_chunks(rows: int, cols: int, elements_each: int, budget: int | None = None,
                column: int | None = None):
    """(row range, column range) blocks over a rows x cols grid of `elements_each`-element items.

    The rows are areas and the columns detunings.  Blocks take whole
    columns, as many as fit in `budget` elements (default and at most
    STACK_ELEMENTS) and at least one, so that each detuning falls in one
    block.  Only a column longer than `column` elements (default and at most
    STACK_ELEMENTS) is split, into row ranges of at most that many elements
    and at least one row.
    """
    column = STACK_ELEMENTS if column is None else min(column, STACK_ELEMENTS)
    if rows * elements_each > column:
        for c in range(cols):
            for r in stack_chunks(rows, elements_each, column):
                yield r, slice(c, c + 1)
    elif rows:  # a grid without rows has no blocks
        budget = STACK_ELEMENTS if budget is None else min(budget, STACK_ELEMENTS)
        for c in stack_chunks(cols, rows * elements_each, budget):
            yield slice(0, rows), c


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

    A product of several slices then takes one Newton-Schulz step towards its
    polar factor, u (3 - u^dagger u) / 2.  Slices that share an eigenbasis
    (all slices of a resonant pulse do) share the round-off of their
    eigenvectors, which adds up coherently to a unitarity defect near 5e-13
    per 1000 slices.  The step removes that defect to first order and moves
    the result by no more than the defect itself.  One slice (a rectangular
    pulse) is one spectral exponential, unitary to round-off, and takes none.
    """
    u = None
    for part in stack_chunks(count, elements_per_slice):
        group = time_ordered_product(expm_hermitian_stack(generators(part.start, part.stop), dt))
        u = group if u is None else group @ u
    if count == 1:
        return u
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

    A rectangular pulse is one exact exponential; a shaped pulse is the
    product of its `substeps` midpoint slices by :func:`slice_product`.  A
    generator depends on the detuning and the envelope, not on the area, so
    the detunings are decomposed as passed, before they broadcast against
    the areas: one spectral decomposition per detuning and slice (an outer
    grid ``areas[:, None]``, ``detunings[None, :]`` takes one per column and
    slice).  A drive phase p is the diagonal conjugation D u D^dagger with
    D = diag(e^{ip}, ..., e^{ip}, 1).  A two-level train of rectangular
    pulses is composed in Cayley-Klein form, a few elementwise updates per
    pulse (see :func:`_two_level_train`), and an (N+1)-level one in the
    eigenbasis of each detuning column, one rank-one update per pulse (see
    :func:`_eigenbasis_train`); a train of shaped pulses takes an elementwise
    rescale and one batched matmul per pulse after the first.  The grid is
    evaluated on one BLAS thread (see linalg.SERIAL_BLAS) in blocks of whole
    detuning columns within BLOCK_ELEMENTS stack elements (see
    :func:`grid_chunks`), so the elementwise temporaries of a block stay in
    cache.  A shaped column is split into area ranges only beyond
    STACK_ELEMENTS, so that each (detuning, slice) generator is decomposed
    once; a rectangular one beyond BLOCK_ELEMENTS and (N+1)^3 elements, and
    each range decomposes its one generator again.

    `substeps` must lie in 1..STACK_ELEMENTS whatever the envelope, and the
    longest duration times (max |Delta| + 1) must be finite; both are
    checked before any work.
    """
    coupling = np.asarray(bright, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(coupling))
    if not (math.isfinite(norm) and norm > 0.0):
        raise ValidationError("bright vector must be finite and nonzero")
    coupling = coupling / norm
    phases = tuple(float(p) for p in pulse_phases)
    if not phases or not all(math.isfinite(p) for p in phases):
        raise ValidationError("a pulse train needs at least one finite drive phase")
    a, d = np.asarray(areas, dtype=float), np.asarray(detunings, dtype=float)
    grid = np.broadcast_shapes(a.shape, d.shape)
    if not (np.all(np.isfinite(a)) and np.all(a >= 0.0)):
        raise ValidationError("areas must be finite and >= 0")
    if not np.all(np.isfinite(d)):
        raise ValidationError("detunings must be finite")
    # A unit-rms generator has eigenvalues |w| <= |Delta| + 1/2, so this
    # product bounds every eigenphase t w and every frame phase Delta T.
    # Python floats overflow to inf without a warning.
    longest = float(np.max(a, initial=0.0)) / shape.unit_integral()
    if not math.isfinite(longest * (float(np.max(np.abs(d), initial=0.0)) + 1.0)):
        raise ValidationError("area x detuning is too large: the pulse phases overflow")
    if not (1 <= substeps <= STACK_ELEMENTS and int(substeps) == substeps):
        raise ValidationError(f"substeps must be an integer from 1 to {STACK_ELEMENTS}")
    dim = coupling.size + 1
    count = 1 if shape.kind == RECTANGULAR else int(substeps)
    # rows x cols view of the grid: the detunings repeat over the leading
    # axes they broadcast along, so every row sees the same `dets`.
    d_axes = (1,) * (len(grid) - d.ndim) + d.shape
    lead = next((k for k, size in enumerate(d_axes) if size != 1), len(grid))
    dets = np.broadcast_to(d.reshape(d_axes[lead:]), grid[lead:]).reshape(-1)
    durations = np.broadcast_to(a / shape.unit_integral(), grid)
    durations = durations.reshape(math.prod(grid[:lead]), dets.size)
    out = np.empty(durations.shape + (dim, dim), dtype=complex)
    with SERIAL_BLAS:
        # Each area range of a split column decomposes the column's generators
        # again.  A rectangular column is split into block-sized ranges of at
        # least `dim` areas, so that the O(dim^3) decomposition stays small
        # beside the range's train, O(dim^2) per area and pulse; a shaped
        # column would decompose `count` generators per range.
        column = max(BLOCK_ELEMENTS, dim ** 3) if count == 1 else None
        for rows, cols in grid_chunks(*durations.shape, count * dim * dim, BLOCK_ELEMENTS, column):
            t, det = durations[rows, cols], dets[cols]

            def generators(first, last):
                mid = (np.arange(first, last) + 0.5) / count
                return _star_generators(coupling, shape.envelope(mid), det[:, None])

            if dim > 2 and count == 1:
                v, phase = expm_hermitian_stack(generators(0, 1)[:, 0], t, factors=True)
                _eigenbasis_train(v, phase, phases, out[rows, cols])
                continue
            u = slice_product(generators, count, t[..., None] / count, t.size * dim * dim)
            if dim == 2 and count == 1:
                # the train needs row 0 only: release the stack before it runs
                a0, b0 = u[..., 0, 0].copy(), u[..., 0, 1].copy()
                del u
                _two_level_train(a0, b0, det * t, phases, out[rows, cols])
            else:
                out[rows, cols] = _pulse_train(u, phases)
    return out.reshape(grid + (dim, dim))


def _star_generators(coupling: np.ndarray, envelope, detunings) -> np.ndarray:
    """Generators [[0, f c/2], [f c^dagger/2, Delta]] over broadcast stacks of f and Delta.

    Manifold states first, ancilla last; :func:`comphr.npod.npod_hamiltonian`
    builds its generator here too.  The shape is broadcast(f, Delta) + (N+1, N+1).
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


def _eigenbasis_train(v, phase, phases: tuple[float, ...], out: np.ndarray) -> None:
    """:func:`_pulse_train` of a one-slice pulse, composed in the eigenbasis of its generator.

    `v` (cols, n, n) holds the eigenvectors of each detuning column's
    generator and `phase` (cols, rows, n) the eigenphases e^{-iwt} of each
    area, so the pulse at phase 0 is u0 = v L v^dagger, L = diag(phase).
    With e the ancilla unit vector, D(p) = e^{ip} I + (1 - e^{ip}) e e^T, so
    v^dagger D(p) v is e^{ip} I plus the rank-one term (1 - e^{ip}) r l,
    where l = e^T v is the ancilla row of v and r = l^dagger.  The product
    of the pulses D(p_k) u0 D(p_k)^dagger is e^{-ip_n} D(p_n) v Y_n with
    Y_1 = L v^dagger diag(1, ..., 1, e^{ip_1}) and
    Y_k = L (Y_{k-1} + c_k r (l Y_{k-1})),  c_k = e^{i(p_k - p_{k-1})} - 1:
    per pulse one vector-matrix product and three elementwise passes over
    preallocated buffers, no matmul per point.  Y is laid out
    (column, i, area, k), and the product is written into `out`, of shape
    (rows, cols, n, n).

    Every point takes the same operations whatever block it falls in, so its
    bits do not depend on the block: l Y is an einsum, which sums over i in
    order, and v Y one n x n matmul per point.  A BLAS call over a whole
    column would round a point differently with the column's length and the
    point's place in it.
    """
    cols, rows, n = phase.shape
    lam = phase.transpose(0, 2, 1)[..., None]
    ell = v[:, -1:, :]
    r = v[:, -1, :, None, None].conj()
    first = v.conj().swapaxes(-1, -2)
    first[..., -1] *= np.exp(1j * phases[0])
    # in (column, i, area, k) order, not the order numpy would pick from the
    # operands' strides, so that `flat` is a view of it
    y = np.multiply(lam, first[:, :, None, :], out=np.empty((cols, n, rows, n), dtype=complex))
    flat = y.reshape(cols, n, rows * n)
    term = np.empty_like(y)
    ly = np.empty((cols, 1, rows * n), dtype=complex)
    for before, p in zip(phases, phases[1:]):
        np.einsum("cxi,cim->cxm", ell, flat, out=ly)
        np.multiply((np.exp(1j * (p - before)) - 1.0) * r, ly.reshape(cols, 1, rows, n), out=term)
        y += term
        y *= lam
    last = v.copy()
    last[:, -1, :] *= np.exp(-1j * phases[-1])
    np.matmul(last[:, None], y.transpose(0, 2, 1, 3), out=out.transpose(1, 0, 2, 3))


def _two_level_train(a, b, phase_area, phases: tuple[float, ...], out: np.ndarray) -> None:
    """:func:`_pulse_train` of a one-slice two-level pulse by elementwise Cayley-Klein updates.

    `a` and `b` are u0[..., 0, 0] and u0[..., 0, 1] of the pulse at phase 0,
    and `phase_area` is Delta T.  The generator has trace Delta, so
    u0 = f S with S in SU(2) and the frame f = e^{-i Delta T / 2}.  A product
    of k pulses is then f^k times an SU(2) matrix, fixed by its row 0 (x, y)
    and the frame g = f^{2k} = e^{-i k Delta T}: its row 1 is
    (-g conj(y), g conj(x)).  Each pulse, with q = b e^{ip}, maps row 0 to
    (a x - q g conj(y), a y + q g conj(x)) and g to g e^{-i Delta T}.  The
    product is written into `out`, of shape a.shape + (2, 2).
    """
    # Every product takes named operands and writes a new array.  numpy rounds
    # a complex product worked in place (or into a large temporary operand,
    # which it reuses) differently, so the bits would depend on the block size.
    step = np.exp(-1j * phase_area)
    x, y, g = a, b * np.exp(1j * phases[0]), step
    for p in phases[1:]:
        qg = b * np.exp(1j * p)
        qg = qg * g
        xc, yc = x.conj(), y.conj()
        x = a * x - qg * yc
        y = a * y + qg * xc
        del qg, xc, yc
        g = g * step
    xc, yc = x.conj(), y.conj()
    out[..., 0, 0], out[..., 0, 1] = x, y
    out[..., 1, 0], out[..., 1, 1] = -(g * yc), g * xc
