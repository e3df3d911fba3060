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
  a block, and every train of one-slice pulses starts from those
  eigen-factors without rebuilding the exponentials.  The generator's
  trace is Delta, so the eigenphases multiply to the frame step
  e^{-i Delta T}.

* A gate's second composite is its first, U1, with every drive phase
  shifted by s = pi + alpha/2 (:class:`comphr.composite.GateSequence`),
  which is D(s) U1 D(s)^dagger with D below, so the gate is
  D(s) U1 D(s)^dagger U1.  A two-level gate multiplies out the n pulses of
  U1 only and combines U1 with its shifted copy in closed form; an
  (N+1)-level gate runs all 2n pulses.

* In the real gauge the star generator obeys Z h(Delta) Z = -h(-Delta),
  Z = diag(1, ..., 1, -1), so every train satisfies U(-Delta, p) =
  Z conj(U(Delta, -p)) Z.  When the pulse's slices mirror (one slice, or
  mirrored envelope samples) and the phases of U1 are palindromic, as
  those of every shipped family are, the gate at -Delta is
  Z (U1 A)^dagger Z, with U1 the first composite at Delta and
  A = D(s) U1 D(s)^dagger.  A two-level gate therefore propagates one
  column of each pair of detunings Delta, -Delta with equal areas and
  reads the other from the same U1.  On N + 1 levels the identity needs a
  second train with negated phases, which would share only the
  decomposition, so (N+1)-level trains stay direct, and full propagation
  stays an independent check of the mirrored shortcut.

* A midpoint slice of a shaped two-level pulse is a rectangular pulse of
  Rabi frequency f, the envelope sample, so the kernel multiplies the
  slices in Cayley-Klein form from their closed form and decomposes no
  generator.  On N + 1 > 2 levels the diagonal gauge G = diag(e^{i arg c_1},
  ..., e^{i arg c_N}, 1) makes every slice generator real symmetric, h =
  G h_r G^dagger with h_r = f C + Delta E built on the moduli |c_k|.  Its
  exponential is then one polynomial in the envelope sample f, whose
  matrix coefficients each (area, detuning) point sums once as a Taylor
  series (:func:`slice_product`), and the slice product is conjugated back
  by G.  Like D(p) below, G is exact algebra on the full propagator.

* A real symmetric generator has a complex symmetric exponential, S^T = S,
  and so does the SU(2) part of a two-level slice.  When the envelope
  samples mirror, f_{m-1-k} = f_k, as those of a Gaussian do, the pulse of
  m slices is therefore Q^T Q, or Q^T S_mid Q for odd m, with Q the product
  of the first m // 2 slices: the kernel exponentiates and multiplies only
  those.

* On N + 1 levels a drive phase p acts through D(p) = diag(e^{ip}, ...,
  e^{ip}, 1), which is e^{ip} times the identity plus a rank-one term on the
  ancilla.  A rectangular train is therefore composed in the eigenbasis of
  its generator: each pulse is one rank-one update and one diagonal phase,
  with no matrix product per point.  This is exact algebra on the full
  propagator, with no Morris-Shore reduction and no two-level closed form,
  so full propagation stays an independent check of the shortcut.

The single pulse above is ``star_propagator((1.0,), (phi,), A, Delta, shape,
substeps)``, the N = 1 star system, and a rectangular pulse is one slice.
The kernel, :func:`_star_blocks`, computes every propagator of the package
except the single rectangular pulse of :func:`comphr.npod.pulse_propagator`:
:func:`star_propagator` fills its result from the kernel's blocks, and so does
a gate of :mod:`comphr.composite` and :mod:`comphr.npod`; the scans of
:mod:`comphr.metrics` reduce each block to its distances.  Gates reach the
kernel by ``comphr.composite._gate_blocks``.
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


# ---------------------------------------------------------------------------
# Batched propagation kernel

#: Most complex elements one propagator stack may hold.  Grids and slice
#: stacks are evaluated in pieces of at most this size, so peak memory stays
#: flat whatever grid or number of substeps is asked for.
STACK_ELEMENTS = 1 << 20

#: Elements of the grid blocks the kernel and the scans work in (512 KB of
#: complex128): small enough that a block's elementwise temporaries stay in
#: cache.
BLOCK_ELEMENTS = 1 << 15

#: Largest degree of the Taylor series of shaped slice exponentials.
SERIES_DEGREE = 18

#: SERIES_THETA[K - 1] = ((K + 1)! 2^-54)^(1 / (K + 1)): the largest theta for
#: which the remainder of the degree-K series, at most twice its first term
#: theta^(K+1) / (K+1)! when theta <= (K + 2) / 2, stays within 2^-53.  The
#: last entry, about 1.1, is the series radius.
SERIES_THETA = tuple((math.factorial(k + 1) * 2.0 ** -54) ** (1.0 / (k + 1))
                     for k in range(1, SERIES_DEGREE + 1))


def stack_chunks(count: int, elements_each: int, budget: int | None = None):
    """Consecutive index ranges over `count` items of `elements_each` complex elements.

    Each range holds at most `budget` (default STACK_ELEMENTS) elements, and
    at least one item.
    """
    budget = STACK_ELEMENTS if budget is None else budget
    step = max(1, budget // max(1, elements_each))
    for first in range(0, count, step):
        yield slice(first, min(first + step, count))


def grid_chunks(rows: int, cols: int, dim: int, count: int):
    """(row range, column range) blocks over a rows x cols grid of pulses on `dim` levels.

    The one cut of a grid, the kernel's (see :func:`_star_blocks`).  The
    rows are areas and the columns detunings, and a point's pulse of `count`
    slices holds count * dim^2 elements.  Blocks take whole columns,
    as many as fit in BLOCK_ELEMENTS (at most STACK_ELEMENTS) elements and
    at least one, so that each detuning falls in one block.  Each row range
    of a split column works on the column's generators again, so only a
    long column is split: a one-slice column beyond BLOCK_ELEMENTS and
    dim^3 elements, so that its O(dim^3) decomposition stays small beside
    the range's train, and a column of several slices, which builds its
    slice polynomial again per range, beyond STACK_ELEMENTS.
    Both cuts are capped at STACK_ELEMENTS, and a range holds at least one
    row.
    """
    each = count * dim * dim
    column = min(max(BLOCK_ELEMENTS, dim ** 3) if count == 1 else STACK_ELEMENTS, STACK_ELEMENTS)
    if rows * each > column:
        for c in range(cols):
            for r in stack_chunks(rows, each, column):
                yield r, slice(c, c + 1)
    elif rows:  # a grid without rows has no blocks
        for c in stack_chunks(cols, rows * each, min(BLOCK_ELEMENTS, STACK_ELEMENTS)):
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


def slice_product(moduli, samples, count: int, det, t) -> np.ndarray:
    """Pulses of `count` midpoint slices on a star system with real couplings `moduli`.

    Slice k of the point (row, col) is exp(-i dt h(f_k)), dt = t / count,
    with the generator h(f) = f C + Delta E of :func:`_star_generators`: C
    couples the ancilla to the manifold through moduli / 2, E projects on the
    ancilla, and Delta = det[col].  `t` (rows, cols) holds the durations.
    `samples` holds the envelope at the first len(samples) midpoints, and if
    that is fewer than `count`, the later midpoints mirror them,
    f_{count-1-k} = f_k.  The result is (rows, cols, n, n), the product of
    the slices with the first acting first.

    Each slice exponential is one polynomial in its sample (see
    :func:`_slice_exponentials`).  The slices are taken in groups within
    STACK_ELEMENTS elements, each group is multiplied by
    :func:`time_ordered_product`, and the groups in time order.  A slice is
    complex symmetric, as its generator is real symmetric, so mirrored
    samples make the pulse Q^T Q, with Q the product of the first count // 2
    slices, or Q^T S_mid Q for an odd count: half the slices and half the
    product.

    The product then takes one Newton-Schulz step towards its polar factor,
    u (3 - u^dagger u) / 2.  Each slice is unitary to round-off, and the
    round-off adds up over the slices: to a unitarity defect of up to 5e-14
    per 1000 slices of a Gaussian N = 3 pulse.  The step removes that defect
    to first order and moves the result by no more than the defect itself.
    Only pulses of two or more slices on N + 1 > 2 levels come here: the
    kernel reads a one-slice pulse from its eigen-factors and multiplies out
    a two-level pulse in closed form.
    """
    n = moduli.size + 1
    per_row = t.shape[1] * (SERIES_DEGREE + 1) * n * n
    if len(t) > 1 and len(t) * per_row > STACK_ELEMENTS:
        # under SERIES_DEGREE + 1 slices a point's slice polynomial outgrows
        # its slices: a long column takes its rows in ranges within the stack
        return np.concatenate([slice_product(moduli, samples, count, det, t[rows])
                               for rows in stack_chunks(len(t), per_row)])
    exponentials = _slice_exponentials(moduli, det, t / count)
    first = count // 2 if len(samples) < count else count
    u = None
    for part in stack_chunks(first, t.size * n * n):
        group = time_ordered_product(exponentials(samples[part]))
        u = group if u is None else group @ u
    if first < count:
        middle = u if count % 2 == 0 else exponentials(samples[first:])[..., 0, :, :] @ u
        # Q^T copied: numpy takes a product of an array's transpose with the
        # array itself by syrk, whose bits differ between BLAS cores
        u = u.swapaxes(-1, -2).copy() @ middle
    eye = np.eye(n)
    return u @ (1.5 * eye - 0.5 * (u.conj().swapaxes(-1, -2) @ u))


def _slice_exponentials(moduli, det, dt):
    """exp(-i dt h(f)) over a grid of points, as one polynomial in the envelope sample f.

    h(f) = f C + Delta E is the generator of :func:`slice_product` over the
    columns' detunings `det` (cols,), and `dt` (rows, cols) holds the slice
    durations.  Each column scales its generator by its largest entry at
    the peak, s = max(max(moduli) / 2, |Delta|), so that a(f) = h(f) / s has
    entries within 1 for 0 <= f <= 1, and takes the coefficients of the
    powers a(f)^k = sum_j f^j P_kj once, by P_00 = I and
    P_kj = (C / s) P_{k-1,j-1} + (Delta / s) E P_{k-1,j}, up to degree
    SERIES_DEGREE.  With tau = s dt, a point's slices are then
    S(f) = exp(-i tau a(f)) = sum_j f^j S_j, S_j = sum_k (-i tau)^k / k! P_kj,
    summed to the least degree K whose remainder is within 2^-53 at the
    peak, theta = ||h(1)||_F dt (see SERIES_THETA).  ||h(f)||_F grows with
    f, so that degree holds for every sample, and each slice adds the
    identity last, so that no rounding of S_0 repeats over the slices of a
    point.  The coefficients beyond K are exact zeros, and every contraction
    runs over all SERIES_DEGREE + 1 terms, each point on its own, so that a
    point's bits depend on its own theta, not on the points around it.

    Returns a function from samples f (g,) to the slices (rows, cols, g, n,
    n): one (g x terms) @ (terms x 2n^2) product per point against the
    Vandermonde matrix f^j of the samples, so equal samples give equal
    slices, bit for bit.  A point past the series radius,
    theta > SERIES_THETA[-1], takes every slice from the spectral factors of
    :func:`expm_hermitian_stack` instead, which are unitary for any dt: the
    generators of each column with such a point are decomposed once per
    call, and each of its slices is rebuilt from its factors.
    """
    terms = SERIES_DEGREE + 1
    n = moduli.size + 1
    scale = np.maximum(0.5 * np.max(moduli), np.abs(det))
    # P_kj = [C / s, (Delta / s) E] @ [P_{k-1,j-1}; P_{k-1,j}], one product per
    # degree: p[:, k, j + 1] holds P_kj after a zero block, so that each
    # stacked pair is a view of p
    w = np.zeros((det.size, n, 2 * n))
    w[:, :-1, n - 1] = w[:, n - 1, :n - 1] = 0.5 * moduli / scale[:, None]
    w[:, -1, -1] = det / scale
    p = np.zeros((det.size, terms, terms + 1, n, n))
    p[:, 0, 1] = np.eye(n)
    pairs = np.lib.stride_tricks.as_strided(p, (det.size, terms, terms, 2 * n, n), p.strides)
    for k in range(1, terms):
        p[:, k, 1:k + 2] = w[:, None] @ pairs[:, k - 1, :k + 1]
    # theta = ||h(1)||_F dt, by hypot so that a large Delta cannot overflow
    theta = np.abs(dt) * np.hypot(math.sqrt(0.5) * float(np.linalg.norm(moduli)), det)
    past = theta > SERIES_THETA[-1]
    degree = np.searchsorted(SERIES_THETA, theta) + 1
    # tau^k / k! for k = 1 .. SERIES_DEGREE, zero beyond the point's degree and
    # signed by (-i)^k = i^(k % 2) (-1)^ceil(k/2): the even terms sum the real
    # part of S_j and the odd ones its imaginary part
    k = np.arange(1, terms)
    term = np.cumprod(np.where(past, 0.0, dt * scale)[..., None] / k, axis=-1)
    term *= np.where(k <= degree[..., None], np.where((k + 1) // 2 % 2, -1.0, 1.0), 0.0)
    # The sums leave out the identity, which each slice adds last: S_0
    # rounded once with it would repeat its rounding in every slice of a
    # point, and the unitarity defect of a 1000-slice pulse grew 6-fold.
    coef = np.zeros(dt.shape + (terms, 2))
    coef[..., 2::2, 0], coef[..., 1::2, 1] = term[..., 1::2], term[..., 0::2]
    # with the degrees k last, the product with each point's coefficients
    # puts the real and imaginary parts of S_j side by side: S_j is a row of
    # n^2 complex numbers, or 2n^2 reals, and a group of slices one real product
    p = p.transpose(0, 2, 3, 4, 1).reshape(det.size, (terms + 1) * n * n, terms)
    poly = (p @ coef).reshape(dt.shape + (terms + 1, 2 * n * n))[..., 1:, :]

    def exponentials(samples):
        # the powers f^j by repeated products, laid out (terms, g) so that
        # each product is one pass over the samples
        powers = np.empty((terms, samples.size))
        powers[0] = 1.0
        powers[1:] = samples
        np.multiply.accumulate(powers, axis=0, out=powers)
        u = (powers.T @ poly).view(complex).reshape(dt.shape + (samples.size, n, n))
        diagonal = np.einsum("...ii->...i", u)  # a view of u
        diagonal += 1.0
        if np.any(past):
            cols = np.flatnonzero(np.any(past, axis=0))
            row, col = np.nonzero(past[:, cols])
            v, phase = expm_hermitian_stack(_star_generators(moduli, samples, det[cols, None]),
                                            dt[:, cols, None])
            v = v[col]
            u[row, cols[col]] = (v * phase[row, col, :, None, :]) @ v.swapaxes(-1, -2)
        return u

    return exponentials


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

    A pulse is one slice if it is rectangular or `substeps` is 1, else the
    product of its `substeps` midpoint slices.  The detunings are taken as
    passed, before they broadcast against the areas, as the columns of a
    rows x cols grid, which is filled from the blocks of :func:`_star_blocks`
    (an outer grid ``areas[:, None]``, ``detunings[None, :]`` has one column
    per detuning).  Every pulse of the train is multiplied out: a gate takes
    the kernel's gate path instead (``comphr.composite._gate_blocks``),
    which multiplies out half of a two-level gate.
    """
    a, d = np.asarray(areas, dtype=float), np.asarray(detunings, dtype=float)
    grid = np.broadcast_shapes(a.shape, d.shape)
    # rows x cols view of the grid: the detunings repeat over the leading
    # axes they broadcast along, so every row sees the same `dets`.
    d_axes = (1,) * (len(grid) - d.ndim) + d.shape
    lead = next((k for k, size in enumerate(d_axes) if size != 1), len(grid))
    dets = np.broadcast_to(d.reshape(d_axes[lead:]), grid[lead:]).reshape(-1)
    view = np.broadcast_to(a, grid).reshape(math.prod(grid[:lead]), dets.size)
    dim = np.size(bright) + 1
    out = np.empty(view.shape + (dim, dim), dtype=complex)
    for rows, cols, block in _star_blocks(bright, pulse_phases, view, dets, shape, substeps):
        out[rows, cols] = block
    return out.reshape(grid + (dim, dim))


def _star_blocks(bright, pulse_phases, areas, detunings, shape: PulseShape, substeps: int,
                 shift: float | None = None):
    """The propagation kernel: (rows, cols, propagators) for each block of a grid of trains.

    The trains are those of :func:`star_propagator`, with the rms areas on a
    rows x cols grid `areas` and the detunings (cols,) on its columns.  With
    a `shift` s, the train is a gate of 2n pulses whose second composite is
    its first shifted in phase by s, D(s) U1 D(s)^dagger (see
    :class:`comphr.composite.GateSequence`): a two-level train then runs the
    first n pulses only and combines them (:func:`_two_level_gate`), and an
    (N+1)-level train runs all 2n as passed.  Every input is checked before
    the first block, `substeps` (1..STACK_ELEMENTS whatever the envelope)
    and the finiteness of the longest duration times (max |Delta| + 1)
    among them.  The blocks are those :func:`grid_chunks` derives from N and
    the slice count, and each block's propagators, (rows, cols, N+1, N+1),
    are computed on one BLAS thread (see linalg.SERIAL_BLAS).

    A block takes one of three branches, in the algebra of the module
    docstring.  A one-slice pulse is read from the eigen-factors of each
    detuning's generator, one decomposition per column
    (:func:`_two_level_train` on two levels, :func:`_eigenbasis_train` on
    more).  A two-level pulse of several slices is multiplied out in closed
    form (:func:`_two_level_slices`) and rescaled to a unit row 0 after its
    train.  A two-level block is written as four contiguous planes, held as
    a (rows, cols, 2, 2) view.  An (N+1)-level pulse of several slices is
    multiplied out by :func:`slice_product` in the real gauge, one slice
    polynomial per grid point, and its train takes one batched matmul per
    pulse after the first.  Mirrored envelope samples
    (:func:`_midpoint_samples`) halve the slices of both.

    A two-level gate whose first composite is palindromic, on pulses whose
    slices mirror, propagates one column of each mirrored pair
    (:func:`_mirror_pairs`), the negative detuning, and reads its partner's
    gate from the same first composite (:func:`_two_level_mirror`).  Its
    blocks then cut the propagated columns, and each is followed by the
    block of their partners; the `cols` of both are index arrays.  Every
    other train keeps its slices of the grid's columns.
    """
    coupling = np.asarray(bright, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(coupling))
    if not (math.isfinite(norm) and norm > 0.0):
        raise ValidationError("bright vector must be finite and nonzero")
    coupling = coupling / norm
    phases = tuple(float(p) for p in pulse_phases)
    if not phases or not all(math.isfinite(p) for p in phases):
        raise ValidationError("a pulse train needs at least one finite drive phase")
    if not (np.all(np.isfinite(areas)) and np.all(areas >= 0.0)):
        raise ValidationError("areas must be finite and >= 0")
    if not np.all(np.isfinite(detunings)):
        raise ValidationError("detunings must be finite")
    # A unit-rms generator has eigenvalues |w| <= |Delta| + 1/2, so this
    # product bounds every eigenphase t w and every frame phase Delta T.
    # Python floats overflow to inf without a warning.
    unit = shape.unit_integral()
    longest = float(np.max(areas, initial=0.0)) / unit
    if not math.isfinite(longest * (float(np.max(np.abs(detunings), initial=0.0)) + 1.0)):
        raise ValidationError("area x detuning is too large: the pulse phases overflow")
    _require_substeps(substeps)
    dim = coupling.size + 1
    if dim == 2 and shift is not None:
        phases = phases[:len(phases) // 2]
    count = 1 if shape.kind == RECTANGULAR else int(substeps)
    envelope = _midpoint_samples(shape, count)
    # the detuning mirror needs a palindromic first composite and a pulse
    # whose slices mirror: one slice, or a mirrored half of the samples
    direct = partner = None
    if (dim == 2 and shift is not None and phases == phases[::-1]
            and envelope.size == (count + 1) // 2):
        direct, partner = _mirror_pairs(areas, detunings)
        if direct.size == detunings.size:
            direct = partner = None
    columns = areas.shape[1] if direct is None else direct.size
    for rows, chunk in grid_chunks(areas.shape[0], columns, dim, count):
        cols = chunk if direct is None else direct[chunk]
        with SERIAL_BLAS:
            t, det = areas[rows, cols] / unit, detunings[cols]
            if dim == 2:
                block = _two_level_planes(t.shape)
                if count == 1:
                    h = _star_generators(coupling, envelope, det[:, None])[:, 0]
                    v, phase = expm_hermitian_stack(h, t)
                    # the generator's trace is Delta, so its eigenphases
                    # multiply to the frame step e^{-i Delta T}
                    row, step = _eigen_row(v, phase), phase[..., 0] * phase[..., 1]
                else:
                    row = _two_level_slices(envelope, count, det, t)
                    step = np.exp(-1j * (det * t))
                train = _two_level_train(*row, step, phases)
                _two_level_write(*(train if shift is None else _two_level_gate(*train, shift)),
                                 block)
                _rescale_slices(block, count)
            elif count == 1:
                block = np.empty(t.shape + (dim, dim), dtype=complex)
                h = _star_generators(coupling, envelope, det[:, None])[:, 0]
                _eigenbasis_train(*expm_hermitian_stack(h, t), phases, block)
            else:
                # G = diag(e^{i arg c}, 1) makes the generators real: h = G h_r G^dagger
                # with h_r built on |c|, and G u G^dagger scales u[j, k] by g_j conj(g_k)
                u = slice_product(np.abs(coupling), envelope, count, det, t)
                g = np.append(np.exp(1j * np.angle(coupling)), 1.0)
                block = _pulse_train(u * np.multiply.outer(g, g.conj()), phases)
        yield rows, cols, block
        if direct is None:
            continue
        pair = partner[chunk]
        paired = np.flatnonzero(pair >= 0)
        if paired.size:
            with SERIAL_BLAS:
                if paired.size < pair.size:
                    train = tuple(part[:, paired] for part in train)
                block = None  # the yielded block is not held while the next is made
                block = _two_level_planes(train[0].shape)
                _two_level_mirror(*train, shift, block)
                _rescale_slices(block, count)
            yield rows, pair[paired], block


def _mirror_pairs(areas, detunings):
    """(direct, partner): the columns a two-level gate propagates, and each one's mirrored partner.

    Column k is the partner of column j when Delta_j < 0, Delta_k == -Delta_j
    bit for bit and their area columns are equal, so that the gate of k is read from
    the first composite of j (:func:`_two_level_mirror`).  A column is the
    partner of one column at most, and every column that is no partner is
    propagated: `direct` lists them in order, and `partner` holds the
    partner of each, -1 if it has none.
    """
    negative = np.flatnonzero(detunings < 0.0)
    positive = np.flatnonzero(detunings > 0.0)
    partner = np.full(detunings.size, -1)
    if negative.size and positive.size:
        positive = positive[np.argsort(detunings[positive], kind="stable")]
        at = np.searchsorted(detunings[positive], -detunings[negative]).clip(max=positive.size - 1)
        k = positive[at]
        mirrored = detunings[k] == -detunings[negative]
        k, first = np.unique(k[mirrored], return_index=True)
        j = negative[mirrored][first]
        # the area columns compared in ranges of rows within one block
        same = np.ones(k.size, dtype=bool)
        for r in stack_chunks(areas.shape[0], k.size, BLOCK_ELEMENTS):
            same &= np.all(areas[r, k] == areas[r, j], axis=0)
        partner[j[same]] = k[same]
        partner[k[same]] = -2
    direct = np.flatnonzero(partner != -2)
    return direct, partner[direct]


def _require_substeps(substeps) -> None:
    """Reject a slice count that is not an integer from 1 to STACK_ELEMENTS, for any envelope."""
    if not (1 <= substeps <= STACK_ELEMENTS and int(substeps) == substeps):
        raise ValidationError(f"substeps must be an integer from 1 to {STACK_ELEMENTS}")


def _midpoint_samples(shape: PulseShape, count: int) -> np.ndarray:
    """The envelope at the midpoints (k + 1/2) / count of `count` slices, or its first half.

    A Gaussian is mirror-symmetric, so only its first ceil(count / 2)
    midpoints are evaluated, and the later ones are taken to mirror them
    (evaluated, they would differ from the mirror by round-off).  Any other
    envelope is evaluated at every midpoint, and only a table whose samples
    mirror bit for bit is cut to its first half.
    """
    half = (count + 1) // 2
    if shape.kind == GAUSSIAN:
        return shape.envelope((np.arange(half) + 0.5) / count)
    samples = shape.envelope((np.arange(count) + 0.5) / count)
    return samples[:half] if np.array_equal(samples, samples[::-1]) else samples


def _star_generators(coupling: np.ndarray, envelope, detunings) -> np.ndarray:
    """Generators [[0, f c/2], [f c^dagger/2, Delta]] over broadcast stacks of f and Delta.

    Manifold states first, ancilla last; :func:`comphr.npod.npod_hamiltonian`
    builds its generator here too.  The shape is broadcast(f, Delta) + (N+1, N+1),
    and the dtype follows the coupling: real couplings (the moduli of the
    kernel's real gauge) give real symmetric generators.
    """
    half = 0.5 * np.multiply.outer(envelope, coupling)
    detunings = np.asarray(detunings, dtype=float)
    n = coupling.size
    shape = np.broadcast_shapes(half.shape[:-1], detunings.shape) + (n + 1, n + 1)
    h = np.zeros(shape, dtype=np.result_type(half, float))
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
    generator and `phase` (rows, cols, n) the eigenphases e^{-iwt} of each
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
    rows, cols, n = phase.shape
    lam = phase.transpose(1, 2, 0)[..., None]
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


def _eigen_row(v, phase):
    """Row 0 (a, b), each (rows, cols), of the one-slice two-level pulses v diag(phase) v^dagger.

    `v` (cols, 2, 2) and `phase` (rows, cols, 2) are the eigen-factors of
    :func:`_eigenbasis_train`: a = |v00|^2 phase_0 + |v01|^2 phase_1 and
    b = v00 conj(v10) phase_0 + v01 conj(v11) phase_1.
    """
    top, bottom = v[:, 0], v[:, 1]
    weight, cross = (top * top.conj()).real, top * bottom.conj()
    a = weight[:, 0] * phase[..., 0] + weight[:, 1] * phase[..., 1]
    b = cross[:, 0] * phase[..., 0] + cross[:, 1] * phase[..., 1]
    return a, b


def _two_level_slices(samples, count: int, det, t):
    """Row 0 (a, b), each (rows, cols), of two-level pulses of `count` midpoint slices.

    `samples` holds the envelope f_k at the first len(samples) midpoints,
    mirrored as in :func:`slice_product` if that is fewer than `count`;
    `det` (cols,) holds the detunings and `t` (rows, cols) the durations, so
    a slice lasts dt = t / count.  Slice k is e^{-i Delta dt/2} times the
    SU(2) matrix of row 0 (cos(w_k dt) + i Delta s_k, -i f_k s_k), where
    w_k = sqrt(f_k^2 + Delta^2)/2 and s_k = sin(w_k dt)/(2 w_k) =
    (dt/2) sinc(w_k dt/pi), which stays finite at w_k = 0.  The SU(2) parts
    are multiplied in Cayley-Klein form by pairwise tree reduction over the
    slice axis, as :func:`time_ordered_product` does with matrices (see
    :func:`_cayley_klein`).  Their y is purely imaginary, so each is
    symmetric, and mirrored samples make the pulse Q^T Q, or Q^T S_mid Q for
    an odd count, with Q = (x, y) the product of the first count // 2: its
    row 0 is (x rx + conj(y) conj(ry), x ry - conj(y) conj(rx)), with
    (rx, ry) = Q or S_mid Q.  The product is rescaled to |x|^2 + |y|^2 = 1,
    which takes out the round-off of its slices, and the frames multiply
    out to e^{-i Delta t/2}.
    """
    dt = t[..., None] / count
    angle = 0.5 * np.hypot(samples, det[:, None]) * dt
    s = 0.5 * dt * np.sinc(angle / np.pi)
    x, y = np.cos(angle) + 1j * (det[:, None] * s), -1j * (samples * s)
    del angle, s
    first = count // 2 if samples.size < count else count
    mx, my = x[..., first:], y[..., first:]
    x, y = x[..., :first], y[..., :first]
    while x.shape[-1] > 1:
        size = x.shape[-1]
        even = size - size % 2
        px, py = _cayley_klein(x[..., 1:even:2], y[..., 1:even:2],
                               x[..., 0:even:2], y[..., 0:even:2])
        if size % 2:  # the odd slice out acts after the last pair
            px[..., -1], py[..., -1] = _cayley_klein(x[..., -1], y[..., -1],
                                                     px[..., -1], py[..., -1])
        x, y = px, py
    x, y = x[..., 0], y[..., 0]
    if first < count:
        rx, ry = (x, y) if count % 2 == 0 else _cayley_klein(mx[..., 0], my[..., 0], x, y)
        xc, yc = x.conj(), y.conj()
        x, y = x * rx + yc * ry.conj(), x * ry - yc * rx.conj()
    frame = np.exp(-0.5j * (det * t)) / np.hypot(np.abs(x), np.abs(y))
    return x * frame, y * frame


def _cayley_klein(x2, y2, x1, y1):
    """Row 0 of (x2, y2) acting after (x1, y1) in SU(2): (x2 x1 - y2 conj(y1), x2 y1 + y2 conj(x1)).

    Every product takes named operands and writes a new array, as in
    :func:`_two_level_train`, so a point's bits do not depend on its block.
    """
    x1c, y1c = x1.conj(), y1.conj()
    return x2 * x1 - y2 * y1c, x2 * y1 + y2 * x1c


def _two_level_planes(shape) -> np.ndarray:
    """An empty stack of 2x2 blocks over `shape`, held as four contiguous planes."""
    return np.empty((2, 2) + shape, dtype=complex).transpose(2, 3, 0, 1)


def _rescale_slices(block, count: int) -> None:
    """Rescale the trains of pulses of several slices to a unit row 0, in place.

    The train adds its round-off to the slices', and a second rescale keeps
    the product unitary.  A one-slice pulse is left as it is.
    """
    if count > 1:
        block /= np.linalg.norm(block[..., 0, :], axis=-1)[..., None, None]


def _two_level_train(a, b, step, phases: tuple[float, ...]):
    """:func:`_pulse_train` of a two-level pulse by elementwise Cayley-Klein updates.

    `a` and `b` (rows, cols) are row 0 of the pulse at phase 0, u0 (from
    :func:`_eigen_row` for one slice, :func:`_two_level_slices` for
    several), and `step` (rows, cols) is its frame step e^{-i Delta T}.  The
    generator has trace Delta, so u0 = f S with S in SU(2) and the frame
    f = e^{-i Delta T / 2}.  A product of k pulses is then f^k times an
    SU(2) matrix, fixed by its row 0 (x, y) and the frame g = f^{2k} =
    e^{-i k Delta T}: its row 1 is (-g conj(y), g conj(x)).  Each pulse,
    with q = b e^{ip}, maps row 0 to (a x - q g conj(y), a y + q g conj(x))
    and g to g e^{-i Delta T}.  Returns the train's (x, y, g).
    """
    # Every product takes named operands and writes a new array.  numpy rounds
    # a complex product worked in place (or into a large temporary operand,
    # which it reuses) differently, so the bits would depend on the block size.
    x, y, g = a, b * np.exp(1j * phases[0]), step
    for p in phases[1:]:
        qg = b * np.exp(1j * p)
        qg = qg * g
        xc, yc = x.conj(), y.conj()
        x = a * x - qg * yc
        y = a * y + qg * xc
        del qg, xc, yc
        g = g * step
    return x, y, g


def _two_level_gate(x, y, g, shift: float):
    """The gate D(s) U1 D(s)^dagger U1 of a first composite U1 with row 0 (x, y) and frame g.

    D(s) U1 D(s)^dagger scales U1[0, 1] by e^{is} and U1[1, 0] by e^{-is},
    so with q = g e^{is} the gate's row 0 is (x^2 - q |y|^2, y (x + q
    conj(x))) and its frame g^2.  Every product takes named operands, as in
    :func:`_two_level_train`.
    """
    xc, yc = x.conj(), y.conj()
    q = g * np.exp(1j * shift)
    qx, qy = q * xc, q * yc
    sum_x = x + qx
    return x * x - qy * y, y * sum_x, g * g


def _two_level_mirror(x, y, g, shift: float, out: np.ndarray) -> None:
    """The gate at -Delta, written into `out`, from the first composite U1 = (x, y, g) at Delta.

    In the real gauge Z h(Delta) Z = -h(-Delta), Z = diag(1, -1), so a train
    satisfies U(-Delta, p) = Z conj(U(Delta, -p)) Z.  A slice is complex
    symmetric, so when the slices and the phases of U1 are palindromic the
    gate at -Delta is Z (U1 A)^dagger Z with A = D(s) U1 D(s)^dagger.  With
    q' = g e^{-is} and r = g conj(y) (x + q' conj(x)), U1 A has element
    (0, 0) m = x^2 - q' |y|^2, element (1, 0) -r and frame g^2, so the gate
    at -Delta has row 0 (conj(m), conj(r)) and frame conj(g^2): its row 1
    is (-conj(g^2) r, conj(g^2) m).  Every product takes named operands,
    as in :func:`_two_level_train`, and writes a new array or a plane of
    `out`, of shape (rows, cols, 2, 2), that none of its operands share.
    """
    # the temporaries go as soon as they are used: the block before this one
    # may still be held
    xc, yc = x.conj(), y.conj()
    q = g * np.exp(-1j * shift)
    qx = q * xc
    del xc
    sum_x = x + qx
    qy = q * yc
    del q, qx
    xx, qyy = x * x, qy * y
    del qy
    m = xx - qyy
    del xx, qyy
    gy = g * yc
    del yc
    r = gy * sum_x
    del gy, sum_x
    frame = g * g
    frame = frame.conj()
    np.conjugate(m, out=out[..., 0, 0])
    np.conjugate(r, out=out[..., 0, 1])
    np.multiply(frame, m, out=out[..., 1, 1])
    frame = -frame
    np.multiply(frame, r, out=out[..., 1, 0])


def _two_level_write(x, y, g, out: np.ndarray) -> None:
    """Write the 2x2 blocks of row 0 (x, y) and frame g into `out`, of shape (rows, cols, 2, 2)."""
    xc, yc = x.conj(), y.conj()
    out[..., 0, 0], out[..., 0, 1] = x, y
    out[..., 1, 0], out[..., 1, 1] = -(g * yc), g * xc
