"""Kernel tests: Hermitian exponentials, Frobenius distance, unitarity diagnostics."""

import math
import warnings

import numpy as np
import pytest

from comphr import Propagator2, ValidationError, expm_hermitian, linalg, unitarity_defect
from comphr.two_level import SERIES_DEGREE, SERIES_THETA

from oracle import rk4_propagator


def random_hermitian(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (m + m.conj().T)


def test_zero_generator_gives_identity():
    u = expm_hermitian(np.zeros((2, 2)), 3.7)
    assert np.allclose(u, np.eye(2), atol=1e-15)


def test_diagonal_generator():
    u = expm_hermitian(np.diag([0.0, 1.0]), np.pi)
    assert np.allclose(u, np.diag([1.0, -1.0]), atol=1e-14)
    u = expm_hermitian(np.diag([0.0, 0.4]), 2.5)
    assert u[1, 1] == pytest.approx(np.exp(-1j * 0.4 * 2.5), abs=1e-14)


def test_pi_coupling_pulse_vs_rk4():
    h = 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    u = expm_hermitian(h, np.pi)
    assert abs(u[0, 0]) == pytest.approx(0.0, abs=1e-14)
    assert abs(u[0, 1]) == pytest.approx(1.0, abs=1e-14)
    u_rk4 = rk4_propagator(lambda t: h, 0.0, np.pi, 4000)
    assert np.max(np.abs(u - u_rk4)) <= 1e-10


def test_expm_rejects_bad_input():
    with pytest.raises(ValidationError):
        expm_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)  # not Hermitian
    with pytest.raises(ValidationError):
        expm_hermitian(np.array([[np.nan, 0.0], [0.0, 0.0]]), 1.0)
    with pytest.raises(ValidationError):
        expm_hermitian(np.zeros((2, 2)), np.inf)
    with pytest.raises(ValidationError):
        expm_hermitian(np.zeros((2, 3)), 1.0)


def test_expm_inverse_and_group_property():
    rng = np.random.default_rng(42)
    for dim in (2, 3, 6):
        h = random_hermitian(rng, dim)
        t1, t2 = rng.uniform(-2, 2, size=2)
        u1 = expm_hermitian(h, t1)
        assert np.linalg.norm(u1 @ expm_hermitian(h, -t1) - np.eye(dim)) <= 1e-11
        u12 = expm_hermitian(h, t1 + t2)
        assert np.linalg.norm(u12 - u1 @ expm_hermitian(h, t2)) <= 1e-11


def test_expm_output_is_unitary():
    rng = np.random.default_rng(7)
    for dim in (2, 4, 9):
        u = expm_hermitian(random_hermitian(rng, dim), rng.uniform(0, 10))
        assert unitarity_defect(u) <= 1e-12


def expm_hermitian_stack(h: np.ndarray, t, factors: bool = False):
    """Batched exp(-i*h*t) over the leading axes of h (and of t, broadcast).

    The package's former exponential, from before comphr.linalg's
    expm_hermitian_stack returned only the factors: the reference of
    rebuilt_pulses, reference_shortcut and matmul_shaped_star_propagator in
    test_cli, of matmul_train in test_two_level and of expm_hermitian_series.

    The result has shape broadcast(h.shape[:-2], t.shape) + h.shape[-2:].
    Each matrix of h is decomposed once, as v diag(w) v^dagger, and every
    time that shares its decomposition is rebuilt in the same product: the
    leading axes of t that h lacks are moved next to the matrix rows, so
    each decomposition takes one (rows*n x n) @ (n x n) matmul,
    v diag(e^{-iwt}) stacked over the rows times v^dagger, not one BLAS
    call per n x n matrix.  Without such axes the row group has one member.

    With `factors` the exponentials are not rebuilt: the result is the pair
    (v, phase), v the eigenvectors (shape h.shape) and phase = e^{-iwt} of
    shape h.shape[:-2] + (rows, n), the row group flattened on axis -2.

    No validation: callers construct Hermitian stacks.
    """
    w, v = np.linalg.eigh(h)
    n = h.shape[-1]
    t = np.asarray(t, dtype=float)
    extra = max(t.ndim - (h.ndim - 2), 0)
    rows, count = t.shape[:extra], math.prod(t.shape[:extra])
    # the times of each decomposition's row group on the last axis, contiguous
    # so that `scaled` is too and its reshape takes no copy of the stack
    # (transpose, not np.moveaxis, whose overhead shows on single gates)
    t = t.reshape((count,) + t.shape[extra:])
    t = np.ascontiguousarray(t.transpose(tuple(range(1, t.ndim)) + (0,)))
    phase = np.exp(-1j * t[..., None] * w[..., None, :])
    if factors:
        return v, phase
    scaled = v[..., None, :, :] * phase[..., None, :]
    u = scaled.reshape(scaled.shape[:-3] + (count * n, n)) @ v.conj().swapaxes(-1, -2)
    u = u.reshape(u.shape[:-2] + (count, n, n))
    lead = u.ndim - 3
    u = u.transpose((lead,) + tuple(range(lead)) + (lead + 1, lead + 2))
    return u.reshape(rows + u.shape[1:])


#: Batch shapes of h and shapes of t for the stacked exponentials.
STACK_SHAPES = [
    ((5,), (5,)),          # t has no axes that h lacks
    ((5,), (3, 5)),        # one extra leading axis: the area rows of a map
    ((5,), (2, 3, 5)),     # two extra leading axes
    ((5,), ()),            # scalar t
    ((), (3, 4)),          # a single matrix for a whole grid of times
    ((1,), (3, 5)),        # size-1 batch axes of h broadcast against t
    ((4, 1), (2, 4, 6)),
    ((4, 6), (1, 6)),
]


@pytest.mark.parametrize("h_batch, t_shape", STACK_SHAPES)
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_expm_stack_matches_per_matrix_calls(h_batch, t_shape, dim):
    from comphr.linalg import SERIAL_BLAS

    rng = np.random.default_rng(dim)
    h = np.empty(h_batch + (dim, dim), dtype=complex)
    for index in np.ndindex(h_batch):
        h[index] = random_hermitian(rng, dim)
    t = rng.uniform(-3.0, 3.0, t_shape)
    grid = np.broadcast_shapes(h_batch, t_shape)
    with SERIAL_BLAS:
        u = expm_hermitian_stack(h, t)
        assert u.shape == grid + (dim, dim)
        hs, ts = np.broadcast_to(h, grid + (dim, dim)), np.broadcast_to(t, grid)
        for index in np.ndindex(grid):
            one = expm_hermitian_stack(hs[index], ts[index])
            assert np.array_equal(u[index], one)
            assert np.max(np.abs(u[index] - expm_hermitian(hs[index], ts[index]))) <= 1e-14


@pytest.mark.parametrize("h_batch, t_shape", STACK_SHAPES)
@pytest.mark.parametrize("dim", [2, 3, 4, 9])
def test_expm_stack_factors_match_per_matrix_factors(h_batch, t_shape, dim):
    # The package's primitive: the batched factors equal each matrix's own,
    # bit for bit, and rebuild to expm_hermitian within 1e-14.
    rng = np.random.default_rng(dim)
    h = np.empty(h_batch + (dim, dim), dtype=complex)
    for index in np.ndindex(h_batch):
        h[index] = random_hermitian(rng, dim)
    t = rng.uniform(-3.0, 3.0, t_shape)
    grid = np.broadcast_shapes(h_batch, t_shape)
    with linalg.SERIAL_BLAS:
        v, phase = linalg.expm_hermitian_stack(h, t)
        assert v.shape == h.shape and phase.shape == grid + (dim,)
        hs, ts = np.broadcast_to(h, grid + (dim, dim)), np.broadcast_to(t, grid)
        vs = np.broadcast_to(v, grid + (dim, dim))
        for index in np.ndindex(grid):
            one_v, one_phase = linalg.expm_hermitian_stack(hs[index], ts[index])
            assert np.array_equal(vs[index], one_v) and np.array_equal(phase[index], one_phase)
            u = (vs[index] * phase[index]) @ vs[index].conj().T
            assert np.max(np.abs(u - expm_hermitian(hs[index], ts[index]))) <= 1e-14


def expm_hermitian_series(h: np.ndarray, t) -> np.ndarray:
    """Batched exp(-i*h*t) over broadcast(h.shape[:-2], t.shape) by a Taylor series in h.

    The kernel's former exponential of shaped (N+1)-level slices, kept as the
    reference of series_star_propagator in test_cli.

    Each matrix of h is scaled by its largest entry, a = h / s with
    s = max|h_ij|, and its powers a^k are taken once for all the times it
    meets.  A point with theta = ||h||_F |t| sums the series in those powers
    to the least degree K whose remainder is within 2^-53 (see
    SERIES_THETA), and its coefficients (-i s t)^k / k! beyond K are exact
    zeros.  The even and the odd terms are summed apart, in order of degree,
    into sums that start at +0.  Such a sum never becomes -0, and adding an
    exact zero changes no other value, so a point's bits depend on its own
    theta, not on the degrees of the points around it.  Real symmetric h
    takes real powers and real sums.  A point past the series radius,
    theta > SERIES_THETA[-1], is taken from the spectral factors of
    :func:`expm_hermitian_stack` instead, which are unitary for any t: each
    generator with such a point is decomposed once, and each such point is
    rebuilt from its factors on its own.

    No validation: callers construct Hermitian stacks and finite times.
    """
    t = np.asarray(t, dtype=float)
    n = h.shape[-1]
    full = np.broadcast_shapes(h.shape[:-2], t.shape)
    # a = h / max|h_ij| keeps every power finite, and theta = |t| ||h||_F
    # squares no entry beyond 1
    big = np.max(np.abs(h), axis=(-2, -1), initial=0.0)
    a = h / np.where(big > 0.0, big, 1.0)[..., None, None]
    tau = np.broadcast_to(t * big, full)
    theta = np.abs(tau) * np.sqrt(np.sum((a * a.conj()).real, axis=(-2, -1)))
    degree = np.searchsorted(SERIES_THETA, theta) + 1
    series = degree <= SERIES_DEGREE
    top = int(np.max(degree, where=series, initial=0))
    even, odd = np.zeros(full + (n, n), dtype=a.dtype), np.zeros(full + (n, n), dtype=a.dtype)
    step = np.where(series, tau, 0.0)
    power, coef = a, step
    for k in range(1, top + 1):
        if k > 1:
            power, coef = power @ a, coef * step / k
        # u = even + i odd, and (-i)^k = i^(k % 2) (-1)^ceil(k/2)
        term = np.where(degree >= k, -coef if (k + 1) // 2 % 2 else coef, 0.0)
        acc = odd if k % 2 else even
        acc += term[..., None, None] * power
    even += np.eye(n)
    if np.iscomplexobj(a):
        u = even + 1j * odd
    else:
        u = np.empty(full + (n, n), dtype=complex)
        u.real, u.imag = even, odd
    if not np.all(series):
        # each generator with a point past the radius is decomposed once, for
        # all the times it meets, and each such point rebuilt on its own
        gens = np.broadcast_to(h, full[len(full) - (h.ndim - 2):] + (n, n)).reshape(-1, n, n)
        times = np.broadcast_to(t, full).reshape(-1, len(gens))
        points = np.flatnonzero(~series)
        row, gen = np.divmod(points, len(gens))
        needed, which = np.unique(gen, return_inverse=True)
        v, phase = expm_hermitian_stack(gens[needed], times[:, needed], factors=True)
        v = v[which]
        rebuilt = (v * phase[which, row][:, None, :]) @ v.conj().swapaxes(-1, -2)
        u.reshape(-1, n, n)[points] = rebuilt
    return u


def random_star(rng, dim):
    """A real symmetric star generator: real couplings to the last level, which is detuned."""
    h = np.zeros((dim, dim))
    h[:-1, -1] = h[-1, :-1] = 0.5 * rng.uniform(0.0, 1.0, dim - 1)
    h[-1, -1] = rng.uniform(-2.0, 2.0)
    return h


#: theta = ||h||_F t from 1e-4 to past the series radius, with each degree's
#: threshold and its neighbours on both sides.
THETAS = np.unique(np.concatenate([
    np.geomspace(1e-4, 3.0, 40), np.multiply.outer(SERIES_THETA, [1 - 1e-12, 1.0, 1 + 1e-12]).ravel()]))


@pytest.mark.parametrize("dim", [2, 3, 4, 6])
@pytest.mark.parametrize("kind", ["real-star", "complex-hermitian"])
def test_taylor_series_exponentials_match_expm_hermitian(kind, dim):
    # Tolerances fixed before the code ran: 1e-14 from a per-matrix
    # expm_hermitian, and a unitarity defect of at most 1e-14.
    rng = np.random.default_rng(dim)
    make = random_star if kind == "real-star" else random_hermitian
    h = np.stack([make(rng, dim) for _ in range(5)])
    norm = np.linalg.norm(h, axis=(-2, -1))
    times = THETAS[:, None] / norm
    assert times.max() * norm.max() > SERIES_THETA[-1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = expm_hermitian_series(h, times)
    assert u.shape == times.shape + (dim, dim)
    for k in np.ndindex(times.shape):
        reference = expm_hermitian(h[k[1]], times[k])
        assert np.max(np.abs(u[k] - reference)) <= 1e-14
        assert unitarity_defect(u[k]) <= 1e-14


def test_taylor_series_exponentials_of_zero_generators_and_times_are_the_identity():
    h = np.zeros((2, 3, 3), dtype=complex)
    h[1] = random_hermitian(np.random.default_rng(1), 3)
    u = expm_hermitian_series(h, np.array([[0.0], [0.3]]))
    assert np.array_equal(u[0, 0], np.eye(3)) and np.array_equal(u[0, 1], np.eye(3))
    assert np.array_equal(u[1, 0], np.eye(3))


def test_unitarity_defect_examples():
    assert unitarity_defect(np.eye(4)) == 0.0
    assert unitarity_defect(np.diag([2.0, 1.0])) == pytest.approx(3.0)
    with pytest.raises(ValidationError):
        unitarity_defect(np.zeros((2, 3)))


@pytest.mark.parametrize("check", [unitarity_defect, Propagator2])
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_non_finite_operator_is_rejected_before_any_product(check, value):
    # unchecked, inf gives "invalid value encountered in matmul" and a NaN defect
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="NaN or Inf"):
            check(np.full((2, 2), value))


def _blas_threads():
    if linalg.SERIAL_BLAS._control is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    return linalg.SERIAL_BLAS._control


def test_serial_blas_nests_and_restores_on_error():
    from comphr.linalg import SERIAL_BLAS

    get, put = _blas_threads()
    before = get()
    put(2)
    try:
        with pytest.raises(RuntimeError):
            with SERIAL_BLAS:
                with SERIAL_BLAS:
                    assert get() == 1
                assert get() == 1
                raise RuntimeError
        assert get() == 2
    finally:
        put(before)


def test_propagator_kernels_run_on_one_blas_thread(monkeypatch):
    from comphr import (AXIS_AREA, AXIS_DETUNING, ScanAxis, ScanGrid, bb_phases, random_system,
                        scan_2d, two_level)

    get, put = _blas_threads()
    before = get()
    seen = []
    original = linalg.expm_hermitian_stack

    def spy(h, t):
        seen.append(get())
        return original(h, t)

    monkeypatch.setattr(two_level, "expm_hermitian_stack", spy)
    monkeypatch.setattr(linalg, "expm_hermitian_stack", spy)
    h = random_hermitian(np.random.default_rng(5), 51)
    u = two_level.star_propagator(np.ones(50), (0.0, 1.0), np.pi)
    v = expm_hermitian(h, 0.3)
    assert seen == [1, 1]
    assert get() == before
    assert unitarity_defect(u) < 1e-12 and unitarity_defect(v) < 1e-12
    # the scans take the kernel's blocks, each decomposing its detunings on
    # one thread: the shortcut map propagates 101 of its columns, the other
    # 100 mirror them, in one block (101 x 41 x 4 = 16 564 <= 2^15
    # elements), and the N = 3 map takes five
    grid = ScanGrid(ScanAxis(AXIS_AREA, 0.0, 2.0, 41), ScanAxis(AXIS_DETUNING, -2.0, 2.0, 201))
    for system, blocks in ((None, 1), (random_system(3, seed=7), 5)):
        seen.clear()
        scan_2d(bb_phases(9), np.pi, grid, system=system)
        assert seen == [1] * blocks
        assert get() == before
