"""Kernel tests: Hermitian exponentials, Frobenius distance, unitarity diagnostics."""

import warnings

import numpy as np
import pytest

from comphr import Propagator2, ValidationError, expm_hermitian, unitarity_defect
from comphr.linalg import SERIES_DEGREE, SERIES_THETA, expm_hermitian_stack

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


@pytest.mark.parametrize("h_batch, t_shape", [
    ((5,), (5,)),          # t has no axes that h lacks
    ((5,), (3, 5)),        # one extra leading axis: the area rows of a map
    ((5,), (2, 3, 5)),     # two extra leading axes
    ((5,), ()),            # scalar t
    ((), (3, 4)),          # a single matrix for a whole grid of times
    ((1,), (3, 5)),        # size-1 batch axes of h broadcast against t
    ((4, 1), (2, 4, 6)),
    ((4, 6), (1, 6)),
])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_expm_stack_matches_per_matrix_calls(h_batch, t_shape, dim):
    from comphr.linalg import SERIAL_BLAS, expm_hermitian_stack

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
    from comphr import linalg

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
    from comphr import (AXIS_AREA, AXIS_DETUNING, ScanAxis, ScanGrid, bb_phases, linalg,
                        random_system, scan_2d, two_level)

    get, put = _blas_threads()
    before = get()
    seen = []
    original = linalg.expm_hermitian_stack

    def spy(h, t, factors=False):
        seen.append(get())
        return original(h, t, factors)

    monkeypatch.setattr(two_level, "expm_hermitian_stack", spy)
    monkeypatch.setattr(linalg, "expm_hermitian_stack", spy)
    h = random_hermitian(np.random.default_rng(5), 51)
    u = two_level.star_propagator(np.ones(50), (0.0, 1.0), np.pi)
    v = expm_hermitian(h, 0.3)
    assert seen == [1, 1]
    assert get() == before
    assert unitarity_defect(u) < 1e-12 and unitarity_defect(v) < 1e-12
    # the scans take the kernel's blocks: the shortcut map in two blocks,
    # the N = 3 map in five, each decomposing its detunings on one thread
    grid = ScanGrid(ScanAxis(AXIS_AREA, 0.0, 2.0, 41), ScanAxis(AXIS_DETUNING, -2.0, 2.0, 201))
    for system, blocks in ((None, 2), (random_system(3, seed=7), 5)):
        seen.clear()
        scan_2d(bb_phases(9), np.pi, grid, system=system)
        assert seen == [1] * blocks
        assert get() == before
