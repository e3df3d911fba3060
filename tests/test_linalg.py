"""Kernel tests: Hermitian exponentials, Frobenius distance, unitarity diagnostics."""

import warnings

import numpy as np
import pytest

from comphr import Propagator2, ValidationError, expm_hermitian, unitarity_defect

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
    from comphr import linalg, two_level

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
