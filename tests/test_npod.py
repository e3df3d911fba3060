"""Star-coupled systems: reduction, Householder targets, full-system propagation."""

import math
from dataclasses import replace

import numpy as np
import pytest

from comphr import (
    HouseholderTarget,
    NPodSystem,
    ValidationError,
    bb_phases,
    composite_hr,
    composite_phase_gate,
    gate_sequence,
    gaussian,
    householder_matrix,
    infidelity,
    manifold_block,
    ms_reduce,
    npod_hamiltonian,
    npod_propagator,
    pulse_propagator,
    random_system,
    rectangular,
    sequence_propagator,
    star_propagator,
    unitarity_defect,
    universal_phases,
)
from comphr.cli import _config_doc, _parse_config
from comphr.two_level import STACK_ELEMENTS

PI = np.pi


def projector(v):
    return np.outer(v, v.conj())


def shortcut_block(v, u00):
    """Manifold propagator predicted by the bright/dark reduction."""
    n = v.size
    return (np.eye(n) - projector(v)) + u00 * projector(v)


# --- Householder matrices -------------------------------------------------------

def test_householder_axis_reflection():
    t = HouseholderTarget(np.array([1.0, 0.0, 0.0]), PI)
    assert np.allclose(householder_matrix(t), np.diag([-1.0, 1.0, 1.0]), atol=1e-15)


def test_householder_by_hand():
    t = HouseholderTarget(np.array([1.0, 1.0]) / np.sqrt(2), PI)
    assert np.allclose(householder_matrix(t), np.array([[0.0, -1.0], [-1.0, 0.0]]), atol=1e-15)
    t = HouseholderTarget(np.array([1.0, 0.0]), PI / 2)
    assert np.allclose(householder_matrix(t), np.diag([1j, 1.0]), atol=1e-15)


def test_householder_rejects_unnormalized_vector():
    with pytest.raises(ValidationError):
        HouseholderTarget(np.array([1.0, 1.0]), PI)
    with pytest.raises(ValidationError):
        HouseholderTarget(np.array([1.0, np.nan]), PI)


def test_householder_algebra():
    rng = np.random.default_rng(13)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        phi = rng.uniform(-PI, PI)
        m = householder_matrix(HouseholderTarget(v, phi))
        assert unitarity_defect(m) <= 1e-12
        assert abs(np.linalg.det(m) - np.exp(1j * phi)) <= 1e-12
        m_pi = householder_matrix(HouseholderTarget(v, PI))
        assert np.linalg.norm(m_pi @ m_pi - np.eye(n)) <= 1e-12
        m_neg = householder_matrix(HouseholderTarget(v, -phi))
        assert np.linalg.norm(m @ m_neg - np.eye(n)) <= 1e-12


# --- Morris-Shore style reduction ------------------------------------------------

def test_ms_reduce_345():
    red = ms_reduce(NPodSystem((3.0, 4.0), (0.0, 0.0)))
    assert red.rms_peak == pytest.approx(5.0)
    assert np.allclose(red.bright, [0.6, 0.8], atol=1e-15)


def test_ms_reduce_complex_phases():
    red = ms_reduce(NPodSystem((1.0, 1.0), (0.0, PI / 2)))
    assert red.rms_peak == pytest.approx(np.sqrt(2.0))
    assert np.allclose(red.bright, np.array([1.0, 1j]) / np.sqrt(2), atol=1e-15)


def test_ms_reduce_single_coupling():
    red = ms_reduce(NPodSystem((2.0,), (0.3,)))
    assert red.rms_peak == pytest.approx(2.0)
    assert red.bright[0] == pytest.approx(np.exp(0.3j), abs=1e-15)


def test_npod_system_validation():
    with pytest.raises(ValidationError):
        NPodSystem((), ())
    with pytest.raises(ValidationError):
        NPodSystem((0.0, 0.0), (0.0, 0.0))
    with pytest.raises(ValidationError):
        NPodSystem((1.0, -1.0), (0.0, 0.0))
    with pytest.raises(ValidationError):
        NPodSystem((1.0,), (0.0, 0.0))
    # the reciprocal of the rms overflows, or the rms itself
    for tiny_or_huge in ((5e-324,), (1e-310,), (1.5e308, 1.5e308)):
        with pytest.raises(ValidationError, match="rms"):
            NPodSystem(tiny_or_huge, (0.0,) * len(tiny_or_huge))


def test_rms_coupling_neither_underflows_nor_overflows():
    # the sum of squares underflows to 0 for 1e-200 and overflows for 1e200
    for couplings, rms in (((1e-200,), 1e-200), ((1e200, 1e200), math.sqrt(2.0) * 1e200),
                           ((3e-200, 4e-200), 5e-200)):
        sys = NPodSystem(couplings, (0.0,) * len(couplings))
        assert sys.rms_peak == pytest.approx(rms, rel=1e-15)
        assert abs(np.linalg.norm(sys.bright) - 1.0) <= 1e-15


def test_system_size_is_bounded_by_the_stack(monkeypatch):
    largest = math.isqrt(STACK_ELEMENTS) - 1  # one (N+1)x(N+1) propagator fills a stack
    assert NPodSystem((1.0,) * largest, (0.0,) * largest).n_states == largest
    with pytest.raises(ValidationError, match="at most"):
        NPodSystem((1.0,) * (largest + 1), (0.0,) * (largest + 1))

    def no_draw(*args, **kwargs):
        raise AssertionError("random_system drew before checking N")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    for n in (largest + 1, 100000, 999999999):
        with pytest.raises(ValidationError, match="at most"):
            random_system(n)


# --- Hamiltonian construction -----------------------------------------------------

def test_hamiltonian_vanishes_without_drive():
    sys = NPodSystem((1.0, 2.0), (0.1, 0.2), detuning=0.0)
    assert np.allclose(npod_hamiltonian(sys, 0.0, envelope=0.0), 0.0, atol=1e-15)


def test_hamiltonian_single_coupling_reduces_to_two_level():
    sys = NPodSystem((1.0,), (0.0,), detuning=0.0)
    assert np.allclose(npod_hamiltonian(sys), 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]]),
                       atol=1e-15)


def test_hamiltonian_structure():
    sys = NPodSystem((3.0, 4.0), (0.0, 0.0), detuning=0.7)
    h = npod_hamiltonian(sys)
    assert np.allclose(h[:, 2], [1.5, 2.0, 0.7], atol=1e-15)
    assert np.max(np.abs(h - h.conj().T)) == 0.0
    assert np.allclose(h[:2, :2], 0.0, atol=1e-15)


# --- full-system propagation --------------------------------------------------------

def test_single_coupling_matches_two_level_gate():
    sys = NPodSystem((1.0,), (0.0,), detuning=0.4)
    fam = bb_phases(3)
    seq = gate_sequence(fam, 2 * PI)
    u_full = npod_propagator(sys, seq, 0.9 * PI)
    u_two = sequence_propagator(seq, 0.9 * PI, detuning=0.4).u
    assert np.max(np.abs(u_full - u_two)) <= 1e-12


def test_single_resonant_2pi_pulse_is_standard_reflection():
    sys = random_system(4, seed=3)
    u = pulse_propagator(sys, 2 * PI)
    v = ms_reduce(sys).bright
    m = householder_matrix(HouseholderTarget(v, PI))
    assert np.max(np.abs(manifold_block(u) - m)) <= 1e-12


def test_pulse_propagator_rescales_to_unit_rms_peak():
    # couplings (3, 4) have rms peak 5; the pulse sees them as (0.6, 0.8)
    sys = NPodSystem((3.0, 4.0), (0.0, 0.5), detuning=0.3)
    u = pulse_propagator(sys, 0.9 * PI, 0.7)
    assert np.max(np.abs(u - star_propagator(sys.bright, (0.7,), 0.9 * PI, 0.3))) <= 1e-12


@pytest.mark.parametrize("shape", [rectangular(), gaussian()], ids=["rectangular", "gaussian"])
@pytest.mark.parametrize("area", [0.0, PI])
@pytest.mark.parametrize("phase, substeps", [
    (0.0, 0), (0.0, -3), (0.0, 2.5), (0.0, 10 ** 9), (0.0, STACK_ELEMENTS + 1),
    (math.inf, 10), (-math.inf, 10), (math.nan, 10),
])
def test_pulse_propagator_checks_its_phase_and_substeps_as_the_kernel_does(shape, area, phase,
                                                                           substeps):
    # Rejected up front, before any numpy warning, whatever the envelope and
    # the area: a rectangular pulse has no slices to count and a zero area
    # returns the identity, but the kernel rejects these inputs for both.
    sys = NPodSystem((3.0, 4.0), (0.0, 0.5), shape=shape, detuning=0.3)
    with pytest.raises(ValidationError, match="drive phase" if substeps == 10 else "substeps"):
        pulse_propagator(sys, area, phase, substeps)
    with pytest.raises(ValidationError):
        star_propagator(sys.bright, (phase,), area, sys.detuning, shape, substeps)


def test_batched_propagator_matches_pulse_by_pulse_products():
    # Reference: one exponential of the phased generator per pulse and grid point.
    sys = random_system(3, seed=29)
    seq = gate_sequence(universal_phases(5, 2), PI)
    areas = np.array([0.0, 0.7 * PI, PI, 1.6 * PI])
    dets = np.array([-1.3, 0.0, 0.4])
    grid = star_propagator(sys.bright, seq.pulse_phases, areas[:, None], dets[None, :])
    assert grid.shape == (4, 3, 4, 4)
    for i, area in enumerate(areas):
        for j, det in enumerate(dets):
            run = replace(sys, detuning=float(det))
            expected = np.eye(4, dtype=complex)
            for phase in seq.pulse_phases:
                expected = pulse_propagator(run, float(area), phase) @ expected
            assert np.max(np.abs(grid[i, j] - expected)) <= 1e-12


def test_dark_states_are_spectators():
    rng = np.random.default_rng(31)
    for _ in range(5):
        n = int(rng.integers(2, 9))
        sys = replace(random_system(n, seed=int(rng.integers(0, 1 << 32))),
                      detuning=float(rng.uniform(-2, 2)))
        seq = gate_sequence(universal_phases(5, 1), PI)
        u = npod_propagator(sys, seq, float(rng.uniform(0, 2 * PI)))
        # <v| = s u vh[0], so the conjugated rows 1.. of vh span the dark states
        dark = np.linalg.svd(sys.bright.conj()[None, :])[2][1:].conj()
        assert np.linalg.norm(dark.conj() @ dark.T - np.eye(n - 1)) <= 1e-12
        assert np.linalg.norm(dark.conj() @ sys.bright) <= 1e-12
        for w in dark:
            w_full = np.concatenate([w, [0.0]])
            assert np.linalg.norm(u @ w_full - w_full) <= 1e-11


def test_bright_manifold_block_matches_two_level_shortcut():
    rng = np.random.default_rng(37)
    seq = gate_sequence(universal_phases(5, 2), 2 * PI)
    for _ in range(8):
        n = int(rng.integers(1, 9))
        det = float(rng.uniform(-2, 2))
        area = float(rng.uniform(0, 2 * PI))
        sys = replace(random_system(n, seed=int(rng.integers(0, 1 << 32))), detuning=det)
        u_full = npod_propagator(sys, seq, area)
        u2 = sequence_propagator(seq, area, detuning=det).u
        v = ms_reduce(sys).bright
        assert np.max(np.abs(manifold_block(u_full) - shortcut_block(v, u2[0, 0]))) <= 1e-9
        # ancilla leakage out of the bright state
        leak = abs(u_full[n, :n] @ v)
        assert leak == pytest.approx(abs(u2[1, 0]), abs=1e-9)


def test_shaped_manifold_block_matches_two_level_shortcut():
    rng = np.random.default_rng(41)
    seq = gate_sequence(bb_phases(3), PI)
    for _ in range(3):
        n = int(rng.integers(2, 6))
        det = float(rng.uniform(-1, 1))
        area = float(rng.uniform(0.5 * PI, 1.5 * PI))
        sys = replace(random_system(n, seed=int(rng.integers(0, 1 << 32)), shape=gaussian()),
                      detuning=det)
        u_full = npod_propagator(sys, seq, area, substeps=1000)
        u2 = sequence_propagator(seq, area, detuning=det, shape=gaussian(), substeps=1000).u
        v = ms_reduce(sys).bright
        assert np.max(np.abs(manifold_block(u_full) - shortcut_block(v, u2[0, 0]))) <= 1e-6


def test_full_system_propagator_is_unitary():
    rng = np.random.default_rng(47)
    seq = gate_sequence(bb_phases(5), 0.7)
    for _ in range(5):
        n = int(rng.integers(1, 9))
        sys = replace(random_system(n, seed=int(rng.integers(0, 1 << 32))),
                      detuning=float(rng.uniform(-2, 2)))
        u = npod_propagator(sys, seq, float(rng.uniform(0, 2 * PI)))
        assert unitarity_defect(u) <= 1e-12


def test_manifold_block_extraction():
    assert np.allclose(manifold_block(np.eye(4)), np.eye(3), atol=1e-15)
    m = np.diag([1j, -1j, 1.0])
    assert np.allclose(manifold_block(m), np.diag([1j, -1j]), atol=1e-15)
    with pytest.raises(ValidationError):
        manifold_block(np.eye(1))


# --- composite reflections -----------------------------------------------------------

def test_composite_hr_nominal_point():
    sys = random_system(3, seed=19)
    v = ms_reduce(sys).bright
    m = householder_matrix(HouseholderTarget(v, PI))
    block = composite_hr(sys, bb_phases(3), PI, PI, 0.0)
    assert infidelity(block, m) <= 1e-12


def test_composite_hr_area_error_values():
    sys = random_system(3, seed=19)
    v = ms_reduce(sys).bright
    # bb(3), phi = pi, area 0.9*pi: F = 2 cos^6(0.45 pi)
    block = composite_hr(sys, bb_phases(3), PI, 0.9 * PI, 0.0)
    m = householder_matrix(HouseholderTarget(v, PI))
    assert infidelity(block, m) == pytest.approx(2.931059561923967e-05, abs=1e-12)
    # bb(1), phi = pi/2, area 0.9*pi: F = 2 sin(pi/4) cos^2(0.45 pi)
    block = composite_hr(sys, bb_phases(1), PI / 2, 0.9 * PI, 0.0)
    m = householder_matrix(HouseholderTarget(v, PI / 2))
    assert infidelity(block, m) == pytest.approx(0.03460826922259022, abs=1e-12)


def haar_unitary(n, seed):
    """A Haar-random U(n): the Q of a complex Gaussian matrix, times the phases of R's diagonal."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def reflection_product(u, family, area):
    """The composite reflections M(v_k, phi_k) of the eigenpairs (e^{i phi_k}, v_k) of u.

    Returns their product and the error of each against its target.
    """
    eigenvalues, eigenvectors = np.linalg.eig(u)
    product, errors = np.eye(len(u)), []
    for z, v in zip(eigenvalues, eigenvectors.T):
        phi = float(np.angle(z))
        sys = NPodSystem(tuple(np.abs(v)), tuple(np.angle(v)))
        block = composite_hr(sys, family, phi, area)
        errors.append(infidelity(block, householder_matrix(HouseholderTarget(v, phi))))
        product = block @ product
    return product, errors


def test_n_composite_reflections_make_any_unitary():
    # Ivanov, Kyoseva & Vitanov, PRA 74, 022323 (2006): the eigenvectors of
    # U are orthonormal, so U is the product of the reflections
    # I + (e^{i phi_k} - 1)|v_k><v_k|.  The realized blocks are contractions
    # and the targets unitary, so the product's error is at most the sum of
    # the factors' errors; 1e-12 covers the nominal product.
    for n in range(2, 9):
        u = haar_unitary(n, seed=5)
        nominal, _ = reflection_product(u, universal_phases(5, 2), PI)
        assert infidelity(nominal, u) <= 1e-12
        errors = {}
        for family in (universal_phases(5, 2), bb_phases(1)):
            product, parts = reflection_product(u, family, 1.02 * PI)
            errors[family.label] = infidelity(product, u)
            assert errors[family.label] <= sum(parts) + 1e-12
        # a 2% area error: the composite beats the single pulse by three orders
        assert errors["u5v2"] <= 1e-3 * errors["n1"]


def test_composite_hr_sign_convention_locked():
    # the nominal gate realizes M(v, +phi); comparing against M(v, -phi) must fail
    sys = random_system(3, seed=23)
    v = ms_reduce(sys).bright
    block = composite_hr(sys, bb_phases(3), PI / 2, PI, 0.0)
    assert infidelity(block, householder_matrix(HouseholderTarget(v, PI / 2))) <= 1e-12
    assert infidelity(block, householder_matrix(HouseholderTarget(v, -PI / 2))) > 1.0


def test_composite_hr_independent_of_dimension_and_vector():
    rng = np.random.default_rng(43)
    values = []
    for _ in range(20):
        n = int(rng.integers(1, 9))
        sys = random_system(n, seed=int(rng.integers(0, 1 << 32)))
        v = ms_reduce(sys).bright
        block = composite_hr(sys, bb_phases(5), PI / 2, 0.85 * PI, 0.3)
        m = householder_matrix(HouseholderTarget(v, PI / 2))
        values.append(infidelity(block, m))
    assert np.std(values) <= 1e-10


def test_composite_hr_defaults_to_the_system_detuning():
    sys = replace(random_system(3, seed=2), detuning=0.3)
    block = composite_hr(sys, bb_phases(3), PI, 0.9 * PI)
    assert np.array_equal(block, composite_hr(sys, bb_phases(3), PI, 0.9 * PI, 0.3))
    assert not np.allclose(block, composite_hr(sys, bb_phases(3), PI, 0.9 * PI, 0.0))


def test_n1_composite_hr_block_is_gate_element():
    sys = NPodSystem((1.0,), (0.0,))
    block = composite_hr(sys, bb_phases(1), PI, 0.8 * PI, 0.0)
    gate = composite_phase_gate(bb_phases(1), 2 * PI, 0.8 * PI)
    assert block.shape == (1, 1)
    assert block[0, 0] == pytest.approx(gate.u[0, 0], abs=1e-13)


# --- configuration documents (read and written by comphr.cli) ----------------------

def test_config_round_trip():
    sys = NPodSystem((3.0, 4.0), (0.0, 0.5 * PI), shape=gaussian(2.5), detuning=0.25)
    doc = _config_doc(sys, PI / 2, bb_phases(3))
    back, target, _ = _parse_config(doc)
    assert back.couplings == sys.couplings
    assert back.coupling_phases == pytest.approx(sys.coupling_phases)
    assert back.shape == sys.shape
    assert back.detuning == sys.detuning
    assert target.hr_phase == pytest.approx(PI / 2)
    assert np.allclose(target.v, ms_reduce(sys).bright, atol=1e-15)


def test_config_defaults_and_validation():
    family = {"family": "bb", "n": 3}
    sys, target, _ = _parse_config({"couplings": [1.0, 1.0], "family": family})
    assert sys.shape == rectangular()
    assert sys.detuning == 0.0
    assert target.hr_phase == pytest.approx(PI)
    with pytest.raises(ValidationError):
        _parse_config({"coupling_phases": [0.0], "family": family})
    with pytest.raises(ValidationError):
        _parse_config({"couplings": [1.0], "shape": {"kind": "sech"}, "family": family})
    with pytest.raises(ValidationError):
        _parse_config([1, 2, 3])


def test_random_system_is_seeded_and_normalized():
    a = random_system(6, seed=99)
    b = random_system(6, seed=99)
    assert a.couplings == b.couplings
    assert a.coupling_phases == b.coupling_phases
    assert a.rms_peak == pytest.approx(1.0, abs=1e-12)
    assert random_system(6, seed=100).couplings != a.couplings
    with pytest.raises(ValidationError, match="seed"):
        random_system(6, seed=-1)
