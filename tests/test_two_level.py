"""Two-level propagators: conventions, detuned dynamics, shaped pulses."""

import numpy as np
import pytest

from comphr import two_level
from comphr import (
    PulseSpec,
    ValidationError,
    apply_phase,
    constant_propagator,
    expm_hermitian,
    gaussian,
    pulse_with_area,
    rectangular,
    resonant_propagator,
    shaped_propagator,
    tabulated,
)

from oracle import rk4_propagator, two_level_hamiltonian

PI = np.pi

# Frozen from the RK4 oracle (test_detuned_propagator_vs_rk4 recomputes it);
# equals (1/sqrt(2))*sin(sqrt(2)*pi/2).
B_MAG_DETUNED = 0.5626400585724002


# --- pulse shapes and specs -------------------------------------------------

def test_shape_validation():
    with pytest.raises(ValidationError):
        pulse_with_area(gaussian(truncation=0.0), PI)
    with pytest.raises(ValidationError):
        tabulated([(0.0, 0.0)])  # fewer than 2 samples
    with pytest.raises(ValidationError):
        tabulated([(0.0, 0.0), (0.0, 1.0)])  # not strictly increasing
    with pytest.raises(ValidationError):
        tabulated([(0.0, 0.0), (1.0, 1.5)])  # above 1
    with pytest.raises(ValidationError):
        tabulated([(0.0, 0.0), (1.0, 0.5)])  # never reaches the peak


def test_pulse_spec_validation():
    with pytest.raises(ValidationError):
        PulseSpec(rectangular(), -1.0, 1.0)
    with pytest.raises(ValidationError):
        PulseSpec(rectangular(), 1.0, 0.0)
    with pytest.raises(ValidationError):
        PulseSpec(rectangular(), 1.0, 1.0, detuning=np.inf)


def test_area_bookkeeping():
    p = PulseSpec(rectangular(), 2.0, 3.0)
    assert p.area == pytest.approx(6.0)
    g = pulse_with_area(gaussian(), 0.9 * PI, detuning=0.1)
    assert g.area == pytest.approx(0.9 * PI, abs=1e-14)
    # triangle envelope: unit integral 1/2
    tri = tabulated([(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)])
    assert pulse_with_area(tri, PI).area == pytest.approx(PI, abs=1e-14)


# --- resonant propagator ----------------------------------------------------

def test_resonant_zero_area_is_identity():
    for phase in (0.0, 1.3, -2.0):
        assert np.allclose(resonant_propagator(0.0, phase).u, np.eye(2), atol=1e-15)


def test_resonant_half_pi():
    p = resonant_propagator(PI / 2, 0.0)
    assert p.a == pytest.approx(np.sqrt(2) / 2, abs=1e-15)
    assert p.b == pytest.approx(-1j * np.sqrt(2) / 2, abs=1e-15)


def test_resonant_pi_pulse_phase_convention_vs_rk4():
    # the sign of b is a convention; pin it against direct integration
    for phase in (0.0, 0.7, PI / 2):
        u_rk4 = rk4_propagator(two_level_hamiltonian(1.0, 0.0, phase), 0.0, PI, 4000)
        p = resonant_propagator(PI, phase)
        assert np.max(np.abs(p.u - u_rk4)) <= 1e-10
        assert p.b == pytest.approx(-1j * np.exp(1j * phase), abs=1e-12)


def test_resonant_rejects_negative_area():
    with pytest.raises(ValidationError):
        resonant_propagator(-0.1)


# --- constant (rectangular, detuned) propagator ------------------------------

def test_uncoupled_levels_only_accumulate_detuning_phase():
    p = PulseSpec(rectangular(), 0.0, 2.0, detuning=0.7)
    u = constant_propagator(p).u
    assert np.allclose(u, np.diag([1.0, np.exp(-1j * 0.7 * 2.0)]), atol=1e-14)


def test_resonant_reduction():
    p = PulseSpec(rectangular(), 1.0, PI, detuning=0.0, phase=0.4)
    assert np.allclose(constant_propagator(p).u, resonant_propagator(PI, 0.4).u, atol=1e-14)


def test_detuned_propagator_vs_rk4():
    # Omega = Delta = 1, T = pi
    p = PulseSpec(rectangular(), 1.0, PI, detuning=1.0)
    u = constant_propagator(p).u
    u_rk4 = rk4_propagator(two_level_hamiltonian(1.0, detuning=1.0), 0.0, PI, 4000)
    assert np.max(np.abs(u - u_rk4)) <= 1e-10
    assert abs(u[0, 1]) == pytest.approx(B_MAG_DETUNED, abs=1e-12)
    # closed form: exp(-i*Delta*T/2) * [cos(x) - i sin(x)(Omega sx - Delta sz)/W], x = W*T/2
    w = np.sqrt(2.0)
    x = w * PI / 2
    a00 = np.exp(-1j * PI / 2) * (np.cos(x) + 1j * np.sin(x) / w)
    assert u[0, 0] == pytest.approx(a00, abs=1e-13)


def test_constant_propagator_keeps_detuned_frame():
    # determinant carries the frame phase exp(-i*Delta*T); it must not be stripped
    p = PulseSpec(rectangular(), 1.0, 1.3, detuning=0.6)
    u = constant_propagator(p).u
    assert np.linalg.det(u) == pytest.approx(np.exp(-1j * 0.6 * 1.3), abs=1e-13)


def test_constant_propagator_rejects_shaped_pulse():
    with pytest.raises(ValidationError):
        constant_propagator(pulse_with_area(gaussian(), PI))


def test_generalized_rabi_law():
    rng = np.random.default_rng(5)
    for _ in range(40):
        omega = rng.uniform(0.0, 3.0)
        delta = rng.uniform(-3.0, 3.0)
        duration = rng.uniform(0.1, 8.0)
        u = constant_propagator(PulseSpec(rectangular(), omega, duration, delta)).u
        w = np.hypot(omega, delta)
        expected = 0.0 if w == 0.0 else (omega / w) * abs(np.sin(w * duration / 2))
        assert abs(u[0, 1]) == pytest.approx(expected, abs=1e-10)


# --- apply_phase --------------------------------------------------------------

def test_apply_phase_examples():
    u = resonant_propagator(PI, 0.0)
    assert np.allclose(apply_phase(u, 0.0).u, u.u, atol=1e-15)
    assert apply_phase(u, PI).b == pytest.approx(1j, abs=1e-15)


def test_apply_phase_is_additive():
    rng = np.random.default_rng(11)
    for _ in range(10):
        u = constant_propagator(PulseSpec(rectangular(), rng.uniform(0, 2),
                                          rng.uniform(0.1, 4), rng.uniform(-1, 1)))
        p1, p2 = rng.uniform(-PI, PI, size=2)
        lhs = apply_phase(apply_phase(u, p1), p2).u
        rhs = apply_phase(u, p1 + p2).u
        assert np.max(np.abs(lhs - rhs)) <= 1e-14


def test_apply_phase_leaves_diagonal():
    u = constant_propagator(PulseSpec(rectangular(), 1.0, 2.0, detuning=0.5))
    shifted = apply_phase(u, 1.1)
    assert shifted.u[0, 0] == u.u[0, 0]
    assert shifted.u[1, 1] == u.u[1, 1]


# --- shaped propagator --------------------------------------------------------

def test_shaped_matches_constant_for_rectangular():
    p = PulseSpec(rectangular(), 1.0, 2.2, detuning=0.4, phase=0.9)
    for substeps in (1, 7, 100):
        d = np.max(np.abs(shaped_propagator(p, substeps).u - constant_propagator(p).u))
        assert d <= 1e-12


def test_resonant_gaussian_pi_pulse_inverts():
    p = pulse_with_area(gaussian(), PI)
    u = shaped_propagator(p, 1000).u
    assert abs(u[0, 0]) <= 1e-8
    assert abs(u[0, 1]) == pytest.approx(1.0, abs=1e-8)
    # Richardson check: 1000 vs 2000 slices
    u2 = shaped_propagator(p, 2000).u
    assert np.max(np.abs(u - u2)) <= 1e-7


def test_shaped_self_convergence_is_second_order():
    p = pulse_with_area(gaussian(), 0.9 * PI, detuning=0.7, phase=0.3)
    us = {m: shaped_propagator(p, m).u for m in (125, 250, 500, 1000)}
    d = [np.linalg.norm(us[2 * m] - us[m]) for m in (125, 250, 500)]
    assert d[1] <= 0.3 * d[0]
    assert d[2] <= 0.3 * d[1]


def test_resonant_shape_invariance():
    for area in (0.5 * PI, PI, 1.7 * PI):
        rect = constant_propagator(pulse_with_area(rectangular(), area, phase=0.2))
        gauss = shaped_propagator(pulse_with_area(gaussian(), area, phase=0.2), 1000)
        assert np.max(np.abs(rect.u - gauss.u)) <= 1e-8


def test_shaped_window_composition():
    p = pulse_with_area(gaussian(), 0.8 * PI, detuning=-0.6, phase=1.2)
    full = shaped_propagator(p, 1000).u
    left = shaped_propagator(p, 500, window=(0.0, 0.5)).u
    right = shaped_propagator(p, 500, window=(0.5, 1.0)).u
    assert np.linalg.norm(right @ left - full) <= 1e-10


def test_shaped_tabulated_envelope():
    tri = tabulated([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)])
    u = shaped_propagator(pulse_with_area(tri, PI), 1000).u
    assert abs(u[0, 1]) == pytest.approx(1.0, abs=1e-5)


def test_shaped_validation():
    p = pulse_with_area(gaussian(), PI)
    with pytest.raises(ValidationError):
        shaped_propagator(p, 0)
    with pytest.raises(ValidationError):
        shaped_propagator(p, 100, window=(0.5, 0.5))


@pytest.mark.parametrize("substeps", [1, 2, 7, 1000])
@pytest.mark.parametrize("stack_elements", [1 << 20, 27])
def test_slice_product_matches_sequential_product(monkeypatch, substeps, stack_elements):
    # 27 elements hold three 3x3 slices: groups of three (each with an odd
    # element out) and, for 7 and 1000 slices, a one-slice tail group.
    monkeypatch.setattr(two_level, "STACK_ELEMENTS", stack_elements)
    rng = np.random.default_rng(substeps)
    m = rng.standard_normal((substeps, 3, 3)) + 1j * rng.standard_normal((substeps, 3, 3))
    h = 0.5 * (m + m.conj().swapaxes(-1, -2))
    dt = 0.37
    u = two_level.slice_product(lambda first, last: h[first:last], substeps, dt, 9)
    expected = expm_hermitian(h[0], dt)
    for k in range(1, substeps):
        expected = expm_hermitian(h[k], dt) @ expected
    assert np.max(np.abs(u - expected)) <= 1e-13
