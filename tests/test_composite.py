"""Phase families, gate sequences, and the two-composite phase gate."""

import math
from fractions import Fraction

import numpy as np
import pytest

from comphr import (
    NPodSystem,
    ValidationError,
    bb_phases,
    composite_phase_gate,
    expm_hermitian,
    gate_sequence,
    gaussian,
    resonant_propagator,
    sequence_propagator,
    star_propagator,
    tabulated,
    unitarity_defect,
    universal_phases,
)
from comphr.cli import _config_doc, _parse_config
from comphr.composite import MAX_ORDER

from oracle import two_level_hamiltonian

PI = np.pi


def mod_2pi_distance(x):
    """Distance of x from the nearest multiple of 2*pi."""
    return abs(math.remainder(x, 2 * math.pi))

ALL_FAMILIES = ([bb_phases(n) for n in (1, 3, 5, 7, 9)]
                + [universal_phases(n, v) for n, v in ((3, 1), (5, 1), (5, 2), (7, 1), (7, 2))])


def phase_gate(alpha):
    return np.diag([np.exp(1j * alpha / 2), np.exp(-1j * alpha / 2)])


# --- phase families -----------------------------------------------------------

def test_bb_published_lists():
    assert bb_phases(1).fractions == (Fraction(0),)
    assert bb_phases(3).fractions == tuple(Fraction(s) for s in ("0", "2/3", "0"))
    assert bb_phases(5).fractions == tuple(Fraction(s) for s in ("0", "2/5", "6/5", "2/5", "0"))
    assert bb_phases(7).fractions == tuple(
        Fraction(s) for s in ("0", "2/7", "6/7", "12/7", "6/7", "2/7", "0"))
    assert bb_phases(9).fractions == tuple(
        Fraction(s) for s in ("0", "2/9", "2/3", "4/3", "2/9", "4/3", "2/3", "2/9", "0"))


def test_bb_rejects_even_or_nonpositive_n():
    for bad in (0, -3, 4, 2.5):
        with pytest.raises(ValidationError, match="odd"):
            bb_phases(bad)


def test_bb_order_is_bounded():
    assert bb_phases(MAX_ORDER).n == MAX_ORDER
    for bad in (MAX_ORDER + 2, 999999999):
        with pytest.raises(ValidationError, match="at most"):
            bb_phases(bad)


def test_universal_published_lists():
    assert universal_phases(3, 1).fractions == tuple(Fraction(s) for s in ("0", "1/2", "0"))
    assert universal_phases(5, 1).fractions == tuple(
        Fraction(s) for s in ("0", "5/6", "1/3", "5/6", "0"))
    assert universal_phases(5, 2).fractions == tuple(
        Fraction(s) for s in ("0", "11/6", "1/3", "11/6", "0"))
    assert universal_phases(7, 1).fractions == tuple(
        Fraction(s) for s in ("0", "11/12", "5/6", "17/12", "5/6", "11/12", "0"))
    assert universal_phases(7, 2).fractions == tuple(
        Fraction(s) for s in ("0", "23/12", "5/6", "5/12", "5/6", "23/12", "0"))


def test_universal_rejects_unknown_combinations():
    for n, v in ((3, 2), (9, 1), (5, 3), (4, 1)):
        with pytest.raises(ValidationError):
            universal_phases(n, v)


def test_phase_rendering():
    assert bb_phases(5).pi_string() == "0, 2/5, 6/5, 2/5, 0"
    assert universal_phases(3, 1).pi_string() == "0, 1/2, 0"
    assert bb_phases(3).phases == pytest.approx((0.0, 2 * PI / 3, 0.0))
    assert bb_phases(5).label == "n5"
    assert universal_phases(5, 2).label == "u5v2"


def test_bb_palindrome_up_to_19():
    for n in range(1, 20, 2):
        fr = bb_phases(n).fractions
        assert all(fr[k] == fr[n - 1 - k] for k in range(n))


# --- gate sequences -----------------------------------------------------------

def test_gate_sequence_offsets():
    seq = gate_sequence(bb_phases(3), PI)
    xi_over_pi = [p / PI % 2 for p in seq.pulse_phases[3:]]
    assert xi_over_pi == pytest.approx([1.5, 1 / 6, 1.5])

    seq = gate_sequence(bb_phases(1), 0.0)
    assert seq.pulse_phases == pytest.approx((0.0, PI))

    seq = gate_sequence(universal_phases(5, 2), 2 * PI)  # standard reflection
    phi = seq.pulse_phases[:5]
    xi = seq.pulse_phases[5:]
    for p, x in zip(phi, xi):
        assert mod_2pi_distance(x - p) <= 1e-12


def test_gate_sequence_offset_invariant():
    rng = np.random.default_rng(9)
    for _ in range(10):
        alpha = rng.uniform(-2 * PI, 2 * PI)
        seq = gate_sequence(universal_phases(7, 1), alpha)
        n = 7
        for k in range(n):
            delta = seq.pulse_phases[n + k] - seq.pulse_phases[k]
            assert mod_2pi_distance(delta - PI - alpha / 2) <= 1e-12


# --- composition ---------------------------------------------------------------

def test_compose_single_and_inverse():
    u = resonant_propagator(0.8, 0.3).u
    assert np.allclose(star_propagator((1.0,), (0.3,), 0.8), u, atol=1e-15)
    # on resonance a pulse with its drive phase shifted by pi undoes it
    assert np.allclose(star_propagator((1.0,), (0.3, 0.3 + PI), 0.8), np.eye(2), atol=1e-14)


def test_compose_order_is_first_pulse_first():
    a = star_propagator((1.0,), (0.0,), 0.7, 0.5)
    b = star_propagator((1.0,), (0.9,), 0.7, 0.5)
    assert np.allclose(star_propagator((1.0,), (0.0, 0.9), 0.7, 0.5), b @ a, atol=1e-15)
    assert not np.allclose(b @ a, a @ b, atol=1e-3)


def test_two_pi_pulses_make_a_phase_gate():
    # direct 2x2 algebra: total a = cos^2(A/2) + sin^2(A/2) e^{i alpha/2}
    rng = np.random.default_rng(21)
    for _ in range(15):
        alpha = rng.uniform(-2 * PI, 2 * PI)
        area = rng.uniform(0.0, 2 * PI)
        tot = star_propagator((1.0,), (0.0, PI + alpha / 2), area)
        c2 = np.cos(area / 2) ** 2
        expected = c2 + (1 - c2) * np.exp(1j * alpha / 2)
        assert tot[0, 0] == pytest.approx(expected, abs=1e-13)
    exact = star_propagator((1.0,), (0.0, PI + 0.35), PI)
    assert np.allclose(exact, phase_gate(0.7), atol=1e-14)


# --- composite phase gate -------------------------------------------------------

def test_gate_is_exact_at_nominal_point():
    for fam in ALL_FAMILIES:
        for alpha in (0.0, PI / 2, PI, 2 * PI):
            g = composite_phase_gate(fam, alpha, PI).u
            assert np.linalg.norm(g - phase_gate(alpha)) <= 1e-12


def test_bb3_nominal_gate_matrix():
    g = composite_phase_gate(bb_phases(3), PI, PI).u
    assert np.allclose(g, np.diag([1j, -1j]), atol=1e-13)


def test_bb1_double_area_error_top_left():
    # alpha = 2*pi, per-pulse area 0.9*pi: a_tot = 2 cos^2(0.45 pi) - 1
    g = composite_phase_gate(bb_phases(1), 2 * PI, 0.9 * PI).u
    assert g[0, 0] == pytest.approx(-0.9510565162951535, abs=1e-13)


def test_identity_gate_for_alpha_zero():
    areas = np.linspace(0.0, 2 * PI, 41)
    for fam in ALL_FAMILIES:
        for area in areas:
            g = composite_phase_gate(fam, 0.0, area).u
            assert np.linalg.norm(g - np.eye(2)) <= 1e-12


def test_bb_flatness_order():
    # diagonal error of the bb gate is 2|sin(alpha/4)| cos^(2n)(A/2), exactly
    for n in (1, 3, 5, 9):
        fam = bb_phases(n)
        for alpha in (PI / 3, PI, 2 * PI):
            for area in np.linspace(0.1, 1.9, 7) * PI:
                g = composite_phase_gate(fam, alpha, area).u
                err = abs(g[0, 0] - np.exp(1j * alpha / 2))
                expected = 2 * abs(np.sin(alpha / 4)) * np.cos(area / 2) ** (2 * n)
                assert err == pytest.approx(expected, abs=1e-12)


def test_gate_accepts_detuning():
    fam = universal_phases(5, 2)
    g = composite_phase_gate(fam, PI, 0.9 * PI, detuning=0.3)
    # consistency with an explicit pulse-by-pulse build
    expected = np.eye(2)
    for p in gate_sequence(fam, PI).pulse_phases:
        expected = expm_hermitian(two_level_hamiltonian(1.0, 0.3, p)(0.0), 0.9 * PI) @ expected
    assert np.max(np.abs(g.u - expected)) <= 1e-13


def test_shaped_gate_on_resonance_is_unitary():
    # All slices of a resonant pulse share one eigenbasis, so their round-off
    # adds up coherently over 2n x 1000 slices; uncorrected, the gate's
    # unitarity defect reached 9e-12 and Propagator2 rejected it.
    triangle = tabulated([(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)])
    for fam in (bb_phases(3), bb_phases(9), universal_phases(7, 2)):
        for shape in (gaussian(), triangle):
            for area in (0.9 * PI, PI):
                seq = gate_sequence(fam, 2 * PI)
                g = sequence_propagator(seq, area, 0.0, shape, 1000).u
                assert unitarity_defect(g) <= 1e-14
                # on resonance only the area matters, not the envelope
                rect = sequence_propagator(seq, area, 0.0).u
                assert np.max(np.abs(g - rect)) <= 1e-6


def test_overflowing_sequence_is_rejected():
    # 2 pi x 1e308 overflows the pulse phases, which would give a NaN "unitary"
    with pytest.raises(ValidationError, match="overflow"):
        sequence_propagator(gate_sequence(bb_phases(3), PI), 2 * PI, 1e308)


def test_zero_area_sequence_is_identity():
    seq = gate_sequence(bb_phases(3), PI)
    assert np.allclose(sequence_propagator(seq, 0.0, detuning=0.8).u, np.eye(2), atol=1e-15)


def test_family_config_round_trip():
    # the hr config document, which comphr.cli reads and writes, carries the family
    system = NPodSystem((1.0,), (0.0,))
    for fam in ALL_FAMILIES:
        doc = _config_doc(system, PI, fam)
        again = _parse_config(doc)[2]
        assert again.fractions == fam.fractions
        assert again.label == fam.label
    with pytest.raises(ValidationError):
        _parse_config({"couplings": [1.0], "family": {"family": "narrowband", "n": 3}})
    with pytest.raises(ValidationError):
        _parse_config({"couplings": [1.0], "family": {"n": 3}})
