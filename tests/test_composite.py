"""Phase families, gate sequences, and the two-composite phase gate."""

import math
from fractions import Fraction

import numpy as np
import pytest

from comphr import (
    GateSequence,
    NPodSystem,
    PhaseList,
    ValidationError,
    bb_phases,
    composite_phase_gate,
    expm_hermitian,
    gate_sequence,
    gaussian,
    sequence_propagator,
    star_propagator,
    tabulated,
    unitarity_defect,
    universal_phases,
)
from comphr.cli import _config_doc, _parse_config
from comphr.composite import MAX_ORDER, UNIVERSAL

from oracle import two_level_hamiltonian
from test_two_level import resonant_propagator

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


@pytest.mark.parametrize("alpha", [0.0, PI, 2 * PI, -1.3])
def test_gate_sequence_phases_keep_their_bits(alpha):
    for fam in ALL_FAMILIES:
        phi = tuple(float(f) * math.pi for f in fam.fractions)
        expected = phi + tuple(p + math.pi + 0.5 * alpha for p in phi)
        assert gate_sequence(fam, alpha).pulse_phases == expected


def test_empty_phase_list_and_non_finite_alpha_are_rejected():
    with pytest.raises(ValidationError, match="at least one phase"):
        PhaseList("bb", ())
    for alpha in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="alpha must be finite"):
            GateSequence(bb_phases(3), alpha)
        with pytest.raises(ValidationError, match="alpha must be finite"):
            gate_sequence(bb_phases(3), alpha)


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


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=[f.label for f in ALL_FAMILIES])
def test_every_reflection_keeps_a_first_order_detuning_error(fam):
    # The 2n pulses of area pi last T = 2n pi, and their frame phase
    # e^{-i Delta T/2} is a pulse pair's determinant, which no drive phase
    # changes: |u00 - e^{i phi}| is |Delta| T/2 to first order, for every family.
    duration = 2 * fam.n * PI
    for phi in (PI, PI / 2):
        seq = gate_sequence(fam, 2 * phi)
        for detuning in (1e-4, -1e-4):
            error = abs(sequence_propagator(seq, PI, detuning).u[0, 0] - np.exp(1j * phi))
            assert error == pytest.approx(abs(detuning) * duration / 2, rel=1e-3)


@pytest.mark.parametrize("fam", ALL_FAMILIES[-4:], ids=[f.label for f in ALL_FAMILIES[-4:]])
def test_u5_and_u7_reflections_are_exact_up_to_the_frame_phase(fam):
    # With the frame phase taken out, the u5 and u7 reflections keep no
    # first-order detuning error (the bb and u3 ones keep over 1e-6 at 1e-3)
    duration = 2 * fam.n * PI
    for phi in (PI, PI / 2):
        seq = gate_sequence(fam, 2 * phi)
        for detuning in (1e-3, -1e-3, 1e-4, -1e-4):
            u00 = sequence_propagator(seq, PI, detuning).u[0, 0]
            assert abs(u00 * np.exp(0.5j * detuning * duration) - np.exp(1j * phi)) <= 1e-12


#: Fitted orders of the 2x2 gate error along the pulse area.  The bb list
#: of n pulses reaches order n; the shipped u3 list (0, 1/2, 0) pi reaches
#: none, and u5 and u7 reach the third order.
AREA_ORDERS = {"n1": 1, "n3": 3, "n5": 5, "u3v1": 1, "u5v1": 3, "u5v2": 3, "u7v1": 3, "u7v2": 3}
ORDER_FAMILIES = [bb_phases(n) for n in (1, 3, 5)] + [universal_phases(n, v) for n, v in
                                                        ((3, 1), (5, 1), (5, 2), (7, 1), (7, 2))]


def area_error(fam, alpha, eps, shape=None):
    """Frobenius distance of the gate at area pi (1 + eps) from the gate at area pi, on resonance."""
    seq = gate_sequence(fam, alpha)
    shape = {} if shape is None else {"shape": shape, "substeps": 1000}
    nominal = sequence_propagator(seq, PI, 0.0, **shape).u
    return np.linalg.norm(sequence_propagator(seq, PI * (1.0 + eps), 0.0, **shape).u - nominal)


@pytest.mark.parametrize("shape", [None, gaussian()], ids=["rectangular", "gaussian"])
@pytest.mark.parametrize("fam", ORDER_FAMILIES, ids=[f.label for f in ORDER_FAMILIES])
def test_area_compensation_orders(fam, shape):
    # order = log2(err(2e-2) / err(1e-2)); on resonance a shaped pulse
    # depends on its area alone, so the Gaussian reaches the same orders
    for alpha in (PI / 2, PI, 2 * PI):
        order = math.log2(area_error(fam, alpha, 2e-2, shape) / area_error(fam, alpha, 1e-2, shape))
        assert order == pytest.approx(AREA_ORDERS[fam.label], abs=0.3)


def test_the_u3_list_compensates_no_area_error():
    # the gate error of u3v1 is that of the single uncompensated pulse
    for alpha in (PI / 2, PI, 2 * PI):
        u3, n1 = (area_error(fam, alpha, 1e-3) for fam in (universal_phases(3, 1), bb_phases(1)))
        assert u3 == pytest.approx(n1, rel=1e-3)


def three_pulse_list(x):
    """The symmetric list (0, x, 0) pi."""
    return PhaseList(UNIVERSAL, (Fraction(0), x, Fraction(0)), variant=1)


def test_the_area_optimal_three_pulse_list_is_two_thirds():
    # Tolerances fixed before the code ran: the least gate error at 1% area
    # error over x in [0, 2] (x = 2 is the phase 0) lies within 2e-3 of 2/3
    # or its mirror 4/3, and (0, 2/3, 0) pi has area order 3 +- 0.3.
    xs = [Fraction(k, 1000) % 2 for k in range(2001)]
    errors = [area_error(three_pulse_list(x), PI, 1e-2) for x in xs]
    best = float(xs[int(np.argmin(errors))])
    assert min(abs(best - 2 / 3), abs(best - 4 / 3)) <= 2e-3
    two_thirds = three_pulse_list(Fraction(2, 3))
    order = math.log2(area_error(two_thirds, PI, 2e-2) / area_error(two_thirds, PI, 1e-2))
    assert order == pytest.approx(3.0, abs=0.3)


#: Fitted orders of the gate error under an arbitrary systematic pulse
#: error: the bb lists and the u3 list compensate none, u5 and u7 reach the
#: third order.
ARBITRARY_ORDERS = {"n1": 1, "n3": 1, "u3v1": 1, "u5v1": 3, "u5v2": 3, "u7v1": 3, "u7v2": 3}
ARBITRARY_FAMILIES = [f for f in ORDER_FAMILIES if f.label in ARBITRARY_ORDERS]


def arbitrary_error_gate(fam, alpha, k, eps):
    """The gate whose pi pulses are each D(p) exp(-i (sigma_x / 2 + eps K) pi) D(p)^dagger."""
    pulse = expm_hermitian(np.array([[0.0, 0.5], [0.5, 0.0]]) + eps * k, PI)
    u = np.eye(2)
    for p in gate_sequence(fam, alpha).pulse_phases:
        d = np.diag([np.exp(1j * p), 1.0])
        u = d @ pulse @ d.conj().T @ u
    return u


@pytest.mark.parametrize("fam", ARBITRARY_FAMILIES, ids=[f.label for f in ARBITRARY_FAMILIES])
def test_arbitrary_error_compensation_orders(fam):
    # Tolerance fixed before the code ran: order = log2(err(2e-3) / err(1e-3))
    # within 0.3 of ARBITRARY_ORDERS for each of 5 random traceless K of unit
    # Frobenius norm (measured 0.98-1.01 and 2.98-3.01).  n3 compensates area
    # errors to order 3, but not an arbitrary error.
    rng = np.random.default_rng(1)
    for _ in range(5):
        x, y, z = rng.standard_normal(3)
        k = np.array([[z, x - 1j * y], [x + 1j * y, -z]])
        k /= np.linalg.norm(k)
        nominal = arbitrary_error_gate(fam, PI, k, 0.0)
        err = [np.linalg.norm(arbitrary_error_gate(fam, PI, k, eps) - nominal) for eps in (2e-3, 1e-3)]
        assert math.log2(err[0] / err[1]) == pytest.approx(ARBITRARY_ORDERS[fam.label], abs=0.3)


def test_shaped_gate_on_resonance_is_unitary():
    # The round-off of 2n x 1000 slices adds up coherently: multiplied out as
    # matrices with no correction, the gate's unitarity defect reached 9e-12
    # and Propagator2 rejected it.  The kernel multiplies a two-level pulse's
    # slices in Cayley-Klein form and rescales row 0 to unit norm twice, after
    # the slices and after the train.  With the first rescale alone the
    # defect reached 2.4e-14 on these gates; with both it stays near 2.6e-15.
    triangle = tabulated([(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)])
    for fam in (bb_phases(3), bb_phases(9), universal_phases(7, 2)):
        for shape in (gaussian(), triangle):
            for area in (0.9 * PI, PI):
                for detuning in (0.0, 0.1, -0.2):
                    for alpha in (PI, 2 * PI):
                        seq = gate_sequence(fam, alpha)
                        g = sequence_propagator(seq, area, detuning, shape, 1000).u
                        assert unitarity_defect(g) <= 1e-14
                        if detuning == 0.0:
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
