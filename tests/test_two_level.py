"""Two-level propagators: conventions, detuned dynamics, shaped pulses."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from comphr import two_level
from comphr import (
    Propagator2,
    ValidationError,
    bb_phases,
    expm_hermitian,
    gate_sequence,
    gaussian,
    random_system,
    rectangular,
    star_propagator,
    tabulated,
    unitarity_defect,
    universal_phases,
)

from comphr.linalg import expm_hermitian_stack
from oracle import rk4_propagator, two_level_hamiltonian
from test_cli import matmul_shaped_star_propagator, matmul_star_propagator

PI = np.pi

# Frozen from the RK4 oracle (test_detuned_propagator_vs_rk4 recomputes it);
# equals (1/sqrt(2))*sin(sqrt(2)*pi/2).
B_MAG_DETUNED = 0.5626400585724002


def resonant_propagator(area, phase=0.0):
    """Exact resonant propagator of a pulse of the given area, the closed form tests compare against.

    a = cos(A/2) and b = -i e^{i phase} sin(A/2) in the Cayley-Klein form
    [[a, b], [-conj(b), conj(a)]], whatever the envelope.
    """
    if not np.isfinite(area) or area < 0.0:
        raise ValidationError("area must be finite and >= 0")
    a = math.cos(0.5 * area)
    b = -1j * np.exp(1j * phase) * math.sin(0.5 * area)
    return Propagator2(np.array([[a, b], [-np.conj(b), np.conj(a)]]))


def pulse(area, detuning=0.0, phase=0.0, shape=rectangular(), substeps=1000):
    """One pulse of peak Rabi frequency 1 through the kernel."""
    return star_propagator((1.0,), (phase,), area, detuning, shape, substeps)


# --- pulse shapes and kernel input ----------------------------------------------

def test_shape_validation():
    with pytest.raises(ValidationError):
        gaussian(truncation=0.0)
    with pytest.raises(ValidationError, match="overflows the envelope"):
        gaussian(1e160)  # the envelope squares numbers up to the truncation
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gaussian(1e154).envelope([0.0, 0.5, 1.0]).tolist() == [0.0, 1.0, 0.0]
    with pytest.raises(ValidationError):
        tabulated([(0.0, 0.0)])  # fewer than 2 samples
    with pytest.raises(ValidationError):
        tabulated([(0.0, 0.0), (0.0, 1.0)])  # not strictly increasing
    with pytest.raises(ValidationError):
        tabulated([(-1e308, 0.0), (1e308, 1.0)])  # span overflows
    with pytest.raises(ValidationError):
        tabulated([(0.0, 0.0), (1.0, 1.5)])  # above 1
    with pytest.raises(ValidationError):
        tabulated([(0.0, 0.0), (1.0, 0.5)])  # never reaches the peak


BAD_INPUT = {
    "negative-area": {"areas": -0.1},
    "nan-area": {"areas": np.nan},
    "infinite-area": {"areas": np.inf},
    "one-bad-area-in-a-grid": {"areas": [PI, -PI]},
    "nan-detuning": {"detunings": np.nan},
    "infinite-detuning": {"detunings": np.inf},
    "one-bad-detuning-in-a-grid": {"detunings": [0.0, -np.inf]},
    "no-phases": {"pulse_phases": ()},
    "nan-phase": {"pulse_phases": (0.0, np.nan)},
    "infinite-phase": {"pulse_phases": (np.inf,)},
    "zero-bright": {"bright": (0.0,)},
    "zero-bright-vector": {"bright": (0.0, 0.0)},
    "nan-bright": {"bright": (1.0, np.nan)},
    "infinite-bright": {"bright": (np.inf,)},
    "overflowing-area-times-detuning": {"areas": 2 * PI, "detunings": 1e308},
    "overflowing-duration": {"areas": 1e308, "detunings": 1.0},
    "overflowing-shaped-duration": {"areas": 1e308, "shape": gaussian()},
    "one-overflowing-detuning-in-a-grid": {"detunings": [0.0, -1e308]},
}


@pytest.mark.parametrize("bad", BAD_INPUT.values(), ids=BAD_INPUT.keys())
def test_star_propagator_rejects_bad_input(bad):
    good = {"bright": (1.0,), "pulse_phases": (0.0,), "areas": PI, "detunings": 0.0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before numpy can overflow
        with pytest.raises(ValidationError):
            star_propagator(**{**good, **bad})


@pytest.mark.parametrize("bright", [(1.0,), (0.6, 0.8j)], ids=["two-level", "three-level"])
@pytest.mark.parametrize("area, detuning", [(1e300, 1e7), (2 * PI, 1e307), (1e307, 0.0)])
def test_finite_area_times_detuning_gives_a_unitary_without_warnings(bright, area, detuning):
    # just inside the overflow bound every phase is a finite (if imprecise) angle
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = star_propagator(bright, (0.0, 0.5, 1.0), area, detuning)
    assert np.all(np.isfinite(u))
    assert unitarity_defect(u) <= 1e-13


@pytest.mark.parametrize("substeps", [2, 50])
@pytest.mark.parametrize("area, detuning", [(3.0e19, 0.0), (1e300, 1e7), (2 * PI, 1e306),
                                            (1e306, 0.0), (0.0, 1e308)])
def test_slices_past_the_taylor_series_radius_give_a_unitary_without_warnings(area, detuning,
                                                                              substeps):
    # A shaped three-level slice with theta = ||h|| dt past the series radius
    # is taken from the spectral factors of its generator, which stay
    # unitary for any duration.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = star_propagator((0.6, 0.8j), (0.0, 0.5, 1.0), area, detuning, gaussian(), substeps)
    assert np.all(np.isfinite(u))
    assert unitarity_defect(u) <= 1e-13


def test_area_bookkeeping():
    # A pulse of area A lasts A / unit_integral() at peak Rabi frequency 1.
    assert rectangular().unit_integral() == 1.0
    x = np.linspace(0.0, 1.0, 100001)
    for c in (0.5, 3.0):
        closed = math.sqrt(math.pi) * math.erf(c) / (2.0 * c)
        assert gaussian(c).unit_integral() == pytest.approx(closed, abs=1e-15)
        assert closed == pytest.approx(np.trapezoid(gaussian(c).envelope(x), x), abs=1e-9)
    # triangle envelope: unit integral 1/2 whatever the sample time scale
    for samples in ([(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)], [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]):
        assert tabulated(samples).unit_integral() == pytest.approx(0.5, abs=1e-15)


# --- resonant propagator ----------------------------------------------------

def test_resonant_zero_area_is_identity():
    for phase in (0.0, 1.3, -2.0):
        assert np.allclose(resonant_propagator(0.0, phase).u, np.eye(2), atol=1e-15)


def test_resonant_half_pi():
    p = resonant_propagator(PI / 2, 0.0)
    assert p.u[0, 0] == pytest.approx(np.sqrt(2) / 2, abs=1e-15)
    assert p.u[0, 1] == pytest.approx(-1j * np.sqrt(2) / 2, abs=1e-15)


def test_resonant_pi_pulse_phase_convention_vs_rk4():
    # the sign of b is a convention; pin it against direct integration
    for phase in (0.0, 0.7, PI / 2):
        u_rk4 = rk4_propagator(two_level_hamiltonian(1.0, 0.0, phase), 0.0, PI, 4000)
        p = resonant_propagator(PI, phase)
        assert np.max(np.abs(p.u - u_rk4)) <= 1e-10
        assert p.u[0, 1] == pytest.approx(-1j * np.exp(1j * phase), abs=1e-12)


def test_propagator2_rejects_nan_entries():
    # unitarity_defect rejects the entries before it multiplies
    with pytest.raises(ValidationError, match="not unitary"):
        two_level.Propagator2(np.full((2, 2), np.nan))


def test_resonant_rejects_negative_area():
    with pytest.raises(ValidationError):
        resonant_propagator(-0.1)


# --- rectangular (detuned) pulses --------------------------------------------

def test_resonant_reduction():
    assert np.allclose(pulse(PI, 0.0, 0.4), resonant_propagator(PI, 0.4).u, atol=1e-14)


def test_detuned_propagator_vs_rk4():
    # Omega = Delta = 1, T = pi
    u = pulse(PI, detuning=1.0)
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
    u = pulse(1.3, detuning=0.6)
    assert np.linalg.det(u) == pytest.approx(np.exp(-1j * 0.6 * 1.3), abs=1e-13)


def test_generalized_rabi_law():
    # |u01| = |sin(W A / 2)| / W with W = sqrt(1 + Delta^2), 40 points in one call
    rng = np.random.default_rng(5)
    areas = rng.uniform(0.0, 24.0, 40)
    deltas = rng.uniform(-3.0, 3.0, 40)
    u = star_propagator((1.0,), (0.0,), areas, deltas)
    w = np.hypot(1.0, deltas)
    assert np.max(np.abs(np.abs(u[:, 0, 1]) - np.abs(np.sin(w * areas / 2)) / w)) <= 1e-10


# --- drive phase ----------------------------------------------------------------

def rephase(u, phase):
    """u[0,1] -> u[0,1]*e^{i phase}, u[1,0] -> u[1,0]*e^{-i phase}."""
    u = np.array(u)
    u[..., 0, 1] *= np.exp(1j * phase)
    u[..., 1, 0] *= np.exp(-1j * phase)
    return u


def test_apply_phase_examples():
    assert np.allclose(pulse(PI), resonant_propagator(PI, 0.0).u, atol=1e-15)
    assert pulse(PI, phase=PI)[0, 1] == pytest.approx(1j, abs=1e-15)


def test_apply_phase_is_additive():
    rng = np.random.default_rng(11)
    areas = rng.uniform(0.0, 8.0, 10)
    deltas = rng.uniform(-1.0, 1.0, 10)
    for p1, p2 in rng.uniform(-PI, PI, size=(10, 2)):
        lhs = rephase(star_propagator((1.0,), (p1,), areas, deltas), p2)
        rhs = star_propagator((1.0,), (p1 + p2,), areas, deltas)
        assert np.max(np.abs(lhs - rhs)) <= 1e-14


def test_apply_phase_leaves_diagonal():
    u = pulse(2.0, detuning=0.5)
    shifted = pulse(2.0, detuning=0.5, phase=1.1)
    assert shifted[0, 0] == u[0, 0]
    assert shifted[1, 1] == u[1, 1]


def matmul_train(bright, phases, areas, detunings):
    """Two-level pulse train by one batched 2x2 matmul per pulse, the first phase acting first."""
    h = np.zeros(np.shape(detunings) + (2, 2), dtype=complex)
    h[..., 0, 1], h[..., 1, 0], h[..., 1, 1] = 0.5 * bright[0], 0.5 * np.conj(bright[0]), detunings
    u0 = expm_hermitian_stack(h, areas)
    u = None
    for p in phases:
        pulse = rephase(u0, p)
        u = pulse if u is None else pulse @ u
    return u


def test_cayley_klein_train_matches_the_matmul_train():
    # Both trains round each pulse's frame phase Delta*A (up to 314 rad
    # here), so they may part by about eps per radian of it.
    rng = np.random.default_rng(12)
    for count in range(1, 20):
        bright = (np.exp(1j * rng.uniform(-PI, PI)),)
        phases = tuple(rng.uniform(-PI, PI, count))
        areas = rng.uniform(0.0, 2 * PI, (12, 1))
        areas[0] = 0.0
        dets = rng.uniform(-50.0, 50.0, 15)
        dets[0] = 0.0
        u = star_propagator(bright, phases, areas, dets)
        deviation = np.max(np.abs(u - matmul_train(bright, phases, areas, dets)), axis=(-2, -1))
        assert np.all(deviation <= 1e-13 * (1.0 + np.abs(dets) * areas))


def test_cayley_klein_train_is_the_same_for_any_block():
    # A point's bits do not depend on the grid around it.  The grid is large
    # enough (36 009 points) for numpy to reuse temporaries as outputs, which
    # _two_level_train must not let change its rounding.
    phases = (0.3, 2.1, -1.0, 0.7)
    areas = np.linspace(0.0, 2 * PI, 9)[:, None]
    dets = np.linspace(-3.0, 3.0, 4001)
    grid = star_propagator((1.0,), phases, areas, dets)
    assert np.array_equal(star_propagator((1.0,), phases, areas[4, 0], dets[17]), grid[4, 17])
    assert np.array_equal(star_propagator((1.0,), phases, areas[2:4], dets[None, :5]), grid[2:4, :5])


def test_eigenbasis_train_matches_the_matmul_train():
    # The bound of the Cayley-Klein train's test.  For N >= 3 the N - 1 dark
    # eigenvalues (all 0) are degenerate at every detuning, so eigh may return
    # any basis of the dark space; the train is exact for any eigenbasis.
    # Delta = 0 and area 0 are among the points.
    rng = np.random.default_rng(14)
    for n in range(2, 9):
        for count in (1, 2, int(rng.integers(3, 21))):
            bright = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            phases = tuple(rng.uniform(-PI, PI, count))
            areas = rng.uniform(0.0, 2 * PI, (12, 1))
            areas[0] = 0.0
            dets = rng.uniform(-50.0, 50.0, (1, 15))
            dets[0, 0] = 0.0
            u = star_propagator(bright, phases, areas, dets)
            reference = matmul_star_propagator(bright, phases, areas, dets)
            deviation = np.max(np.abs(u - reference), axis=(-2, -1))
            assert np.all(deviation <= 1e-13 * (1.0 + np.abs(dets) * areas))


@pytest.mark.parametrize("n, areas, dets", [
    (50, 1.02 * PI, 0.1),
    (8, np.linspace(0.0, 2 * PI, 41)[:, None], np.linspace(-2.0, 2.0, 41)),
], ids=["N50-gate", "N8-map"])
def test_eigenbasis_train_is_unitary(n, areas, dets):
    phases = gate_sequence(bb_phases(9), PI).pulse_phases
    u = star_propagator(random_system(n, seed=2).bright, phases, areas, dets)
    defect = np.linalg.norm(u.conj().swapaxes(-1, -2) @ u - np.eye(n + 1), axis=(-2, -1))
    assert np.max(defect) <= 1e-12


BLOCK_GRIDS = {
    "2lvl-rect": ((1.0,), rectangular(), 9, 4001, 1),
    "4lvl-rect": ((1.0, 2j, 0.5 - 0.3j), rectangular(), 41, 41, 1),
    "2lvl-gauss": ((1.0,), gaussian(), 21, 21, 50),
    "4lvl-gauss": ((1.0, 2j, 0.5 - 0.3j), gaussian(), 7, 7, 50),
}


@pytest.mark.parametrize("bright, shape, rows, cols, substeps", BLOCK_GRIDS.values(),
                         ids=BLOCK_GRIDS.keys())
def test_output_bits_do_not_depend_on_the_block_budget(monkeypatch, bright, shape, rows, cols,
                                                       substeps):
    # 64 elements give one detuning column per block.  STACK_ELEMENTS puts
    # each grid in one block; the 9 x 4001 one then has operands large
    # enough for numpy to reuse temporaries as outputs.
    phases = (0.3, 2.1, -1.0, 0.7)
    areas = np.linspace(0.0, 2 * PI, rows)[:, None]
    dets = np.linspace(-3.0, 3.0, cols)
    grids = []
    for budget in (64, two_level.BLOCK_ELEMENTS, two_level.STACK_ELEMENTS):
        monkeypatch.setattr(two_level, "BLOCK_ELEMENTS", budget)
        grids.append(star_propagator(bright, phases, areas, dets, shape, substeps))
    assert all(np.array_equal(u, grids[0]) for u in grids[1:])


def test_kernel_memory_is_bounded_by_the_block_budget():
    # a 301 x 301 two-level map holds 362 404 elements, over 11 blocks' worth
    phases = gate_sequence(universal_phases(5, 2), 2 * PI).pulse_phases
    areas = np.linspace(0.0, 2 * PI, 301)[:, None]
    dets = np.linspace(-1.0, 1.0, 301)
    tracemalloc.start()
    try:
        out = star_propagator((1.0,), phases, areas, dets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 8 * 16 * two_level.BLOCK_ELEMENTS


def test_a_two_level_gate_at_the_slice_limit_stays_within_its_stacks():
    # STACK_ELEMENTS slices of one point: the closed-form slice product holds
    # its row 0 pairs and their temporaries, a traced peak of 5.0 stacks of
    # STACK_ELEMENTS complex elements (the slice-product path took 5.75)
    phases = gate_sequence(universal_phases(5, 2), PI).pulse_phases
    tracemalloc.start()
    try:
        u = star_propagator((1.0,), phases, 1.1 * PI, 0.1, gaussian(), two_level.STACK_ELEMENTS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert unitarity_defect(u) <= 1e-14
    assert peak <= 5.5 * 16 * two_level.STACK_ELEMENTS


@pytest.mark.parametrize("bright, rows", [((1.0,), 1 << 18), ((1.0, 2j, 0.5 - 0.3j), 1 << 16)],
                         ids=["2lvl", "4lvl"])
def test_a_long_rectangular_column_is_split_at_the_block_budget(monkeypatch, bright, rows):
    # one detuning whose column holds 2^20 stack elements, 32 blocks' worth
    phases = gate_sequence(bb_phases(9), PI).pulse_phases
    areas = np.linspace(0.0, 2 * PI, rows)
    tracemalloc.start()
    try:
        out = star_propagator(bright, phases, areas, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 8 * 16 * two_level.BLOCK_ELEMENTS
    # a budget of STACK_ELEMENTS runs the column as one block
    monkeypatch.setattr(two_level, "BLOCK_ELEMENTS", two_level.STACK_ELEMENTS)
    assert np.array_equal(star_propagator(bright, phases, areas, 0.3), out)


BROADCASTS = {
    "outer": ((4, 1), (1, 3)),
    "detunings-outer": ((3,), (4, 1)),
    "one-area": ((), (2, 3)),
    "one-detuning-axis": ((2, 3), (3,)),
    "both-full": ((2, 3), (2, 3)),
    "three-axes": ((2, 1, 3), (4, 1)),
}


@pytest.mark.parametrize("bright, shape", [((1.0,), rectangular()), ((1.0, 2j), rectangular()),
                                           ((1.0,), gaussian())], ids=["2lvl", "3lvl", "shaped"])
@pytest.mark.parametrize("area_shape, det_shape", BROADCASTS.values(), ids=BROADCASTS.keys())
def test_every_broadcast_grid_matches_point_by_point(bright, shape, area_shape, det_shape):
    rng = np.random.default_rng(3)
    areas = rng.uniform(0.0, 2 * PI, area_shape)
    dets = rng.uniform(-2.0, 2.0, det_shape)
    phases = (0.4, -1.3, 2.0)
    u = star_propagator(bright, phases, areas, dets, shape, 20)
    a, d = np.broadcast_arrays(areas, dets)
    assert u.shape == a.shape + (len(bright) + 1,) * 2
    for k in np.ndindex(a.shape):
        assert np.array_equal(u[k], star_propagator(bright, phases, a[k], d[k], shape, 20))


def test_an_empty_grid_gives_an_empty_stack():
    assert star_propagator((1.0,), (0.0,), [], 0.0).shape == (0, 2, 2)
    assert star_propagator((1.0, 1j), (0.0,), np.ones((3, 1)), np.zeros((1, 0))).shape == (3, 0, 3, 3)
    assert star_propagator((1.0,), (0.0,), [], 0.1, gaussian(), 10).shape == (0, 2, 2)


# --- shaped pulses ------------------------------------------------------------------

def test_shaped_matches_constant_for_rectangular():
    flat = tabulated([(0.0, 1.0), (1.0, 1.0)])
    rect = pulse(2.2, 0.4, 0.9)
    for substeps in (1, 7, 100):
        d = np.max(np.abs(pulse(2.2, 0.4, 0.9, flat, substeps) - rect))
        assert d <= 1e-12


def test_resonant_gaussian_pi_pulse_inverts():
    u = pulse(PI, shape=gaussian(), substeps=1000)
    assert abs(u[0, 0]) <= 1e-8
    assert abs(u[0, 1]) == pytest.approx(1.0, abs=1e-8)
    # Richardson check: 1000 vs 2000 slices
    u2 = pulse(PI, shape=gaussian(), substeps=2000)
    assert np.max(np.abs(u - u2)) <= 1e-7


def test_detuned_gaussian_pulse_vs_rk4():
    # the README single-pulse example: |u01| = 0.9657...
    shape = gaussian()
    duration = PI / shape.unit_integral()

    def h(t):
        return two_level_hamiltonian(shape.envelope(t / duration), detuning=0.2)(t)

    u_rk4 = rk4_propagator(h, 0.0, duration, 4000)
    u = pulse(PI, detuning=0.2, shape=shape, substeps=1000)
    assert np.max(np.abs(u - u_rk4)) <= 1e-5
    assert abs(u[0, 1]) == pytest.approx(0.9657, abs=1e-4)


def test_shaped_self_convergence_is_second_order():
    us = {m: pulse(0.9 * PI, 0.7, 0.3, gaussian(), m) for m in (125, 250, 500, 1000)}
    d = [np.linalg.norm(us[2 * m] - us[m]) for m in (125, 250, 500)]
    assert d[1] <= 0.3 * d[0]
    assert d[2] <= 0.3 * d[1]


def test_resonant_shape_invariance():
    areas = np.array([0.5, 1.0, 1.7]) * PI
    rect = star_propagator((1.0,), (0.2,), areas)
    gauss = star_propagator((1.0,), (0.2,), areas, 0.0, gaussian(), 1000)
    assert np.max(np.abs(rect - gauss)) <= 1e-8


def test_shaped_tabulated_envelope():
    tri = tabulated([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)])
    u = pulse(PI, shape=tri, substeps=1000)
    assert abs(u[0, 1]) == pytest.approx(1.0, abs=1e-5)


def test_shaped_validation():
    # every envelope checks `substeps`, an integer from 1 to STACK_ELEMENTS;
    # 10**400 is too large for a float
    too_many = (two_level.STACK_ELEMENTS + 1, 10 ** 400)
    for shape in (rectangular(), gaussian(), tabulated([(0.0, 0.0), (1.0, 1.0)])):
        for bad in (0, -1, 2.5, np.nan, np.inf) + too_many:
            with pytest.raises(ValidationError, match="substeps"):
                pulse(PI, shape=shape, substeps=bad)


@pytest.mark.parametrize("mirrored", [False, True], ids=["full", "mirrored"])
@pytest.mark.parametrize("substeps", [1, 2, 7, 1000])
@pytest.mark.parametrize("stack_elements", [1 << 20, 54])
def test_slice_product_matches_sequential_product(monkeypatch, substeps, stack_elements, mirrored):
    # 54 elements hold three 3x3 slices of the two points: groups of three
    # (each with an odd element out) and, for 7 and 1000 slices, a one-slice
    # tail group.  The second point's slices are past the series radius up
    # to 7 slices.  The samples are distinct: the round-off of the reference's
    # spectral slices would add up over repeated ones (to 1.8e-13 over 1000
    # slices of 5 values, where the kernel is within 2e-16 of a 30-digit
    # product).
    monkeypatch.setattr(two_level, "STACK_ELEMENTS", stack_elements)
    rng = np.random.default_rng(substeps)
    moduli = rng.uniform(0.1, 1.0, 2)
    moduli /= np.linalg.norm(moduli)
    samples = rng.uniform(0.0, 1.0, substeps)
    first = (substeps + 1) // 2 if mirrored else substeps
    if mirrored:
        samples[substeps - first:] = samples[:first][::-1]
    det, t = np.array([0.4]), np.array([[2.2], [30.0]])
    u = two_level.slice_product(moduli, samples[:first], substeps, det, t)
    h = [two_level._star_generators(moduli, f, 0.4) for f in samples]
    for point in range(2):
        expected = np.eye(3)
        for slice_generator in h:
            expected = expm_hermitian(slice_generator, t[point, 0] / substeps) @ expected
        assert np.max(np.abs(u[point, 0] - expected)) <= 1e-13


#: Envelopes of the shaped reference tests: the benchmark's tabulated sin^2
#: (11 samples), and a ramp whose first half is exactly 0, where a slice at
#: Delta = 0 has no generator at all.
SIN2 = tabulated([(k / 10, math.sin(PI * k / 10) ** 2) for k in range(11)])
REFERENCE_SHAPES = {
    "gaussian": gaussian(),
    "sin2": SIN2,
    "triangle": tabulated([(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)]),
    "zero-then-ramp": tabulated([(0.0, 0.0), (0.5, 0.0), (1.0, 1.0)]),
}


@pytest.mark.parametrize("substeps", [2, 3, 7, 50, 1000])
@pytest.mark.parametrize("shape", REFERENCE_SHAPES.values(), ids=REFERENCE_SHAPES.keys())
def test_two_level_shaped_trains_match_the_slice_product_reference(shape, substeps):
    # odd slice counts fold a slice into the last pair of the product
    phases = gate_sequence(universal_phases(5, 2), PI).pulse_phases
    areas = np.array([[0.0], [3 * PI]])
    dets = np.array([0.0, 0.3, -0.3, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = star_propagator((1.0,), phases, areas, dets, shape, substeps)
    reference = matmul_shaped_star_propagator((1.0,), phases, areas, dets, shape, substeps)
    assert np.max(np.abs(u - reference)) <= 1e-13


@pytest.mark.parametrize("shape", [gaussian(), SIN2], ids=["gaussian", "sin2"])
def test_shaped_gates_on_n_levels_equal_the_slice_product_reference(shape):
    # every slice of the reference is decomposed on its own; the kernel sums
    # a Taylor series for each distinct slice in a real gauge
    bright = random_system(3, seed=11).bright
    phases = gate_sequence(bb_phases(5), 2 * PI).pulse_phases
    for area, detuning in ((0.9 * PI, 0.1), (1.1 * PI, -0.2)):
        u = star_propagator(bright, phases, area, detuning, shape, 1000)
        reference = matmul_shaped_star_propagator(bright, phases, area, detuning, shape, 1000)
        assert np.max(np.abs(u - reference)) <= 1e-13


def test_a_long_coarse_column_takes_its_slice_polynomials_in_ranges(monkeypatch):
    # At 5 slices a 4-level point's slice polynomial (19 x 16 elements)
    # outgrows its slices (5 x 16).  With stacks of 2^12 elements the kernel
    # cuts a 60-area column into ranges of 51 and 9 areas, and the first
    # range builds its polynomials in ranges of 13 areas: 5 in all, with the
    # bits of the column in one piece.
    phases = gate_sequence(universal_phases(5, 2), PI).pulse_phases
    bright = random_system(3, seed=11).bright
    areas = np.linspace(0.0, 2 * PI, 60)[:, None]
    u = star_propagator(bright, phases, areas, 0.3, gaussian(), 5)
    original, rows = two_level._slice_exponentials, []

    def spy(moduli, det, dt):
        rows.append(len(dt))
        return original(moduli, det, dt)

    monkeypatch.setattr(two_level, "_slice_exponentials", spy)
    monkeypatch.setattr(two_level, "STACK_ELEMENTS", 1 << 12)
    assert np.array_equal(star_propagator(bright, phases, areas, 0.3, gaussian(), 5), u)
    assert rows == [13, 13, 13, 12, 9]


#: Envelopes of the mirror tests, and how many slices each exponentiates at
#: 2, 3, 7 and 1000 substeps: a Gaussian and a flat table mirror at every
#: slice count, the first ceil(m / 2) slices; the triangle's midpoints mirror
#: bit for bit only at 2 of these counts, and the sin^2 table's at none.
MIRROR_SHAPES = {
    "gaussian": (gaussian(), [1, 2, 4, 500]),
    "flat": (tabulated([(0.0, 1.0), (1.0, 1.0)]), [1, 2, 4, 500]),
    "triangle": (REFERENCE_SHAPES["triangle"], [1, 3, 7, 1000]),
    "sin2": (SIN2, [2, 3, 7, 1000]),
}


@pytest.mark.parametrize("shape, exponentiated", MIRROR_SHAPES.values(), ids=MIRROR_SHAPES.keys())
@pytest.mark.parametrize("bright", [(1.0,), random_system(3, seed=11).bright], ids=["N1", "N3"])
def test_mirrored_envelopes_exponentiate_half_their_slices(monkeypatch, bright, shape,
                                                          exponentiated):
    # Each pulse is Q^T Q (Q^T S_mid Q for an odd count) when its samples
    # mirror, and within 1e-13 of the reference, which multiplies every slice
    # of every point; the 3 pi area at 2, 3 and 7 slices takes the N = 3
    # slices past the series radius.  The flat table's reference is the
    # rectangular pulse: the reference product rounds its 1000 equal slices
    # alike, 2e-13 away at N = 3.
    # (samples, count, ...) on two levels, (moduli, samples, count, ...) on more
    name, at = ("_two_level_slices", 0) if len(bright) == 1 else ("slice_product", 1)
    original, seen = getattr(two_level, name), set()

    def spy(*args):
        seen.add((args[at + 1], args[at].size))
        return original(*args)

    monkeypatch.setattr(two_level, name, spy)
    phases = gate_sequence(universal_phases(5, 2), PI).pulse_phases
    areas = np.array([[0.0], [0.9 * PI], [3 * PI]])
    dets = np.array([0.0, 0.3, -0.3])
    for substeps in (2, 3, 7, 1000):
        u = star_propagator(bright, phases, areas, dets, shape, substeps)
        if shape is MIRROR_SHAPES["flat"][0]:
            reference = star_propagator(bright, phases, areas, dets)
        else:
            reference = matmul_shaped_star_propagator(bright, phases, areas, dets, shape, substeps)
        assert np.max(np.abs(u - reference)) <= 1e-13
    assert seen == set(zip((2, 3, 7, 1000), exponentiated))


def test_an_n_level_gate_at_the_slice_limit_stays_within_its_stacks():
    # STACK_ELEMENTS slices of one 4-level point: the Gaussian's mirrored
    # half in groups of STACK_ELEMENTS / 16 slices, each group with its
    # Vandermonde powers (0.6 stacks) and its slices (1 stack), a traced
    # peak of 1.86 stacks.  The bound was fixed before the code ran; the
    # Taylor-series path read 5.29 stacks.
    phases = gate_sequence(universal_phases(5, 2), PI).pulse_phases
    bright = random_system(3, seed=11).bright
    tracemalloc.start()
    try:
        u = star_propagator(bright, phases, 1.1 * PI, 0.1, gaussian(), two_level.STACK_ELEMENTS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert unitarity_defect(u) <= 1e-14
    assert peak <= 5.5 * 16 * two_level.STACK_ELEMENTS
