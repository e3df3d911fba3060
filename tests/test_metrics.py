"""Infidelity metrics, the analytic broadband law, and the scan drivers."""

import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from comphr import linalg, metrics, two_level
from comphr import (
    AXIS_AREA,
    AXIS_DETUNING,
    HouseholderTarget,
    NPodSystem,
    ScanAxis,
    ScanGrid,
    ScanResult,
    ValidationError,
    bb_infidelity_analytic,
    bb_phases,
    composite_hr,
    gate_sequence,
    gaussian,
    householder_matrix,
    infidelity,
    ms_reduce,
    random_system,
    scan_2d,
    scan_area,
    star_propagator,
    universal_phases,
)

from test_cli import gate_half_blocks

PI = np.pi


def area_grid(points=161, lo=0.0, hi=2.0):
    return ScanGrid(ScanAxis(AXIS_AREA, lo, hi, points))


# --- infidelity ------------------------------------------------------------------

def test_infidelity_examples():
    m = np.diag([1j, 1.0, -1.0])
    assert infidelity(m, m) == 0.0
    assert infidelity(np.eye(2), np.diag([1j, 1.0])) == pytest.approx(np.sqrt(2.0))
    with pytest.raises(ValidationError):
        infidelity(np.eye(2), np.eye(3))
    with pytest.raises(ValidationError):
        infidelity(np.zeros((2, 3)), np.zeros((2, 3)))


def test_infidelity_frobenius_examples():
    m = np.array([[1.0, 2.0], [3.0, 4.0j]])
    assert infidelity(m, m) == 0.0
    assert infidelity(np.diag([1.0, 1.0]), np.diag([-1.0, 1.0])) == pytest.approx(2.0)
    d = infidelity(np.eye(3), np.diag([1j, 1.0, 1.0]))
    assert d == pytest.approx(np.sqrt(2.0), abs=1e-15)
    with pytest.raises(ValidationError):
        infidelity(np.eye(2), np.eye(3))


def test_infidelity_is_a_metric():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x, y, z = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                   for _ in range(3))
        assert infidelity(x, y) == pytest.approx(infidelity(y, x))
        assert infidelity(x, z) <= infidelity(x, y) + infidelity(y, z) + 1e-12


def test_infidelity_of_simulated_reflection():
    sys = random_system(3, seed=5)
    target = householder_matrix(HouseholderTarget(ms_reduce(sys).bright, PI))
    block = composite_hr(sys, bb_phases(1), PI, 0.9 * PI, 0.0)
    assert infidelity(block, target) == pytest.approx(0.04894348370484646, abs=1e-12)


# --- analytic law -------------------------------------------------------------------

def test_analytic_law_values():
    assert bb_infidelity_analytic(PI, PI, 3) == pytest.approx(0.0, abs=1e-16)
    assert bb_infidelity_analytic(PI, 0.9 * PI, 3) == pytest.approx(2.931059561923967e-05)
    assert bb_infidelity_analytic(PI / 2, 0.9 * PI, 3) == pytest.approx(2.072572092298108e-05)
    with pytest.raises(ValidationError):
        bb_infidelity_analytic(PI, PI, 0)


# --- area scans ----------------------------------------------------------------------

def test_scan_area_matches_analytic_law():
    orders = (1, 3, 5, 7, 9)
    result = scan_area([bb_phases(n) for n in orders], PI, area_grid())
    areas = result.grid.axis1.values() * PI
    for i, n in enumerate(orders):
        expected = bb_infidelity_analytic(PI, areas, n)
        assert np.max(np.abs(result.values[i] - expected)) <= 1e-10


def test_scan_area_nominal_point_and_bound():
    families = [bb_phases(n) for n in (1, 3, 5, 9)] + [universal_phases(5, 2)]
    result = scan_area(families, PI / 2, area_grid())
    areas = result.grid.axis1.values()
    j = np.argmin(np.abs(areas - 1.0))
    assert np.all(result.values[:, j] <= 1e-12)
    bb_rows = result.values[:4]
    assert np.all(bb_rows <= 2 * np.sin(PI / 4) * (1 + 1e-9))


def test_scan_area_plateau_widens_with_n():
    families = [bb_phases(n) for n in (1, 3, 5, 9)]
    result = scan_area(families, PI, area_grid())
    widths = [(row < 1e-4).sum() for row in result.values]
    assert widths == sorted(widths)
    assert len(set(widths)) == len(widths)


def test_scan_area_is_symmetric_about_pi():
    result = scan_area([bb_phases(3)], PI / 2, area_grid(81))
    f = result.values[0]
    assert np.max(np.abs(f - f[::-1])) <= 1e-10


def test_scan_area_agrees_with_full_propagation():
    sys = random_system(3, seed=8)
    target = householder_matrix(HouseholderTarget(ms_reduce(sys).bright, PI))
    families = [bb_phases(1), bb_phases(3)]
    grid = area_grid(41)
    result = scan_area(families, PI, grid)
    areas = grid.axis1.values() * PI
    for i, fam in enumerate(families):
        for j, area in enumerate(areas):
            block = composite_hr(sys, fam, PI, area, 0.0)
            assert abs(infidelity(block, target) - result.values[i, j]) <= 1e-9


def test_scan_area_validation():
    grid_2d = ScanGrid(ScanAxis(AXIS_AREA, 0, 2, 5), ScanAxis(AXIS_DETUNING, -1, 1, 5))
    with pytest.raises(ValidationError):
        scan_area([bb_phases(1)], PI, grid_2d)
    with pytest.raises(ValidationError):
        scan_area([], PI, area_grid())
    with pytest.raises(ValidationError):
        ScanAxis(AXIS_AREA, 0.0, 2.0, 1)
    with pytest.raises(ValidationError):
        ScanAxis(AXIS_AREA, 2.0, 0.0, 11)
    with pytest.raises(ValidationError):
        ScanAxis("amplitude", 0.0, 2.0, 11)
    with pytest.raises(ValidationError, match="finite interval"):
        ScanAxis(AXIS_DETUNING, -1e308, 1e308, 3)  # stop - start overflows


@pytest.mark.parametrize("points", [float("inf"), float("nan"), 2.5, 10 ** 400],
                         ids=["inf", "nan", "2.5", "10**400"])
def test_scan_axis_rejects_a_point_count_that_is_no_integer(points):
    # 10**400 is an integer, but too large for a float
    with pytest.raises(ValidationError):
        ScanAxis(AXIS_AREA, 0.0, 2.0, points)


def test_scan_grid_holds_at_most_stack_elements_points():
    limit = two_level.STACK_ELEMENTS
    ScanGrid(ScanAxis(AXIS_AREA, 0.0, 2.0, limit))
    ScanGrid(ScanAxis(AXIS_AREA, 0.0, 2.0, 1024), ScanAxis(AXIS_DETUNING, -1.0, 1.0, limit // 1024))
    with pytest.raises(ValidationError):
        ScanGrid(ScanAxis(AXIS_AREA, 0.0, 2.0, limit + 1))
    with pytest.raises(ValidationError):
        ScanGrid(ScanAxis(AXIS_AREA, 0.0, 2.0, 1024), ScanAxis(AXIS_DETUNING, -1.0, 1.0, 1025))


#: Ranges symmetric about zero, as (stop, points) of [-stop, stop].
SYMMETRIC_RANGES = [(2.0, 2), (2.0, 3), (2.0, 11), (2.0, 301), (1.0, 4000), (3.7, 1234),
                    (1e-300, 7), (1e300, 9)]
#: Ranges that are not, as (start, stop, points).
OTHER_RANGES = [(0.0, 2.0, 161), (-1.0, 2.0, 31), (-2.0, np.nextafter(2.0, 3.0), 301),
                (-3.0, 1.0, 101), (0.5, 1.5, 15)]


def test_a_symmetric_axis_mirrors_bit_for_bit():
    # the upper half is the negated lower half, an odd middle is +0.0 and
    # prints 0, and each value lies within 4 ulp(1) |stop| of np.linspace
    for stop, points in SYMMETRIC_RANGES:
        values = ScanAxis(AXIS_DETUNING, -stop, stop, points).values()
        half = points // 2
        assert values[-half:].tobytes() == (-values[half - 1::-1]).tobytes()
        assert values[0] == -stop and values[-1] == stop
        if points % 2:
            assert values[half] == 0.0 and not np.signbit(values[half])
        linspace = np.linspace(-stop, stop, points)
        assert np.max(np.abs(values - linspace)) <= 4 * 2.0 ** -52 * stop
    grid = ScanGrid(ScanAxis(AXIS_AREA, 0.0, 1.0, 2), ScanAxis(AXIS_DETUNING, -2.0, 2.0, 301))
    lines = ScanResult(grid, ("n1",), np.zeros((2, 301))).csv_text().splitlines()
    assert lines[1 + 150].split(",")[1] == "0"
    for start, stop, points in OTHER_RANGES:
        values = ScanAxis(AXIS_DETUNING, start, stop, points).values()
        assert values.tobytes() == np.linspace(start, stop, points).tobytes()


@pytest.mark.parametrize("dpoints, pairs", [(41, 0), (31, 3)])
def test_a_map_over_an_asymmetric_range_mirrors_only_its_exact_pairs(monkeypatch, dpoints, pairs):
    # On Delta in [-1, 2] the axis is np.linspace.  Its 41 points hold no
    # pair that mirrors bit for bit, so the map keeps the bits of the
    # gate-half reference.  Its 31 points hold three, whose positive members
    # are read from their partners and meet the reference at 1e-13, and every
    # other column keeps its bits.
    grid = ScanGrid(ScanAxis(AXIS_AREA, 0.0, 2.0, 21), ScanAxis(AXIS_DETUNING, -1.0, 2.0, dpoints))
    dets = grid.axis2.values()
    mirrored = (dets > 0.0) & np.isin(dets, -dets)
    assert np.count_nonzero(mirrored) == pairs
    fam = universal_phases(5, 2)
    values = scan_2d(fam, PI, grid).values
    monkeypatch.setattr(metrics, "_gate_blocks", gate_half_blocks)
    reference = scan_2d(fam, PI, grid).values
    assert np.array_equal(values[:, ~mirrored], reference[:, ~mirrored])
    assert np.max(np.abs(values - reference)) <= 1e-13


# --- 2D scans ---------------------------------------------------------------------------

def grid_2d(points=11):
    return ScanGrid(ScanAxis(AXIS_AREA, 0.0, 2.0, points),
                    ScanAxis(AXIS_DETUNING, -2.0, 2.0, points))


def test_scan_2d_shape_and_nominal_point():
    grid = grid_2d(11)
    result = scan_2d(universal_phases(5, 2), PI, grid)
    assert result.values.shape == (11, 11)
    assert np.all(result.values >= 0.0)
    i = 5  # A/pi = 1.0
    j = 5  # detuning = 0.0
    assert result.values[i, j] <= 1e-12


def test_scan_2d_full_mode_agrees_with_shortcut():
    grid = grid_2d(9)
    fam = universal_phases(5, 2)
    fast = scan_2d(fam, PI, grid)
    sys = random_system(3, seed=7)
    full = scan_2d(fam, PI, grid, system=sys)
    assert np.max(np.abs(fast.values - full.values)) <= 1e-9


@pytest.mark.parametrize("n", [2, 3, 8, 50])
@pytest.mark.parametrize("family", [universal_phases(5, 2), bb_phases(9)], ids=["u5v2", "bb9"])
def test_full_maps_agree_with_the_shortcut_to_round_off(family, n):
    # the grid of the benchmark's full map; the dark states are exact spectators
    grid = ScanGrid(ScanAxis(AXIS_AREA, 0.0, 2.0, 41), ScanAxis(AXIS_DETUNING, -2.0, 2.0, 41))
    fast = scan_2d(family, PI, grid).values
    for seed in range(4):
        full = scan_2d(family, PI, grid, system=random_system(n, seed=seed)).values
        assert np.max(np.abs(full - fast)) <= 2e-13


def test_scan_2d_with_a_system_propagates_it():
    sys = random_system(3, seed=7, shape=gaussian())
    fam = universal_phases(3, 1)
    grid = ScanGrid(ScanAxis(AXIS_AREA, 0.8, 1.2, 3), ScanAxis(AXIS_DETUNING, -0.3, 0.3, 3))
    full = scan_2d(fam, PI, grid, system=sys, substeps=20)
    target = householder_matrix(HouseholderTarget(ms_reduce(sys).bright, PI))
    for i, area in enumerate(grid.axis1.values() * PI):
        for j, det in enumerate(grid.axis2.values()):
            block = composite_hr(sys, fam, PI, area, det, substeps=20)
            assert abs(infidelity(block, target) - full.values[i, j]) <= 1e-12
    # the Gaussian envelope moves the map away from the rectangular shortcut
    assert np.max(np.abs(full.values - scan_2d(fam, PI, grid).values)) > 1e-3


def traced_peak(run):
    """Result of run() and the peak of memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_full_scan_memory_is_bounded_by_the_stack_chunk(monkeypatch):
    system = random_system(50, seed=4)
    grid = ScanGrid(ScanAxis(AXIS_AREA, 0.5, 1.5, 15), ScanAxis(AXIS_DETUNING, -1.0, 1.0, 15))
    fam = universal_phases(5, 2)
    # below BLOCK_ELEMENTS, so the chunk and not the block bounds the run:
    # a 51-level column of 15 areas is split into ranges of 3 areas
    chunk = 1 << 13
    assert chunk < two_level.BLOCK_ELEMENTS
    # the grid's whole propagator stack, which the scan never holds, fills over 8 chunks
    stack_bytes = 16 * 15 * 15 * 51 ** 2
    whole, whole_peak = traced_peak(lambda: scan_2d(fam, PI, grid, system=system))
    # by default the scan holds one kernel block besides its result
    assert whole_peak <= whole.values.nbytes + 8 * 16 * two_level.BLOCK_ELEMENTS
    monkeypatch.setattr(two_level, "STACK_ELEMENTS", chunk)
    chunked, chunked_peak = traced_peak(lambda: scan_2d(fam, PI, grid, system=system))
    chunk_bytes = 16 * chunk
    assert chunked_peak <= 8 * chunk_bytes < stack_bytes
    assert chunked_peak < whole_peak
    assert np.array_equal(chunked.values, whole.values)


def test_a_long_scan_holds_one_kernel_block_besides_its_result():
    # each grid holds 2^20 propagator elements, 32 blocks' worth: 2^18 areas
    # of one two-level column, 2^16 areas of two 4-level columns, and 2^17
    # areas of two mirrored two-level columns, the one propagated in ranges
    # of rows and each range's partner read from it
    area = area_grid(1 << 18)
    full = ScanGrid(ScanAxis(AXIS_AREA, 0.0, 2.0, 1 << 16), ScanAxis(AXIS_DETUNING, -1.0, 1.0, 2))
    mirrored = ScanGrid(ScanAxis(AXIS_AREA, 0.0, 2.0, 1 << 17),
                        ScanAxis(AXIS_DETUNING, -1.0, 1.0, 2))
    system = random_system(3, seed=1)
    for grid, run in ((area, lambda: scan_area([bb_phases(9)], PI, area)),
                      (full, lambda: scan_2d(bb_phases(9), PI, full, system=system)),
                      (mirrored, lambda: scan_2d(bb_phases(9), PI, mirrored))):
        result, peak = traced_peak(run)
        # the result and the areas, and at most 8 block-sized stacks besides
        held = result.values.nbytes + grid.axis1.values().nbytes
        assert peak <= held + 8 * 16 * two_level.BLOCK_ELEMENTS


def record_stacks(monkeypatch):
    """Route expm_hermitian_stack through a recorder of the stacks it handles.

    Both bindings are recorded: the kernel's in two_level, which also takes
    the shaped slices past the series radius, and the one in linalg.
    Returns the list of (matrices decomposed, elements) per call, counting
    the rows * cols * n^2 elements of the pulse train's working block that
    the eigenphases fill.
    """
    calls = []
    exponential = two_level.expm_hermitian_stack

    def recorded(h, t):
        v, phase = exponential(h, t)
        calls.append((math.prod(h.shape[:-2]), phase.size * h.shape[-1]))
        return v, phase

    monkeypatch.setattr(two_level, "expm_hermitian_stack", recorded)
    monkeypatch.setattr(linalg, "expm_hermitian_stack", recorded)
    return calls


def generators_past_the_series_radius(grid, substeps):
    """Generators that a Gaussian N-pod map of `substeps` slices decomposes.

    A point whose slice at the envelope's peak has theta = ||h(1)||_F dt
    above two_level.SERIES_THETA[-1] takes every slice from spectral factors,
    and each detuning with such a point decomposes its generator at each of
    the ceil(substeps / 2) samples that the mirror leaves of the Gaussian's
    midpoints; a unit-norm star generator has ||h(1)||_F^2 = 1/2 + Delta^2.
    """
    dt = PI * grid.axis1.values() / gaussian().unit_integral() / substeps
    norm = np.sqrt(0.5 + grid.axis2.values() ** 2)
    columns = int(np.sum(np.any(dt[:, None] * norm > two_level.SERIES_THETA[-1], axis=0)))
    return columns * ((substeps + 1) // 2)


def test_each_scan_decomposes_each_detuning_once(monkeypatch):
    # Rectangular pulses are read from the eigen-factors of their one slice;
    # shaped pulses decompose nothing but the (N+1)-level generators of the
    # columns with a point past the Taylor series' radius.  A two-level map
    # over a range symmetric about zero reads each positive detuning from
    # its negative partner: 150 pairs and Delta = 0 make 151.
    calls = record_stacks(monkeypatch)
    scan_2d(universal_phases(5, 2), PI, grid_2d(301))
    assert sum(n for n, _ in calls) == 151
    calls.clear()
    scan_area([bb_phases(n) for n in (1, 3, 5, 9)], PI / 2, area_grid(161))
    assert [n for n, _ in calls] == [1] * 4
    calls.clear()
    grid = ScanGrid(ScanAxis(AXIS_AREA, 0.5, 1.5, 41), ScanAxis(AXIS_DETUNING, -1.0, 1.0, 41))
    scan_2d(universal_phases(5, 2), PI, grid, system=random_system(3, seed=7))
    assert sum(n for n, _ in calls) == 41
    calls.clear()
    # a shaped pulse on N + 1 > 2 levels sums its slices as one envelope
    # polynomial per point and decomposes nothing ...
    grid = ScanGrid(ScanAxis(AXIS_AREA, 0.0, 2.0, 5), ScanAxis(AXIS_DETUNING, -1.0, 1.0, 5))
    scan_2d(universal_phases(3, 1), PI, grid, system=random_system(3, seed=7, shape=gaussian()),
            substeps=200)
    assert generators_past_the_series_radius(grid, 200) == 0
    assert not calls
    # ... but the generators of each detuning with a point past the series
    # radius, each once: at 20 substeps, the mirror leaves 10 of the
    # Gaussian's 20 midpoints
    scan_2d(universal_phases(3, 1), PI, grid_2d(3), system=random_system(3, seed=7, shape=gaussian()),
            substeps=20)
    past = generators_past_the_series_radius(grid_2d(3), 20)
    assert 0 < past <= 3 * 10
    assert sum(n for n, _ in calls) == past
    calls.clear()
    # the kernel blocks whole detuning columns, so a shaped map split into
    # several blocks still decomposes each of those generators once
    monkeypatch.setattr(two_level, "STACK_ELEMENTS", 4096)
    scan_2d(universal_phases(3, 1), PI, grid_2d(8), system=random_system(2, seed=7, shape=gaussian()),
            substeps=20)
    past = generators_past_the_series_radius(grid_2d(8), 20)
    assert 0 < past <= 8 * 10
    assert sum(n for n, _ in calls) == past
    calls.clear()
    # a shaped two-level pulse is multiplied out in closed form
    scan_2d(universal_phases(3, 1), PI, grid_2d(8), system=NPodSystem((1.0,), (0.0,), gaussian()),
            substeps=20)
    assert not calls


def test_a_long_shaped_column_is_cut_once_the_way_the_kernel_cuts_it(monkeypatch):
    # With stacks of 2^13 elements the kernel takes a 600-area column of
    # 20-slice 4-level pulses in ranges of 25 areas, and each range with a
    # point past the series radius decomposes its 10 mirrored generators
    # again (180 in all).  The scan takes the same ranges: a cut at the
    # one-slice size (512 areas) before the kernel's would leave ranges that
    # straddle it (200).
    monkeypatch.setattr(two_level, "STACK_ELEMENTS", 1 << 13)
    system = random_system(3, seed=7, shape=gaussian())
    fam = universal_phases(3, 1)
    grid = ScanGrid(ScanAxis(AXIS_AREA, 0.0, 4.0, 600), ScanAxis(AXIS_DETUNING, 0.3, 0.5, 2))
    calls = record_stacks(monkeypatch)
    scan = scan_2d(fam, PI, grid, system=system, substeps=20).values
    scanned = sum(n for n, _ in calls)
    calls.clear()
    u = star_propagator(system.bright, gate_sequence(fam, 2 * PI).pulse_phases,
                        PI * grid.axis1.values()[:, None], grid.axis2.values()[None, :],
                        system.shape, 20)
    assert scanned == sum(n for n, _ in calls) > 0
    target = householder_matrix(HouseholderTarget(system.bright, PI))
    assert np.array_equal(scan, np.linalg.norm(u[..., :3, :3] - target, axis=(-2, -1)))


#: The shortcut and an N = 3 full map, each with the detunings that make
#: them two blocks at BLOCK_ELEMENTS: (system, detuning points).
BUDGET_SCANS = {
    "shortcut": (None, 201),
    "N3-full": (random_system(3, seed=7), 61),
}


@pytest.mark.parametrize("system, dpoints", BUDGET_SCANS.values(), ids=BUDGET_SCANS.keys())
def test_scan_bits_do_not_depend_on_the_block_budget(monkeypatch, system, dpoints):
    # 64 elements split each detuning column into ranges of 16 (shortcut) or
    # 4 (N = 3) areas, and STACK_ELEMENTS puts each map in one block
    grid = ScanGrid(ScanAxis(AXIS_AREA, 0.0, 2.0, 41), ScanAxis(AXIS_DETUNING, -2.0, 2.0, dpoints))
    maps = []
    for budget in (64, two_level.BLOCK_ELEMENTS, two_level.STACK_ELEMENTS):
        monkeypatch.setattr(two_level, "BLOCK_ELEMENTS", budget)
        maps.append(scan_2d(bb_phases(9), PI, grid, system=system).values)
    assert all(np.array_equal(f, maps[0]) for f in maps[1:])


def test_a_row_longer_than_one_chunk_is_split(monkeypatch):
    system = random_system(3, seed=5)
    grid = ScanGrid(ScanAxis(AXIS_AREA, 0.5, 1.5, 3), ScanAxis(AXIS_DETUNING, -1.0, 1.0, 6000))
    fam = universal_phases(5, 2)
    chunk = 1 << 12
    assert 6000 * 4 ** 2 >= 8 * chunk  # one row of the full scan holds >= 8 chunks
    whole, whole_peak = traced_peak(lambda: scan_2d(fam, PI, grid, system=system))
    fast = scan_2d(fam, PI, grid)
    monkeypatch.setattr(two_level, "STACK_ELEMENTS", chunk)
    calls = record_stacks(monkeypatch)
    chunked, chunked_peak = traced_peak(lambda: scan_2d(fam, PI, grid, system=system))
    assert max(size for _, size in calls) <= chunk
    # the result and the detuning axis, and at most 8 chunk-sized stacks besides
    held = chunked.values.nbytes + grid.axis2.values().nbytes
    assert chunked_peak <= held + 8 * 16 * chunk < whole_peak
    assert np.array_equal(chunked.values, whole.values)
    calls.clear()
    assert np.array_equal(scan_2d(fam, PI, grid).values, fast.values)
    assert max(size for _, size in calls) <= chunk


def test_scan_2d_validation():
    with pytest.raises(ValidationError):
        scan_2d(bb_phases(1), PI, area_grid())


# --- CSV serialization ---------------------------------------------------------------

def test_csv_1d_format():
    families = [bb_phases(1), bb_phases(3), universal_phases(5, 2)]
    result = scan_area(families, PI, area_grid(5))
    lines = result.csv_text().splitlines()
    assert lines[0] == "A_over_pi,F_n1,F_n3,F_u5v2"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    # 17 significant digits survive a round-trip
    for tok, val in zip(first[1:], result.values[:, 0]):
        assert float(tok) == val


def test_csv_2d_format_row_major():
    result = scan_2d(bb_phases(1), PI, grid_2d(3))
    lines = result.csv_text().splitlines()
    assert lines[0] == "A_over_pi,Delta_over_Omega,F"
    assert len(lines) == 10
    rows = [line.split(",") for line in lines[1:]]
    a_col = [float(r[0]) for r in rows]
    d_col = [float(r[1]) for r in rows]
    assert a_col == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
    assert d_col == [-2.0, 0.0, 2.0] * 3
    for r in rows:
        assert float(r[2]) >= 0.0


@pytest.mark.parametrize("scan", [lambda: scan_area([bb_phases(3)], PI, area_grid(11)),
                                  lambda: scan_2d(universal_phases(5, 2), PI, grid_2d(67))],
                         ids=["area", "map"])
def test_csv_file_output_deterministic(tmp_path, scan):
    result = scan()
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    result.to_csv(p1)
    result.to_csv(str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text() == result.csv_text()
    assert p1.read_bytes() == result.csv_text().encode("ascii")


def per_value_lines(result):
    """The CSV lines, each number written with format(value, ".17g"): the reference format."""
    xs = [format(x, ".17g") for x in result.grid.axis1.values().tolist()]
    if result.grid.axis2 is None:
        yield ",".join(["A_over_pi"] + [f"F_{label}" for label in result.labels]) + "\n"
        for x, vs in zip(xs, result.values.T.tolist()):
            yield ",".join([x] + [format(v, ".17g") for v in vs]) + "\n"
    else:
        yield "A_over_pi,Delta_over_Omega,F\n"
        ys = [format(y, ".17g") for y in result.grid.axis2.values().tolist()]
        for x, vs in zip(xs, result.values.tolist()):
            yield "".join([f"{x},{y},{v:.17g}\n" for y, v in zip(ys, vs)])


def per_value_csv(result):
    return "".join(per_value_lines(result))


class Sha256Sink:
    """A text file that keeps only the sha256 of the UTF-8 bytes written to it."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode("utf-8"))


def test_csv_matches_the_per_value_format():
    # more rows than one formatted batch, and values at the edges of the float range
    rng = np.random.default_rng(9)
    edges = [-0.0, 5e-324, 1e-300, 1e17, 1 / 3, np.nan, np.inf, -np.inf]
    one = rng.standard_normal((2, 5000))
    one[0, :8] = edges
    two = rng.standard_normal((3, 4500))
    two[:, -8:] = edges
    results = [
        ScanResult(area_grid(5000), ("a", "b"), one),
        ScanResult(ScanGrid(ScanAxis(AXIS_AREA, 0.0, 2.0, 3),
                            ScanAxis(AXIS_DETUNING, -2.0, 2.0, 4500)), ("c",), two),
    ]
    for result in results:
        assert result.csv_text() == per_value_csv(result)


class LineChecker:
    """A text file that compares each line written to it with the next line of `expected`."""

    def __init__(self, expected):
        self.expected = iter(expected)
        self.lines = 0
        self.wrong = []

    def write(self, text):
        for line in text.splitlines(keepends=True):
            want = next(self.expected)
            if line != want and len(self.wrong) < 5:
                self.wrong.append((self.lines, line, want))
            self.lines += 1


def decimal_ties(rng, count):
    """Doubles x with x 10^p half way between two integers, p = 16 - floor(log10 x).

    x = m 2^(-p - 1) with m odd: x 10^p = m 5^p / 2.  Each decade from 1e-4
    to 10 gets `count` of them.
    """
    ties = []
    for k in range(-4, 1):
        p = 16 - k
        lo, hi = math.ceil(10.0 ** k * 2 ** (p + 1)), math.floor(10.0 ** (k + 1) * 2 ** (p + 1))
        m = rng.integers(lo // 2, hi // 2, count) * 2 + 1
        ties.append(m * 2.0 ** (-p - 1))
    ties = np.concatenate(ties)
    for x in ties[::97].tolist():
        p = 16 - math.floor(math.log10(x))
        assert (Fraction(x) * 10 ** p) % 1 == Fraction(1, 2)
    return ties


def test_csv_numbers_match_the_per_value_format_and_take_the_table_path(monkeypatch):
    # 2^20 values: log-uniform over 1e-6..1e2, uniform over 0..2, and the edges
    # of the digit tables: 4 ulps either side of each decade edge, exact
    # decimal ties, the largest doubles below 1 and 10, whose 17 digits
    # would carry into the next decade if rounded wrongly, and the values
    # only the per-value format handles.
    rng = np.random.default_rng(17)
    points = 1 << 17
    values = np.concatenate([10.0 ** rng.uniform(-6.0, 2.0, 5 * points),
                             rng.uniform(0.0, 2.0, 3 * points)])
    decades = 10.0 ** np.arange(-4, 2)
    edges = np.concatenate([decades, np.nextafter(decades, 0.0), np.nextafter(decades, np.inf)])
    for _ in range(3):
        edges = np.unique(np.concatenate([edges, np.nextafter(edges, 0.0),
                                          np.nextafter(edges, np.inf)]))
    assert edges.size == 9 * decades.size
    special = [0.99999999999999994, 9.9999999999999982, 0.0, -0.0, 5e-324, -5e-324,
               2.2250738585072009e-308, 2.2250738585072014e-308, np.nan, np.inf, -np.inf]
    planted = np.concatenate([edges, -edges, decimal_ties(rng, 400), special])
    values[rng.choice(values.size, planted.size, replace=False)] = planted
    result = ScanResult(ScanGrid(ScanAxis(AXIS_AREA, 1.0, 2.0, points)),
                        tuple("abcdefgh"), values.reshape(8, points))

    class CountingFormat(str):
        calls = 0

        def __mod__(self, value):
            CountingFormat.calls += 1
            return str.__mod__(self, value)

    monkeypatch.setattr(metrics, "_NUMBER", CountingFormat(metrics._NUMBER))
    checker = LineChecker(per_value_lines(result))
    result.to_csv(checker)
    assert checker.wrong == []
    assert checker.lines == points + 1
    # the per-value format took the values outside 1e-4 <= |x| < 10, and
    # at most one in a thousand of the others
    outside = np.count_nonzero(~((np.abs(values) >= 1e-4) & (np.abs(values) < 10.0)))
    assert outside <= CountingFormat.calls <= outside + values.size // 1000


@pytest.mark.parametrize("rows, cols", [(2, 1 << 17), (16, 1 << 16), (1 << 10, 1 << 10),
                                        (1 << 17, 2), (301, 301)])
def test_csv_of_large_maps_matches_the_per_value_format(rows, cols):
    grid = ScanGrid(ScanAxis(AXIS_AREA, 0.0, 2.0, rows), ScanAxis(AXIS_DETUNING, -2.0, 2.0, cols))
    result = ScanResult(grid, ("u",), np.random.default_rng(rows).random((rows, cols)) ** 3)
    written, reference = Sha256Sink(), Sha256Sink()
    if rows == 2 or cols == 2:  # the widest and the tallest grid
        # The whole text of 2 x 2^17 lines (about 45 characters each) exceeds
        # the bound; tracing every number of a longer grid costs many seconds
        _, peak = traced_peak(lambda: result.to_csv(written))
        # The area axis; the detuning axis, and room for the text of each
        # detuning (at most 24 characters, plus 16), which the writer keeps
        # for one block only; and the text of one write.
        assert peak <= 8 * rows + (8 + 40) * cols + (1 << 20)
    else:
        result.to_csv(written)
    for text in per_value_lines(result):
        reference.write(text)
    assert written.sha.hexdigest() == reference.sha.hexdigest()
