"""Infidelity metrics, the analytic broadband law, and the scan drivers."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from comphr import two_level
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
    gaussian,
    householder_matrix,
    infidelity,
    ms_reduce,
    random_system,
    scan_2d,
    scan_area,
    universal_phases,
)

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
    chunk = 1 << 16
    assert 15 * 15 * 51 ** 2 >= 8 * chunk  # the unchunked stack holds >= 8 chunks
    whole, whole_peak = traced_peak(lambda: scan_2d(fam, PI, grid, system=system))
    monkeypatch.setattr(two_level, "STACK_ELEMENTS", chunk)
    chunked, chunked_peak = traced_peak(lambda: scan_2d(fam, PI, grid, system=system))
    chunk_bytes = 16 * chunk
    assert chunked_peak <= 8 * chunk_bytes < whole_peak
    assert np.max(np.abs(chunked.values - whole.values)) <= 1e-13


def record_stacks(monkeypatch):
    """Route two_level.expm_hermitian_stack through a recorder of the stacks it handles.

    Returns the list of (matrices decomposed, elements of the result) per call.
    A factored call counts the rows * cols * n^2 elements of the pulse
    train's working block that its eigenphases fill.
    """
    calls = []
    exponential = two_level.expm_hermitian_stack

    def recorded(h, t, factors=False):
        result = exponential(h, t, factors)
        size = result[1].size * h.shape[-1] if factors else result.size
        calls.append((math.prod(h.shape[:-2]), size))
        return result

    monkeypatch.setattr(two_level, "expm_hermitian_stack", recorded)
    return calls


def test_each_scan_decomposes_each_detuning_once(monkeypatch):
    calls = record_stacks(monkeypatch)
    scan_2d(universal_phases(5, 2), PI, grid_2d(301))
    assert sum(n for n, _ in calls) == 301
    calls.clear()
    scan_area([bb_phases(n) for n in (1, 3, 5, 9)], PI / 2, area_grid(161))
    assert [n for n, _ in calls] == [1] * 4
    calls.clear()
    grid = ScanGrid(ScanAxis(AXIS_AREA, 0.5, 1.5, 41), ScanAxis(AXIS_DETUNING, -1.0, 1.0, 41))
    scan_2d(universal_phases(5, 2), PI, grid, system=random_system(3, seed=7))
    assert sum(n for n, _ in calls) == 41
    calls.clear()
    # a shaped pulse decomposes each detuning once per slice
    scan_2d(universal_phases(3, 1), PI, grid_2d(3), system=random_system(3, seed=7, shape=gaussian()),
            substeps=20)
    assert sum(n for n, _ in calls) == 3 * 20
    calls.clear()
    # the kernel blocks whole detuning columns, so a shaped map split into
    # several blocks still decomposes each (detuning, slice) generator once
    monkeypatch.setattr(two_level, "STACK_ELEMENTS", 4096)
    scan_2d(universal_phases(3, 1), PI, grid_2d(8), system=NPodSystem((1.0,), (0.0,), gaussian()),
            substeps=20)
    assert sum(n for n, _ in calls) == 8 * 20


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


def test_csv_file_output_deterministic(tmp_path):
    result = scan_area([bb_phases(3)], PI, area_grid(11))
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    result.to_csv(p1)
    result.to_csv(str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text() == result.csv_text()


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
        # The area axis; the detuning axis, with the text of each detuning
        # held once (at most 24 characters, plus 10 of its line template);
        # and the text of one write.
        assert peak <= 8 * rows + (8 + 40) * cols + (1 << 20)
    else:
        result.to_csv(written)
    for text in per_value_lines(result):
        reference.write(text)
    assert written.sha.hexdigest() == reference.sha.hexdigest()
