"""CLI behaviour: flags, exit codes, file formats, determinism."""

import hashlib
import importlib
import json
import math
import time
import warnings

import numpy as np
import pytest

from comphr import (
    AXIS_AREA,
    AXIS_DETUNING,
    ScanAxis,
    ScanGrid,
    ScanResult,
    bb_phases,
    composite_phase_gate,
    gate_sequence,
    rectangular,
    universal_phases,
)
from comphr import composite, metrics
from comphr.cli import main, parse_angle
from comphr.linalg import SERIAL_BLAS
from comphr.linalg import expm_hermitian_stack as eigen_factors
from comphr.two_level import (_eigen_row, _midpoint_samples, _pulse_train, _star_generators,
                              _two_level_slices, grid_chunks, stack_chunks, time_ordered_product)
from test_linalg import expm_hermitian_series, expm_hermitian_stack

PI = math.pi


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(path, **overrides):
    doc = {
        "couplings": [3.0, 4.0],
        "coupling_phases": [0.0, 0.5],
        "shape": "rectangular",
        "detuning": 0.0,
        "hr_phase": 1.0,
        "family": {"family": "bb", "n": 3},
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return doc


# --- angle parsing -------------------------------------------------------------

def test_parse_angle():
    assert parse_angle("pi") == pytest.approx(PI)
    assert parse_angle("pi/2") == pytest.approx(PI / 2)
    assert parse_angle("-pi/3") == pytest.approx(-PI / 3)
    assert parse_angle("0.75pi") == pytest.approx(0.75 * PI)
    assert parse_angle("2pi") == pytest.approx(2 * PI)
    assert parse_angle("1.570796") == pytest.approx(1.570796)
    assert parse_angle("3pi/4") == pytest.approx(0.75 * PI)
    from comphr import ValidationError
    with pytest.raises(ValidationError):
        parse_angle("two pi")


# --- phases -----------------------------------------------------------------------

def test_phases_bb5(capsys):
    code, out, _ = run(capsys, "phases", "--family", "bb", "--n", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0, 2/5, 6/5, 2/5, 0 (×π)"
    rad = [float(tok) for tok in lines[1].replace(" (rad)", "").split(", ")]
    assert rad == pytest.approx([0.0, 0.4 * PI, 1.2 * PI, 0.4 * PI, 0.0])


def test_phases_universal3(capsys):
    code, out, _ = run(capsys, "phases", "--family", "universal", "--n", "3")
    assert code == 0
    assert out.splitlines()[0] == "0, 1/2, 0 (×π)"


def test_phases_rejects_even_n(capsys):
    code, _, err = run(capsys, "phases", "--family", "bb", "--n", "4")
    assert code == 2
    assert "n must be odd" in err


# --- hr ---------------------------------------------------------------------------

def test_hr_nominal(tmp_path, capsys):
    cfg = tmp_path / "sys.json"
    write_config(cfg)
    out_path = tmp_path / "out.json"
    code, _, _ = run(capsys, "hr", "--config", str(cfg), "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["infidelity"] <= 1e-12
    assert doc["area_over_pi"] == pytest.approx(1.0)
    actual = np.array([[complex(re, im) for re, im in row] for row in doc["actual"]])
    target = np.array([[complex(re, im) for re, im in row] for row in doc["target"]])
    assert actual.shape == (2, 2)
    assert np.linalg.norm(actual - target) <= 1e-12


def test_hr_area_error_value(tmp_path, capsys):
    cfg = tmp_path / "sys.json"
    write_config(cfg)
    code, out, _ = run(capsys, "hr", "--config", str(cfg), "--area", "1.1pi")
    assert code == 0
    doc = json.loads(out)
    # bb(3), phi = pi, area 1.1*pi: F = 2 cos^6(0.55 pi)
    assert doc["infidelity"] == pytest.approx(2.9310595619239794e-05, abs=1e-12)


def test_hr_single_state_system_matches_gate(tmp_path, capsys):
    cfg = tmp_path / "sys.json"
    write_config(cfg, couplings=[2.0], coupling_phases=[0.0],
                 family={"family": "bb", "n": 1})
    code, out, _ = run(capsys, "hr", "--config", str(cfg), "--area", "0.8pi")
    assert code == 0
    doc = json.loads(out)
    gate = composite_phase_gate(bb_phases(1), 2 * PI, 0.8 * PI)
    re, im = doc["actual"][0][0]
    assert complex(re, im) == pytest.approx(gate.u[0, 0], abs=1e-12)


def test_hr_dump_config_round_trip(tmp_path, capsys):
    cfg = tmp_path / "sys.json"
    write_config(cfg, detuning=0.2, hr_phase=0.5)
    code, out, _ = run(capsys, "hr", "--config", str(cfg), "--dump-config")
    assert code == 0
    echoed = tmp_path / "echo.json"
    echoed.write_text(out)
    code1, out1, _ = run(capsys, "hr", "--config", str(cfg), "--area", "0.9pi")
    code2, out2, _ = run(capsys, "hr", "--config", str(echoed), "--area", "0.9pi")
    assert code1 == code2 == 0
    assert out1 == out2


def test_hr_malformed_config_is_validation_error(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    code, _, err = run(capsys, "hr", "--config", str(cfg))
    assert code == 2
    assert "config" in err

    cfg.write_text(json.dumps({"couplings": [1.0]}))  # no family
    code, _, _ = run(capsys, "hr", "--config", str(cfg))
    assert code == 2


@pytest.mark.parametrize("overrides", [
    {"family": {"family": "bb", "n": "three"}},
    {"family": {"family": "bb", "n": 3.7}},
    {"family": {"family": "bb", "n": True}},
    {"family": {"family": "bb", "n": float("inf")}},
    {"family": {"family": "universal", "n": 5, "variant": "2"}},
    {"couplings": ["x"]},
    {"couplings": 5},
    {"couplings": [3.0, float("nan")]},
    {"couplings": [3.0, True]},
    {"coupling_phases": [0.0, None]},
    {"detuning": float("inf")},
    {"hr_phase": "pi"},
    {"shape": {"kind": "gaussian", "truncation": "wide"}},
    {"shape": {"kind": "tabulated", "samples": [[0.0, 0.0], ["x", 1.0]]}},
    {"shape": {"kind": "tabulated", "samples": 3}},
])
def test_hr_mistyped_config_value_is_validation_error(tmp_path, capsys, overrides):
    cfg = tmp_path / "sys.json"
    write_config(cfg, **overrides)  # json writes NaN and Infinity literals
    code, _, err = run(capsys, "hr", "--config", str(cfg))
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize("overrides", [
    {"family": {"family": "bb", "n": 999999999}},
    {"couplings": [1.0] * 1024, "coupling_phases": [0.0] * 1024},
])
def test_hr_oversized_config_is_validation_error(tmp_path, capsys, overrides):
    cfg = tmp_path / "sys.json"
    write_config(cfg, **overrides)
    code, _, err = run(capsys, "hr", "--config", str(cfg))
    assert code == 2
    assert "at most" in err


#: A 401-digit integer.
LONG = "1" * 401


@pytest.mark.parametrize("argv, config, named", [
    (["phases", "--n", LONG], None, "n must be at most"),
    (["phases", "--n", "-" + LONG], None, "n must be odd"),
    (["phases", "--family", "universal", "--n", LONG], None, "universal list for n="),
    (["phases", "--family", "universal", "--n", "5", "--variant", LONG], None, "variant="),
    (["scan-2d", "--full", "--N", LONG], None, "N-pod"),
    (["scan-2d", "--phi", "x" * 401], None, "angle"),
    (["scan-area", "--n", "1,x" + "1" * 400], None, "order list"),
    (["hr"], {"family": {"family": "bb", "n": "x" * 401}}, "family order n"),
    (["hr"], {"family": {"family": "bb", "n": 1e300}}, "n must be odd"),
    (["hr"], {"detuning": "x" * 401}, "detuning"),
    (["hr"], {"family": {"family": "x" * 401, "n": 3}}, "phase family"),
], ids=["phases-n", "phases-negative-n", "universal-n", "universal-variant", "scan-2d-N",
        "scan-2d-phi", "scan-area-n", "config-n-text", "config-n-1e300", "config-detuning",
        "config-family"])
def test_a_long_offending_value_is_cut_in_the_message(tmp_path, capsys, argv, config, named):
    if argv[0].startswith("scan"):
        argv = argv + ["--out", str(tmp_path / "out")]
    if config is not None:
        write_config(tmp_path / "sys.json", **config)
        argv += ["--config", str(tmp_path / "sys.json")]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert named in err and "…" in err
    assert len(err.encode("utf-8")) < 200


def test_hr_integral_float_order_is_accepted(tmp_path, capsys):
    cfg = tmp_path / "sys.json"
    write_config(cfg)
    code, expected, _ = run(capsys, "hr", "--config", str(cfg), "--area", "0.9pi")
    write_config(cfg, family={"family": "bb", "n": 3.0})
    code_float, out, _ = run(capsys, "hr", "--config", str(cfg), "--area", "0.9pi")
    assert code == code_float == 0
    assert out == expected


@pytest.mark.parametrize("data", [b"[1, 2]", b"5", b'"bb"', b"\xff{}"])
def test_hr_config_that_is_not_a_json_object_is_validation_error(tmp_path, capsys, data):
    cfg = tmp_path / "sys.json"
    cfg.write_bytes(data)
    code, _, err = run(capsys, "hr", "--config", str(cfg))
    assert code == 2
    assert "config" in err


@pytest.mark.parametrize("data", [b'{"family": {"family": "bb", "n": ' + b"1" * 5000 + b"}}",
                                  b"[" * 100000], ids=["5000-digit-n", "deep-nesting"])
def test_hr_config_that_json_cannot_read_is_validation_error(tmp_path, capsys, data):
    # json.loads raises a plain ValueError for an int of more than 4300
    # digits, and a RecursionError for nesting deeper than the stack
    cfg = tmp_path / "c.json"
    cfg.write_bytes(data)
    code, _, err = run(capsys, "hr", "--config", str(cfg))
    assert code == 2
    assert "config" in err and "Traceback" not in err
    assert len(err.encode("utf-8")) < 300


@pytest.mark.parametrize("argv", [["phases", "--n"], ["scan-2d", "--out", "x.csv", "--apoints"]],
                         ids=["phases-n", "scan-2d-apoints"])
def test_an_argparse_error_cuts_the_offending_value(capsys, argv):
    code, _, err = run(capsys, *argv, "1" * 5000)
    assert code == 2
    assert f"argument {argv[-1]}: invalid int value" in err and "…" in err
    # the usage line of the command (under 400 bytes) and the cut message
    assert len(err.encode("utf-8")) < 600


#: Flags whose values start with "-", each pair written "--flag value" or "--flag=value".
NEGATIVE_VALUES = {
    "scan-2d": ("scan-2d", [("--apoints", "5"), ("--dpoints", "5"), ("--phi", "-pi/3"),
                            ("--dmin", "-1e-3")]),
    "scan-area": ("scan-area", [("--points", "5"), ("--phi", "-0.5pi")]),
    "hr": ("hr", [("--detuning", "-1e-2")]),
    "plain-numbers": ("scan-2d", [("--apoints", "5"), ("--dpoints", "5"), ("--phi", "-.5"),
                                  ("--dmin", "-3"), ("--dmax", "-1.5")]),
}


@pytest.mark.parametrize("command, flags", NEGATIVE_VALUES.values(), ids=NEGATIVE_VALUES.keys())
def test_negative_values_may_follow_their_flag(tmp_path, capsys, command, flags):
    cfg = tmp_path / "sys.json"
    write_config(cfg)
    common = [command] + (["--config", str(cfg)] if command == "hr" else [])
    outputs = []
    for form in ("spaced", "joined"):
        out = tmp_path / f"{form}.out"
        pairs = flags + [("--out", str(out))]
        argv = ([part for pair in pairs for part in pair] if form == "spaced"
                else [f"{flag}={value}" for flag, value in pairs])
        code, _, err = run(capsys, *common, *argv)
        assert code == 0, err
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv", [["--phi", "-x"], ["-x"], ["--phi", "-"], ["--phi", "-p"]],
                         ids=["flag-then-unknown", "unknown", "dash", "dash-p"])
def test_other_dash_tokens_still_exit_2(tmp_path, capsys, argv):
    code, _, err = run(capsys, "scan-2d", "--out", str(tmp_path / "x.csv"), *argv)
    assert code == 2
    assert "Traceback" not in err and not (tmp_path / "x.csv").exists()


def test_hr_missing_config_is_io_error(tmp_path, capsys):
    code, _, _ = run(capsys, "hr", "--config", str(tmp_path / "nope.json"))
    assert code == 3


# --- scan-area -----------------------------------------------------------------------

def test_scan_area_csv(tmp_path, capsys):
    out = tmp_path / "fig_area.csv"
    code, _, _ = run(capsys, "scan-area", "--n", "1,3,5,9", "--phi", "pi/2",
                     "--points", "161", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "A_over_pi,F_n1,F_n3,F_n5,F_n9"
    assert len(lines) == 162
    rows = {float(line.split(",")[0]): [float(t) for t in line.split(",")[1:]]
            for line in lines[1:]}
    assert all(f <= 1e-12 for f in rows[1.0])
    # n = 1 column at A = 0.9*pi: 2 sin(pi/4) cos^2(0.45*pi)
    assert rows[0.9][0] == pytest.approx(0.03460826922259022, abs=1e-12)


def test_scan_area_deterministic_bytes(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(capsys, "scan-area", "--n", "1,3", "--points", "21",
                         "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


#: sha256 of the CSV files these commands wrote when the digests were taken
#: (x86-64, numpy 2.4 with its bundled OpenBLAS, which picked its SkylakeX
#: kernels at run time; print the choice with
#: `OPENBLAS_VERBOSE=2 python -c "import numpy.linalg"`).  Every value carries
#: 17 significant digits, so a change in the last bit of any number, or in the
#: formatting, changes the digest.  All three digests fail with
#: OPENBLAS_CORETYPE=Haswell, Sandybridge or Prescott: other BLAS kernels
#: round some results differently in the last bit.
#: The scan-area digest was taken after a two-level gate ran its first
#: composite only and read its frame from the eigen-phases, and
#: FLAT_TRAIN_CSV holds its digest before.  The two map digests were taken
#: after a range symmetric about zero was made bit-symmetric and a two-level
#: gate column was read from its mirrored partner, and GATE_HALF_CSV holds
#: their digests before.  test_shortcut_scans_match_the_reference_path ties
#: the shortcut digests to the four older paths, and
#: test_full_runs_match_the_matmul_path ties the full-map digest to the
#: matmul path.
GOLDEN_CSV = [
    (["scan-area", "--n", "1,3,5,9", "--phi", "pi/2", "--points", "161"],
     "c3bb08a2434f46f3ece5c0f818234deb98d503453ea9056ccaacfa6a24abbb6b"),
    (["scan-2d", "--apoints", "11", "--dpoints", "11"],
     "6f50cecd3ce6c73359401ee968ce80ba8e43078dfacd60f22a34133b8050433f"),
    (["scan-2d", "--apoints", "11", "--dpoints", "11", "--full", "--N", "3", "--seed", "7"],
     "98958d32543ecbe9dbcaff9b98d084f88e14a3751d9e3a00ac378774a54e8a7f"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_CSV, ids=["scan-area", "scan-2d", "scan-2d-full"])
def test_scan_csv_bytes_are_pinned(tmp_path, capsys, argv, digest):
    out = tmp_path / "scan.csv"
    code, _, _ = run(capsys, *argv, "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


#: Overrides of the README config (the `write_config` default) for the pinned
#: hr runs.
HR_CONFIGS = {
    "readme": {},
    "gaussian": {"couplings": [1.0, 2.0, 2.0], "coupling_phases": [0.0, 0.25, -0.5],
                 "shape": {"kind": "gaussian", "truncation": 2.5}, "detuning": 0.1,
                 "hr_phase": 0.5, "family": {"family": "universal", "n": 5, "variant": 2}},
    "tabulated": {"shape": {"kind": "tabulated",
                            "samples": [[0.0, 0.0], [1.0, 1.0], [2.0, 0.5], [3.0, 0.0]]},
                  "family": {"family": "bb", "n": 5}},
}

#: sha256 of what hr printed on those configs, taken like GOLDEN_CSV.  The
#: --dump-config digests pin the normalized document; the others also pin the
#: realized and target matrices to the last bit.  The readme digest was taken
#: like the full-map digest of GOLDEN_CSV.
GOLDEN_HR = [
    ("readme", ["--area", "0.9pi"],
     "5aff783fcc62fcc60a55ffafa5ebf780be824bc5ac22577558d8c3b3fb4fcd34"),
    ("readme", ["--dump-config"],
     "1b48c5d8569194e18ad6cce73cd86012a95b5ad8d2b5ab45c876000811746861"),
    ("gaussian", ["--detuning", "0.3", "--substeps", "200"],
     "796bc40dca04c116c3a941a7dfb51a655416afb37798d59f9a75a981aecb1a40"),
    ("gaussian", ["--dump-config"],
     "0c419f8f1a114559ffd1dc4154f2660f7b6a6950d3322ff03f54a5d3ac897535"),
    ("tabulated", ["--dump-config"],
     "499cb8bf7b28d717a9adde85a8e70262782f82b01375bdd06b11ec0878edb525"),
]


@pytest.mark.parametrize("config, argv, digest", GOLDEN_HR,
                         ids=["readme", "readme-dump", "gaussian", "gaussian-dump",
                              "tabulated-dump"])
def test_hr_output_bytes_are_pinned(tmp_path, capsys, config, argv, digest):
    cfg = tmp_path / "sys.json"
    write_config(cfg, **HR_CONFIGS[config])
    code, out, err = run(capsys, "hr", "--config", str(cfg), *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def reference_shortcut(family, hr_phase, areas, detunings):
    """|u00 - e^{i phi}| by the first two-level shortcut path, the reference for its digests.

    One spectral decomposition per grid point, then one batched 2x2 matmul
    per pulse, each pulse the phase-0 propagator with e^{ip} on u[0,1] and
    e^{-ip} on u[1,0].
    """
    phases = gate_sequence(family, 2.0 * hr_phase).pulse_phases
    a, d = np.broadcast_arrays(np.asarray(areas, dtype=float), np.asarray(detunings, dtype=float))
    h = np.zeros(a.shape + (2, 2), dtype=complex)
    h[..., 0, 1] = h[..., 1, 0] = 0.5
    h[..., 1, 1] = d
    u0 = expm_hermitian_stack(h, a)
    sign = np.array([[0.0, 1.0], [-1.0, 0.0]])
    u = None
    for p in phases:
        pulse = u0 * np.exp(1j * p * sign)
        u = pulse if u is None else pulse @ u
    return np.abs(u[..., 0, 0] - np.exp(1j * hr_phase))


def kernel_shortcut(family, hr_phase, areas, detunings):
    """|u00 - e^{i phi}| of the Cayley-Klein rebuild path on the whole grid, a digest reference.

    One cayley_klein_star_propagator call on the whole grid, and the bright
    amplitude against e^{i phi} by np.abs.
    """
    phases = gate_sequence(family, 2.0 * hr_phase).pulse_phases
    u = cayley_klein_star_propagator((1.0,), phases, areas, detunings)
    return np.abs(u[..., 0, 0] - np.exp(1j * hr_phase))


def flat_train_shortcut(family, hr_phase, areas, detunings):
    """|u00 - e^{i phi}| of the flat two-level train of all 2n pulses on the whole grid.

    The reference of the gate half: flat_two_level_star_propagator on the
    gate's pulse phases, and the bright amplitude against e^{i phi} by np.abs.
    """
    phases = gate_sequence(family, 2.0 * hr_phase).pulse_phases
    u = flat_two_level_star_propagator((1.0,), phases, areas, detunings)
    return np.abs(u[..., 0, 0] - np.exp(1j * hr_phase))


def gate_half_shortcut(family, hr_phase, areas, detunings):
    """|u00 - e^{i phi}| of the gate-half reference on the whole grid, the reference of the mirror.

    gate_half_blocks on the rectangular two-level gate, which propagates
    every detuning column, and the bright amplitude against e^{i phi} by
    np.abs.  The areas are a column or a vector, the detunings a row or a
    scalar.
    """
    seq = gate_sequence(family, 2.0 * hr_phase)
    dets = np.asarray(detunings, dtype=float).reshape(-1)
    a = np.asarray(areas, dtype=float).reshape(-1, 1)
    grid = np.broadcast_to(a, (a.shape[0], dets.size))
    u = np.empty(grid.shape, dtype=complex)
    for rows, cols, block in gate_half_blocks((1.0,), seq, grid, dets, rectangular(), 1):
        u[rows, cols] = block[..., 0, 0]
    shape = np.broadcast_shapes(np.shape(areas), np.shape(detunings))
    return np.abs(u - np.exp(1j * hr_phase)).reshape(shape)


def reference_scan(families, hr_phase, grid, shortcut=reference_shortcut):
    """The ScanResult of a reference shortcut path on a 1D or 2D grid."""
    areas = grid.axis1.values() * PI
    if grid.axis2 is None:
        values = np.stack([shortcut(f, hr_phase, areas, 0.0) for f in families])
    else:
        values = shortcut(families[0], hr_phase, areas[:, None], grid.axis2.values()[None, :])
    return ScanResult(grid, tuple(f.label for f in families), values)


def map_grid(points):
    return ScanGrid(ScanAxis(AXIS_AREA, 0.0, 2.0, points), ScanAxis(AXIS_DETUNING, -2.0, 2.0, points))


#: Shortcut scans with their reference inputs: (argv, families, reflection phase, grid).
#: The last three are the maps of the benchmark's map-shortcut workload.
SHORTCUT_SCANS = {
    "scan-area": (GOLDEN_CSV[0][0], [bb_phases(n) for n in (1, 3, 5, 9)], PI / 2,
                  ScanGrid(ScanAxis(AXIS_AREA, 0.0, 2.0, 161))),
    "scan-2d": (GOLDEN_CSV[1][0], [universal_phases(5, 2)], PI, map_grid(11)),
    "u5v2-301": (["scan-2d", "--apoints", "301", "--dpoints", "301"],
                 [universal_phases(5, 2)], PI, map_grid(301)),
    "bb1-301": (["scan-2d", "--family", "bb", "--n", "1", "--apoints", "301", "--dpoints", "301"],
                [bb_phases(1)], PI, map_grid(301)),
    "bb9-301": (["scan-2d", "--family", "bb", "--n", "9", "--phi", "pi/2",
                 "--apoints", "301", "--dpoints", "301"], [bb_phases(9)], PI / 2, map_grid(301)),
}

#: sha256 of the reference path's CSVs; before the Cayley-Klein pulse train
#: the CLI wrote the same bytes (the first GOLDEN_CSV digests).
REFERENCE_CSV = {
    "scan-area": "18e53d366a7ad0afe8057774fc4155a56546b5d45eb7ebe172bd590a9f86ae59",
    "scan-2d": "8f5e717617c293b777e987d04d6fa2b4bf4ed614fb398938e937ffaf68230dad",
}


#: sha256 of the kernel path's CSVs; from the Cayley-Klein pulse train until
#: the shortcut became the N = 1 system, the CLI wrote the same bytes.
KERNEL_CSV = {
    "scan-area": "14981005dd657e2e9d494ac59e3f0104848a896477c02fc90cab5117e0ddb121",
    "scan-2d": "d0dde6a19f4a415884137cd82639b963ff3c2f3f9d95d84e0fad99e85db046b7",
}


@pytest.mark.parametrize("name", sorted(REFERENCE_CSV))
def test_reference_shortcut_path_keeps_the_old_digests(monkeypatch, name):
    use_linspace_axes(monkeypatch)
    _, families, phi, grid = SHORTCUT_SCANS[name]
    text = reference_scan(families, phi, grid).csv_text()
    assert hashlib.sha256(text.encode()).hexdigest() == REFERENCE_CSV[name]


@pytest.mark.parametrize("name", sorted(KERNEL_CSV))
def test_kernel_shortcut_path_keeps_its_digests(monkeypatch, name):
    use_linspace_axes(monkeypatch)
    _, families, phi, grid = SHORTCUT_SCANS[name]
    text = reference_scan(families, phi, grid, kernel_shortcut).csv_text()
    assert hashlib.sha256(text.encode()).hexdigest() == KERNEL_CSV[name]


@pytest.mark.parametrize("name", SHORTCUT_SCANS)
def test_shortcut_scans_match_the_reference_path(tmp_path, capsys, name):
    argv, families, phi, grid = SHORTCUT_SCANS[name]
    out = tmp_path / "scan.csv"
    code, _, _ = run(capsys, *argv, "--out", str(out))
    assert code == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    for shortcut in (reference_shortcut, kernel_shortcut, flat_train_shortcut,
                     gate_half_shortcut):
        reference = reference_scan(families, phi, grid, shortcut).values
        values = rows[:, 1:].T if grid.axis2 is None else rows[:, 2].reshape(reference.shape)
        assert np.max(np.abs(values - reference)) <= 1e-13


def rebuilt_pulses(bright, areas, detunings):
    """The phase-0 rectangular pulse at every grid point, rebuilt from one decomposition per column.

    Each detuning's generator is decomposed once and the exponentials of all
    areas are rebuilt by expm_hermitian_stack, as the kernel did before its
    trains started from the eigen-factors.  The areas are a scalar or a
    column, the detunings a scalar or a row: the grids that hr and the scan
    loop pass.  Returns the pulses (rows, cols, n+1, n+1), the grid shape,
    and the durations (rows, cols) and detunings (cols,) of the pulses.
    """
    coupling = np.asarray(bright, dtype=complex).reshape(-1)
    coupling = coupling / np.linalg.norm(coupling)
    n = coupling.size
    a, d = np.asarray(areas, dtype=float), np.asarray(detunings, dtype=float)
    grid = np.broadcast_shapes(a.shape, d.shape)
    dets = d.reshape(-1)
    h = np.zeros((dets.size, 1, n + 1, n + 1), dtype=complex)
    h[..., :n, n] = 0.5 * coupling
    h[..., n, :n] = (0.5 * coupling).conj()
    h[..., n, n] = dets[:, None]
    t = np.broadcast_to(a, grid).reshape(-1, dets.size)
    return expm_hermitian_stack(h, t[..., None])[..., 0, :, :], grid, t, dets


def matmul_star_propagator(bright, pulse_phases, areas, detunings=0.0, shape=None, substeps=None):
    """A rectangular (N+1)-level train by the kernel's matmul path, the reference for its digests.

    Each pulse is the rebuilt phase-0 propagator (see rebuilt_pulses)
    rescaled to D(p) u D(p)^dagger, D = diag(e^{ip}, ..., e^{ip}, 1), and
    the train takes one batched matmul per pulse after the first.
    """
    assert shape is None or shape.kind == "rectangular"
    u0, grid, _, _ = rebuilt_pulses(bright, areas, detunings)
    n = u0.shape[-1] - 1
    sign = np.zeros((n + 1, n + 1))
    sign[:n, n], sign[n, :n] = 1.0, -1.0
    u = None
    for p in pulse_phases:
        pulse = u0 * np.exp(1j * p * sign)
        u = pulse if u is None else pulse @ u
    return u.reshape(grid + (n + 1, n + 1))


def cayley_klein_star_propagator(bright, pulse_phases, areas, detunings=0.0, shape=None,
                                 substeps=None):
    """A rectangular two-level train by the kernel's rebuild path, the reference for its digests.

    flat_two_level_train runs on row 0 (a, b) of the rebuilt phase-0
    propagator (see rebuilt_pulses) in Cayley-Klein form.  A product of k
    pulses is fixed by its row 0 (x, y) and its frame g = e^{-i k Delta T},
    its row 1 being (-g conj(y), g conj(x)).  Every product takes named
    operands and writes a new array, as the kernel's loop did: numpy rounds
    a complex product into a large temporary operand, which it reuses,
    differently.
    """
    assert shape is None or shape.kind == "rectangular"
    u0, grid, t, dets = rebuilt_pulses(bright, areas, detunings)
    assert u0.shape[-1] == 2
    u = np.empty_like(u0)
    flat_two_level_train(u0[..., 0, 0].copy(), u0[..., 0, 1].copy(), dets * t, pulse_phases, u)
    return u.reshape(grid + (2, 2))


def flat_two_level_train(a, b, phase_area, phases, out):
    """The kernel's two-level train of every pulse by its own phase, with the frame from Delta T.

    Row 0 (a, b) of the pulse at phase 0 and its frame step e^{-i Delta T},
    taken by exp from `phase_area` = Delta T, run through the train in
    Cayley-Klein form: each pulse, with q = b e^{ip}, maps row 0 (x, y) to
    (a x - q g conj(y), a y + q g conj(x)) and the frame g to
    g e^{-i Delta T}.  Every product takes named operands and writes a new
    array.  The product is written into `out`, of shape (rows, cols, 2, 2).
    """
    step = np.exp(-1j * phase_area)
    x, y, g = a, b * np.exp(1j * phases[0]), step
    for p in phases[1:]:
        qg = b * np.exp(1j * p)
        qg = qg * g
        xc, yc = x.conj(), y.conj()
        x = a * x - qg * yc
        y = a * y + qg * xc
        del qg, xc, yc
        g = g * step
    xc, yc = x.conj(), y.conj()
    out[..., 0, 0], out[..., 0, 1] = x, y
    out[..., 1, 0], out[..., 1, 1] = -(g * yc), g * xc


def flat_two_level_star_propagator(bright, pulse_phases, areas, detunings=0.0,
                                   shape=rectangular(), substeps=1000):
    """A two-level train of all its pulses, a gate's 2n among them, the reference of the gate half.

    The kernel's two-level branches as they ran every train before a gate
    ran its first composite only: a one-slice pulse takes row 0 of the
    eigen-factors of its detuning's generator (_eigen_row), a pulse of
    several slices the closed-form slice product (_two_level_slices), and
    flat_two_level_train runs every pulse and rescales a shaped train to a
    unit row 0 once more.  The areas are a scalar or a column, the
    detunings a scalar or a row.
    """
    coupling = np.asarray(bright, dtype=complex).reshape(-1)
    assert coupling.size == 1
    coupling = coupling / np.linalg.norm(coupling)
    a, d = np.asarray(areas, dtype=float), np.asarray(detunings, dtype=float)
    grid = np.broadcast_shapes(a.shape, d.shape)
    det = d.reshape(-1)
    t = np.broadcast_to(a, grid).reshape(-1, det.size) / shape.unit_integral()
    phases = tuple(float(p) for p in pulse_phases)
    count = 1 if shape.kind == "rectangular" else int(substeps)
    envelope = _midpoint_samples(shape, count)
    out = np.empty(t.shape + (2, 2), dtype=complex)
    if count == 1:
        h = _star_generators(coupling, envelope, det[:, None])[:, 0]
        flat_two_level_train(*_eigen_row(*eigen_factors(h, t)), det * t, phases, out)
    else:
        flat_two_level_train(*_two_level_slices(envelope, count, det, t), det * t, phases, out)
        out /= np.linalg.norm(out[..., 0, :], axis=-1)[..., None, None]
    return out.reshape(grid + (2, 2))


def matmul_shaped_star_propagator(bright, pulse_phases, areas, detunings, shape, substeps):
    """A shaped train by the kernel's former slice-product path, the reference for shaped outputs.

    Every midpoint slice of each detuning is decomposed and its
    exponentials rebuilt for all the areas (expm_hermitian_stack); the
    slices are multiplied by time_ordered_product in groups of at most
    STACK_ELEMENTS elements, the groups in time order, and the product takes
    one Newton-Schulz step, u (3 - u^dagger u) / 2.  The train rescales that
    pulse to D(p) u D(p)^dagger, D = diag(e^{ip}, ..., e^{ip}, 1), and takes
    one batched matmul per pulse after the first.  The areas are a scalar or
    a column, the detunings a scalar or a row.
    """
    coupling = np.asarray(bright, dtype=complex).reshape(-1)
    coupling = coupling / np.linalg.norm(coupling)
    n = coupling.size
    a, d = np.asarray(areas, dtype=float), np.asarray(detunings, dtype=float)
    grid = np.broadcast_shapes(a.shape, d.shape)
    dets = d.reshape(-1)
    t = np.broadcast_to(a / shape.unit_integral(), grid).reshape(-1, dets.size)
    half = 0.5 * np.multiply.outer(shape.envelope((np.arange(substeps) + 0.5) / substeps), coupling)
    h = np.zeros((dets.size, substeps, n + 1, n + 1), dtype=complex)
    h[..., :n, n], h[..., n, :n], h[..., n, n] = half, half.conj(), dets[:, None]
    u = None
    for part in stack_chunks(substeps, t.size * (n + 1) ** 2):
        group = time_ordered_product(expm_hermitian_stack(h[:, part], t[..., None] / substeps))
        u = group if u is None else group @ u
    u0 = u @ (1.5 * np.eye(n + 1) - 0.5 * (u.conj().swapaxes(-1, -2) @ u))
    sign = np.zeros((n + 1, n + 1))
    sign[:n, n], sign[n, :n] = 1.0, -1.0
    u = None
    for p in pulse_phases:
        pulse = u0 * np.exp(1j * p * sign)
        u = pulse if u is None else pulse @ u
    return u.reshape(grid + (n + 1, n + 1))


def series_star_propagator(bright, pulse_phases, areas, detunings, shape, substeps):
    """A shaped (N+1)-level train by the kernel's former Taylor-series path, its digest's reference.

    In the real gauge G = diag(e^{i arg c}, 1) every midpoint slice
    generator is built on the moduli |c|.  The slices are taken in groups of
    at most STACK_ELEMENTS elements; a group sums a Taylor series for each
    of its distinct samples (expm_hermitian_series) and gathers its slices
    from them, and its product is formed by time_ordered_product, the groups
    in time order.  The product takes one Newton-Schulz step,
    u (3 - u^dagger u) / 2, is conjugated back by G and runs through the
    kernel's _pulse_train.  The areas are a scalar or a column, the
    detunings a scalar or a row.
    """
    coupling = np.asarray(bright, dtype=complex).reshape(-1)
    coupling = coupling / float(np.linalg.norm(coupling))
    n = coupling.size
    a, d = np.asarray(areas, dtype=float), np.asarray(detunings, dtype=float)
    grid = np.broadcast_shapes(a.shape, d.shape)
    det = d.reshape(-1)
    t = np.broadcast_to(a, grid).reshape(-1, det.size) / shape.unit_integral()
    samples = shape.envelope((np.arange(substeps) + 0.5) / substeps)
    dt = t[..., None] / substeps
    u = None
    for part in stack_chunks(substeps, t.size * (n + 1) ** 2):
        values, index = np.unique(samples[part], return_inverse=True)
        h = _star_generators(np.abs(coupling), values, det[:, None])
        group = time_ordered_product(np.take(expm_hermitian_series(h, dt), index, axis=-3))
        u = group if u is None else group @ u
    u = u @ (1.5 * np.eye(n + 1) - 0.5 * (u.conj().swapaxes(-1, -2) @ u))
    g = np.append(np.exp(1j * np.angle(coupling)), 1.0)
    return _pulse_train(u * np.multiply.outer(g, g.conj()), tuple(pulse_phases)).reshape(
        grid + (n + 1, n + 1))


def scan_blocks(propagator):
    """A stand-in for the kernel's gate blocks that the scans take, running `propagator`.

    It calls `propagator` on the gate's pulse phases over the blocks that
    grid_chunks gives one slice on N + 1 levels, with the block's areas as a
    column and its detunings as a row: the calls the scans made before the
    kernel owned their loop.  A scan's areas are the same along each row of
    its grid.
    """
    def blocks(bright, seq, areas, detunings, shape, substeps):
        for rows, cols in grid_chunks(*areas.shape, np.size(bright) + 1, 1):
            yield rows, cols, propagator(bright, seq.pulse_phases, areas[rows, :1],
                                         detunings[None, cols], shape, substeps)
    return blocks


def use_reference(monkeypatch, module, propagator):
    """Put the reference `propagator` in the kernel's place in comphr.`module`.

    The scans of metrics take it through scan_blocks, and the gates of npod
    call it on the gate's pulse phases at their one point.
    """
    if module == "metrics":
        name, value = "_gate_blocks", scan_blocks(propagator)
    else:
        name = "_gate_propagator"

        def value(bright, seq, area, detuning, shape, substeps):
            return propagator(bright, seq.pulse_phases, area, detuning, shape, substeps)
    monkeypatch.setattr(importlib.import_module(f"comphr.{module}"), name, value)


#: The rectangular (N+1)-level runs of GOLDEN_CSV and GOLDEN_HR: (command,
#: module whose kernel the reference replaces, argv).
FULL_RUNS = {
    "scan-2d-full": ("scan-2d", "metrics", GOLDEN_CSV[2][0][1:]),
    "hr-readme": ("hr", "npod", GOLDEN_HR[0][1]),
}

#: sha256 of what those runs wrote with the matmul reference in the kernel's
#: place; until the eigenbasis train the CLI wrote the same bytes.
MATMUL_FULL = {
    "scan-2d-full": "c0f9c42253bd18a660a9da1b9b1104b9b52d3476c2482807a7d70931d1763161",
    "hr-readme": "7f679e4ad85063a519f8cea4bb2c20914a9d3afd3f40fb9533285e10806de53c",
}


def full_run_output(tmp_path, capsys, name):
    """What the run `name` of FULL_RUNS writes: the CSV text of a scan, hr's stdout."""
    command, _, argv = FULL_RUNS[name]
    if command == "hr":
        cfg = tmp_path / "sys.json"
        write_config(cfg, **HR_CONFIGS["readme"])
        code, out, err = run(capsys, "hr", "--config", str(cfg), *argv)
        assert (code, err) == (0, "")
        return out
    out = tmp_path / "scan.csv"
    code, _, _ = run(capsys, command, *argv, "--out", str(out))
    assert code == 0
    return out.read_text()


def use_matmul_path(monkeypatch, name):
    """Put the matmul reference in the kernel's place for the run `name` of FULL_RUNS."""
    use_reference(monkeypatch, FULL_RUNS[name][1], matmul_star_propagator)


@pytest.mark.parametrize("name", MATMUL_FULL)
def test_matmul_full_path_keeps_the_old_digests(tmp_path, capsys, monkeypatch, name):
    use_linspace_axes(monkeypatch)
    use_matmul_path(monkeypatch, name)
    text = full_run_output(tmp_path, capsys, name)
    assert hashlib.sha256(text.encode()).hexdigest() == MATMUL_FULL[name]


def computed_values(text, command):
    """The computed numbers of a run's output: a map's F column, hr's realized block and infidelity."""
    if command == "hr":
        doc = json.loads(text)
        return np.append(np.ravel(doc["actual"]), doc["infidelity"])
    return np.loadtxt(text.splitlines()[1:], delimiter=",")[:, 2]


@pytest.mark.parametrize("name", FULL_RUNS)
def test_full_runs_match_the_matmul_path(tmp_path, capsys, monkeypatch, name):
    command = FULL_RUNS[name][0]
    values = computed_values(full_run_output(tmp_path, capsys, name), command)
    use_matmul_path(monkeypatch, name)
    reference = computed_values(full_run_output(tmp_path, capsys, name), command)
    assert np.max(np.abs(values - reference)) <= 1e-13


#: sha256 of what hr printed on the Gaussian N = 3 config of GOLDEN_HR with
#: the slice-product reference in the kernel's place; until the slices of
#: shaped (N+1)-level pulses were summed as Taylor series the CLI printed the
#: same bytes.
SLICE_PRODUCT_HR = "57e4fe0c26385a3bed6cde0b0cfc27328664bf1e5b5dfcf76013dd18c8b412f6"


def shaped_hr_output(tmp_path, capsys):
    """What hr prints on the Gaussian N = 3 config of GOLDEN_HR, at 200 substeps."""
    config, argv, _ = GOLDEN_HR[2]
    cfg = tmp_path / "sys.json"
    write_config(cfg, **HR_CONFIGS[config])
    code, out, err = run(capsys, "hr", "--config", str(cfg), *argv)
    assert (code, err) == (0, "")
    return out


def use_slice_product_path(monkeypatch):
    """Put the shaped slice-product reference in the kernel's place for hr."""
    use_reference(monkeypatch, "npod", matmul_shaped_star_propagator)


def test_slice_product_path_keeps_the_old_shaped_hr_digest(tmp_path, capsys, monkeypatch):
    use_slice_product_path(monkeypatch)
    text = shaped_hr_output(tmp_path, capsys)
    assert hashlib.sha256(text.encode()).hexdigest() == SLICE_PRODUCT_HR


def test_shaped_hr_matches_the_slice_product_path(tmp_path, capsys, monkeypatch):
    values = computed_values(shaped_hr_output(tmp_path, capsys), "hr")
    use_slice_product_path(monkeypatch)
    reference = computed_values(shaped_hr_output(tmp_path, capsys), "hr")
    assert np.max(np.abs(values - reference)) <= 1e-13


#: sha256 of what the shortcut runs of GOLDEN_CSV wrote with the Cayley-Klein
#: reference in the kernel's place; until one-slice pulses of every N started
#: from the eigen-factors the CLI wrote the same bytes.
CAYLEY_KLEIN_CSV = {
    "scan-area": "2b33eeed3efc496ca66a7206e1d66260383bca5fd45bf418e23c3442f107bdc4",
    "scan-2d": "0c29d6c096982d195bff616e7905f0a7566c4af23664f12abcca6b8664cb40c4",
}


@pytest.mark.parametrize("name", sorted(CAYLEY_KLEIN_CSV))
def test_cayley_klein_shortcut_path_keeps_the_old_digests(tmp_path, capsys, monkeypatch, name):
    use_linspace_axes(monkeypatch)
    use_reference(monkeypatch, "metrics", cayley_klein_star_propagator)
    out = tmp_path / "scan.csv"
    code, _, _ = run(capsys, *SHORTCUT_SCANS[name][0], "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CAYLEY_KLEIN_CSV[name]


#: sha256 of what the shortcut runs of GOLDEN_CSV wrote with the flat
#: two-level train in the kernel's place; until a two-level gate ran its first
#: composite only, and read its frame from the eigen-phases, the CLI wrote the
#: same bytes.
FLAT_TRAIN_CSV = {
    "scan-area": "5858d9747016941c2b437f9e0804becde2f02eb3cb866e023b1094113cdd55f3",
    "scan-2d": "212964d8f76e56e7cc7d86275e7c9ed69d5168a6164c49b537d9c3681ed0317a",
}


@pytest.mark.parametrize("name", sorted(FLAT_TRAIN_CSV))
def test_flat_train_shortcut_path_keeps_the_old_digests(tmp_path, capsys, monkeypatch, name):
    use_linspace_axes(monkeypatch)
    use_reference(monkeypatch, "metrics", flat_two_level_star_propagator)
    out = tmp_path / "scan.csv"
    code, _, _ = run(capsys, *SHORTCUT_SCANS[name][0], "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FLAT_TRAIN_CSV[name]


#: sha256 of what hr printed on the Gaussian N = 3 config of GOLDEN_HR with
#: the Taylor-series reference in the kernel's place; until the slices of a
#: shaped (N+1)-level pulse were summed as one envelope polynomial per point
#: the CLI printed the same bytes.
SERIES_HR = "e1a64c64716cc4cbc2cd58a19cb399f3e9d448f55c539133a98f9a93caf9e43b"


def test_series_path_keeps_the_old_shaped_hr_digest(tmp_path, capsys, monkeypatch):
    use_reference(monkeypatch, "npod", series_star_propagator)
    text = shaped_hr_output(tmp_path, capsys)
    assert hashlib.sha256(text.encode()).hexdigest() == SERIES_HR


def test_shaped_hr_matches_the_series_path(tmp_path, capsys, monkeypatch):
    values = computed_values(shaped_hr_output(tmp_path, capsys), "hr")
    use_reference(monkeypatch, "npod", series_star_propagator)
    reference = computed_values(shaped_hr_output(tmp_path, capsys), "hr")
    assert np.max(np.abs(values - reference)) <= 1e-13


def linspace_values(axis):
    """ScanAxis.values as np.linspace on every range, as it was before symmetric ranges mirrored."""
    return np.linspace(axis.start, axis.stop, int(axis.points))


def use_linspace_axes(monkeypatch):
    """Give every ScanAxis the np.linspace values of the program an archived digest was taken by."""
    monkeypatch.setattr(ScanAxis, "values", linspace_values)


def gate_half_train(a, b, step, phases, shift, out):
    """The kernel's two-level train of a gate's first composite and its combine, the gate half.

    Row 0 (a, b) of the pulse at phase 0 and its frame step run through the
    first composite in Cayley-Klein form, and with q = g e^{is} the gate's
    row 0 is (x^2 - q |y|^2, y (x + q conj(x))) and its frame g^2.  Every
    product takes named operands and writes a new array.  The product is
    written into `out`, of shape (rows, cols, 2, 2).
    """
    x, y, g = a, b * np.exp(1j * phases[0]), step
    for p in phases[1:]:
        qg = b * np.exp(1j * p)
        qg = qg * g
        xc, yc = x.conj(), y.conj()
        x = a * x - qg * yc
        y = a * y + qg * xc
        del qg, xc, yc
        g = g * step
    xc, yc = x.conj(), y.conj()
    if shift is not None:
        q = g * np.exp(1j * shift)
        qx, qy = q * xc, q * yc
        sum_x = x + qx
        x, y = x * x - qy * y, y * sum_x
        del q, qx, qy, sum_x
        g = g * g
        xc, yc = x.conj(), y.conj()
    out[..., 0, 0], out[..., 0, 1] = x, y
    out[..., 1, 0], out[..., 1, 1] = -(g * yc), g * xc


def gate_half_blocks(bright, seq, areas, detunings, shape, substeps):
    """The kernel's gate blocks as they ran every two-level gate column, the reference of the mirror.

    The two-level branches of the kernel before a column was read from its
    mirrored partner: every column's first composite runs through
    gate_half_train on row 0 of a one-slice pulse's eigen-factors
    (_eigen_row), or of the closed-form slice product (_two_level_slices),
    which is rescaled to a unit row 0 once more after the train.  An
    (N+1)-level gate takes the kernel's blocks, whose (N+1)-level branches
    the mirror left as they were.
    """
    if np.size(bright) > 1:
        yield from composite._gate_blocks(bright, seq, areas, detunings, shape, substeps)
        return
    coupling = np.asarray(bright, dtype=complex).reshape(-1)
    coupling = coupling / float(np.linalg.norm(coupling))
    shift = math.pi + 0.5 * seq.alpha
    phases = tuple(float(p) for p in seq.pulse_phases)
    phases = phases[:len(phases) // 2]
    unit = shape.unit_integral()
    count = 1 if shape.kind == "rectangular" else int(substeps)
    envelope = _midpoint_samples(shape, count)
    for rows, cols in grid_chunks(*areas.shape, 2, count):
        with SERIAL_BLAS:
            t, det = areas[rows, cols] / unit, detunings[cols]
            block = np.empty((2, 2) + t.shape, dtype=complex).transpose(2, 3, 0, 1)
            if count == 1:
                h = _star_generators(coupling, envelope, det[:, None])[:, 0]
                v, phase = eigen_factors(h, t)
                row, step = _eigen_row(v, phase), phase[..., 0] * phase[..., 1]
            else:
                row = _two_level_slices(envelope, count, det, t)
                step = np.exp(-1j * (det * t))
            gate_half_train(*row, step, phases, shift, block)
            if count > 1:
                block /= np.linalg.norm(block[..., 0, :], axis=-1)[..., None, None]
        yield rows, cols, block


#: sha256 of what the map runs of GOLDEN_CSV wrote with the gate-half
#: reference in the kernel's place and np.linspace axes; until a two-level
#: gate column was read from its mirrored partner, and a range symmetric
#: about zero was made bit-symmetric, the CLI wrote the same bytes.
GATE_HALF_CSV = {
    "scan-2d": "ab577b7efe5c26b8568ffc55aeb7d46f1a3625785b3794e15744731ef7d0f875",
    "scan-2d-full": "a004621221a8adbfd171a3b28c7b7b9e93084d23b2068e403244467e6cbee3aa",
}


@pytest.mark.parametrize("name", sorted(GATE_HALF_CSV))
def test_gate_half_path_keeps_the_old_digests(tmp_path, capsys, monkeypatch, name):
    use_linspace_axes(monkeypatch)
    monkeypatch.setattr(metrics, "_gate_blocks", gate_half_blocks)
    argv = GOLDEN_CSV[["scan-area", "scan-2d", "scan-2d-full"].index(name)][0]
    out = tmp_path / "scan.csv"
    code, _, _ = run(capsys, *argv, "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GATE_HALF_CSV[name]


def test_scan_area_bad_n_list(tmp_path, capsys):
    code, _, err = run(capsys, "scan-area", "--n", "1,x", "--out",
                       str(tmp_path / "x.csv"))
    assert code == 2


def test_scan_unwritable_output_is_io_error(tmp_path, capsys):
    code, _, _ = run(capsys, "scan-area", "--n", "1", "--points", "5",
                     "--out", str(tmp_path / "missing_dir" / "x.csv"))
    assert code == 3


# --- scan-2d -------------------------------------------------------------------------

def test_scan_2d_csv(tmp_path, capsys):
    out = tmp_path / "map.csv"
    code, _, _ = run(capsys, "scan-2d", "--apoints", "5", "--dpoints", "5",
                     "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "A_over_pi,Delta_over_Omega,F"
    assert len(lines) == 26
    by_point = {(float(a), float(d)): float(f)
                for a, d, f in (line.split(",") for line in lines[1:])}
    assert by_point[(1.0, 0.0)] <= 1e-12


def test_scan_2d_full_mode_matches_default(tmp_path, capsys):
    fast = tmp_path / "fast.csv"
    full = tmp_path / "full.csv"
    base = ["scan-2d", "--apoints", "9", "--dpoints", "9"]
    code, _, _ = run(capsys, *base, "--out", str(fast))
    assert code == 0
    code, _, _ = run(capsys, *base, "--full", "--N", "3", "--seed", "7",
                     "--out", str(full))
    assert code == 0
    fast_rows = fast.read_text().splitlines()[1:]
    full_rows = full.read_text().splitlines()[1:]
    worst = 0.0
    for fr, lr in zip(fast_rows, full_rows):
        assert fr.rsplit(",", 1)[0] == lr.rsplit(",", 1)[0]
        worst = max(worst, abs(float(fr.rsplit(",", 1)[1]) - float(lr.rsplit(",", 1)[1])))
    assert worst <= 1e-9


def test_scan_2d_has_no_substeps_flag(tmp_path, capsys):
    out = tmp_path / "map.csv"
    code, _, _ = run(capsys, "scan-2d", "--full", "--substeps", "5", "--out", str(out))
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["scan-2d", "--apoints", "100000", "--dpoints", "100000"],
    ["scan-2d", "--full", "--N", "3", "--apoints", "1024", "--dpoints", "1025"],
    ["scan-area", "--points", str(2 ** 20 + 1)],
    ["scan-area", "--points", "1" + "0" * 400],  # too large for a float
    ["scan-2d", "--apoints", "1" + "0" * 400],
])
def test_oversized_grid_is_rejected_at_once(tmp_path, capsys, argv):
    out = tmp_path / "scan.csv"
    start = time.perf_counter()
    code, _, err = run(capsys, *argv, "--out", str(out))
    assert code == 2
    assert "at most 1048576 points" in err
    assert time.perf_counter() - start < 1.0
    assert not out.exists()


@pytest.mark.parametrize("shape, substeps", [
    ("rectangular", "-5"),
    ("rectangular", "0"),
    ({"kind": "gaussian"}, str(2 ** 20 + 1)),
    ({"kind": "gaussian"}, "1" + "0" * 400),  # too large for a float
], ids=["rectangular--5", "rectangular-0", "gaussian-2**20+1", "gaussian-10**400"])
def test_out_of_range_substeps_are_rejected_at_once(tmp_path, capsys, shape, substeps):
    # every envelope checks substeps; the largest count allowed, 2^20 Gaussian
    # slices, already takes seconds
    cfg, out = tmp_path / "sys.json", tmp_path / "out.json"
    write_config(cfg, shape=shape)
    start = time.perf_counter()
    code, _, err = run(capsys, "hr", "--config", str(cfg), "--substeps", substeps,
                       "--out", str(out))
    assert code == 2
    assert "substeps must be an integer from 1 to 1048576" in err
    assert time.perf_counter() - start < 1.0
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["hr", "--detuning", "1e308"],
    ["scan-2d", "--apoints", "2", "--dpoints", "2", "--dmin", "1e307", "--dmax", "1e308"],
], ids=["hr", "scan-2d"])
def test_overflowing_area_times_detuning_is_rejected(tmp_path, capsys, argv):
    # unchecked, both overflow in numpy and write NaN with exit 0
    out = tmp_path / "out"
    if argv[0] == "hr":
        write_config(tmp_path / "sys.json")
        argv = argv + ["--config", str(tmp_path / "sys.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, *argv, "--out", str(out))
    assert code == 2
    assert "overflow" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["scan-2d", "--amax", "1e308", "--apoints", "2", "--dpoints", "2"], "overflows"),
    (["scan-area", "--max", "1e308", "--points", "2"], "overflows"),
    (["scan-2d", "--dmin=-1e308", "--dmax", "1e308", "--apoints", "2", "--dpoints", "3"],
     "finite interval"),
], ids=["scan-2d-area", "scan-area", "scan-2d-detuning-span"])
def test_huge_scan_axis_is_rejected_without_warnings(tmp_path, capsys, argv, message):
    # unchecked, numpy overflows in the area conversion or in linspace and warns
    out = tmp_path / "scan.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, *argv, "--out", str(out))
    assert code == 2
    assert message in err
    assert not out.exists()


def test_huge_gaussian_truncation_is_rejected_without_warnings(tmp_path, capsys):
    # unchecked, the envelope overflows in its square and hr exits 0
    cfg, out = tmp_path / "sys.json", tmp_path / "out.json"
    write_config(cfg, shape={"kind": "gaussian", "truncation": 1e300})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "hr", "--config", str(cfg), "--out", str(out))
    assert code == 2
    assert "overflows the envelope" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["phases", "--n", "999999999"],
    ["scan-area", "--n", "1,1001"],
    ["scan-2d", "--family", "bb", "--n", "1001"],
    ["scan-2d", "--full", "--N", "100000"],
    ["scan-2d", "--full", "--seed", "-1"],
])
def test_out_of_range_order_system_or_seed_is_validation_error(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    if argv[0] != "phases":
        argv = argv + ["--out", str(out)]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")
    assert not out.exists()


def test_unknown_command_exits_2(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 2
