"""CLI behaviour: flags, exit codes, file formats, determinism."""

import json
import math

import numpy as np
import pytest

from comphr import bb_phases, composite_phase_gate
from comphr.cli import main, parse_angle

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
    assert complex(re, im) == pytest.approx(gate.a, abs=1e-12)


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


def test_unknown_command_exits_2(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 2
