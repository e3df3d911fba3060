"""Command-line front end: phase tables, single reflections, robustness scans.

Exit codes: 0 success, 2 validation error (bad flags or config), 3 I/O error.
Angles on the command line accept ``pi`` literals (``pi``, ``pi/2``,
``0.75pi``, ``-pi/3``) or plain decimals in radians.  All numeric output
carries 17 significant digits and identical invocations produce byte-identical
files.

This module owns the JSON config document of ``hr``: it alone reads and
writes it.  The document holds the couplings, the shape, the detuning and the
phase family; its angles (coupling phases and ``hr_phase``) are in units of pi.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from .composite import BROADBAND, UNIVERSAL, PhaseList, bb_phases, universal_phases
from .errors import ValidationError
from .metrics import (
    AXIS_AREA,
    AXIS_DETUNING,
    ScanAxis,
    ScanGrid,
    _NUMBER,
    infidelity,
    scan_2d,
    scan_area,
)
from .npod import HouseholderTarget, NPodSystem, composite_hr, householder_matrix, random_system
from .two_level import GAUSSIAN, RECTANGULAR, TABULATED, PulseShape, gaussian, tabulated

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3

_ANGLE_RE = re.compile(
    r"^\s*([+-]?)(\d+(?:\.\d*)?|\.\d+)?\s*pi\s*(?:/\s*(\d+(?:\.\d*)?|\.\d+))?\s*$",
    re.IGNORECASE,
)


def parse_angle(text) -> float:
    """Angle in radians from 'pi', 'pi/2', '1.5pi', '-pi/3' or a plain decimal."""
    if isinstance(text, (int, float)):
        return float(text)
    s = str(text).strip()
    m = _ANGLE_RE.match(s)
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        coeff = float(m.group(2)) if m.group(2) else 1.0
        den = float(m.group(3)) if m.group(3) else 1.0
        if den == 0.0:
            raise ValidationError("angle denominator must be nonzero")
        return sign * coeff * math.pi / den
    try:
        return float(s)
    except ValueError:
        raise ValidationError(
            f"cannot parse angle {text!r}; use e.g. 'pi', 'pi/2', '0.75pi' or radians"
        ) from None


def _matrix_json(m) -> list:
    """Complex matrix as nested [re, im] pairs."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _parse_n_list(text: str) -> list[int]:
    try:
        return [int(part) for part in str(text).split(",") if part.strip() != ""]
    except ValueError:
        raise ValidationError(f"cannot parse order list {text!r}; use e.g. '1,3,5,9'") from None


def _families(kind: str, orders: list[int], variant: int) -> list[PhaseList]:
    if len(orders) == 0:
        raise ValidationError("at least one composite order is required")
    if kind == BROADBAND:
        return [bb_phases(n) for n in orders]
    return [universal_phases(n, variant) for n in orders]


def _load_config(path: str) -> dict:
    with open(path, "rb") as f:
        data = f.read()
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"malformed JSON config {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"config {path} must hold a JSON object")
    return doc


def _number(value, name: str) -> float:
    """A finite JSON number as a float; strings, bools, NaN and infinities are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return number


def _integer(value, name: str) -> int:
    """An integral JSON number (3 or 3.0, not 3.7, "3" or true) as an int."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    number = _number(value, name)
    if not number.is_integer():
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(number)


def _numbers(value, name: str) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise ValidationError(f"{name} must be a list of numbers")
    return tuple(_number(x, name) for x in value)


def _parse_family(doc) -> PhaseList:
    """{"family": "bb", "n": 3} or {"family": "universal", "n": 5, "variant": 2}."""
    if not isinstance(doc, dict) or "family" not in doc or "n" not in doc:
        raise ValidationError("family descriptor needs 'family' and 'n' keys")
    n = _integer(doc["n"], "family order n")
    if doc["family"] == BROADBAND:
        return bb_phases(n)
    if doc["family"] == UNIVERSAL:
        return universal_phases(n, _integer(doc.get("variant", 1), "family variant"))
    raise ValidationError(f"unknown phase family {doc['family']!r}")


def _parse_shape(doc) -> PulseShape:
    """"rectangular", {"kind": "gaussian", "truncation": c} or {"kind": "tabulated", ...}."""
    if isinstance(doc, str):
        doc = {"kind": doc}
    elif not isinstance(doc, dict):
        raise ValidationError("shape must be a string or an object with a 'kind'")
    if doc.get("kind") == GAUSSIAN:
        return gaussian(_number(doc.get("truncation", 3.0), "gaussian truncation"))
    if doc.get("kind") == TABULATED:
        samples = doc.get("samples")
        if not isinstance(samples, list) or not all(
                isinstance(s, list) and len(s) == 2 for s in samples):
            raise ValidationError("tabulated shape needs a 'samples' list of [t, f] pairs")
        return tabulated([[_number(x, "tabulated sample") for x in s] for s in samples])
    return PulseShape(doc.get("kind"))  # rectangular, or rejected as an unknown kind


def _parse_config(doc) -> tuple[NPodSystem, HouseholderTarget, PhaseList]:
    """The system, its reflection target and the phase family of an hr config document."""
    if "family" not in doc:
        raise ValidationError("config needs a 'family' descriptor")
    family = _parse_family(doc["family"])
    if "couplings" not in doc:
        raise ValidationError("configuration needs a 'couplings' list")
    couplings = _numbers(doc["couplings"], "couplings")
    phases = _numbers(doc.get("coupling_phases", [0.0] * len(couplings)), "coupling_phases")
    shape = _parse_shape(doc.get("shape", RECTANGULAR))
    detuning = _number(doc.get("detuning", 0.0), "detuning")
    hr_phase = _number(doc.get("hr_phase", 1.0), "hr_phase") * math.pi
    system = NPodSystem(couplings, tuple(b * math.pi for b in phases), shape, detuning)
    return system, HouseholderTarget(system.bright, hr_phase), family


def _config_doc(system: NPodSystem, hr_phase: float, family: PhaseList) -> dict:
    """The normalized hr config document, which parses back to the same run."""
    shape = system.shape
    if shape.kind == GAUSSIAN:
        shape_doc = {"kind": GAUSSIAN, "truncation": shape.truncation}
    elif shape.kind == TABULATED:
        shape_doc = {"kind": TABULATED, "samples": [list(s) for s in shape.samples]}
    else:
        shape_doc = RECTANGULAR
    family_doc = {"family": family.family, "n": family.n}
    if family.family == UNIVERSAL:
        family_doc["variant"] = family.variant
    return {
        "couplings": list(system.couplings),
        "coupling_phases": [b / math.pi for b in system.coupling_phases],
        "shape": shape_doc,
        "detuning": system.detuning,
        "hr_phase": hr_phase / math.pi,
        "family": family_doc,
    }


def _write_text(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)


def cmd_phases(args) -> int:
    family = _families(args.family, [args.n], args.variant)[0]
    print(f"{family.pi_string()} (×π)")
    print(", ".join(map(_NUMBER.format, family.phases)) + " (rad)")
    return EXIT_OK


def cmd_hr(args) -> int:
    system, target, family = _parse_config(_load_config(args.config))
    normalized = _config_doc(system, target.hr_phase, family)
    if args.dump_config:
        print(json.dumps(normalized, indent=2, sort_keys=True))
        return EXIT_OK
    area = parse_angle(args.area)
    detuning = system.detuning if args.detuning is None else args.detuning
    actual = composite_hr(system, family, target.hr_phase, area, detuning, args.substeps)
    wanted = householder_matrix(target)
    out_doc = {
        "config": normalized,
        "area_over_pi": area / math.pi,
        "detuning_over_omega": detuning,
        "infidelity": infidelity(actual, wanted),
        "actual": _matrix_json(actual),
        "target": _matrix_json(wanted),
    }
    _write_text(args.out, json.dumps(out_doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_scan_area(args) -> int:
    families = _families(args.family, _parse_n_list(args.n), args.variant)
    phi = parse_angle(args.phi)
    grid = ScanGrid(ScanAxis(AXIS_AREA, args.min, args.max, args.points))
    result = scan_area(families, phi, grid)
    result.to_csv(args.out)
    return EXIT_OK


def cmd_scan_2d(args) -> int:
    family = _families(args.family, [args.n], args.variant)[0]
    phi = parse_angle(args.phi)
    grid = ScanGrid(ScanAxis(AXIS_AREA, args.amin, args.amax, args.apoints),
                    ScanAxis(AXIS_DETUNING, args.dmin, args.dmax, args.dpoints))
    system = random_system(args.N, args.seed) if args.full else None
    scan_2d(family, phi, grid, system=system).to_csv(args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="comphr",
        description="Composite-pulse Householder reflections: phase tables, "
                    "gate simulation, robustness scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phases", help="print a composite phase list")
    p.add_argument("--family", choices=[BROADBAND, UNIVERSAL], default=BROADBAND)
    p.add_argument("--n", type=int, required=True, help="number of pulses per composite")
    p.add_argument("--variant", type=int, default=1, help="universal solution index")
    p.set_defaults(func=cmd_phases)

    p = sub.add_parser("hr", help="simulate one composite reflection from a JSON config")
    p.add_argument("--config", required=True, help="JSON config path")
    p.add_argument("--area", default="pi", help="per-pulse rms area (angle syntax)")
    p.add_argument("--detuning", type=float, default=None,
                   help="detuning in units of the rms Rabi frequency (default: config value)")
    p.add_argument("--out", default=None, help="output JSON path (default: stdout)")
    p.add_argument("--substeps", type=int, default=1000,
                   help="slices per pulse for non-rectangular envelopes")
    p.add_argument("--dump-config", action="store_true",
                   help="echo the normalized config document and exit")
    p.set_defaults(func=cmd_hr)

    p = sub.add_parser("scan-area", help="resonant infidelity vs rms pulse area (CSV)")
    p.add_argument("--family", choices=[BROADBAND, UNIVERSAL], default=BROADBAND)
    p.add_argument("--n", default="1,3,5,9", help="comma-separated composite orders")
    p.add_argument("--variant", type=int, default=1)
    p.add_argument("--phi", default="pi", help="reflection phase (angle syntax)")
    p.add_argument("--min", type=float, default=0.0, help="area range start, units of pi")
    p.add_argument("--max", type=float, default=2.0, help="area range end, units of pi")
    p.add_argument("--points", type=int, default=161)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_scan_area)

    p = sub.add_parser("scan-2d", help="infidelity map vs (area, detuning) (CSV)")
    p.add_argument("--family", choices=[BROADBAND, UNIVERSAL], default=UNIVERSAL)
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--variant", type=int, default=2)
    p.add_argument("--phi", default="pi", help="reflection phase (angle syntax)")
    p.add_argument("--amin", type=float, default=0.0)
    p.add_argument("--amax", type=float, default=2.0)
    p.add_argument("--apoints", type=int, default=101)
    p.add_argument("--dmin", type=float, default=-2.0)
    p.add_argument("--dmax", type=float, default=2.0)
    p.add_argument("--dpoints", type=int, default=101)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--full", action="store_true",
                   help="propagate the full (N+1)-level system per grid point (cross-check)")
    p.add_argument("--N", type=int, default=3, help="manifold dimension for --full")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the random reflection vector in --full mode")
    p.set_defaults(func=cmd_scan_2d)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
