"""Property tests: whatever the argv or config document, the CLI exits 0, 2 or 3.

Grids stay within 6x6, substeps within 20 and systems within N = 4, so every
example runs in milliseconds.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from comphr.cli import main

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

JUNK = st.one_of(st.text(max_size=6), st.floats().map(repr))


def mostly(valid, junk=JUNK):
    """Values from `valid` seven times in eight, from `junk` otherwise."""
    return st.sampled_from(range(8)).flatmap(lambda k: junk if k == 7 else valid)


def ints(valid, edges):
    """Integer flag values: mostly from `valid`, else out-of-range `edges` or junk."""
    return mostly(st.sampled_from(valid), st.one_of(st.sampled_from(edges), JUNK)).map(str)


#: An integer flag value too large for a float.
HUGE = "1" + "0" * 400

ANGLES = mostly(st.one_of(st.sampled_from(["pi", "pi/2", "0.75pi", "-pi/3", "2pi", "pi/0"]),
                          st.floats(-10.0, 10.0).map(repr)))
FLOATS = mostly(st.floats(-3.0, 3.0).map(repr))
ORDERS = ints([1, 3, 5, 7, 9], [-3, 0, 4, 1001, 999999999, HUGE])
VARIANTS = ints([1, 2], [0, 3, HUGE])
FAMILIES = mostly(st.sampled_from(["bb", "universal"]), st.just("narrowband"))

#: Optional flags of each command with their values, besides the family
#: flags.  Grid sizes and substeps are always given (the defaults are
#: 101x101 and 1000).
FLAGS = {
    "phases": {},
    "hr": {"--area": ANGLES, "--detuning": FLOATS},
    "scan-area": {"--phi": ANGLES, "--min": FLOATS, "--max": FLOATS},
    "scan-2d": {"--phi": ANGLES, "--amin": FLOATS, "--amax": FLOATS,
                "--dmin": FLOATS, "--dmax": FLOATS,
                "--N": ints([1, 2, 3, 4], [-1, 0, 100000, HUGE]),
                "--seed": ints([0, 7, 2 ** 70], [-2, -1])},
}
#: The orders of each (family, variant) that name a phase list; bb ignores the variant.
NAMED_ORDERS = {("bb", 1): [1, 3, 5, 9], ("universal", 1): [3, 5, 7], ("universal", 2): [5, 7]}
#: Grid sizes: a valid size or an edge, with no junk (argparse rejects junk
#: before comphr sees it).  An out-of-range size must exit 2 before any
#: work.  Hypothesis favours early entries, so HUGE comes first: a float
#: conversion of the count ahead of its bounds check then fails within the
#: 150 examples.
POINTS = st.one_of(st.sampled_from([2, 3, 6]), st.sampled_from([HUGE, "-" + HUGE, 0, 1])).map(str)
SUBSTEPS = ints([1, 7, 20], [0, -1, HUGE])
SWITCHES = {"hr": "--dump-config", "scan-2d": "--full"}

JSON_JUNK = st.one_of(st.floats(), st.booleans(), st.none(), st.text(max_size=6),
                     st.lists(st.integers(-3, 3), max_size=2))


def mostly_json(valid):
    return mostly(valid, JSON_JUNK)


SAMPLES = st.one_of(
    st.sampled_from([[[0, 0], [0.5, 1], [1, 0]], [[0, 1], [2, 1]], [[-1e308, 0], [1e308, 1]]]),
    st.lists(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2), min_size=2, max_size=4))
SHAPES = mostly_json(st.one_of(
    st.just("rectangular"),
    st.fixed_dictionaries({"kind": st.just("gaussian")},
                          optional={"truncation": mostly_json(st.floats(0.1, 5.0))}),
    st.fixed_dictionaries({"kind": st.just("tabulated"), "samples": mostly_json(SAMPLES)}),
))
FAMILY_DOCS = mostly_json(st.fixed_dictionaries(
    {"family": FAMILIES,
     "n": mostly_json(st.sampled_from([1, 3, 5, 7, 9, 4, 1001, 999999999]))},
    optional={"variant": mostly_json(st.sampled_from([1, 2, 3]))}))
CONFIGS = mostly_json(st.fixed_dictionaries(
    {"couplings": mostly_json(st.lists(st.floats(0.0, 3.0), min_size=1, max_size=4)),
     "family": FAMILY_DOCS},
    optional={"coupling_phases": mostly_json(st.lists(st.floats(-2.0, 2.0), max_size=4)),
              "shape": SHAPES,
              "detuning": mostly_json(st.floats(-3.0, 3.0)),
              "hr_phase": mostly_json(st.floats(-2.0, 2.0))}))


def write_config(path, doc) -> str:
    path.write_text(json.dumps(doc))  # json writes NaN and Infinity literals
    return str(path)


@st.composite
def family_flags(draw, order_list: bool):
    """--family, --n and --variant: a named phase list seven times in eight.

    Otherwise each of the three is given or left out on its own, with junk
    and out-of-range values.  A named list is drawn this often because an
    invalid --n/--variant pair (scan-2d defaults to --family universal)
    exits 2 before the grid and the kernel see any input.  `order_list`
    draws --n as a comma-separated list of orders, as scan-area takes it.
    """
    if draw(st.sampled_from(range(8))) == 7:
        orders = st.lists(ORDERS, max_size=3).map(",".join) if order_list else ORDERS
        return {flag: values for flag, values in
                (("--family", FAMILIES), ("--n", orders), ("--variant", VARIANTS))
                if draw(st.booleans())}
    family, variant = draw(st.sampled_from(sorted(NAMED_ORDERS)))
    orders = st.sampled_from(NAMED_ORDERS[family, variant]).map(str)
    if order_list:
        orders = st.lists(orders, min_size=1, max_size=3).map(",".join)
    return {"--family": st.just(family), "--n": orders, "--variant": st.just(str(variant))}


@st.composite
def argvs(draw, tmp_path):
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = {flag: values for flag, values in FLAGS[command].items() if draw(st.booleans())}
    if command != "hr":
        flags.update(draw(family_flags(order_list=command == "scan-area")))
    if command == "phases":
        flags.setdefault("--n", ORDERS)
    if command == "hr":
        flags["--config"] = CONFIGS.map(lambda doc: write_config(tmp_path / "sys.json", doc))
        flags["--substeps"] = SUBSTEPS
    if command == "scan-area":
        flags["--points"] = POINTS
    if command == "scan-2d":
        flags.update({"--apoints": POINTS, "--dpoints": POINTS})
    if command in ("scan-area", "scan-2d") or (command == "hr" and draw(st.booleans())):
        # a file in a missing directory is an I/O error, exit 3
        flags["--out"] = st.sampled_from([tmp_path / "out", tmp_path / "missing" / "out"])
    # --flag=value keeps values such as "-pi/3" from reading as flags
    argv = [command] + [f"{flag}={draw(values)}" for flag, values in flags.items()]
    if command in SWITCHES and draw(st.booleans()):
        argv.append(SWITCHES[command])
    return argv


@SETTINGS
@given(data=st.data())
def test_any_argv_exits_0_2_or_3(tmp_path, data):
    argv = data.draw(argvs(tmp_path))
    assert main(argv) in (0, 2, 3)


def reject_constant(name):
    raise AssertionError(f"the result holds {name}")


@SETTINGS
@given(doc=CONFIGS, area=ANGLES, substeps=st.integers(1, 20))
def test_any_hr_config_exits_0_2_or_3(tmp_path, doc, area, substeps):
    cfg = write_config(tmp_path / "sys.json", doc)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["hr", "--config", cfg, f"--area={area}", f"--substeps={substeps}"])
    assert code in (0, 2, 3)
    if code == 0:  # a result is strict JSON: no NaN or Infinity
        json.loads(stdout.getvalue(), parse_constant=reject_constant)

