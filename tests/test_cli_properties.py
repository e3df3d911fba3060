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


ANGLES = mostly(st.one_of(st.sampled_from(["pi", "pi/2", "0.75pi", "-pi/3", "2pi", "pi/0"]),
                          st.floats(-10.0, 10.0).map(repr)))
FLOATS = mostly(st.floats(-3.0, 3.0).map(repr))
ORDERS = ints([1, 3, 5, 7, 9], [-3, 0, 4, 1001, 999999999])
VARIANTS = ints([1, 2], [0, 3])
FAMILIES = mostly(st.sampled_from(["bb", "universal"]), st.just("narrowband"))

#: Optional flags of each command with their values.  Grid sizes and substeps
#: are always given (the defaults are 101x101 and 1000).
FLAGS = {
    "phases": {"--family": FAMILIES, "--variant": VARIANTS},
    "hr": {"--area": ANGLES, "--detuning": FLOATS},
    "scan-area": {"--family": FAMILIES, "--n": st.lists(ORDERS, max_size=3).map(",".join),
                  "--variant": VARIANTS, "--phi": ANGLES, "--min": FLOATS, "--max": FLOATS},
    "scan-2d": {"--family": FAMILIES, "--n": ORDERS, "--variant": VARIANTS,
                "--phi": ANGLES, "--amin": FLOATS, "--amax": FLOATS,
                "--dmin": FLOATS, "--dmax": FLOATS, "--N": ints([1, 2, 3, 4], [-1, 0, 100000]),
                "--seed": ints([0, 7, 2 ** 70], [-2, -1])},
}
POINTS = ints([2, 3, 6], [0, 1])
SUBSTEPS = ints([1, 7, 20], [0, -1])
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
def argvs(draw, tmp_path):
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = {flag: values for flag, values in FLAGS[command].items() if draw(st.booleans())}
    if command == "phases":
        flags["--n"] = ORDERS
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

