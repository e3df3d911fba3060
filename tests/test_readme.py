"""The README's Python examples run as written and print what their comments say."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL)


def test_readme_examples_print_the_stated_values(tmp_path, monkeypatch, capsys):
    blocks = python_blocks()
    assert len(blocks) == 3
    # the values below are the ones the comments state
    assert "# (0.6, 0.8i)" in blocks[0]
    assert "# 2*cos^6(0.45*pi) ~ 2.93e-5" in blocks[0]
    assert "# 0.9657...: not a full inversion" in blocks[1]

    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:  # later blocks use the names of earlier ones
        exec(compile(block, str(README), "exec"), namespace)
    printed = capsys.readouterr().out.split()

    assert np.max(np.abs(namespace["v"] - np.array([0.6, 0.8j]))) <= 1e-15
    infidelity = float(printed[0])
    assert infidelity == pytest.approx(2.0 * math.cos(0.45 * math.pi) ** 6, rel=1e-9)
    assert f"{infidelity:.2e}" == "2.93e-05"
    assert f"{float(printed[1]):.4f}" == "0.9657"
    assert len(printed) == 2
    assert len((tmp_path / "map.csv").read_text().splitlines()) == 1 + 41 * 41


def test_readme_builds_a_unitary_from_composite_reflections(tmp_path, monkeypatch, capsys):
    # the synthesis lines end the first block; a single pulse in place of
    # the composite gives the other error the comment states
    monkeypatch.chdir(tmp_path)
    block = python_blocks()[0]
    assert "# 1.2e-7 at 2% area error; bb_phases(1): 3.0e-3" in block
    errors = []
    for family in ("universal_phases(5, 2)", "bb_phases(1)"):
        namespace = {}
        exec(compile(block.replace("universal_phases(5, 2)", family), str(README), "exec"), namespace)
        errors.append(f"{namespace['gate_error']:.1e}")
    assert errors == ["1.2e-07", "3.0e-03"]
