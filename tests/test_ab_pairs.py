"""tools/ab_pairs.py calls a gain only when the change wins at least 9 of
10 pairs and its median beats the parent's by more than the parent's
interquartile range."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [80.0, 82.0, 78.0, 81.0, 79.0, 80.0, 83.0, 77.0, 80.0, 81.0]


def test_a_clear_gain_holds():
    change = [value - 8 for value in PARENT]
    result = _tool().verdict(PARENT, change, "lower")
    assert result["wins"] == 10 and result["pairs"] == 10
    assert result["parent"][1] == 80.0 and result["change"][1] == 72.0
    assert result["relative"] == pytest.approx(-0.1)
    assert result["gain_holds"]


def test_eight_wins_of_ten_are_not_enough():
    change = [value - 8 for value in PARENT[:8]] + PARENT[8:]
    result = _tool().verdict(PARENT, change, "lower")
    assert result["wins"] == 8  # the two ties count for neither side
    assert not result["gain_holds"]


def test_a_gap_inside_the_parent_spread_is_not_a_gain():
    change = [value - 1 for value in PARENT]
    result = _tool().verdict(PARENT, change, "lower")
    q1, _, q3 = result["parent"]
    assert result["wins"] == 10 and q3 - q1 > 1
    assert not result["gain_holds"]


def test_direction_comes_from_better():
    lower = [value - 8 for value in PARENT]
    assert not _tool().verdict(PARENT, lower, "higher")["gain_holds"]
    higher = [value + 8 for value in PARENT]
    result = _tool().verdict(PARENT, higher, "higher")
    assert result["wins"] == 10 and result["gain_holds"]


def test_benchmark_declares_every_direction():
    directions, seconds = _tool().declared(TOOL.parent.parent)
    assert set(directions.values()) <= {"lower", "higher"}
    assert "wall_rel" in directions and seconds > 0
