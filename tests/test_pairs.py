"""The claim gate of benchmarks/pairs.py: pairs won, quartiles, the IQR test."""

import importlib.util
from pathlib import Path

import pytest

PAIRS = Path(__file__).resolve().parent.parent / "benchmarks" / "pairs.py"


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("pairs", PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_side_takes_inclusive_quartiles(pairs):
    odd = pairs.side([5.0, 1.0, 3.0, 2.0, 4.0])
    assert (odd["q1"], odd["median"], odd["q3"]) == (2.0, 3.0, 4.0)
    # inclusive: the quartiles interpolate at (n - 1) / 4 and 3 (n - 1) / 4
    even = pairs.side([1.0, 2.0, 3.0, 4.0])
    assert (even["q1"], even["median"], even["q3"]) == (1.75, 2.5, 3.25)
    assert even["runs"] == [1.0, 2.0, 3.0, 4.0]


def test_ties_count_for_neither_side(pairs):
    result = pairs.compare("s", "lower", [1.0, 2.0, 3.0], [1.0, 1.5, 3.5])
    assert result["pairs_change_better"] == "1/3"
    result = pairs.compare("s", "lower", [1.0, 2.0], [1.0, 2.0])
    assert result["pairs_change_better"] == "0/2"
    assert not result["median_better_by_more_than_parent_iqr"]


def test_higher_is_better_flips_the_direction(pairs):
    parent, change = [1.0, 1.0, 1.0, 1.0], [0.9, 0.9, 0.9, 1.0]
    lower = pairs.compare("ratio", "lower", parent, change)
    higher = pairs.compare("ratio", "higher", parent, change)
    assert (lower["pairs_change_better"], higher["pairs_change_better"]) == ("3/4", "0/4")
    assert lower["median_better_by_more_than_parent_iqr"]
    assert not higher["median_better_by_more_than_parent_iqr"]
    up = pairs.compare("ratio", "higher", change, parent)
    assert up["pairs_change_better"] == "3/4"
    assert up["median_better_by_more_than_parent_iqr"]


@pytest.mark.parametrize(
    "change, beyond_iqr",
    [
        ([9.0, 9.5, 10.5, 11.0, 11.5], False),  # median better by 1.5, IQR 2
        ([9.0, 9.5, 10.0, 11.0, 11.5], False),  # better by exactly the IQR
        ([8.5, 9.0, 9.9, 10.0, 10.5], True),  # better by 2.1
        ([12.5, 13.0, 14.5, 15.0, 15.5], False),  # worse
    ],
)
def test_median_must_beat_the_parent_iqr(pairs, change, beyond_iqr):
    parent = [14.0, 10.0, 13.0, 11.0, 12.0]  # q1 11, median 12, q3 13
    result = pairs.compare("s", "lower", parent, change)
    assert (result["parent"]["q1"], result["parent"]["q3"]) == (11.0, 13.0)
    assert result["median_better_by_more_than_parent_iqr"] is beyond_iqr
    assert result["change_over_parent"] == result["change"]["median"] / 12.0


def test_zero_parent_median_has_no_ratio(pairs):
    assert pairs.compare("count", "lower", [0.0, 0.0], [0.0, 0.0])["change_over_parent"] is None
