"""The comparison of benchmarks/artifacts.py: what differs between two runs."""

import importlib.util
from pathlib import Path

import pytest

ARTIFACTS = Path(__file__).resolve().parent.parent / "benchmarks" / "artifacts.py"


@pytest.fixture(scope="module")
def artifacts():
    spec = importlib.util.spec_from_file_location("artifacts", ARTIFACTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(exit=0, stdout="ok\n", stderr="", files=None):
    return {"exit": exit, "stdout": stdout, "stderr": stderr,
            "files": {"a.json": "1" * 64, "b.csv": "2" * 64} if files is None else files}


def test_equal_runs_differ_in_nothing(artifacts):
    assert artifacts.differences(record(), record()) == []


def test_streams_and_exit_code_are_named(artifacts):
    diff = artifacts.differences(record(), record(exit=2, stdout="", stderr="error\n"))
    assert diff == ["exit", "stdout", "stderr"]


def test_a_changed_missing_or_extra_file_is_named(artifacts):
    parent = record(files={"a.json": "1" * 64, "b.csv": "2" * 64, "gone.csv": "3" * 64})
    change = record(files={"a.json": "1" * 64, "b.csv": "f" * 64, "new.json": "4" * 64})
    assert artifacts.differences(parent, change) == ["b.csv", "gone.csv", "new.json"]


def test_every_case_is_a_cli_command_on_a_shipped_config(artifacts):
    root = ARTIFACTS.parent.parent
    for name, argv in artifacts.CASES.items():
        assert argv[0] in ("run", "montecarlo", "gp-train", "bounds"), name
        assert (root / argv[1]).is_file(), name
