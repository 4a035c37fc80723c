"""A smoke run of benchmarks/closed_loop_order.py on a tiny grid."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "closed_loop_order.py"


def test_main_prints_a_header_and_one_row_per_start(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("closed_loop_order", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # every step divides the grid spacing, and the grid the horizon
    monkeypatch.setattr(module, "STEPS", [2e-3, 1e-3])
    monkeypatch.setattr(module, "REFERENCE_STEP", 5e-4)
    monkeypatch.setattr(module, "GRID", 4e-3)
    monkeypatch.setattr(module, "T_END", 8e-3)
    module.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "| x0 | method | h = 0.002 | h = 0.001 | observed order |"
    assert len(lines) == 3 + len(module.STARTS)
    for line, x0 in zip(lines[3:], module.STARTS):
        assert line.startswith(f"| {x0} | euler | ")
