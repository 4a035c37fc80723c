"""scipy's linear algebra and distance modules load with the GP layer only.

Each case runs one CLI command in a fresh interpreter and reports whether
``scipy.linalg`` or ``scipy.spatial`` is in ``sys.modules`` afterwards: the
known-model and open-loop commands must leave them out, the gp-based run and
``gp-train`` must load them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fxtsmc

SRC = Path(fxtsmc.__file__).resolve().parent.parent
CONFIG_DIR = SRC.parent / "configs"
KNOWN = str(CONFIG_DIR / "pmsm-known.json")
GP = str(CONFIG_DIR / "pmsm-gp.json")
SHORT = ["--set", "sim.step_size=1e-3", "--set", "sim.t_end=0.05"]

SCRIPT = """
import json, sys
argv = json.loads(sys.argv[1])
if argv is None:
    import fxtsmc, fxtsmc.cli
    code = 0
else:
    from fxtsmc.cli import main
    code = main(argv)
print(json.dumps([code, [m for m in ("scipy.linalg", "scipy.spatial") if m in sys.modules]]))
"""


def loaded_after(argv, cwd):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(argv)],
        cwd=cwd, capture_output=True, text=True, env=env, check=True,
    )
    code, loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert code == 0, proc.stdout + proc.stderr
    return loaded


@pytest.mark.parametrize(
    "argv",
    [
        None,
        ["validate", KNOWN],
        ["bounds", KNOWN],
        ["run", KNOWN, *SHORT],
        ["run", str(CONFIG_DIR / "lemma2.json"), *SHORT],
        ["montecarlo", KNOWN, "--runs", "2", "--ic-box=-1,1", *SHORT],
    ],
    ids=["import", "validate", "bounds", "run-known", "run-open-loop", "montecarlo"],
)
def test_known_model_commands_do_not_load_scipy_linalg_or_spatial(argv, tmp_path):
    assert loaded_after(argv, tmp_path) == []


@pytest.mark.parametrize(
    "argv",
    [["run", GP, *SHORT], ["gp-train", GP, "-n", "20"]],
    ids=["run-gp", "gp-train"],
)
def test_gp_commands_load_scipy_linalg_and_spatial(argv, tmp_path):
    assert loaded_after(argv, tmp_path) == ["scipy.linalg", "scipy.spatial"]
