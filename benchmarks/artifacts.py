"""Byte-compare the CLI's outputs of two checkouts over a fixed list of cases.

    python3 benchmarks/artifacts.py --parent ../fxtsmc-parent --change .

Each case runs ``python3 -m fxtsmc.cli ARGS`` once per checkout, against that
checkout's ``src/`` and a copy of its ``configs/`` in a fresh temporary
directory, one process at a time with BLAS pinned to one thread. It prints,
per case, whether the exit code, stdout, stderr and the sha256 of every file
the case wrote are the same in both checkouts, and names what differs. The
exit status is 0 when every case matches and 1 otherwise.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

KNOWN, GP, LEMMA2 = "configs/pmsm-known.json", "configs/pmsm-gp.json", "configs/lemma2.json"
SINUSOID = ['--set', 'reference={"kind": "sinusoid", "amplitude": [1.0, 0.5, 0.2], '
            '"frequency": [3.0, 2.0, 1.0], "phase": [0.0, 0.3, 0.6]}']
COARSE = ["--set", "sim.step_size=1e-3", "--set", "sim.t_end=1.0"]

CASES = {
    # euler plain steps all along, with the full CSV export
    "run-known": ["run", KNOWN],
    # the GP drift estimate and the variance audit of the gp-based bound
    "run-gp": ["run", GP],
    # open loop without a surface: the guard on the z rate alone
    "run-lemma2": ["run", LEMMA2],
    # euler substeps at t = 0, each on local times the sinusoid sees
    "run-euler-far-sinusoid": ["run", KNOWN, "--x0=40,-40,40", *COARSE, *SINUSOID],
    # a batch of plain steps only
    "mc-known-near": ["montecarlo", KNOWN, "--runs", "20", "--ic-box=-1,1", "--seed", "3",
                      "--set", "sim.t_end=1.0"],
    # the benchmark's far box: about 35 backward-Euler substeps per run at
    # t = 0, where explicit substeps alone took tens of thousands
    "mc-known-far": ["montecarlo", KNOWN, "--runs", "4", "--seed", "7",
                     "--ic-box=-1e5,1e5;-1e5,1e5;9.9e4,1e5", "--set", "sim.t_end=1.0"],
    # the scale where the backward-Euler root solves take the largest share
    # of a batch: 137 block substeps of two solves each, far from each root
    "mc-known-1e15": ["montecarlo", KNOWN, "--runs", "4", "--seed", "7",
                      "--ic-box=-1e15,1e15", "--set", "sim.t_end=1.5"],
    # one block mixing runs that cover a step in one substep with runs that
    # take two: at t = 0, 2 of the 12 runs cover it in one
    "mc-known-10": ["montecarlo", KNOWN, "--runs", "12", "--ic-box=-10,10", "--seed", "2",
                    *COARSE],
    # one gain set per channel: a law constant applied to the wrong channel
    # shows here, and nowhere else
    "mc-known-per-channel": ["montecarlo", KNOWN, "--runs", "8", "--ic-box=-3,3", "--seed", "5",
                             "--set", "sim.step_size=1e-3",
                             "--set", "controller.alpha1=[5, 6, 7]",
                             "--set", "controller.alpha2=[3.5, 4, 4.5]",
                             "--set", "controller.p=[6, 8, 8]"],
    # the gp-based pilot run, then a batch through the GP drift estimate
    "mc-gp-near": ["montecarlo", GP, "--runs", "4", "--ic-box=-1,1", "--seed", "3",
                   "--set", "sim.t_end=1.0"],
    # dataset generation, the shared GP fit and the held-out check
    "gp-train": ["gp-train", GP, "-n", "50"],
    # d_bar below pmsm's perturbation bound of 1: the settling bound is
    # withheld, with a note, and the summary audits none
    "run-known-dbar-short": ["run", KNOWN, "--set", "controller.d_bar=0.5", *COARSE],
}


def run_case(checkout: Path, argv: list) -> dict:
    """Exit code, stdout, stderr and {file name: sha256} of one case run in a
    fresh directory holding a copy of ``checkout``'s configs."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(checkout / "configs", work / "configs")
        proc = subprocess.run([sys.executable, "-m", "fxtsmc.cli", *argv], cwd=work,
                              env=env, capture_output=True, text=True)
        files = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(work.iterdir()) if path.is_file()
        }
    return {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            "files": files}


def differences(parent: dict, change: dict) -> list:
    """What differs between two runs of a case: 'exit', 'stdout', 'stderr' or
    a file name."""
    out = [key for key in ("exit", "stdout", "stderr") if parent[key] != change[key]]
    names = sorted(set(parent["files"]) | set(change["files"]))
    return out + [name for name in names if parent["files"].get(name) != change["files"].get(name)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    args = parser.parse_args(argv)
    all_same = True
    for name, case in CASES.items():
        parent = run_case(args.parent.resolve(), case)
        change = run_case(args.change.resolve(), case)
        diff = differences(parent, change)
        all_same = all_same and not diff
        files = ", ".join(f"{f} {d[:12]}" for f, d in change["files"].items())
        verdict = "differs: " + ", ".join(diff) if diff else "same"
        print(f"{name:24s} exit {parent['exit']}/{change['exit']}  {verdict}  [{files}]")
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main())
