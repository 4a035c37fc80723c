"""Alternating parent/change runs of the benchmark, written to BENCH_<topic>.json.

    git worktree add ../fxtsmc-parent HEAD~1
    python3 benchmarks/pairs.py --parent ../fxtsmc-parent --change . \\
        --workload run-known --seed 7 --pairs 10 --topic step_hoist

Each pair runs ``python3 perfbench/run.py --workload W --seed S --seconds X
--trace T`` once in each checkout, one process at a time, with X the
``run_seconds`` of the change checkout's BENCHMARK.json; the parent goes
first in pairs 1, 3, 5, ... and the change in pairs 2, 4, .... The last line a run prints
is its JSON record (correct, attempted, failed, metrics); its ``sha256``
lines are the artifact digests. The file gets, per metric, every run of each
side, each side's median and inclusive quartiles, the pairs the change won
(ties count for neither), and whether the change's median is better than the
parent's by more than the parent's interquartile range. Directions come from
the change checkout's BENCHMARK.json, and the file is written there. Running
again with another workload, seed or trace adds its section to the same file
and replaces only its own.
"""
from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

SHA_RE = re.compile(r"^\s+sha256 ([0-9a-f]{64})\s+(\S+)$", re.M)
ENV_RE = re.compile(r"^env (.*)$", re.M)


def run_once(checkout: Path, args, seconds) -> dict:
    """One benchmark process in ``checkout``: its final JSON record, artifact
    digests and environment line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", f"{seconds:g}",
            "--trace", str(args.trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} failed in {checkout}:\n{proc.stdout}{proc.stderr}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["artifact_sha256"] = {name: digest for digest, name in SHA_RE.findall(proc.stdout)}
    env = ENV_RE.search(proc.stdout)
    record["environment"] = dict(kv.split("=", 1) for kv in env.group(1).split()) if env else {}
    return record


def benchmark(checkout: Path):
    """(run seconds, {metric name: "lower" or "higher"}) from BENCHMARK.json."""
    bench = json.loads((checkout / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    return bench["run_seconds"], better


def side(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(unit: str, better: str, parent: list, change: list) -> dict:
    sign = 1.0 if better == "lower" else -1.0
    won = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    p_side, c_side = side(parent), side(change)
    gain = sign * (p_side["median"] - c_side["median"])
    return {
        "unit": unit,
        "better": better,
        "parent": p_side,
        "change": c_side,
        "change_over_parent": (
            c_side["median"] / p_side["median"] if p_side["median"] else None
        ),
        "pairs_change_better": f"{won}/{len(parent)}",
        "median_better_by_more_than_parent_iqr": gain > p_side["q3"] - p_side["q1"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--topic", required=True, help="writes BENCH_<topic>.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    seconds, better = benchmark(args.change)

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for name in order:
            record = run_once(getattr(args, name), args, seconds)
            runs[name].append(record)
            wall = record["metrics"].get("wall_s", {}).get("value")
            print(f"pair {i + 1}/{args.pairs} {name}: correct={record['correct']} "
                  f"wall_s={wall}", file=sys.stderr)

    first = runs["parent"][0]["metrics"]
    metrics = {
        name: compare(
            first[name]["unit"], better.get(name, "lower"),
            [r["metrics"][name]["value"] for r in runs["parent"]],
            [r["metrics"][name]["value"] for r in runs["change"]],
        )
        for name in first
    }
    digests = {s: [r["artifact_sha256"] for r in runs[s]] for s in runs}
    section = {
        "command": (f"python3 perfbench/run.py --workload {args.workload} --seed {args.seed} "
                    f"--seconds {seconds:g} --trace {args.trace}"),
        "pairs": args.pairs,
        "order": "parent first in odd-numbered pairs (1, 3, ...), change first in the others",
        "source": {
            s: {k: runs[s][0]["environment"].get(k) for k in ("commit", "src_sha256")}
            for s in runs
        },
        "correct": {s: [r["correct"] for r in runs[s]] for s in runs},
        "failed": {s: [r["failed"] for r in runs[s]] for s in runs},
        "metrics": metrics,
        "artifact_sha256": {
            "parent": digests["parent"][0],
            "change": digests["change"][0],
            "identical_in_every_run": all(
                d == digests["parent"][0] for s in runs for d in digests[s]
            ),
        },
    }

    path = args.change / f"BENCH_{args.topic}.json"
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc.setdefault("topic", args.topic)
    doc["machine"] = {
        k: v for k, v in runs["change"][0]["environment"].items()
        if k not in ("commit", "src_sha256")
    }
    doc.setdefault("results", {})[f"{args.workload} seed{args.seed} trace{args.trace}"] = section
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for name, m in metrics.items():
        print(f"{name:32s} parent {m['parent']['median']:.6g}  change "
              f"{m['change']['median']:.6g} {m['unit']}  better in {m['pairs_change_better']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
