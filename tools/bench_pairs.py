"""Alternating benchmark pairs of two checkouts, summarized as one JSON object.

Usage:

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --out pairs.json \\
        [--workloads sweep_cold evolve_warm cli_all] [--seeds 21 30] [--traced sweep_cold]

For each workload and each seed of the inclusive range it runs

    python3 bench/run.py --blas-threads 1 --workload <w> --seed <s> --seconds 20 --trace 0

from the root of each checkout, one after the other.  Which side runs first
alternates from one pair to the next, so a slow spell of a shared host falls
on both sides.  For every end-to-end metric of ``BENCHMARK.json`` it records
the runs of each side, their median and quartiles (numpy linear
percentiles), and ``change_wins``: the seeds where the change is strictly
better (ties count for neither side).  Each ``--traced`` workload also gets
one ``--trace 1`` run per side at the first seed, with every per-layer
metric.  The JSON is rewritten after every run, so an interrupted
measurement keeps what it has.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def bench(root: Path, workload: str, seed: int, trace: int) -> dict:
    """One ``bench/run.py`` run from ``root``; its final JSON line."""
    cmd = [sys.executable, "bench/run.py", "--blas-threads", "1", "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", "20", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(runs: dict, better: str) -> dict:
    """Median, quartiles and runs per side, and the pairs the change wins."""
    out = {}
    for side in SIDES:
        q1, med, q3 = np.percentile(runs[side], [25, 50, 75])
        out[side] = {"median": float(med), "q1": float(q1), "q3": float(q3), "runs": runs[side]}
    sign = 1.0 if better == "higher" else -1.0
    out["change_wins"] = sum(sign * (c - p) > 0.0 for p, c in zip(runs["parent"], runs["change"]))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", nargs="+", default=["sweep_cold", "evolve_warm", "cli_all"])
    parser.add_argument("--seeds", type=int, nargs=2, default=(21, 30), metavar=("FIRST", "LAST"))
    parser.add_argument("--traced", nargs="*", default=["sweep_cold"])
    args = parser.parse_args()
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    seeds = list(range(args.seeds[0], args.seeds[1] + 1))
    result: dict = {"seeds": seeds, "pairs": {}, "traced": {}}
    turn = 0
    for w in args.workloads:
        raw = {side: [] for side in SIDES}
        first = {}
        for seed in seeds:
            order = SIDES if turn % 2 == 0 else SIDES[::-1]
            turn += 1
            first[str(seed)] = order[0]
            for side in order:
                raw[side].append(bench(roots[side], w, seed, 0))
                rate = raw[side][-1]["metrics"]["units_per_s"]["value"]
                print(f"{w} seed {seed} {side}: {rate:.4g} units/s", file=sys.stderr)
            entry = {
                "first": first,
                "correct": {side: all(r["correct"] for r in raw[side]) for side in SIDES},
                "attempted": {side: [r["attempted"] for r in raw[side]] for side in SIDES},
                "failed": {side: [r["failed"] for r in raw[side]] for side in SIDES},
            }
            for metric in spec["end_to_end"]:
                runs = {side: [r["metrics"][metric["name"]]["value"] for r in raw[side]] for side in SIDES}
                entry[metric["name"]] = summary(runs, metric["better"])
            result["pairs"][w] = entry
            args.out.write_text(json.dumps(result, indent=1) + "\n")
    for w in args.traced:
        for side in SIDES:
            metrics = bench(roots[side], w, seeds[0], 1)["metrics"]
            result["traced"].setdefault(w, {})[side] = {k: v["value"] for k, v in metrics.items()}
            args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
