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
one traced run per side at the first seed,

    python3 bench/worker.py --workload <w> --seed <s> --rounds 2 --trace 1

with one BLAS thread, which records every per-layer metric.  A fixed number
of rounds gives both sides the same units, so the per-layer counts compare
equal work; a timed run would give the faster side more units, and more of
them warm.  The JSON is rewritten after every run, so an interrupted
measurement keeps what it has.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from run import worker_env  # noqa: E402

SIDES = ("parent", "change")
TRACED_ROUNDS = 2


def last_json(cmd: list[str], root: Path, env: dict | None = None) -> dict:
    """Run ``cmd`` from ``root``; the JSON object on its last output line."""
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bench(root: Path, workload: str, seed: int) -> dict:
    """One untraced ``bench/run.py`` run from ``root``; its final JSON line."""
    cmd = [sys.executable, "bench/run.py", "--blas-threads", "1", "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", "20", "--trace", "0"]
    return last_json(cmd, root)


def traced(root: Path, workload: str, seed: int) -> dict:
    """Per-layer metrics of one ``bench/worker.py`` run of ``TRACED_ROUNDS`` traced rounds."""
    cmd = [sys.executable, "bench/worker.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--rounds", str(TRACED_ROUNDS), "--trace", "1"]
    phase = last_json(cmd, root, worker_env(1))["phase"]
    return {
        "rounds": TRACED_ROUNDS,
        "units": len(phase["unit_ms"]),
        "failed_checks": phase["failed_checks"],
        "identical": phase["identical"],
        "layers": phase["layers"],
    }


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
                raw[side].append(bench(roots[side], w, seed))
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
            result["traced"].setdefault(w, {})[side] = traced(roots[side], w, seeds[0])
            args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
