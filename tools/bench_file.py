"""Benchmark pairs, traced pairs and layer probes of two checkouts, as one ``BENCH_<label>.json``.

Usage, from the root of this checkout:

    python3 tools/bench_file.py PARENT CHANGE --label L [--seeds 21 30]

Each run starts from the root of its side's checkout, and the side that runs
first alternates from one pair to the next, across workloads too, so a slow
spell of a shared host falls on both sides.  The file is written to the
current directory after every run, so an interrupted measurement keeps what
it has.  Keys:

- ``label``, ``command``, ``host``, ``seeds`` (the inclusive range), and
  ``lines``: per side, the lines of ``src/**/*.py`` and ``tests/**/*.py``;
- ``pairs``: per workload of ``BENCHMARK.json``, one pair per seed of
  ``bench/run.py --blas-threads 1 --workload W --seed S --seconds 20 --trace
  0``: ``first`` (seed -> side), per side the runs' ``correct``,
  ``attempted``, ``failed`` and ``steal_frac``, and per end-to-end metric its
  ``summary``.  ``steal_frac`` is the share of the host's CPU time that its
  hypervisor took (steal) while the run lasted, from the ``cpu`` line of
  ``/proc/stat`` read before and after it (null where that file is missing),
  so a pair lost to a slow spell of the host can be told from a slow side;
- ``traced``: per workload, ``TRACED_PAIRS`` pairs of ``bench/worker.py
  --workload W --seed <first seed> --rounds 2 --trace 1`` with one BLAS
  thread: ``first`` (side per pair), per side ``runs`` (rounds, units,
  failed_checks, identical, layers, steal_frac) and ``median`` of each layer
  metric.
  Fixed rounds give both sides the same units, so the counts compare equal work;
- ``layers``: per side what ``tools/layers.py --src <side>/src`` of this
  checkout prints with one BLAS thread, and ``digests_match``: per digest
  ``<probe>/<key>`` of the parent, whether the change's is the same.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from layers import host, py_lines

TOOLS = Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS.parent / "bench"))
from run import worker_env  # noqa: E402

SIDES = ("parent", "change")
TRACED_PAIRS = 3
TRACED_ROUNDS = 2


def order(turn: int) -> tuple[str, str]:
    """The sides of pair number ``turn`` in the order they run."""
    return SIDES if turn % 2 == 0 else SIDES[::-1]


def summary(runs: dict, better: str) -> dict:
    """Per side the median, quartiles (numpy linear) and runs; ``change_wins``, the pairs won strictly."""
    out = {}
    for side in SIDES:
        q1, med, q3 = np.percentile(runs[side], [25, 50, 75])
        out[side] = {"median": float(med), "q1": float(q1), "q3": float(q3), "runs": runs[side]}
    sign = 1.0 if better == "higher" else -1.0
    out["change_wins"] = sum(sign * (c - p) > 0.0 for p, c in zip(runs["parent"], runs["change"]))
    return out


def digests_match(parent: dict, change: dict) -> dict:
    """Per digest ``<probe>/<key>`` of the parent's probes, whether the change's is the same."""
    return {
        f"{probe}/{key}": digest == change.get(probe, {}).get("sha256", {}).get(key)
        for probe, out in parent.items() if isinstance(out, dict) and "sha256" in out
        for key, digest in out["sha256"].items()
    }


def last_json(cmd: list[str], root: Path, env: dict | None = None) -> dict:
    """Run ``cmd`` from ``root``; the JSON object on its last output line."""
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_ticks() -> list[int]:
    """user, nice, system, idle, iowait, irq, softirq and steal of the host, from ``/proc/stat`` ([] without it)."""
    try:
        with open("/proc/stat") as stat:
            return [int(v) for v in stat.readline().split()[1:9]]
    except OSError:
        return []


def measured_run(cmd: list[str], root: Path, env: dict | None = None) -> dict:
    """``last_json`` with ``steal_frac``: the host's steal ticks over all its ticks during the run, or None."""
    before = cpu_ticks()
    out = last_json(cmd, root, env)
    ticks = [b - a for a, b in zip(before, cpu_ticks())]
    out["steal_frac"] = ticks[7] / sum(ticks) if len(ticks) == 8 and sum(ticks) > 0 else None
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, nargs=2, default=(21, 30), metavar=("FIRST", "LAST"))
    args = parser.parse_args()
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.seeds[0], args.seeds[1] + 1))
    out_path = Path(f"BENCH_{args.label}.json")
    result: dict = {
        "label": args.label,
        "command": f"python3 tools/bench_file.py {args.parent.name} {args.change.name} --label {args.label} "
        f"--seeds {seeds[0]} {seeds[-1]}",
        "host": host(),
        "seeds": seeds,
        "lines": {side: {d: py_lines(roots[side] / d) for d in ("src", "tests")} for side in SIDES},
    } | {key: {} for key in ("pairs", "traced", "layers")}
    turn = 0
    for w in workloads:
        raw: dict = {side: [] for side in SIDES}
        entry = result["pairs"][w] = {"first": {}}
        for seed in seeds:
            entry["first"][str(seed)] = order(turn)[0]
            for side in order(turn):
                cmd = ["bench/run.py", "--blas-threads", "1", "--workload", w, "--seed", str(seed), "--seconds", "20"]
                raw[side].append(measured_run([sys.executable, *cmd, "--trace", "0"], roots[side]))
            turn += 1
            for key in ("correct", "attempted", "failed", "steal_frac"):
                entry[key] = {side: [r[key] for r in raw[side]] for side in SIDES}
            for metric in spec["end_to_end"]:
                runs = {side: [r["metrics"][metric["name"]]["value"] for r in raw[side]] for side in SIDES}
                entry[metric["name"]] = summary(runs, metric["better"])
            out_path.write_text(json.dumps(result, indent=1) + "\n")

    for w in workloads:
        entry = result["traced"][w] = {"first": [], "runs": {side: [] for side in SIDES}, "median": {}}
        for _ in range(TRACED_PAIRS):
            entry["first"].append(order(turn)[0])
            for side in order(turn):
                cmd = ["bench/worker.py", "--workload", w, "--seed", str(seeds[0]), "--rounds", str(TRACED_ROUNDS)]
                run = measured_run([sys.executable, *cmd, "--trace", "1"], roots[side], worker_env(1))
                phase = run["phase"]
                runs = entry["runs"][side]
                runs.append({"rounds": TRACED_ROUNDS, "units": len(phase["unit_ms"]), "steal_frac": run["steal_frac"]})
                runs[-1].update({k: phase[k] for k in ("failed_checks", "identical", "layers")})
                entry["median"][side] = {k: float(np.median([r["layers"][k] for r in runs])) for k in phase["layers"]}
                out_path.write_text(json.dumps(result, indent=1) + "\n")
            turn += 1

    for side in SIDES:
        cmd = [sys.executable, str(TOOLS / "layers.py"), "--src", str(roots[side] / "src")]
        result["layers"][side] = last_json(cmd, roots[side], worker_env(1))
    result["layers"]["digests_match"] = digests_match(result["layers"]["parent"], result["layers"]["change"])
    out_path.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
