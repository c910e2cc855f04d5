"""The besselhardy benchmark: one workload, measured from outside the library.

Run from the repository root:

    python3 bench/run.py --workload sweep_cold --seed 1 --seconds 20 --trace 0

Workloads (see ``bench/workloads.py``): ``sweep_cold``, ``evolve_warm`` and
``cli_all``.  The library is imported from ``src/`` of the current directory.

``--trace 0`` measures the end-to-end metrics.  Set-up is timed in
``SETUP_SAMPLES`` fresh interpreters and reported as their median: the
measured one, with interpreters that only set up started before and after
it, so the samples span the whole run.  The measured interpreter runs whole
rounds of units for up to ``--seconds`` (at least one round).
``--trace 1`` runs one interpreter that measures the same workload untraced
and then traced (``bench/tracer.py``) and reports the per-layer metrics.

Every line but the last names a metric with its unit and sample count; the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  BLAS threads are pinned (``--blas-threads``) before numpy is
imported in any benchmark process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 7
DEADLINE_S = 170.0  # the whole run, every child included, ends before this


class BenchError(Exception):
    pass


def child(args: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Run one worker; return its start time and its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args], env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(args)}") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(args)}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return spawned, json.loads(lines[-1])


def worker_env(blas_threads: int) -> dict:
    """Environment for worker processes: BLAS threads pinned, library on the path."""
    threads = str(max(1, blas_threads))
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def main(argv=None) -> int:
    # BENCHMARK.json names the workloads and every metric with its unit
    try:
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError:
        print("error: run from the repository root; BENCHMARK.json not found", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--blas-threads", type=int, default=1)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join("src", "besselhardy", "__init__.py")):
        print("error: run from the repository root; src/besselhardy not found", file=sys.stderr)
        return 2
    env = worker_env(args.blas_threads)
    seed = args.seed % 2**32
    base = ["--workload", args.workload, "--seed", str(seed), "--seconds", repr(args.seconds)]

    def setup_only(count: int) -> list[float]:
        times = []
        for _ in range(count):
            spawned, ready = child(base + ["--setup-only"], env, deadline)
            times.append(ready["ready"] - spawned)
        return times

    extra = 0 if args.trace else SETUP_SAMPLES - 1
    try:
        setups = setup_only(extra // 2)
        spawned, res = child(base + ["--trace", str(args.trace)], env, deadline)
        setups.append(res["ready"] - spawned)
        setups += setup_only(extra - extra // 2)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    phase = res["phase"]
    units = len(phase["unit_ms"])
    failed = phase["failed_units"]
    unexpected = {k: v for k, v in phase["failed_checks"].items() if k not in res["known_open"]}
    correct = not unexpected and phase.get("identical", True)
    w = args.workload
    print(f"context {json.dumps(res['env'], sort_keys=True)}")
    print(f"{w} units attempted {units}, failed {failed}; failed checks {phase['failed_checks']}")
    print(f"{w} fail_frac = {failed / units:.4f} fraction ({failed} of {units} units)")

    if args.trace:
        layers = dict(phase["layers"])
        layers["trace.overhead_frac"] = 1.0 - (units / phase["wall_s"]) / phase["base_units_per_s"]
        print(f"{w} traced outputs identical to untraced over {phase['identical_units']} units: {phase['identical']}")
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        unit_ms = phase["unit_ms"]
        tail = res["tail"]
        values = {
            "setup_s": statistics.median(setups),
            "units_per_s": statistics.median(phase["window_rates"]),
            "unit_ms_p50": statistics.median(unit_ms),
            "unit_ms_tail": max(unit_ms) if tail == "max" else percentile(unit_ms, tail),
            "peak_rss_mb": res["rss_mb"],
            "pass_frac": 1.0 - failed / units,
        }
        tail_name = "max" if tail == "max" else f"p{tail:g}"
        beyond = 0 if tail == "max" else sum(1 for v in unit_ms if v > values["unit_ms_tail"])
        notes = {
            "setup_s": f"median of {len(setups)} fresh interpreters",
            "units_per_s": f"median of {len(phase['window_rates'])} windows; {units} units in {phase['wall_s']:.2f} s",
            "unit_ms_p50": f"median of {units} units",
            "unit_ms_tail": f"{tail_name} of {units} units, {beyond} beyond it",
            "peak_rss_mb": "measured process",
            "pass_frac": f"{units - failed} of {units} units passed",
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    for name, m in metrics.items():
        note = "" if args.trace else f" ({notes[name]})"
        print(f"{w} {name} = {m['value']:.6g} {m['unit']}{note}")
    print(json.dumps({"correct": bool(correct), "attempted": units, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
