"""One fresh benchmark process: set up a workload, run units, check them.

``bench/run.py`` and ``bench/selftest.py`` start this script.  It
prints one JSON line on standard output (the last line) with the unit times,
failed checks, output digests and peak memory of this process.

With ``--trace 1`` it runs the workload twice from the same seed, first
untraced and then traced, each for half the time; the traced phase supplies
the per-layer metrics and the untraced one the base for the tracing overhead.
The outputs of the units both phases ran must be bit-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
# units_per_s is the median rate over windows of whole rounds at least this
# long, so one stall of the shared host moves one window, not the whole figure
WINDOW_S = 2.0


def window_rates(round_ends: list[tuple[int, float]]) -> list[float]:
    """Units per second in consecutive windows of whole rounds, each >= WINDOW_S.

    ``round_ends`` holds (units done, seconds since start) after each round.
    A last window shorter than WINDOW_S is dropped unless it is the only one.
    """
    rates = []
    units0, t0 = 0, 0.0
    for units, t in round_ends:
        if t - t0 >= WINDOW_S:
            rates.append((units - units0) / (t - t0))
            units0, t0 = units, t
    if not rates:
        units, t = round_ends[-1]
        rates.append(units / t)
    return rates


def run_phase(workload, seconds: float, rounds: int | None, tracer=None) -> dict:
    """Run whole rounds while the next one fits in ``seconds`` (or ``rounds`` of them).

    At least one round runs.  A round that would end past ``seconds``, judged
    by the length of the last one, is not started, so a workload with long
    rounds measures the same number of rounds in every run.
    """
    unit_ms = []
    digests = []
    failed_checks: Counter = Counter()
    failed_units = 0
    done_rounds = 0
    round_ends = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for _ in range(workload.round_size):
            index = len(unit_ms)
            inputs = workload.draw()
            if tracer is not None:
                tracer.unit = index
            t0 = time.perf_counter()
            try:
                out = workload.compute(inputs)
            except Exception:  # a unit that raises is a failed unit, not a crashed run
                unit_ms.append(1e3 * (time.perf_counter() - t0))
                traceback.print_exc(file=sys.stderr)
                failed_checks["exception"] += 1
                failed_units += 1
                digests.append("")
                continue
            unit_ms.append(1e3 * (time.perf_counter() - t0))
            failed = workload.check(inputs, out)
            failed_checks.update(failed)
            failed_units += bool(failed)
            digests.append(hashlib.sha256(workload.digest(inputs, out)).hexdigest())
        done_rounds += 1
        now = time.perf_counter()
        elapsed = now - start
        round_ends.append((len(unit_ms), elapsed))
        if rounds is not None:
            if done_rounds >= rounds:
                break
        elif elapsed + (now - round_start) > seconds:
            break
    return {
        "unit_ms": unit_ms,
        "wall_s": elapsed,
        "window_rates": window_rates(round_ends),
        "failed_units": failed_units,
        "failed_checks": dict(failed_checks),
        "unit_digests": digests,
        "digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
    }


def environment() -> dict:
    import numpy as np
    import scipy

    import besselhardy

    blas = "unknown"
    try:
        blas_info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_info.get('name')} {blas_info.get('version')}"
    except (TypeError, KeyError):
        pass
    backend = getattr(besselhardy, "backend_name", None)
    src_lines = 0
    for root, _, files in os.walk(os.path.join("src", "besselhardy")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "backend": backend() if backend else "n/a",
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
        "python": sys.version.split()[0],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--rounds", type=int, default=None, help="run this many rounds instead of timing")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, HERE)
    import workloads

    out_root = os.path.join(OUT_DIR, f"cli_{os.getpid()}")
    workload = workloads.make(args.workload, args.seed, os.path.join(out_root, "a"))
    ready = time.monotonic()
    result: dict = {"ready": ready}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    try:
        if not args.trace:
            result["phase"] = run_phase(workload, args.seconds, args.rounds)
        else:
            from tracer import Tracer

            base = run_phase(workload, args.seconds / 2, args.rounds)
            workload = workloads.make(args.workload, args.seed, os.path.join(out_root, "b"))
            tracer = Tracer().install()
            try:
                traced = run_phase(workload, args.seconds / 2, args.rounds, tracer)
            finally:
                tracer.uninstall()
            tracer.write_spans(os.path.join(OUT_DIR, f"spans_{args.workload}_seed{args.seed}.csv"))
            common = min(len(base["unit_digests"]), len(traced["unit_digests"]))
            traced["layers"] = tracer.layer_metrics(len(traced["unit_ms"]))
            traced["identical_units"] = common
            traced["identical"] = base["unit_digests"][:common] == traced["unit_digests"][:common]
            traced["base_units_per_s"] = len(base["unit_ms"]) / base["wall_s"]
            result["phase"] = traced
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["known_open"] = sorted(workloads.KNOWN_OPEN)
    result["tail"] = workload.tail
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
