"""Proof that tracing passes results through: traced and untraced outputs agree.

Run from the repository root:

    python3 bench/selftest.py [--seed 0]

For each workload it runs a fixed number of rounds in one fresh process
untraced and in another traced, and compares the SHA-256 digests of every
unit's outputs (thetas, masses, residuals, evolved arrays, CLI CSV bytes).
Exits 0 only if all digests match.  Takes about two minutes.
"""

from __future__ import annotations

import argparse
import sys
import time

from run import BenchError, child, worker_env

ROUNDS = {"sweep_cold": 1, "evolve_warm": 4, "cli_all": 2}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    env = worker_env(1)
    deadline = time.monotonic() + 600.0
    ok = True
    for name, rounds in ROUNDS.items():
        base = ["--workload", name, "--seed", str(args.seed), "--rounds", str(rounds)]
        try:
            _, plain = child(base + ["--trace", "0"], env, deadline)
            _, traced = child(base + ["--trace", "1"], env, deadline)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        plain, traced = plain["phase"], traced["phase"]
        same = plain["digest"] == traced["digest"] and traced["identical"]
        ok = ok and same
        print(
            f"{name}: {len(plain['unit_digests'])} units, untraced {plain['digest'][:16]}, "
            f"traced {traced['digest'][:16]}: {'identical' if same else 'DIFFERENT'}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
