"""Path-step rate and estimate digest of ``feynman_kac``, as one JSON object.

Usage, from the root of a checkout:

    OPENBLAS_NUM_THREADS=1 python3 tools/fk_layer.py [--repeats 5] [--src DIR]

It imports ``besselhardy`` from ``DIR`` (default: this checkout's ``src/``),
so one copy of the script can time two checkouts.  For two configurations,
both at alpha 0.5, x0 = 1 and seed 0,

- ``cli``: the ``semigroup.feynman_kac_vs_grid`` check of ``besselhardy all``
  at the default config: V = 1 on [0, 1024], f = 1 on [0, 0.5], t = 0.5,
  20,000 paths x 200 steps;
- ``test08``: the size of acceptance test 08: a three-piece V on [0, 30],
  f = exp(-(x - 2)^2), t = 0.6, 40,000 paths x 250 steps;

it prints ``fk_ms``, one call's wall time in ms, best of ``--repeats``;
``path_steps_per_s``, paths x steps over that time; and ``sha256``, the
digest of the estimate and its stderr.  ``chunks`` is the number of path
chunks of the imported sampler (1 where it has none), and ``src_lines`` the
line count of ``src/besselhardy/*.py``.  Equal digests at two checkouts mean
the same estimates bit for bit; a change of the sampler's streams changes
them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))

    from besselhardy import Potential, WeightedMeasure, feynman_kac
    from besselhardy import semigroup as semigroup_module

    m = WeightedMeasure(0.5)
    configs = {
        "cli": (Potential.constant(1.0, (0.0, 1024.0)), lambda x: np.where(x <= 0.5, 1.0, 0.0), 0.5, 20_000, 200),
        "test08": (
            Potential(pieces=((0.0, 1.3, 0.7), (1.3, 4.1, 2.0), (4.1, 30.0, 0.4))),
            lambda x: np.exp(-((x - 2.0) ** 2)),
            0.6,
            40_000,
            250,
        ),
    }

    out: dict = {"fk_ms": {}, "path_steps_per_s": {}, "sha256": {}}
    for name, (potential, f, t, n_paths, n_steps) in configs.items():
        best = math.inf
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            res = feynman_kac(m, potential, t, 1.0, f, n_paths, n_steps, 0)
            best = min(best, time.perf_counter() - t0)
        out["fk_ms"][name] = round(1e3 * best, 1)
        out["path_steps_per_s"][name] = round(n_paths * n_steps / best)
        out["sha256"][name] = hashlib.sha256(np.array([res.estimate, res.stderr]).tobytes()).hexdigest()

    out["chunks"] = getattr(semigroup_module, "_FK_CHUNKS", 1)
    out["src_lines"] = sum(len(p.read_text().splitlines()) for p in sorted((args.src / "besselhardy").glob("*.py")))
    out["host"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }
    out["repeats"] = args.repeats
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
