"""Layer time, Bessel work and output digest of ``check_condition_K``, as one JSON object.

Usage, from the root of a checkout:

    OPENBLAS_NUM_THREADS=1 python3 tools/k_layer.py [--repeats 5] [--src DIR]

It imports ``besselhardy`` from ``DIR`` (default: this checkout's ``src/``),
so one copy of the script can time two checkouts.  For two configurations

- ``cli``: the (K) check of ``besselhardy all`` at the default config
  (alpha 0.5, V = 1 on [0, 1024], window [0, 4], grid 320:30:60 with the
  section ends as breakpoints, t_count 5, s_nodes 16);
- ``grid900``: the ``sweep_cold`` grid (n = 900, x_max 44, ratio 300,
  breakpoints k/8) with V = x^-1 (``Potential.power(1.0, 1.0)``) and its
  section of [0, 8], t_count 6, s_nodes 24;

it prints ``k_ms``, the check's wall time in ms, best of ``--repeats``;
``bessel_pairs``, the kernel pairs whose Bessel factor one check evaluates;
``sha256``, the digest of every entry's G values and fitted exponent; and
``src_lines``, the line count of ``src/besselhardy/*.py`` of the imported
checkout.  Equal digests at two checkouts mean the same (K) output bit for
bit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
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

    from besselhardy import Grid, Interval, Potential, WeightedMeasure, build_section, check_condition_K
    from besselhardy import kernel as kernel_module

    m = WeightedMeasure(0.5)
    v1 = Potential.constant(1.0)
    sec1 = build_section(m, v1, Interval(0.0, 4.0))
    vpow = Potential.power(1.0, 1.0)
    configs = {
        "cli": (v1, sec1, Grid.build(m, 320, 30.0, 60.0, [p for d in sec1 for p in (d.a, d.b)]), 5, 16),
        "grid900": (
            vpow,
            build_section(m, vpow, Interval(0.0, 8.0)),
            Grid.build(m, 900, 44.0, 300.0, breakpoints=[k / 8 for k in range(1, 17)]),
            6,
            24,
        ),
    }

    bessel = kernel_module.bessel_i_scaled_ratio
    out: dict = {"k_ms": {}, "bessel_pairs": {}, "sha256": {}}
    for name, (potential, section, grid, t_count, s_nodes) in configs.items():

        def run():
            return check_condition_K(m, potential, section, grid, t_count=t_count, s_nodes=s_nodes)

        best = math.inf
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - t0)
        out["k_ms"][name] = round(1e3 * best, 1)

        pairs = []

        def counted(order, z):
            pairs.append(np.size(z))
            return bessel(order, z)

        kernel_module.bessel_i_scaled_ratio = counted
        try:
            rep = run()
        finally:
            kernel_module.bessel_i_scaled_ratio = bessel
        out["bessel_pairs"][name] = sum(pairs)
        h = hashlib.sha256()
        for e in rep.entries:
            h.update(e.values.tobytes())
            h.update(np.float64(e.fitted_exponent).tobytes())
        out["sha256"][name] = h.hexdigest()

    out["src_lines"] = sum(len(p.read_text().splitlines()) for p in sorted((args.src / "besselhardy").glob("*.py")))
    out["host"] = {"python": platform.python_version(), "numpy": np.__version__, "machine": platform.machine()}
    out["repeats"] = args.repeats
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
