"""Layer timings and output hashes of the heat-kernel assembly, as one JSON object.

Usage, from the root of a checkout (it imports ``besselhardy`` from that
checkout's ``src/``):

    OPENBLAS_NUM_THREADS=1 python3 tools/kernel_layers.py [--repeats 5]

It prints:

- ``build_ms``: the raw (unscaled, uncached) ``kernel._raw_matrix`` build in
  ms, best of ``--repeats``, on the test-14 grid (alpha 0.5, x_max 44,
  ratio 300, breakpoints k/8) at n = 320, 900, 1400 and dt = 1e-4, 1e-3,
  1/32, 1; every build runs on a fresh grid, so no cache hit is timed;
- ``kernel_matrix_ms``: the same for ``kernel_matrix``, the raw build plus
  the sub-Markov cap, each on a fresh grid, so the difference of the two is
  what the cap costs;
- ``sha256``: the digest of every raw matrix and every scaled (capped) one,
  which ``kernel_matrix`` returns as a ``BandMatrix`` and is hashed as its
  ``toarray()``, at those points;
- ``kept_pairs``: the pairs i <= j with a nonzero raw entry at those points;
- ``subnormal_entries``: the subnormal entries of every raw and scaled matrix
  at those points;
- ``cache_mb``: the bytes ``kernel_matrix`` caches, its ``BandMatrix``
  ``nbytes``, in MB at those points; the dense matrix is n^2 8 bytes, 0.82,
  6.48 and 15.68 MB;
- ``matvec_us``: one matvec ``mat @ (w * v)`` with the scaled matrix, as
  the evolution makes it, in us, best of ``--repeats`` loops of
  ``MATVECS``, at n = 900, 1400 and every dt above: ``band`` with the
  cached ``BandMatrix``, one gemv per row block, and ``dense`` with its
  ``toarray()`` copied to a line-aligned n x n array, one gemv;
- ``bessel_evals_per_s``: ``bessel_i_scaled_ratio`` of the heat-kernel order
  -0.25 on a fixed seeded array of 1e6 log-uniform z in [1e-3, 1e5], in one
  call, best of ``--repeats``;
- ``bessel_evals_per_s_kernel_args``: the same on the arguments one raw build
  evaluates at n = 900, dt = 1e-3, recorded from that build, in the calls
  ``_raw_matrix`` makes, best of ``--repeats``; ``bessel_evals_kernel_args``
  is their count;
- ``perturbation_ms`` and ``perturbation_builds``: one
  ``perturbation_residual`` of the test-09 kind (scheme 16/2, t = 0.5,
  x = 1.2, y = 2.0, a three-piece V) at ``s_steps`` 10 and 20 on the n = 900
  test-14 grid, in ms, best of ``--repeats``, and the ``_raw_matrix`` builds
  it makes; every call runs on a fresh grid, so each build is cold;
- ``src_lines``: the line count of ``src/besselhardy/*.py``.

Running it at two commits and comparing the ``sha256`` entries checks that the
matrices are bit-identical.
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

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from besselhardy import (  # noqa: E402
    Potential,
    SplittingScheme,
    WeightedMeasure,
    bessel_i_scaled_ratio,
    kernel_matrix,
    perturbation_residual,
)
from besselhardy import kernel as kernel_module  # noqa: E402
from besselhardy.grid import Grid  # noqa: E402

SIZES = (320, 900, 1400)
STEPS = {"1e-4": 1e-4, "1e-3": 1e-3, "1/32": 1.0 / 32.0, "1": 1.0}
BESSEL_EVALS = 1_000_000
MATVEC_SIZES = (900, 1400)
MATVECS = 200
PANELS = (10, 20)


def test14_grid(n: int) -> Grid:
    return Grid.build(WeightedMeasure(0.5), n, 44.0, 300.0, breakpoints=[k / 8 for k in range(1, 17)])


def best_of(repeats: int, run) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    repeats = parser.parse_args().repeats
    m = WeightedMeasure(0.5)

    build_ms: dict = {}
    matrix_ms: dict = {}
    digests: dict = {}
    kept: dict = {}
    subnormal: dict = {}
    cache_mb: dict = {}
    matvec_us: dict = {}
    for n in SIZES:
        for label, dt in STEPS.items():
            for timed, build in ((build_ms, kernel_module._raw_matrix), (matrix_ms, kernel_matrix)):
                grids = [test14_grid(n) for _ in range(repeats)]
                timed.setdefault(str(n), {})[label] = round(
                    1e3 * best_of(repeats, lambda: build(m, grids.pop(), dt)), 2
                )
            grid = test14_grid(n)
            raw = kernel_module._raw_matrix(m, grid, dt)
            band = kernel_matrix(m, grid, dt)
            cache_mb.setdefault(str(n), {})[label] = round(band.nbytes / 1e6, 3)
            for scaled, mat in ((False, raw), (True, band.toarray())):
                name = f"n={n} dt={label} {'scaled' if scaled else 'raw'}"
                digests[name] = hashlib.sha256(mat.tobytes()).hexdigest()
                subnormal[name] = int(np.count_nonzero((mat != 0.0) & (np.abs(mat) < np.finfo(mat.dtype).tiny)))
                if not scaled:
                    kept[f"n={n} dt={label}"] = int(np.count_nonzero(np.triu(mat)))
            if n in MATVEC_SIZES:
                # the dense matrix as the cache held it before band storage
                dense = kernel_module._zeros_line_aligned(n * n).reshape(n, n)
                dense[...] = band.toarray()
                w, v = grid.weights, np.random.default_rng(0).uniform(0.0, 1.0, n)
                for kind, op in (("band", band), ("dense", dense)):

                    def matvecs():
                        for _ in range(MATVECS):
                            op @ (w * v)

                    us = round(1e6 * best_of(repeats, matvecs) / MATVECS, 1)
                    matvec_us.setdefault(f"n={n} dt={label}", {})[kind] = us

    z = np.exp(np.random.default_rng(0).uniform(math.log(1e-3), math.log(1e5), BESSEL_EVALS))
    bessel_s = best_of(repeats, lambda: bessel_i_scaled_ratio(m.kernel_order, z))
    blocks = []

    def recorded(order, z):
        blocks.append(np.array(z))
        return bessel_i_scaled_ratio(order, z)

    kernel_module.bessel_i_scaled_ratio = recorded
    try:
        kernel_module._raw_matrix(m, test14_grid(900), 1e-3)
    finally:
        kernel_module.bessel_i_scaled_ratio = bessel_i_scaled_ratio
    kernel_args = sum(b.size for b in blocks)
    kernel_args_s = best_of(repeats, lambda: [bessel_i_scaled_ratio(m.kernel_order, b) for b in blocks])

    perturbation_ms: dict = {}
    perturbation_builds: dict = {}
    v = Potential(pieces=((0.0, 1.5, 0.7), (1.5, 3.0, 1.9), (3.0, 30.0, 0.4)))
    scheme = SplittingScheme(steps_per_unit=16.0, min_steps=2)
    raw_matrix = kernel_module._raw_matrix
    for panels in PANELS:
        grids = [test14_grid(900) for _ in range(repeats)]
        perturbation_ms[str(panels)] = round(
            1e3 * best_of(repeats, lambda: perturbation_residual(m, v, 0.5, 1.2, 2.0, grids.pop(), panels, scheme)), 1
        )
        builds = []

        def counted(*args):
            builds.append(args)
            return raw_matrix(*args)

        kernel_module._raw_matrix = counted
        try:
            perturbation_residual(m, v, 0.5, 1.2, 2.0, test14_grid(900), panels, scheme)
        finally:
            kernel_module._raw_matrix = raw_matrix
        perturbation_builds[str(panels)] = len(builds)

    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "besselhardy").glob("*.py")))
    print(
        json.dumps(
            {
                "host": {
                    "python": platform.python_version(),
                    "numpy": np.__version__,
                    "machine": platform.machine(),
                },
                "repeats": repeats,
                "build_ms": build_ms,
                "kernel_matrix_ms": matrix_ms,
                "kept_pairs": kept,
                "subnormal_entries": subnormal,
                "cache_mb": cache_mb,
                "matvec_us": matvec_us,
                "bessel_evals_per_s": round(BESSEL_EVALS / bessel_s),
                "bessel_evals_per_s_kernel_args": round(kernel_args / kernel_args_s),
                "bessel_evals_kernel_args": kernel_args,
                "perturbation_ms": perturbation_ms,
                "perturbation_builds": perturbation_builds,
                "src_lines": src_lines,
                "sha256": digests,
            },
            indent=1,
        )
    )


if __name__ == "__main__":
    main()
