"""Layer timings and output digests of one ``besselhardy`` source tree, as one JSON line.

Usage:  OPENBLAS_NUM_THREADS=1 python3 tools/layers.py [--src DIR]

It imports ``besselhardy`` from ``DIR`` (default: this checkout's ``src/``)
and runs every probe.  A time is the best of ``REPEATS`` calls, in ms (us for
matvecs).  Each probe keeps its SHA-256 digests under ``sha256``: equal
digests at two trees mean the same bits.  Grid 14 is the test-14 grid (alpha
0.5, x_max 44, ratio 300, breakpoints k/8).  Keys: ``host``, ``repeats``,
``src_lines`` (lines of ``DIR/besselhardy/*.py``) and

- ``kernel``, at n in ``SIZES`` and dt in ``STEPS`` on fresh grid-14 grids
  (no cache hit is timed): ``build_ms`` of ``_raw_matrix`` and
  ``kernel_matrix_ms`` (build and cap), each the median of ``BUILDS`` builds
  after ``WARMUP_BUILDS`` untimed ones, ``build_peak_mb`` (the ``tracemalloc``
  peak of one ``kernel_matrix`` call), ``sha256`` and ``subnormal_entries``
  of each raw and capped matrix, ``kept_pairs`` (nonzero raw i <= j),
  ``cache_mb`` (``BandMatrix.nbytes``); ``matvec_us`` of ``mat @ (w * v)``,
  ``band`` and ``dense`` (a line-aligned copy), at n in ``MATVEC_SIZES``;
  ``bessel_evals_per_s`` on 1e6 log-uniform z in [1e-3, 1e5], and
  ``bessel_evals_per_s_kernel_args`` on the ``bessel_evals_kernel_args``
  arguments of one raw build (n 900, dt 1e-3); ``heat_kernel_scalar_us``,
  us per all-scalar ``heat_kernel`` call at the test-09 pair (x = 1.2 and
  y = 2.0 snapped to the grid-14 n = 900 nodes) at t = 0.5 and 0.01;
  ``perturbation_ms`` and raw ``perturbation_builds`` of a test-09
  ``perturbation_residual`` at ``s_steps`` 10 and 20 on a fresh n = 900 grid
  (0 builds on trees whose Duhamel check reads ``generator.resolvent_sweep``,
  3 on the trees before, which stepped three Strang legs);
- ``section``: ``build_section`` at alpha 0.5 for ``v1`` (V = 1 on [0, 4],
  the section of ``besselhardy all`` and of ``sweep_cold``) and ``pow``
  (V = 1/x on [0, 8]): ``build_ms`` and ``sha256`` of its intervals (n, k)
  and their F and F(parent) values;
- ``k``: ``check_condition_K`` at ``cli`` (the check of ``besselhardy all``,
  t_count 5) and ``grid900`` (grid 14, n = 900, V = 1/x on its section of
  [0, 8], t_count 6), called with no ``s_nodes``, so a tree whose (K) still
  integrates the heat kernel in s runs it at its default of 24 nodes:
  the keys of ``d``, with every entry's G values in ``sha256``;
- ``d``: ``check_condition_D`` at ``cli`` (the check of ``besselhardy all``,
  n_max 6) and ``grid900`` (grid 14, n = 900, V = 1/x on ``intervals[1]`` of
  its section of [0, 8], n_max 8), at the default ``steps_per_leg``:
  ``cold_ms`` (a fresh grid per call), ``warm_ms`` (again on the grid of one
  call), ``builds`` (raw kernel builds) and ``eighs`` (``np.linalg.eigh``
  calls) of one cold call, and ``sha256`` of every entry's masses and
  fitted exponent;
- ``fk``: ``feynman_kac`` at ``cli`` (20,000 paths x 200 steps, as in
  ``besselhardy all``) and ``test08`` (40,000 x 250): ``fk_ms``,
  ``path_steps_per_s``, ``sha256`` of the estimate and stderr, ``chunks``;
- ``cli``: ``besselhardy all --seed N`` at the default config for N in
  ``CLI_SEEDS``: ``sha256`` of each CSV and ``section.txt`` as
  ``"seed N/<file>"``, and ``exit`` by seed (``summary.json`` holds timings);
- ``import``: ``import besselhardy.cli`` in ``REPEATS`` fresh interpreters:
  ``import_ms`` (the best), ``peak_rss_mb`` (the least ``VmHWM`` after it,
  Linux) and ``scipy_modules`` (the sorted ``scipy*`` modules it loaded);
- ``quad``: the adaptive quadratures of ``besselhardy all`` at the default
  config: ``mass`` (its 6 ``heat_kernel_mass_residual`` calls), ``weak``
  (its 2 ``phi_equation_residual`` calls) and ``tail`` (the 9 ``_tail_bound``
  bars of its superharmonic sweep): ``ms`` of each group and ``sha256`` of
  its values (the mass residuals and ``converged`` flags, the residuals, the
  bars);
- ``cache``: 3 rounds on one fresh grid-14 n = 900 grid, each of two V = 1
  ``check_superharmonic`` sweeps, one ``check_condition_D`` on the V = 1/x
  section of [0, 8] and a test-09 ``perturbation_residual`` pair
  (``s_steps`` 10 and 20).  The (D) call passes ``steps_per_leg`` 9, which a
  tree whose (D) steps Strang legs uses and a spectral (D) ignores.  On a
  tree whose Duhamel check reads the resolvent a round builds no kernel
  matrix; on the spectral-(D) trees before it the Duhamel pair made every
  build of a round.  Keys: ``builds``
  (raw builds per round), ``decompositions`` (``np.linalg.eigh`` calls per
  round), ``round_ms`` (per round, one run), ``cache_mb_peak`` (the most
  ``nbytes`` of matrices and spectra the grid held after a put) and
  ``sha256`` per round of its thetas, (D) values and Duhamel sides;
- ``sweep``: ``SWEEP_ROUNDS`` rounds of the benchmark's ``sweep_cold``
  workload (``bench/workloads.py`` ``SweepCold`` of the tree's checkout,
  seed ``SWEEP_SEED``), untimed: ``builds`` and ``decompositions`` per round
  as in ``cache``, ``cache_mb_peak``, and ``failed``, the checks that failed;
- ``resolvent``: ``generator.resolvent_sweep`` of delta_2 (the point mass
  at the node nearest 2) under V = 1/x over one window of 21 times in
  [0.125, 0.5] on fresh grid-14 grids at n in ``RESOLVENT_SIZES``:
  ``window_ms``, ``solves_per_window`` (the batch of each top-level
  ``_cyclic_reduction`` call), ``deviation`` (the largest difference from
  ``generator.sweep`` over max delta_2) and ``sha256`` of the values;
- ``superharmonic``: ``eigh_ms`` (one cold ``generator.spectrum`` of V = 1,
  the assembly of T and its ``eigh``, on a fresh grid 14) and
  ``eigh_peak_mb`` (its ``tracemalloc`` peak) at n in ``SIZES``;
  ``sweep_ms`` of a warm ``check_superharmonic``
  over 21 u for each of the four ``sweep_cold`` profiles on grid 14,
  n = 900 (untimed once first, so its spectrum is cached), and
  ``sha256`` of each sweep's ``us``, thetas and tail bars;
- ``evolve``: ``schrodinger_apply`` of f = exp(-(x - 2)^2) under V = 1/x with
  ``n_steps`` k in ``EVOLVE_STEPS`` and t = k dt for dt in ``EVOLVE_DT``, on
  ``grid900`` (grid 14, n = 900), ``warm420`` (the ``evolve_warm`` grid) and
  ``cli320`` (the grid of ``besselhardy all``), a fresh grid per dt whose
  matrix is built before the timing: ``us_per_step`` (the best call over k),
  ``matrix_mb`` (``BandMatrix.nbytes``) and ``sha256`` of each output.  Every
  leg runs the one serial loop, one gemv per band block, whatever its step
  count and matrix size (trees before it split long legs on large matrices
  over two threads);
- ``hardy``: the ``local_hardy_norm`` calls of ``besselhardy all`` at the
  default config, one per local atom of its section (``n_times`` 14):
  ``cold_ms`` (all atoms on a fresh grid), ``warm_ms`` (all atoms again on
  that grid), ``builds`` (raw kernel builds) and ``eighs`` (``np.linalg.eigh``
  calls) of one cold pass, and ``sha256`` per atom of its norm, half-range
  and double-range values.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

REPEATS = 5
BUILDS = 11
WARMUP_BUILDS = 3
CLI_SEEDS = (0, 3)
SIZES = (320, 900, 1400)
STEPS = {"1e-4": 1e-4, "1e-3": 1e-3, "1/32": 1.0 / 32.0, "1": 1.0}
MATVEC_SIZES = (900, 1400)
MATVECS = 200
BESSEL_EVALS = 1_000_000
EVOLVE_DT = {"2^-6": 2.0**-6, "2^-4": 2.0**-4, "2^-2": 0.25, "1": 1.0}
EVOLVE_STEPS = (4, 16, 128)
SWEEP_SEED = 21
RESOLVENT_SIZES = (420, 900, 1400)
SWEEP_ROUNDS = 8


def median_ms(run) -> float:
    """The median wall time of ``BUILDS`` calls of ``run()`` after ``WARMUP_BUILDS`` untimed ones, in ms."""
    for _ in range(WARMUP_BUILDS):
        run()
    times = []
    for _ in range(BUILDS):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    return 1e3 * float(np.median(times))


def best_ms(run) -> float:
    """The least wall time of ``REPEATS`` calls of ``run()``, in ms."""
    best = math.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best


def sha256(*arrays) -> str:
    return hashlib.sha256(b"".join(np.asarray(a).tobytes() for a in arrays)).hexdigest()


@contextlib.contextmanager
def recording(module, name: str, calls: list):
    """Within the block ``module.<name>`` appends its arguments to ``calls``, then runs as before."""
    original = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    setattr(module, name, wrapper)
    try:
        yield
    finally:
        setattr(module, name, original)


def tracking_peak(grid) -> list:
    """Make ``grid.cache_put`` keep in the returned one-item list the most ``nbytes`` the cache held after a put."""
    put, peak = grid.cache_put, [0]

    def tracked_put(key, value):
        put(key, value)
        peak[0] = max(peak[0], sum(entry.nbytes for entry in grid._matrix_cache.values()))

    grid.cache_put = tracked_put
    return peak


def grid14(bh, n: int):
    return bh.Grid.build(bh.WeightedMeasure(0.5), n, 44.0, 300.0, breakpoints=[k / 8 for k in range(1, 17)])


def kernel_probe(bh) -> dict:
    from besselhardy import kernel as km

    m = bh.WeightedMeasure(0.5)
    keys = ("build_ms", "kernel_matrix_ms", "build_peak_mb", "kept_pairs", "subnormal_entries", "cache_mb")
    out: dict = {k: {} for k in keys}
    out.update(matvec_us={}, sha256={})
    for n in SIZES:
        for label, dt in STEPS.items():
            for key, build in (("build_ms", km._raw_matrix), ("kernel_matrix_ms", bh.kernel_matrix)):
                grids = [grid14(bh, n) for _ in range(WARMUP_BUILDS + BUILDS)]
                out[key].setdefault(str(n), {})[label] = round(median_ms(lambda: build(m, grids.pop(), dt)), 2)
            g = grid14(bh, n)
            tracemalloc.start()
            band = bh.kernel_matrix(m, g, dt)
            out["build_peak_mb"].setdefault(str(n), {})[label] = round(tracemalloc.get_traced_memory()[1] / 1e6, 2)
            tracemalloc.stop()
            raw = km._raw_matrix(m, g, dt).toarray()
            out["cache_mb"].setdefault(str(n), {})[label] = round(band.nbytes / 1e6, 3)
            out["kept_pairs"][f"n={n} dt={label}"] = int(np.count_nonzero(np.triu(raw)))
            for kind, mat in (("raw", raw), ("scaled", band.toarray())):
                out["sha256"][f"n={n} dt={label} {kind}"] = sha256(mat)
                tiny = (mat != 0.0) & (np.abs(mat) < np.finfo(mat.dtype).tiny)
                out["subnormal_entries"][f"n={n} dt={label} {kind}"] = int(np.count_nonzero(tiny))
            if n in MATVEC_SIZES:
                dense = km._zeros_line_aligned(n * n).reshape(n, n)  # the dense cache before band storage
                dense[...] = band.toarray()
                w, v = g.weights, np.random.default_rng(0).uniform(0.0, 1.0, n)
                for kind, op in (("band", band), ("dense", dense)):

                    def matvecs():
                        for _ in range(MATVECS):
                            op @ (w * v)

                    us = 1e3 * best_ms(matvecs) / MATVECS
                    out["matvec_us"].setdefault(f"n={n} dt={label}", {})[kind] = round(us, 1)

    z = np.exp(np.random.default_rng(0).uniform(math.log(1e-3), math.log(1e5), BESSEL_EVALS))
    out["bessel_evals_per_s"] = round(1e3 * BESSEL_EVALS / best_ms(lambda: bh.bessel_i_scaled_ratio(m.kernel_order, z)))
    calls: list = []
    with recording(km, "bessel_i_scaled_ratio", calls):
        km._raw_matrix(m, grid14(bh, 900), 1e-3)
    out["bessel_evals_kernel_args"] = sum(np.size(z) for _, z in calls)
    ms = best_ms(lambda: [bh.bessel_i_scaled_ratio(m.kernel_order, z) for _, z in calls])
    out["bessel_evals_per_s_kernel_args"] = round(1e3 * out["bessel_evals_kernel_args"] / ms)

    g = grid14(bh, 900)
    x, y = (float(g.nodes[g.index_of(p)]) for p in (1.2, 2.0))
    out["heat_kernel_scalar_us"] = {}
    calls = 200
    for t in (0.5, 0.01):
        ms = best_ms(lambda: [bh.heat_kernel(m, t, x, y) for _ in range(calls)])
        out["heat_kernel_scalar_us"][str(t)] = round(1e3 * ms / calls, 1)

    v = bh.Potential(pieces=((0.0, 1.5, 0.7), (1.5, 3.0, 1.9), (3.0, 30.0, 0.4)))
    scheme = bh.SplittingScheme(steps_per_unit=16.0, min_steps=2)
    out.update(perturbation_ms={}, perturbation_builds={})
    for panels in (10, 20):
        grids = [grid14(bh, 900) for _ in range(REPEATS + 1)]

        def run():
            bh.perturbation_residual(m, v, 0.5, 1.2, 2.0, grids.pop(), panels, scheme)

        out["perturbation_ms"][str(panels)] = round(best_ms(run), 1)
        builds: list = []
        with recording(km, "_raw_matrix", builds):
            run()
        out["perturbation_builds"][str(panels)] = len(builds)
    return out


def decay_probe(bh, configs: dict) -> dict:
    """``cold_ms``, ``warm_ms``, ``builds``, ``eighs`` and ``sha256`` of a decay check per config.

    ``configs`` maps a name to ``(build, run)``: ``build()`` makes a fresh
    grid and ``run(grid)`` checks on it.
    """
    from besselhardy import kernel as km

    out: dict = {"cold_ms": {}, "warm_ms": {}, "builds": {}, "eighs": {}, "sha256": {}}
    for name, (build, run) in configs.items():
        grids = [build() for _ in range(REPEATS)]
        out["cold_ms"][name] = round(best_ms(lambda: run(grids.pop())), 2)
        grid = build()
        builds: list = []
        eighs: list = []
        with recording(km, "_raw_matrix", builds), recording(np.linalg, "eigh", eighs):
            rep = run(grid)
        out["warm_ms"][name] = round(best_ms(lambda: run(grid)), 2)
        out["builds"][name], out["eighs"][name] = len(builds), len(eighs)
        out["sha256"][name] = sha256(*(a for e in rep.entries for a in (e.values, np.float64(e.fitted_exponent))))
    return out


def decay_configs(bh):
    """The measure, the ``besselhardy all`` config and its section and grid maker, V = 1/x and its section of [0, 8]."""
    from besselhardy import cli

    cfg = cli.RunConfig()
    cli_section = bh.build_section(cfg.measure, cfg.potential, cfg.window)
    vpow = bh.Potential.power(1.0, 1.0)
    sec_pow = bh.build_section(cfg.measure, vpow, bh.Interval(0.0, 8.0))
    return cfg.measure, cfg, cli_section, lambda: cli._grid_for(cfg, cli_section), vpow, sec_pow


def section_probe(bh) -> dict:
    m = bh.WeightedMeasure(0.5)
    configs = {
        "v1": (bh.Potential.constant(1.0), bh.Interval(0.0, 4.0)),
        "pow": (bh.Potential.power(1.0, 1.0), bh.Interval(0.0, 8.0)),
    }
    out: dict = {"build_ms": {}, "sha256": {}}
    for name, (v, window) in configs.items():
        out["build_ms"][name] = round(best_ms(lambda: bh.build_section(m, v, window)), 3)
        section = bh.build_section(m, v, window)
        f = [(bh.s_functional(m, v, d), bh.s_functional(m, v, d.parent())) for d in section]
        out["sha256"][name] = sha256([(d.n, d.k) for d in section], f)
    return out


def k_probe(bh) -> dict:
    m, cfg, cli_section, cli_grid, vpow, sec_pow = decay_configs(bh)
    return decay_probe(
        bh,
        {
            "cli": (cli_grid, lambda g: bh.check_condition_K(m, cfg.potential, cli_section, g, t_count=5)),
            "grid900": (lambda: grid14(bh, 900), lambda g: bh.check_condition_K(m, vpow, sec_pow, g, t_count=6)),
        },
    )


def d_probe(bh) -> dict:
    m, cfg, cli_section, cli_grid, vpow, sec_pow = decay_configs(bh)
    return decay_probe(
        bh,
        {
            "cli": (cli_grid, lambda g: bh.check_condition_D(m, cfg.potential, cli_section, g, n_max=6)),
            "grid900": (
                lambda: grid14(bh, 900),
                lambda g: bh.check_condition_D(m, vpow, sec_pow, g, intervals=[sec_pow.intervals[1]], n_max=8),
            ),
        },
    )


def fk_probe(bh) -> dict:
    from besselhardy import semigroup

    m = bh.WeightedMeasure(0.5)
    v08 = bh.Potential(pieces=((0.0, 1.3, 0.7), (1.3, 4.1, 2.0), (4.1, 30.0, 0.4)))
    configs = {
        "cli": (bh.Potential.constant(1.0, (0.0, 1024.0)), lambda x: np.where(x <= 0.5, 1.0, 0.0), 0.5, 20_000, 200),
        "test08": (v08, lambda x: np.exp(-((x - 2.0) ** 2)), 0.6, 40_000, 250),
    }
    out: dict = {"fk_ms": {}, "path_steps_per_s": {}, "sha256": {}}
    for name, (potential, f, t, n_paths, n_steps) in configs.items():
        results = []
        ms = best_ms(lambda: results.append(bh.feynman_kac(m, potential, t, 1.0, f, n_paths, n_steps, 0)))
        out["fk_ms"][name] = round(ms, 1)
        out["path_steps_per_s"][name] = round(1e3 * n_paths * n_steps / ms)
        out["sha256"][name] = sha256([results[-1].estimate, results[-1].stderr])
    out["chunks"] = semigroup._FK_CHUNKS
    return out


def cli_probe(bh) -> dict:
    from besselhardy.cli import main as cli_main

    out: dict = {"sha256": {}, "exit": {}}
    for seed in CLI_SEEDS:
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            out["exit"][str(seed)] = cli_main(["all", "--seed", str(seed), "--out", tmp])
            for path in sorted(Path(tmp).iterdir()):
                if path.suffix == ".csv" or path.name == "section.txt":
                    out["sha256"][f"seed {seed}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def import_probe(bh) -> dict:
    code = (
        "import json, sys, time\n"
        "t0 = time.perf_counter()\n"
        "import besselhardy.cli\n"
        "ms = 1e3 * (time.perf_counter() - t0)\n"
        # VmHWM, the peak RSS of this process image: ru_maxrss keeps the
        # launching process's peak across the exec of a vfork
        "kb = next(int(line.split()[1]) for line in open('/proc/self/status') if line.startswith('VmHWM:'))\n"
        "print(json.dumps([ms, kb / 1024, sorted(k for k in sys.modules if k.split('.')[0] == 'scipy')]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(bh.__file__).resolve().parents[1]))
    cmd = [sys.executable, "-c", code]
    runs = [json.loads(subprocess.run(cmd, env=env, capture_output=True, check=True).stdout) for _ in range(REPEATS)]
    return {
        "import_ms": round(min(ms for ms, _, _ in runs), 1),
        "peak_rss_mb": round(min(rss for _, rss, _ in runs), 1),
        "scipy_modules": runs[0][2],
    }


def quad_probe(bh) -> dict:
    from besselhardy import cli, conditions

    cfg = cli.RunConfig()
    m = cfg.measure
    section = bh.build_section(m, cfg.potential, cfg.window)
    grid = cli._grid_for(cfg, section)
    host = section.intervals[min(1, len(section.intervals) - 1)]
    profile = bh.find_balanced_J(m, cfg.potential, host)
    z = float(grid.nodes[grid.index_of(host.to_interval().center)])
    us = host.length**2 * np.geomspace(0.05, 64.0, 9)
    j = profile.balanced
    bumps = (conditions.SmoothBump(j.a, j.b), conditions.LeftPlateauBump(0.25 * j.a + 1e-3, j.b))

    def mass():
        reps = [bh.heat_kernel_mass_residual(m, t, y, 1e-10) for t in (0.1, 1.0, 10.0) for y in (0.5, 2.0)]
        return [r.residual for r in reps] + [float(r.converged) for r in reps]

    groups = {
        "mass": mass,
        "weak": lambda: [bh.phi_equation_residual(profile, bump) for bump in bumps],
        "tail": lambda: [conditions._tail_bound(m, profile, z, float(u), grid.x_max) for u in us],
    }
    out: dict = {"ms": {}, "sha256": {}}
    for name, run in groups.items():
        out["ms"][name] = round(best_ms(run), 2)
        out["sha256"][name] = sha256(np.array(run()))
    return out


def cache_probe(bh) -> dict:
    from besselhardy import kernel as km

    m = bh.WeightedMeasure(0.5)
    v1, vpow = bh.Potential.constant(1.0), bh.Potential.power(1.0, 1.0)
    profile = bh.find_balanced_J(m, v1, bh.build_section(m, v1, bh.Interval(0.0, 4.0)).intervals[0])
    us = profile.host.length**2 * np.exp(np.linspace(math.log(1e-3), math.log(100.0), 21))
    z = profile.host.to_interval().center
    section = bh.build_section(m, vpow, bh.Interval(0.0, 8.0))
    v09 = bh.Potential(pieces=((0.0, 1.5, 0.7), (1.5, 3.0, 1.9), (3.0, 30.0, 0.4)))
    scheme = bh.SplittingScheme(steps_per_unit=16.0, min_steps=2)
    grid = grid14(bh, 900)
    peak = tracking_peak(grid)

    def one_round():
        outputs = [bh.check_superharmonic(m, v1, profile, z, us, grid).thetas for _ in range(2)]
        d = bh.check_condition_D(m, vpow, section, grid, intervals=[section.intervals[1]], n_max=8, steps_per_leg=9)
        outputs += [e.values for e in d.entries]
        for s_steps in (10, 20):
            rep = bh.perturbation_residual(m, v09, 0.5, 1.2, 2.0, grid, s_steps, scheme)
            outputs.append([rep.lhs, rep.rhs])
        return outputs

    out: dict = {"builds": [], "decompositions": [], "round_ms": [], "sha256": {}}
    for k in range(1, 4):
        builds: list = []
        eighs: list = []
        with recording(km, "_raw_matrix", builds), recording(np.linalg, "eigh", eighs):
            t0 = time.perf_counter()
            outputs = one_round()
            out["round_ms"].append(round(1e3 * (time.perf_counter() - t0), 1))
        out["builds"].append(len(builds))
        out["decompositions"].append(len(eighs))
        out["sha256"][f"round {k}"] = sha256(*outputs)
    out["cache_mb_peak"] = round(peak[0] / 1e6, 2)
    return out


def sweep_probe(bh) -> dict:
    from besselhardy import kernel as km

    sys.path.insert(0, str(Path(bh.__file__).resolve().parents[2] / "bench"))
    import workloads

    work = workloads.SweepCold(SWEEP_SEED)
    peak = tracking_peak(work.grid)
    out: dict = {"builds": [], "decompositions": [], "failed": []}
    for _ in range(SWEEP_ROUNDS):
        builds: list = []
        eighs: list = []
        with recording(km, "_raw_matrix", builds), recording(np.linalg, "eigh", eighs):
            for _ in range(work.round_size):
                inputs = work.draw()
                out["failed"] += work.check(inputs, work.compute(inputs))
        out["builds"].append(len(builds))
        out["decompositions"].append(len(eighs))
    out["cache_mb_peak"] = round(peak[0] / 1e6, 2)
    return out


def resolvent_probe(bh) -> dict:
    from besselhardy import generator

    m, v = bh.WeightedMeasure(0.5), bh.Potential.power(1.0, 1.0)
    times = 0.5 * np.geomspace(0.25, 1.0, 21)
    out: dict = {"window_ms": {}, "solves_per_window": {}, "deviation": {}, "sha256": {}}
    for n in RESOLVENT_SIZES:
        grid = grid14(bh, n)
        f = bh.GridFunction.point_mass(grid, 2.0).values
        out["window_ms"][str(n)] = round(best_ms(lambda: generator.resolvent_sweep(m, grid, v, f, times)), 2)
        calls: list = []
        with recording(generator, "_cyclic_reduction", calls):
            got = generator.resolvent_sweep(m, grid, v, f, times)
        top = [diag.shape[0] for _, diag, _, _ in calls if diag.shape[-1] == n]
        out["solves_per_window"][str(n)] = top[0] if len(set(top)) == 1 else top
        want = generator.sweep(generator.spectrum(m, grid, v), f, slice(None), times)
        out["deviation"][str(n)] = float(np.max(np.abs(got - want)) / np.max(f))
        out["sha256"][str(n)] = sha256(got)
    return out


def superharmonic_probe(bh) -> dict:
    from besselhardy import generator

    m = bh.WeightedMeasure(0.5)
    v1, vpow = bh.Potential.constant(1.0), bh.Potential.power(1.0, 1.0)
    out: dict = {"eigh_ms": {}, "eigh_peak_mb": {}, "sweep_ms": {}, "sha256": {}}
    for n in SIZES:
        grids = [grid14(bh, n) for _ in range(REPEATS)]
        out["eigh_ms"][str(n)] = round(best_ms(lambda: generator.spectrum(m, grids.pop(), v1)), 1)
        tracemalloc.start()
        generator.spectrum(m, grid14(bh, n), v1)
        out["eigh_peak_mb"][str(n)] = round(tracemalloc.get_traced_memory()[1] / 1e6, 2)
        tracemalloc.stop()
    sec1, sec_pow = bh.build_section(m, v1, bh.Interval(0.0, 4.0)), bh.build_section(m, vpow, bh.Interval(0.0, 8.0))
    profiles = {
        "V=1 I0": (v1, sec1.intervals[0]),
        "V=1 I1": (v1, sec1.intervals[1]),
        "V=1/x I1": (vpow, sec_pow.intervals[1]),
        "V=1/x I5": (vpow, sec_pow.intervals[5]),
    }
    grid = grid14(bh, 900)
    for name, (v, host) in profiles.items():
        profile = bh.find_balanced_J(m, v, host)
        us = host.length**2 * np.exp(np.linspace(math.log(1e-3), math.log(100.0), 21))

        def run():
            return bh.check_superharmonic(m, v, profile, host.to_interval().center, us, grid)

        rep = run()  # untimed, so the timed calls find its spectrum or kernel matrices cached
        out["sweep_ms"][name] = round(best_ms(run), 2)
        out["sha256"][name] = sha256(rep.us, rep.thetas, rep.truncation_bars)
    return out


def evolve_probe(bh) -> dict:
    from besselhardy import cli

    m = bh.WeightedMeasure(0.5)
    cfg = cli.RunConfig()
    grids = {
        "grid900": lambda: grid14(bh, 900),
        "warm420": lambda: bh.Grid.build(m, 420, 24.0, 80.0, breakpoints=[k / 2 for k in range(1, 9)]),
        "cli320": lambda: cli._grid_for(cfg, bh.build_section(m, cfg.potential, cfg.window)),
    }
    v = bh.Potential.power(1.0, 1.0)
    out: dict = {"us_per_step": {}, "matrix_mb": {}, "sha256": {}}
    for name, build in grids.items():
        for label, dt in EVOLVE_DT.items():
            g = build()
            f = bh.GridFunction(g, np.exp(-((g.nodes - 2.0) ** 2)))
            out["matrix_mb"][f"{name} dt={label}"] = round(bh.kernel_matrix(m, g, dt).nbytes / 1e6, 3)
            for k in EVOLVE_STEPS:
                key = f"{name} dt={label} steps={k}"
                outputs = []
                ms = best_ms(lambda: outputs.append(bh.schrodinger_apply(m, v, k * dt, f, n_steps=k)))
                out["us_per_step"][key] = round(1e3 * ms / k, 1)
                out["sha256"][key] = sha256(outputs[-1].values)
    return out


def hardy_probe(bh) -> dict:
    from besselhardy import cli
    from besselhardy import kernel as km

    cfg = cli.RunConfig()
    m = cfg.measure
    section = bh.build_section(m, cfg.potential, cfg.window, beta=1.2)

    def run(grid):
        atoms = [(bh.make_local_atom(grid, d.to_interval()), d.length) for d in section]
        return [bh.local_hardy_norm(m, bh.Potential.zero(), a.values, tau, n_times=14) for a, tau in atoms]

    grids = [cli._grid_for(cfg, section) for _ in range(REPEATS)]
    out: dict = {"cold_ms": round(best_ms(lambda: run(grids.pop())), 2)}
    grid = cli._grid_for(cfg, section)
    builds: list = []
    eighs: list = []
    with recording(km, "_raw_matrix", builds), recording(np.linalg, "eigh", eighs):
        results = run(grid)
    out.update(warm_ms=round(best_ms(lambda: run(grid)), 2), builds=len(builds), eighs=len(eighs))
    out["sha256"] = {
        str(d): sha256([r.value, r.value_half_range, r.value_double_range]) for d, r in zip(section, results)
    }
    return out


def host() -> dict:
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"python": platform.python_version(), "numpy": np.__version__, "machine": platform.machine(), "cpus": cpus}


def py_lines(folder: Path) -> int:
    """The lines of every ``*.py`` file under ``folder``."""
    return sum(len(p.read_text().splitlines()) for p in sorted(folder.rglob("*.py")))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src")
    src = parser.parse_args().src.resolve()
    sys.path.insert(0, str(src))
    import besselhardy as bh

    out = {"host": host() | {"blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}, "repeats": REPEATS}
    out["src_lines"] = py_lines(src / "besselhardy")
    probes = {
        "kernel": kernel_probe,
        "section": section_probe,
        "k": k_probe,
        "d": d_probe,
        "fk": fk_probe,
        "cli": cli_probe,
        "import": import_probe,
        "quad": quad_probe,
        "cache": cache_probe,
        "sweep": sweep_probe,
        "resolvent": resolvent_probe,
        "superharmonic": superharmonic_probe,
        "evolve": evolve_probe,
        "hardy": hardy_probe,
    }
    for name, probe in probes.items():
        out[name] = probe(bh)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
