import hashlib
import math
import os
import signal
import subprocess
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from besselhardy import (
    AtomicCombination,
    BesselHardyError,
    ConfigError,
    GridFunction,
    Interval,
    InvalidInput,
    Potential,
    QuadratureBudgetExceeded,
    SampleSpec,
    SplittingScheme,
    WeightedMeasure,
    besq_terminal_samples,
    bessel_i_scaled_ratio,
    build_section,
    check_condition_D,
    check_condition_K,
    check_superharmonic,
    feynman_kac,
    find_balanced_J,
    gaussian_bound_constants,
    hardy_norm,
    heat_evolve,
    heat_kernel,
    heat_kernel_mass_residual,
    kernel_matrix,
    local_hardy_norm,
    make_local_atom,
    make_mu_atom,
    maximal_function,
    perturbation_residual,
    resupport_atom,
    schrodinger_apply,
)
from besselhardy import generator
from besselhardy import kernel as kernel_module
from besselhardy import semigroup as semigroup_module
from besselhardy.grid import Grid
from besselhardy.hardy import log_time_grid
from besselhardy.measure import ball, enlarge, parse_potential
from besselhardy.section import DyadicInterval
from conftest import fit_slope

SCHEME = SplittingScheme(steps_per_unit=32.0, min_steps=2)


def strang_on_base(m, potential, t, f, steps, base=256):
    """K_t f by ``steps`` Strang steps whose kinetic factor is ``base // steps`` products with one matrix.

    Every step count shares the matrix of t / ``base``, which pins the
    spatial operator and leaves the time error of the splitting alone.
    """
    grid = f.grid
    half = np.exp(-0.5 * (t / steps) * np.asarray(potential(grid.nodes), dtype=np.float64))
    mat = kernel_matrix(m, grid, t / base)
    out = f.values
    for _ in range(steps):
        out = half * out
        for _ in range(base // steps):
            out = mat @ (grid.weights * out)
        out = half * out
    return out


def bump(grid, center=2.0, width=0.5):
    return GridFunction(grid, np.exp(-((grid.nodes - center) ** 2) / width**2))


def piecewise_v():
    return Potential(pieces=((0.0, 1.0, 2.0), (1.0, 3.0, 0.5), (3.0, 30.0, 1.5)))


class TestSplitting:
    def test_zero_potential_collapses_to_heat(self, m_half, grid_half):
        f = bump(grid_half)
        ks = schrodinger_apply(m_half, Potential.zero(), 0.4, f, SCHEME)
        ph = heat_evolve(m_half, 0.4, f, SCHEME)
        assert np.array_equal(ks.values, ph.values)

    def test_constant_potential_commutes(self, m_half, grid_half):
        c, t = 0.7, 0.6
        f = bump(grid_half)
        ks = schrodinger_apply(m_half, Potential.constant(c, (0.0, 100.0)), t, f, SCHEME)
        ph = math.exp(-c * t) * heat_evolve(m_half, t, f, SCHEME)
        rel = np.max(np.abs(ks.values - ph.values)) / np.max(ph.values)
        assert rel < 1e-12

    def test_domination_and_contraction_random(self, m_half, grid_half):
        rng = np.random.default_rng(8)
        for _ in range(25):
            f = GridFunction(grid_half, rng.uniform(0.0, 2.0, len(grid_half)))
            v = Potential(
                pieces=tuple(
                    (float(3 * i), float(3 * i + 3), float(rng.uniform(0.0, 4.0))) for i in range(5)
                )
            )
            t = 10.0 ** rng.uniform(-2, 0.3)
            steps = SCHEME.steps_for(t)
            ks = schrodinger_apply(m_half, v, t, f, SCHEME)
            ph = heat_evolve(m_half, t, f, SCHEME, n_steps=steps)
            assert np.all(ks.values >= 0.0)
            assert np.all(ks.values <= ph.values)
            assert ks.l1() <= f.l1()

    def test_self_convergence_is_second_order(self, m_half, grid_half):
        # smooth potential; the kinetic factor is made of one shared base
        # matrix so the spatial operator is pinned across refinements
        f = bump(grid_half)

        class SmoothPotential:
            def __call__(self, x):
                return 3.0 * np.exp(-((np.asarray(x, dtype=np.float64) - 2.0) ** 2))

            def validate_for(self, alpha):
                pass

        sv = SmoothPotential()
        t = 0.5
        ref = strang_on_base(m_half, sv, t, f, 128)
        errs = []
        steps_list = (4, 8, 16, 32)
        for steps in steps_list:
            errs.append(np.max(np.abs(strang_on_base(m_half, sv, t, f, steps) - ref)))
        slope = fit_slope(np.log2(steps_list), np.log2(errs))
        assert -2.35 < slope < -1.65

    def test_piecewise_potential_order_reduction(self, m_half, grid_half):
        # discontinuous V triggers the classical splitting order reduction:
        # convergence persists but the observed rate drops toward first order
        f = bump(grid_half)
        v = piecewise_v()
        t = 0.5
        ref = strang_on_base(m_half, v, t, f, 128)
        errs = []
        steps_list = (4, 8, 16, 32)
        for steps in steps_list:
            errs.append(np.max(np.abs(strang_on_base(m_half, v, t, f, steps) - ref)))
        slope = fit_slope(np.log2(steps_list), np.log2(errs))
        assert slope < -0.8  # still convergent
        assert np.all(np.diff(errs) < 0)

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("evolve", ["schrodinger_apply", "heat_evolve"])
    def test_bad_time_rejected(self, m_half, t, evolve):
        grid = Grid.build(m_half, 40, 8.0, 10.0)
        f = GridFunction.ones(grid)
        with pytest.raises(ValueError, match="time must be positive and finite"):
            if evolve == "schrodinger_apply":
                schrodinger_apply(m_half, Potential.constant(1.0), t, f, SCHEME)
            else:
                heat_evolve(m_half, t, f, SCHEME)
        assert not grid._matrix_cache


class TestEvolutionProperties:
    """Split and heat evolution with the same steps keep the continuous structure."""

    @given(
        alpha=st.floats(min_value=0.2, max_value=3.0),
        n=st.integers(min_value=8, max_value=150),
        ratio=st.floats(min_value=1.0, max_value=1000.0),
        x_max=st.floats(min_value=2.0, max_value=60.0),
        t=st.floats(min_value=1e-3, max_value=2.0),
        cuts=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=4),
        levels=st.lists(st.floats(min_value=0.0, max_value=20.0), min_size=5, max_size=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_positivity_domination_contraction(self, alpha, n, ratio, x_max, t, cuts, levels, seed):
        m = WeightedMeasure(alpha)
        grid = Grid.build(m, n, x_max, ratio)
        inner = sorted({p for p in (x_max * c for c in cuts) if 0.0 < p < x_max})
        ends = [0.0, *inner, x_max]
        v = Potential(pieces=tuple((a, b, lev) for a, b, lev in zip(ends, ends[1:], levels)))
        rng = np.random.default_rng(seed)
        f = GridFunction(grid, rng.uniform(0.0, 2.0, n) * (rng.uniform(size=n) < 0.7))
        steps = SCHEME.steps_for(t)
        ks = schrodinger_apply(m, v, t, f, SCHEME)
        ph = heat_evolve(m, t, f, SCHEME, n_steps=steps)
        assert np.all(ks.values >= 0.0)
        assert np.all(ks.values <= ph.values)
        for out in (ks, ph):
            assert out.l1() <= f.l1()
            assert out.values.max() <= f.values.max()


def serial_evolve(m, potential, t, f, steps):
    """K_t f by the Strang loop of ``mat @`` on fresh arrays, the reference for the planned loop."""
    grid = f.grid
    half = np.exp(-0.5 * (t / steps) * np.asarray(potential(grid.nodes), dtype=np.float64))
    mat = kernel_matrix(m, grid, t / steps)
    out = f.values
    for _ in range(steps):
        out = half * out
        out = mat @ (grid.weights * out)
        out = half * out
    return out


_EVOLVE_DIGEST = """
import hashlib, os, sys
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from besselhardy import Grid, GridFunction, Potential, WeightedMeasure, heat_evolve, schrodinger_apply
m = WeightedMeasure(0.5)
grid = Grid.build(m, 900, 44.0, 300.0, breakpoints=[k / 8 for k in range(1, 17)])
f = GridFunction(grid, np.exp(-((grid.nodes - 2.0) ** 2)))
ks = schrodinger_apply(m, Potential.power(1.0, 1.0), 40 / 16, f, n_steps=40)
ph = heat_evolve(m, 40 / 16, f, n_steps=40)
print(hashlib.sha256(ks.values.tobytes() + ph.values.tobytes()).hexdigest())
"""


class TestSplitEvolution:
    """Strang evolution runs one serial loop of one ``np.dot`` per band block, with the bits of ``mat @``."""

    @given(
        alpha=st.floats(min_value=0.2, max_value=3.0),
        n=st.integers(min_value=130, max_value=600),
        ratio=st.floats(min_value=1.0, max_value=1000.0),
        x_max=st.floats(min_value=2.0, max_value=60.0),
        t=st.floats(min_value=1e-3, max_value=4.0),
        steps=st.integers(min_value=1, max_value=40),
        cuts=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=4),
        levels=st.lists(st.floats(min_value=0.0, max_value=20.0), min_size=5, max_size=5),
        power=st.none() | st.tuples(st.floats(min_value=0.1, max_value=5.0), st.floats(min_value=-2.0, max_value=1.1)),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_split_equals_the_serial_loop(self, alpha, n, ratio, x_max, t, steps, cuts, levels, power, seed):
        m = WeightedMeasure(alpha)
        grid = Grid.build(m, n, x_max, ratio)
        if power is None:
            ends = [0.0, *sorted({p for p in (x_max * c for c in cuts) if 0.0 < p < x_max}), x_max]
            v = Potential(pieces=tuple((a, b, lev) for a, b, lev in zip(ends, ends[1:], levels)))
        else:
            v = Potential.power(*power)
        f = GridFunction(grid, np.random.default_rng(seed).uniform(0.0, 2.0, n))
        ks = schrodinger_apply(m, v, t, f, n_steps=steps)
        ph = heat_evolve(m, t, f, n_steps=steps)
        assert ks.values.tobytes() == serial_evolve(m, v, t, f, steps).tobytes()
        assert ph.values.tobytes() == serial_evolve(m, Potential.zero(), t, f, steps).tobytes()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
    def test_bits_do_not_depend_on_cpus_or_blas_threads(self, m_half):
        src = str(Path(semigroup_module.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = {
            (form, blas): subprocess.run(
                [sys.executable, "-c", _EVOLVE_DIGEST, form],
                env=dict(env, OPENBLAS_NUM_THREADS=blas, OMP_NUM_THREADS=blas),
                capture_output=True,
                text=True,
                check=True,
                timeout=120,
            ).stdout.split()
            for form, blas in (("default", "1"), ("default", "2"), ("pinned", "2"))
        }
        grid = Grid.build(m_half, 900, 44.0, 300.0, breakpoints=[k / 8 for k in range(1, 17)])
        f = GridFunction(grid, np.exp(-((grid.nodes - 2.0) ** 2)))
        ks = serial_evolve(m_half, Potential.power(1.0, 1.0), 40 / 16, f, 40)
        ph = serial_evolve(m_half, Potential.zero(), 40 / 16, f, 40)
        want = [hashlib.sha256(ks.tobytes() + ph.tobytes()).hexdigest()]
        assert list(out.values()) == [want] * 3


class TestKernelColumn:
    def test_zero_potential_column_matches_kernel(self, m_half, grid_half):
        t, y = 0.5, 1.0
        col = schrodinger_apply(m_half, Potential.zero(), t, GridFunction.point_mass(grid_half, y), SCHEME)
        y_node = grid_half.nodes[grid_half.index_of(y)]
        exact = heat_kernel(m_half, t, grid_half.nodes, y_node)
        peak = exact.max()
        sig = exact > 1e-6 * peak
        assert np.max(np.abs(col.values - exact)[sig]) < 3e-3 * peak

    def test_column_dominated_by_heat_kernel(self, m_half, grid_half):
        t, y = 0.5, 1.5
        v = Potential.constant(0.8, (0.0, 100.0))
        col = schrodinger_apply(m_half, v, t, GridFunction.point_mass(grid_half, y), SCHEME)
        y_node = grid_half.nodes[grid_half.index_of(y)]
        exact = heat_kernel(m_half, t, grid_half.nodes, y_node)
        assert np.all(col.values >= 0.0)
        assert np.all(col.values <= exact * (1.0 + 1e-6) + 1e-12 * exact.max())

    def test_column_mass_at_most_one(self, m_half, grid_half):
        col = schrodinger_apply(m_half, piecewise_v(), 0.7, GridFunction.point_mass(grid_half, 2.0), SCHEME)
        assert col.integral() <= 1.0 + 1e-12


class TestFeynmanKac:
    def test_zero_potential_unit(self, m_half):
        res = feynman_kac(m_half, Potential.zero(), 0.7, 1.0, lambda x: np.ones_like(x), 500, 20, seed=3)
        assert res.estimate == 1.0
        assert res.stderr == 0.0

    def test_constant_potential_deterministic_weight(self, m_half):
        # every path carries the same weight; stderr collapses to summation
        # rounding (~1 ulp) and the estimate matches e^{-ct} to accumulation
        # accuracy
        c, t = 1.3, 0.8
        res = feynman_kac(
            m_half, Potential.constant(c, (0.0, 1e6)), t, 1.0, lambda x: np.ones_like(x), 400, 50, seed=4
        )
        assert res.stderr < 1e-15
        assert res.estimate == pytest.approx(math.exp(-c * t), rel=1e-12)

    def test_reproducible_and_seed_sensitive(self, m_half):
        kw = dict(n_paths=300, n_steps=30)
        a = feynman_kac(m_half, piecewise_v(), 0.5, 1.0, lambda x: x, seed=11, **kw)
        b = feynman_kac(m_half, piecewise_v(), 0.5, 1.0, lambda x: x, seed=11, **kw)
        c = feynman_kac(m_half, piecewise_v(), 0.5, 1.0, lambda x: x, seed=12, **kw)
        assert a.estimate == b.estimate and a.stderr == b.stderr
        assert a.estimate != c.estimate

    def test_overflow_reported(self, m_half):
        # the overflow happens on the pool threads: each sets its own error
        # state, so no RuntimeWarning escapes even where warnings are errors
        nasty = Potential.power(1e308, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureBudgetExceeded):
                feynman_kac(m_half, nasty, 1.0, 0.5, lambda x: np.ones_like(x), 200, 40, seed=5)

    def test_besq_marginal_matches_kernel(self):
        # one exact transition, or eight composed; compare against the kernel
        # CDF.  At alpha 0.05 the chi-square part 4 dt G U^40 of a step is
        # mostly tiny, and 0 where U^40 underflows
        t, x0, n = 0.4, 1.0, 20000
        xs = np.linspace(1e-4, 8.0, 4000)
        for alpha in (0.05, 0.5, 3.0):
            m = WeightedMeasure(alpha)
            dens = heat_kernel(m, t, x0, xs) * xs**m.alpha
            cdf_grid = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(xs))])
            cdf_grid /= cdf_grid[-1]
            for n_steps in (1, 8):
                samples = besq_terminal_samples(m, t, x0, n, n_steps, seed=6)
                stat = kstest(samples, lambda v: np.interp(v, xs, cdf_grid)).statistic
                assert stat < 1.63 / math.sqrt(n), (alpha, n_steps, stat)

    def test_grid_cross_validation(self, m_half, grid_half):
        v = piecewise_v()
        t, x0 = 0.6, 1.5
        x0 = float(grid_half.nodes[grid_half.index_of(x0)])

        def f(x):
            return np.exp(-((x - 2.0) ** 2))

        res = feynman_kac(m_half, v, t, x0, f, 40000, 300, seed=7)
        on_grid = schrodinger_apply(m_half, v, t, GridFunction.from_callable(grid_half, f), SCHEME)
        grid_val = float(on_grid.values[grid_half.index_of(x0)])
        assert abs(res.estimate - grid_val) <= 3.0 * res.stderr + 2e-3


def serial_paths(m, potential, t, x0, n_paths, n_steps, seed):
    """Potential integrals and end points of the chunked sampler, drawn one chunk after another.

    Chunk k holds n_paths // K paths, one more for k < n_paths % K, and
    draws from the k-th spawned child of the seed.  Each step draws
    G ~ Gamma(alpha / 2 + 1), U ~ Uniform(0, 1) and Z ~ N(0, 1) for every
    path, in that order, and moves r to sqrt((r + sqrt(2 dt) Z)^2 + 4 dt G U^(2 / alpha)):
    the exact squared-Bessel transition, split into its Gaussian and its
    chi-square part.
    """
    k_chunks = semigroup_module._FK_CHUNKS
    dt = t / n_steps
    accums, ends = [], []
    for k, child in enumerate(np.random.SeedSequence(seed).spawn(k_chunks)):
        rng = np.random.default_rng(child)
        size = n_paths // k_chunks + (k < n_paths % k_chunks)
        r = np.full(size, x0)
        v_prev = potential(r)
        accum = np.zeros(size)
        for _ in range(n_steps):
            g = rng.standard_gamma(0.5 * m.alpha + 1.0, size=size)
            u = rng.random(size)
            z = rng.standard_normal(size)
            r = np.sqrt((r + math.sqrt(2.0 * dt) * z) ** 2 + (4.0 * dt) * g * u ** (2.0 / m.alpha))
            v_cur = potential(r)
            accum += (0.5 * dt) * (v_prev + v_cur)
            v_prev = v_cur
        accums.append(accum)
        ends.append(r)
    return np.concatenate(accums), np.concatenate(ends)


_FK_DIGEST = """
import hashlib, os, sys
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from besselhardy import Potential, WeightedMeasure, besq_terminal_samples, feynman_kac
m = WeightedMeasure(0.5)
v = Potential(pieces=((0.0, 1.0, 2.0), (1.0, 3.0, 0.5), (3.0, 30.0, 1.5)))
res = feynman_kac(m, v, 0.5, 1.0, lambda x: np.exp(-x), 2001, 30, seed=11)
ends = besq_terminal_samples(m, 0.5, 1.0, 2001, 30, seed=11)
print(res.estimate.hex(), res.stderr.hex(), hashlib.sha256(ends.tobytes()).hexdigest())
"""


class TestChunkedSampler:
    """Paths are drawn in a fixed number of chunks, each from its own child stream, on its own thread."""

    @pytest.mark.parametrize("n_paths", [1, 2, 3, 500, 1001])
    def test_equals_a_serial_oracle(self, m_half, n_paths):
        v = piecewise_v()

        def f(x):
            return np.exp(-((x - 1.5) ** 2))

        accum, ends = serial_paths(m_half, v, 0.6, 1.2, n_paths, 25, 17)
        vals = np.exp(-accum) * f(ends)
        res = feynman_kac(m_half, v, 0.6, 1.2, f, n_paths, 25, seed=17)
        assert res.estimate == float(np.mean(vals))
        if n_paths > 1:
            assert res.stderr == float(np.std(vals, ddof=1) / math.sqrt(n_paths))
        samples = besq_terminal_samples(m_half, 0.6, 1.2, n_paths, 25, seed=17)
        assert samples.tobytes() == serial_paths(m_half, Potential.zero(), 0.6, 1.2, n_paths, 25, 17)[1].tobytes()

    def test_concurrent_callers_get_the_same_bits(self, m_half):
        # callers on four threads draw at once; a short switch interval interleaves them
        def run(_):
            return feynman_kac(m_half, piecewise_v(), 0.5, 1.0, np.exp, 801, 20, seed=5)

        want = run(None)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as callers:
                got = list(callers.map(run, range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert got == [want] * 8

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_forked_child_draws_on_its_own_pool(self, m_half):
        # the child inherits none of the parent's threads and starts its own
        want = feynman_kac(m_half, piecewise_v(), 0.5, 1.0, np.exp, 101, 10, seed=9)
        pid = os.fork()
        if pid == 0:
            try:
                got = feynman_kac(m_half, piecewise_v(), 0.5, 1.0, np.exp, 101, 10, seed=9)
                os._exit(0 if got == want else 1)
            finally:
                os._exit(2)
        deadline = time.monotonic() + 60.0
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
    def test_bits_do_not_depend_on_the_cpu_count(self):
        src = str(Path(semigroup_module.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = {
            form: subprocess.run(
                [sys.executable, "-c", _FK_DIGEST, form], env=env, capture_output=True, text=True, check=True
            ).stdout.split()
            for form in ("pinned", "default")
        }
        assert len(out["pinned"]) == 3 and out["pinned"] == out["default"]


class TestPerturbationFormula:
    def test_zero_potential_residual_is_grid_error(self, m_half, grid_half):
        rep = perturbation_residual(m_half, Potential.zero(), 0.5, 1.0, 1.5, grid_half, s_steps=8)
        assert rep.rhs == 0.0
        assert rep.residual < 5e-3 * rep.scale

    def test_constant_potential_identity(self, m_half, grid_half):
        c, t = 1.0, 0.5
        v = Potential.constant(c, (0.0, 100.0))
        rep = perturbation_residual(m_half, v, t, 1.0, 1.5, grid_half, s_steps=16)
        # both sides equal (1 - e^{-ct}) P_t(x, y) analytically
        assert rep.lhs == pytest.approx(-math.expm1(-c * t) * rep.scale, rel=2e-2)
        assert rep.residual < 5e-3 * rep.scale

    def test_generic_residual_small_and_refinement_stable(self, m_half, grid_half):
        rng = np.random.default_rng(9)
        for _ in range(3):
            v = piecewise_v()
            t = float(rng.uniform(0.2, 0.8))
            x = float(rng.uniform(0.5, 3.0))
            y = float(rng.uniform(0.5, 3.0))
            coarse = perturbation_residual(m_half, v, t, x, y, grid_half, s_steps=10)
            fine = perturbation_residual(m_half, v, t, x, y, grid_half, s_steps=20)
            quad_tol = abs(fine.rhs - coarse.rhs) + 2e-3 * coarse.scale
            assert fine.residual < 5.0 * quad_tol

    def test_panel_legs_keep_their_values(self, m_half, grid_half):
        # composite 2-point Gauss-Legendre on equal panels: each node's column
        # from the cached FV spectrum and its row from a heat_kernel call of its own
        v = Potential(pieces=((0.0, 1.5, 0.7), (1.5, 3.0, 1.9), (3.0, 30.0, 0.4)))
        scheme = SplittingScheme(steps_per_unit=16.0, min_steps=2)
        t, x, y, panels = 0.5, 1.2, 2.0, 6
        rep = perturbation_residual(m_half, v, t, x, y, grid_half, s_steps=panels, scheme=scheme)
        gl_nodes, gl_weights = np.polynomial.legendre.leggauss(2)
        h = t / panels
        ix = grid_half.index_of(x)
        x = float(grid_half.nodes[ix])
        spec = generator.spectrum(m_half, grid_half, v)
        delta, rhs = GridFunction.point_mass(grid_half, y).values, 0.0
        for k in range(panels):
            for theta, w_s in zip((0.5 * (gl_nodes + 1.0)).tolist(), (0.5 * h * gl_weights).tolist()):
                s = (k + theta) * h
                col = generator.sweep(spec, delta, slice(None), np.array([s]))[0]
                row = heat_kernel(m_half, t - s, x, grid_half.nodes)
                rhs += w_s * float((row * v(grid_half.nodes) * col) @ grid_half.weights)
        p_xy = heat_kernel(m_half, t, x, float(grid_half.nodes[grid_half.index_of(y)]))
        k_xy = generator.sweep(spec, delta, ix, np.array([t]))[0]
        # the resolvent's error is about 1e-13 of max delta, and eigh's is as small on this grid
        assert rep.lhs == pytest.approx(p_xy - k_xy, rel=1e-10)
        assert rep.rhs == pytest.approx(rhs, rel=1e-10)
        assert all(type(f) is float for f in (rep.residual, rep.lhs, rep.rhs, rep.scale))

    @pytest.mark.parametrize("panels", [4, 10, 20])
    def test_three_kernel_builds_for_any_panel_count(self, m_half, monkeypatch, panels):
        # the columns come from the resolvent: no kernel build, no eigh, nothing cached
        calls = []

        def counting(original):
            def counted(*args):
                calls.append(args)
                return original(*args)

            return counted

        monkeypatch.setattr(kernel_module, "_raw_matrix", counting(kernel_module._raw_matrix))
        monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh))
        grid = Grid.build(m_half, 120, 24.0, 80.0)
        v = Potential(pieces=((0.0, 1.5, 0.7), (1.5, 30.0, 0.4)))
        perturbation_residual(m_half, v, 0.5, 1.2, 2.0, grid, s_steps=panels)
        assert calls == [] and not grid._matrix_cache


def parse_line_error(text):
    """The error of the line check that ``parse_potential`` wraps in a ConfigError."""
    try:
        parse_potential(text)
    except ConfigError as exc:
        raise exc.__cause__


V1 = Potential.constant(1.0)


def v1_section(m):
    return build_section(m, V1, Interval(0.0, 4.0))


def v1_profile(m):
    return find_balanced_J(m, V1, v1_section(m).intervals[1])


# every argument check of the library's entry points, one call each
BAD_CALLS = {
    "heat_kernel time": lambda m, g, f: heat_kernel(m, 0.0, 1.0, 2.0),
    "heat_kernel infinite time": lambda m, g, f: heat_kernel(m, math.inf, 1.0, 2.0),
    "heat_kernel points": lambda m, g, f: heat_kernel(m, 1.0, -1.0, -2.0),
    "heat_kernel infinite point": lambda m, g, f: heat_kernel(m, 1.0, np.array([1.0, math.inf]), 2.0),
    "heat_kernel NaN point": lambda m, g, f: heat_kernel(m, 1.0, 1.0, math.nan),
    "heat_kernel zero in a time array": lambda m, g, f: heat_kernel(m, np.array([0.1, 0.0]), 1.0, 2.0),
    "heat_kernel negative time array": lambda m, g, f: heat_kernel(m, np.array([-1.0, 0.2]), 1.0, 2.0),
    "heat_kernel NaN in a time array": lambda m, g, f: heat_kernel(m, np.array([[0.1], [math.nan]]), 1.0, 2.0),
    "heat_kernel infinite time array": lambda m, g, f: heat_kernel(m, np.array([math.inf]), 1.0, 2.0),
    "heat_kernel times that do not broadcast": lambda m, g, f: heat_kernel(
        m, np.array([0.1, 0.2, 0.3]), np.array([1.0, 2.0]), 2.0
    ),
    "kernel_matrix time": lambda m, g, f: kernel_matrix(m, g, -1.0),
    "mass_residual time": lambda m, g, f: heat_kernel_mass_residual(m, 0.0, 1.0),
    "mass_residual tolerance": lambda m, g, f: heat_kernel_mass_residual(m, 1.0, 1.0, 0.0),
    "mass_residual infinite tolerance": lambda m, g, f: heat_kernel_mass_residual(m, 1.0, 1.0, math.inf),
    "mass_residual NaN tolerance": lambda m, g, f: heat_kernel_mass_residual(m, 1.0, 1.0, math.nan),
    "mass_residual negative y": lambda m, g, f: heat_kernel_mass_residual(m, 1.0, -1.0),
    "mass_residual NaN y": lambda m, g, f: heat_kernel_mass_residual(m, 1.0, math.nan),
    "mass_residual infinite y": lambda m, g, f: heat_kernel_mass_residual(m, 1.0, math.inf),
    "SampleSpec n_samples": lambda m, g, f: gaussian_bound_constants(m, SampleSpec(n_samples=0)),
    "SampleSpec range": lambda m, g, f: gaussian_bound_constants(m, SampleSpec(x_range=(0.0, 20.0))),
    "SampleSpec negative seed": lambda m, g, f: SampleSpec(seed=-1),
    "schrodinger_apply time": lambda m, g, f: schrodinger_apply(m, Potential.zero(), math.nan, f),
    "schrodinger_apply steps": lambda m, g, f: schrodinger_apply(m, Potential.zero(), 0.1, f, n_steps=0),
    "schrodinger_apply potential not finite at a node": lambda m, g, f: schrodinger_apply(
        m, Potential.power(1.0, -400.0), 0.1, f
    ),
    "SplittingScheme steps_per_unit": lambda m, g, f: SplittingScheme(steps_per_unit=math.nan),
    "SplittingScheme min_steps": lambda m, g, f: SplittingScheme(min_steps=0),
    "heat_evolve time": lambda m, g, f: heat_evolve(m, math.inf, f),
    "heat_evolve zero steps": lambda m, g, f: heat_evolve(m, 0.1, f, n_steps=0),
    "heat_evolve fractional steps": lambda m, g, f: heat_evolve(m, 0.1, f, n_steps=2.5),
    "feynman_kac paths": lambda m, g, f: feynman_kac(m, Potential.zero(), 1.0, 1.0, np.ones_like, 0, 4, 0),
    "feynman_kac start": lambda m, g, f: feynman_kac(m, Potential.zero(), 1.0, 0.0, np.ones_like, 4, 4, 0),
    "feynman_kac NaN start": lambda m, g, f: feynman_kac(m, Potential.zero(), 1.0, math.nan, np.ones_like, 4, 4, 0),
    "feynman_kac time": lambda m, g, f: feynman_kac(m, Potential.zero(), math.nan, 1.0, np.ones_like, 4, 4, 0),
    "feynman_kac negative seed": lambda m, g, f: feynman_kac(m, Potential.zero(), 1.0, 1.0, np.ones_like, 4, 4, -1),
    "feynman_kac fractional seed": lambda m, g, f: feynman_kac(m, Potential.zero(), 1.0, 1.0, np.ones_like, 4, 4, 1.5),
    "besq_terminal_samples time": lambda m, g, f: besq_terminal_samples(m, 0.0, 1.0, 4, 4, 0),
    "besq_terminal_samples negative seed": lambda m, g, f: besq_terminal_samples(m, 1.0, 1.0, 4, 4, -1),
    "perturbation_residual s_steps": lambda m, g, f: perturbation_residual(m, Potential.zero(), 0.5, 1.0, 1.5, g, s_steps=0),
    "perturbation_residual NaN x": lambda m, g, f: perturbation_residual(m, Potential.zero(), 0.5, math.nan, 1.5, g),
    "perturbation_residual far x": lambda m, g, f: perturbation_residual(m, Potential.zero(), 0.5, 1e9, 1.5, g),
    "perturbation_residual negative x": lambda m, g, f: perturbation_residual(m, Potential.zero(), 0.5, -1.0, 1.5, g),
    "perturbation_residual zero x": lambda m, g, f: perturbation_residual(m, Potential.zero(), 0.5, 0.0, 1.5, g),
    "perturbation_residual infinite y": lambda m, g, f: perturbation_residual(m, Potential.zero(), 0.5, 1.0, math.inf, g),
    "perturbation_residual negative y": lambda m, g, f: perturbation_residual(m, Potential.zero(), 0.5, 1.0, -1.5, g),
    "Interval endpoints": lambda m, g, f: Interval(2.0, 1.0),
    "ball radius": lambda m, g, f: ball(1.0, 0.0),
    "enlarge factor": lambda m, g, f: enlarge(Interval(0.0, 1.0), 0.5),
    "WeightedMeasure alpha": lambda m, g, f: WeightedMeasure(-1.0),
    "mu_ab order": lambda m, g, f: m.mu_ab(2.0, 1.0),
    "gamma_ratio order": lambda m, g, f: m.gamma_ratio(1.0, 1.0),
    "Potential piece endpoints": lambda m, g, f: Potential(pieces=((1.0, 0.5, 1.0),)),
    "Potential piece value": lambda m, g, f: Potential(pieces=((0.0, 1.0, -1.0),)),
    "Potential power coefficient": lambda m, g, f: Potential(power_coeff=math.inf),
    "parse_potential duplicate power": lambda m, g, f: parse_line_error("power 1 0.5\npower 1 0.5"),
    "parse_potential directive": lambda m, g, f: parse_line_error("spike 1 2"),
    "make_mu_atom profile length": lambda m, g, f: make_mu_atom(g, Interval(1.0, 2.0), np.ones(1000)),
    "make_mu_atom constant profile": lambda m, g, f: make_mu_atom(g, Interval(1.0, 2.0), np.ones_like),
    "AtomicCombination empty": lambda m, g, f: AtomicCombination(()).synthesize(),
    "log_time_grid range": lambda m, g, f: log_time_grid(1.0, 0.5, 4),
    "log_time_grid fractional count": lambda m, g, f: log_time_grid(0.1, 1.0, 2.5),
    "log_time_grid infinite t_max": lambda m, g, f: log_time_grid(0.1, math.inf, 4),
    "hardy_norm fractional n_times": lambda m, g, f: hardy_norm(m, Potential.zero(), f, 0.1, 1.0, n_times=2.5),
    "hardy_norm zero n_times": lambda m, g, f: hardy_norm(m, Potential.zero(), f, 0.1, 1.0, n_times=0),
    "hardy_norm infinite t_max": lambda m, g, f: hardy_norm(m, Potential.zero(), f, 0.1, math.inf),
    "hardy_norm potential not locally integrable": lambda m, g, f: hardy_norm(m, Potential.power(1.0, 2.0), f, 0.1, 1.0),
    "local_hardy_norm negative tau": lambda m, g, f: local_hardy_norm(m, Potential.zero(), f, -1.0),
    "maximal_function times": lambda m, g, f: maximal_function(m, Potential.constant(1.0), f, []),
    "resupport_atom kind": lambda m, g, f: resupport_atom(
        make_local_atom(g, Interval(1.0, 2.0)), Interval(1.0, 2.0), None
    ),
    "DyadicInterval k": lambda m, g, f: DyadicInterval(0, -1),
    "build_section alpha": lambda m, g, f: build_section(
        WeightedMeasure(1.5), Potential.constant(1.0), Interval(0.0, 4.0)
    ),
    "build_section NaN beta": lambda m, g, f: build_section(m, V1, Interval(0.0, 4.0), beta=math.nan),
    "build_section infinite beta": lambda m, g, f: build_section(m, V1, Interval(0.0, 4.0), beta=math.inf),
    "build_section beta below 1": lambda m, g, f: build_section(m, V1, Interval(0.0, 4.0), beta=0.5),
    "Potential NaN power exponent": lambda m, g, f: Potential.power(1.0, math.nan),
    "Potential infinite power exponent": lambda m, g, f: Potential.power(1.0, -math.inf),
    "Grid cells": lambda m, g, f: Grid(m, [0.0, 1.0]),
    "Grid edges": lambda m, g, f: Grid(m, [0.0, 2.0, 1.0]),
    "Grid.build size": lambda m, g, f: Grid.build(m, 1, 1.0),
    "Grid NaN edge": lambda m, g, f: Grid(m, [0.0, 1.0, math.nan]),
    "Grid infinite edge": lambda m, g, f: Grid(m, [0.0, 1.0, math.inf]),
    "Grid.build NaN x_max": lambda m, g, f: Grid.build(m, 10, math.nan),
    "Grid.build infinite x_max": lambda m, g, f: Grid.build(m, 10, math.inf),
    "Grid.build NaN ratio": lambda m, g, f: Grid.build(m, 10, 8.0, math.nan),
    "Grid.build fractional n": lambda m, g, f: Grid.build(m, 2.5, 8.0),
    "GridFunction shape": lambda m, g, f: GridFunction(g, np.ones(3)),
    "point_mass NaN point": lambda m, g, f: GridFunction.point_mass(g, math.nan),
    "snap_edge NaN point": lambda m, g, f: g.snap_edge(math.nan),
    "snap_edge negative point": lambda m, g, f: g.snap_edge(-5.0),
    "snap_edge point past the grid": lambda m, g, f: g.snap_edge(1e9),
    "bessel order": lambda m, g, f: bessel_i_scaled_ratio(-2.0, 1.0),
    "bessel argument": lambda m, g, f: bessel_i_scaled_ratio(0.5, -1.0),
    "find_balanced_J alpha": lambda m, g, f: find_balanced_J(
        WeightedMeasure(1.5), Potential.constant(1.0), DyadicInterval(0, 1)
    ),
    "check_superharmonic NaN z": lambda m, g, f: check_superharmonic(m, V1, v1_profile(m), math.nan, [0.1], g),
    "check_superharmonic no times": lambda m, g, f: check_superharmonic(m, V1, v1_profile(m), 1.0, [], g),
    "check_superharmonic NaN time": lambda m, g, f: check_superharmonic(m, V1, v1_profile(m), 1.0, [0.1, math.nan], g),
    "check_superharmonic zero time": lambda m, g, f: check_superharmonic(m, V1, v1_profile(m), 1.0, [0.1, 0.0], g),
    "check_superharmonic negative time": lambda m, g, f: check_superharmonic(m, V1, v1_profile(m), 1.0, [-0.1, 0.2], g),
    "check_superharmonic infinite time": lambda m, g, f: check_superharmonic(m, V1, v1_profile(m), 1.0, [math.inf, 0.2], g),
    "check_superharmonic NaN rel_slack": lambda m, g, f: check_superharmonic(
        m, V1, v1_profile(m), 1.0, [0.1], g, rel_slack=math.nan
    ),
    "check_superharmonic infinite rel_slack": lambda m, g, f: check_superharmonic(
        m, V1, v1_profile(m), 1.0, [0.1], g, rel_slack=math.inf
    ),
    "check_superharmonic negative rel_slack": lambda m, g, f: check_superharmonic(
        m, V1, v1_profile(m), 1.0, [0.1], g, rel_slack=-1e-6
    ),
    "check_condition_D centre past the grid": lambda m, g, f: check_condition_D(
        m, V1, v1_section(m), g, intervals=[DyadicInterval(4, 1)]
    ),
    "check_condition_D no intervals": lambda m, g, f: check_condition_D(m, V1, v1_section(m), g, intervals=[]),
    "check_condition_D zero n_max": lambda m, g, f: check_condition_D(m, V1, v1_section(m), g, n_max=0),
    "check_condition_D negative n_max": lambda m, g, f: check_condition_D(m, V1, v1_section(m), g, n_max=-1),
    "check_condition_D one-point fit": lambda m, g, f: check_condition_D(m, V1, v1_section(m), g, n_max=1),
    "check_condition_D zero steps_per_leg": lambda m, g, f: check_condition_D(m, V1, v1_section(m), g, steps_per_leg=0),
    "check_condition_D potential not locally integrable": lambda m, g, f: check_condition_D(
        m, Potential.power(1.0, 2.0), v1_section(m), g
    ),
    "check_condition_K no times": lambda m, g, f: check_condition_K(m, V1, v1_section(m), g, t_count=0),
    "check_condition_K one-point fit": lambda m, g, f: check_condition_K(m, V1, v1_section(m), g, t_count=2),
    "check_condition_K no intervals": lambda m, g, f: check_condition_K(m, V1, v1_section(m), g, intervals=[]),
    "check_condition_K interval past the grid": lambda m, g, f: check_condition_K(
        m, V1, v1_section(m), g, intervals=[DyadicInterval(5, 1)]
    ),
    "check_condition_K potential not locally integrable": lambda m, g, f: check_condition_K(
        m, Potential.power(1.0, 2.0), v1_section(m), g
    ),
}


@pytest.mark.parametrize("name", list(BAD_CALLS))
def test_bad_argument_is_a_library_error(m_half, name):
    grid = Grid.build(m_half, 40, 8.0, 10.0)
    with pytest.raises(InvalidInput) as info:
        BAD_CALLS[name](m_half, grid, GridFunction.ones(grid))
    assert isinstance(info.value, BesselHardyError) and isinstance(info.value, ValueError)
