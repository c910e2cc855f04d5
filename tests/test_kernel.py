import io
import math
import os
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from besselhardy import (
    GridFunction,
    Interval,
    InvalidInput,
    MixedGrids,
    Potential,
    SampleSpec,
    SplittingScheme,
    WeightedMeasure,
    build_section,
    check_condition_D,
    check_superharmonic,
    find_balanced_J,
    gaussian_bound_constants,
    heat_evolve,
    heat_kernel,
    heat_kernel_mass_residual,
    kernel_matrix,
    perturbation_residual,
)
from besselhardy import grid as grid_module
from besselhardy import kernel as kernel_module
from besselhardy.bessel import bessel_i_scaled_ratio
from besselhardy.grid import Grid
from besselhardy.kernel import MASS_CAP, _MASS_TARGET

# rounding is absolute, not relative, among subnormal entries
TINY = np.finfo(np.float64).tiny


def assert_sub_markov(mat, w):
    """Row masses (L-inf) and column masses (L1(mu)) capped; W^1/2 P W^1/2 symmetric."""
    assert (mat @ w).max() <= MASS_CAP
    assert (w @ mat).max() <= MASS_CAP
    root = np.sqrt(w)
    sym = root[:, None] * mat * root
    np.testing.assert_allclose(sym, sym.T, rtol=1e-14, atol=TINY)


def grid_of_test14(m, n=900):
    return Grid.build(m, n, 44.0, 300.0, breakpoints=[k / 8 for k in range(1, 17)])


# a kernel matrix drops only pairs that carry at most this of a row or column mu-mass
MASS_CUT = 2.0**-60


def assert_cut_of(mat, want, w):
    """``mat`` is ``want`` bit for bit on the pairs it keeps and +0.0 on the rest,
    which hold at most MASS_CUT of every row and column mu-mass of ``want``."""
    dropped = mat != want
    assert np.all(mat[dropped] == 0.0) and not np.signbit(mat).any()
    lost = np.where(dropped, want, 0.0)
    assert (lost @ w).max() <= MASS_CUT
    assert (w @ lost).max() <= MASS_CUT


def assert_no_subnormal(mat):
    assert not np.any((mat != 0.0) & (np.abs(mat) < TINY))


def full_square_kernel(nu, t, x, y):
    """Gaussian factor and P_t(x, y) with the Bessel factor evaluated at every pair."""
    d = x - y
    gauss = np.exp(-(d * d) * (0.25 / t))
    return gauss, (2.0 * t) ** (-1.0 - nu) * gauss * bessel_i_scaled_ratio(nu, x * y / (2.0 * t))


class TestPointwise:
    def test_symmetry_random(self):
        rng = np.random.default_rng(2)
        m = WeightedMeasure(0.5)
        for _ in range(200):
            x, y = rng.uniform(0.01, 30.0, 2)
            t = 10.0 ** rng.uniform(-3, 2)
            a = heat_kernel(m, t, x, y)
            b = heat_kernel(m, t, y, x)
            assert a == pytest.approx(b, rel=1e-12)
            # a scalar call is the one-element array call, returned as a float
            assert type(a) is float and a == heat_kernel(m, t, np.array([x]), np.array([y]))[0]
            if (x - y) ** 2 / (4.0 * t) < 700.0:  # beyond this float64 underflows
                assert a > 0.0

    def test_small_argument_diagonal_limit(self):
        # x, y -> 0+ gives (2t)^{-1} (4t)^{-nu} / Gamma(nu+1), nu = (alpha-1)/2;
        # the order is the one pinned by the unit-mass identity
        m = WeightedMeasure(0.5)
        t = 0.25
        nu = m.kernel_order
        want = (2 * t) ** -1 * (4 * t) ** -nu / math.gamma(nu + 1.0)
        got = heat_kernel(m, t, 1e-9, 1e-9)
        assert got == pytest.approx(want, rel=1e-8)

    def test_no_overflow_deep_in_bessel_regime(self):
        m = WeightedMeasure(0.5)
        v = heat_kernel(m, 1e-3, 10.0, 10.0)  # xy/2t = 5e4
        assert math.isfinite(v) and v > 0.0

    @given(
        alpha=st.floats(min_value=0.05, max_value=3.0),
        ts=st.lists(st.floats(min_value=-6.0, max_value=3.0).map(lambda e: 10.0**e), min_size=1, max_size=5),
        x=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=6),
        y=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_time_array_is_the_stack_of_scalar_times(self, alpha, ts, x, y):
        m = WeightedMeasure(alpha)
        ts = np.array(ts + ts[:1])  # a repeated time
        # x = 0, y = 0, and the pair (100, 0), whose Gaussian factor is 0.0 below t of about 3
        x, y = np.array(x + [0.0, 100.0]), np.array(y + [0.0])[:, None]
        got = heat_kernel(m, ts[:, None, None], x, y)
        want = np.stack([heat_kernel(m, float(t), x, y) for t in ts])
        assert np.array_equal(got, want) and not np.signbit(got).any()
        assert np.array_equal(heat_kernel(m, np.array(ts[0]), x, y), want[0])  # 0-d time
        assert np.array_equal(heat_kernel(m, ts[:1], x, y), want[0])  # one-element time
        got = heat_kernel(m, ts, x[0], y[0, 0])  # scalar points
        assert np.array_equal(got, [heat_kernel(m, float(t), float(x[0]), float(y[0, 0])) for t in ts])


class TestNormalization:
    @pytest.mark.parametrize(
        "alpha,t,y",
        [(0.5, 1.0, 1.0), (2.0, 0.01, 5.0), (0.3, 100.0, 0.1), (1.0, 1e4, 1.0)],
    )
    def test_unit_mass(self, alpha, t, y):
        rep = heat_kernel_mass_residual(WeightedMeasure(alpha), t, y)
        assert rep.converged
        assert rep.residual < 1e-8

    def test_report_carries_radius(self):
        rep = heat_kernel_mass_residual(WeightedMeasure(0.5), 1.0, 1.0)
        assert rep.truncation_radius > 1.0 + 10.0

    def test_one_panel_budget_is_not_converged(self, monkeypatch):
        monkeypatch.setattr(kernel_module, "_MASS_QUAD_LIMIT", 1)
        assert not heat_kernel_mass_residual(WeightedMeasure(0.5), 1.0, 1.0).converged

    def test_matches_the_algebraic_weight_rule(self):
        # QUADPACK's x^alpha endpoint rule as the oracle, on a seeded sweep;
        # both are asked for 1e-11, a tenth of the default tolerance
        rng = np.random.default_rng(20)
        for alpha in (0.05, 0.3, 0.5, 0.9):
            m = WeightedMeasure(alpha)
            cases = [(math.exp(rng.uniform(math.log(1e-3), math.log(100.0))), rng.uniform(0.0, 10.0)) for _ in range(6)]
            for t, y in [(1e-3, 0.0), (100.0, 10.0), *cases]:
                rep = heat_kernel_mass_residual(m, t, y)
                want, _ = quad(
                    lambda x: kernel_module._kernel(m.kernel_order, t, x, y),  # noqa: B023
                    0.0,
                    rep.truncation_radius,
                    weight="alg",
                    wvar=(alpha, 0.0),
                    epsabs=1e-11,
                    epsrel=1e-11,
                    limit=250,
                )
                assert rep.converged
                assert abs(rep.value - want) < 1e-11, (alpha, t, y)


class TestGaussKronrod:
    def test_degree_31_is_exact_on_one_panel(self):
        calls = []

        def power(degree):
            def f(x):
                calls.append(x.size)
                return x**degree

            return f

        for degree in range(32):
            value, _, _ = kernel_module.quad(power(degree), -0.5, 1.5, limit=1)
            want = (1.5 ** (degree + 1) - (-0.5) ** (degree + 1)) / (degree + 1)
            assert value == pytest.approx(want, rel=2e-15), degree
        assert calls == [21] * 32

    def test_points_become_panel_edges(self):
        nodes = []

        def step(x):
            nodes.append(x)
            return np.where(x < 0.3, 1.0, 2.0)

        value, abserr, converged = kernel_module.quad(step, 0.0, 1.0, points=(0.7, 0.3, 5.0), limit=3)
        assert converged and value == pytest.approx(1.7, rel=1e-15)
        (x,) = nodes  # one call: three panels, no split
        panels = x.reshape(3, 21)
        edges = [(0.0, 0.3), (0.3, 0.7), (0.7, 1.0)]
        assert all(a < p.min() and p.max() < b for p, (a, b) in zip(panels, edges))

    def test_split_calls_f_on_42_new_nodes(self):
        sizes = []

        def kink(x):
            sizes.append(x.size)
            return np.abs(x - 1.0 / 3.0)

        value, abserr, converged = kernel_module.quad(kink, 0.0, 1.0, epsabs=1e-12, epsrel=0.0, limit=200)
        assert converged and abs(value - 5.0 / 18.0) <= abserr < 1e-12
        assert sizes[0] == 21 and set(sizes[1:]) == {42}

    def test_unreachable_tolerance_within_limit_is_not_converged(self):
        value, abserr, converged = kernel_module.quad(np.sqrt, 0.0, 1.0, epsabs=1e-300, epsrel=0.0, limit=1)
        assert not converged and abserr > 0.0
        assert value == pytest.approx(2.0 / 3.0, rel=1e-3)


class TestChapmanKolmogorov:
    @pytest.mark.parametrize("x,y,t,s", [(1.0, 2.0, 0.3, 0.5), (0.2, 0.3, 0.05, 0.02), (5.0, 1.0, 1.0, 2.0)])
    def test_kernel_composition(self, x, y, t, s):
        m = WeightedMeasure(0.5)

        def integrand(z):
            return heat_kernel(m, t, x, z) * heat_kernel(m, s, z, y)

        radius = max(x, y) + 15.0 * math.sqrt(max(t, s))
        val, _ = quad(integrand, 0.0, radius, weight="alg", wvar=(m.alpha, 0.0), limit=200)
        want = heat_kernel(m, t + s, x, y)
        assert val == pytest.approx(want, rel=1e-8)


class TestHeatApply:
    def test_constant_function_preserved_interior(self, m_half, grid_half):
        out = heat_evolve(m_half, 0.5, GridFunction.ones(grid_half), n_steps=1)
        interior = grid_half.nodes < grid_half.x_max - 8.0 * math.sqrt(0.5)
        assert np.max(np.abs(out.values[interior] - 1.0)) < 3e-5

    def test_positivity_preserving(self, m_half, grid_half):
        rng = np.random.default_rng(0)
        f = GridFunction(grid_half, rng.uniform(0.0, 1.0, len(grid_half)))
        out = heat_evolve(m_half, 0.2, f, n_steps=1)
        assert np.all(out.values >= 0.0)

    def test_semigroup_law(self, m_half, grid_half):
        f = GridFunction(grid_half, np.exp(-((grid_half.nodes - 2.0) ** 2)))
        one_shot = heat_evolve(m_half, 0.75, f, n_steps=1)
        composed = heat_evolve(m_half, 0.5, heat_evolve(m_half, 0.25, f, n_steps=1), n_steps=1)
        ones_defect = np.max(
            np.abs(heat_evolve(m_half, 0.75, GridFunction.ones(grid_half), n_steps=1).values[:-40] - 1.0)
        )
        assert np.max(np.abs(one_shot.values - composed.values)) < 10.0 * ones_defect + 1e-10

    def test_strong_continuity_at_zero(self, m_half):
        fine = Grid.build(m_half, 1500, 6.0, 10.0)
        f = GridFunction(fine, np.exp(-((fine.nodes - 1.0) ** 2) / 0.1))
        out = heat_evolve(m_half, 1e-4, f, n_steps=1)
        assert (out - f).l1() < 5e-3 * f.l1()

    def test_substochastic_columns(self, m_half, grid_half):
        w = grid_half.weights
        mat = kernel_matrix(m_half, grid_half, 0.3).toarray()
        masses = w @ mat
        assert masses.max() <= 1.0
        assert masses.min() > 0.0
        # at small dt the sampled kernel is hot by rows and by columns alike
        for dt in (1e-4, 1e-3):
            assert_sub_markov(kernel_matrix(m_half, grid_half, dt).toarray(), w)
            ones = heat_evolve(m_half, dt, GridFunction.ones(grid_half), n_steps=1)
            assert ones.values.max() <= 1.0


class TestMatrixAssembly:
    @pytest.mark.parametrize("t", [1e-3, 0.3])
    def test_matrix_is_the_pointwise_kernel(self, t):
        # one kernel formula: the unscaled matrix is heat_kernel on the node
        # pairs it keeps, and the pairs it drops carry no mass that counts
        m = WeightedMeasure(0.5)
        grid = Grid.build(m, 320, 30.0, 60.0)  # the CLI's default grid
        x = grid.nodes
        raw = kernel_module._raw_matrix(m, grid, t).toarray()
        assert_cut_of(raw, heat_kernel(m, t, x[:, None], x[None, :]), grid.weights)
        assert_no_subnormal(raw)

    @pytest.mark.parametrize("t", [1e-5, 1e-3, 1.0 / 32.0, 3.0])
    def test_band_matches_the_full_square(self, t):
        # the band ends at the mass cut and only the upper triangle is
        # evaluated; no kept entry may move a bit
        m = WeightedMeasure(0.5)
        grid = Grid.build(m, 900, 44.0, 300.0, breakpoints=[k / 8 for k in range(1, 17)])
        x = grid.nodes
        gauss, want = full_square_kernel(m.kernel_order, t, x[:, None], x[None, :])
        mat = kernel_module._raw_matrix(m, grid, t).toarray()
        assert_cut_of(mat, want, grid.weights)
        assert np.array_equal(mat, mat.T)
        # the cut ends the band before the Gaussian factor underflows
        assert np.any((mat != want) & (gauss != 0.0))
        assert_no_subnormal(mat)
        assert_no_subnormal(kernel_matrix(m, grid, t).toarray())

    @given(
        alpha=st.floats(min_value=0.2, max_value=3.0),
        n=st.integers(min_value=2, max_value=120),
        ratio=st.floats(min_value=1.0, max_value=1000.0),
        x_max=st.floats(min_value=0.5, max_value=60.0),
        t=st.floats(min_value=1e-5, max_value=10.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_pointwise_band_matches_the_full_square(self, alpha, n, ratio, x_max, t, seed):
        m = WeightedMeasure(alpha)
        grid = Grid.build(m, n, x_max, ratio)
        rng = np.random.default_rng(seed)
        # node pairs, random points up to 20 x_max apart and one pair whose
        # Gaussian factor is 0.0 at every t drawn
        x = np.concatenate([grid.nodes, rng.uniform(0.0, 20.0 * x_max, n), [1e3]])
        y = np.concatenate([grid.nodes[::-1], rng.uniform(0.0, x_max, n), [0.5]])
        _, want = full_square_kernel(m.kernel_order, t, x, y)
        got = heat_kernel(m, t, x, y)
        assert np.array_equal(got, want) and not np.signbit(got[-1])
        mat = kernel_module._raw_matrix(m, grid, t).toarray()
        assert_cut_of(mat, full_square_kernel(m.kernel_order, t, grid.nodes[:, None], grid.nodes)[1], grid.weights)
        assert_no_subnormal(mat)
        assert_no_subnormal(kernel_matrix(m, grid, t).toarray())

    @pytest.mark.parametrize("t", [1e-5, 1.0 / 32.0, 3.0])
    def test_block_size_moves_no_bit(self, monkeypatch, t):
        # one row per evaluated slice, slices that split no block evenly, and the default
        m = WeightedMeasure(0.5)
        built = []
        for pairs in (1, 97, 1 << 16):
            monkeypatch.setattr(kernel_module, "_BLOCK_PAIRS", pairs)
            grid = grid_of_test14(m)
            built.append((kernel_module._raw_matrix(m, grid, t).toarray(), kernel_matrix(m, grid, t).toarray()))
        for raw, scaled in built[1:]:
            assert np.array_equal(raw, built[0][0])
            assert np.array_equal(scaled, built[0][1])

    def test_assembly_peak_memory(self):
        # bounded row slices keep every array but the blocks small; at 2^-13
        # rows are hot and the cap divides the blocks in place
        m = WeightedMeasure(0.5)
        for t in (3.0, 2.0**-13):
            grid = grid_of_test14(m)
            n = len(grid)
            tracemalloc.start()
            try:
                kernel_matrix(m, grid, t)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 3 * n * n * 8

    @pytest.mark.parametrize("t", [2.0**-13, 2.0**-17])
    def test_narrow_band_build_needs_less_than_the_square(self, t):
        # the band is evaluated straight into its blocks, so at small steps a
        # build peaks below one dense matrix of 6.48 MB; a dense fill packed
        # after peaked at 8.3-10.3 MB here
        m = WeightedMeasure(0.5)
        grid = grid_of_test14(m)
        n = len(grid)
        tracemalloc.start()
        try:
            kernel_matrix(m, grid, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8

    def test_matrix_starts_on_a_cache_line(self, m_half):
        # dense matvecs ran about 10% slower on a matrix 16 bytes past a page boundary
        grid = Grid.build(m_half, 420, 24.0, 80.0)
        for t in (1e-3, 0.1):
            for build in (kernel_module._raw_matrix, kernel_matrix):
                for *_, block in build(m_half, grid, t).blocks:
                    assert block.ctypes.data % 64 == 0

    def test_mismatched_measure_rejected(self, grid_half):
        with pytest.raises(MixedGrids, match="alpha"):
            kernel_matrix(WeightedMeasure(1.5), grid_half, 0.1)


class TestBadTimes:
    @pytest.mark.parametrize("scaled", [True, False])
    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
    def test_kernel_matrix_rejects_time(self, m_half, t, scaled):
        grid = Grid.build(m_half, 40, 8.0, 10.0)
        build = kernel_matrix if scaled else kernel_module._raw_matrix
        with pytest.raises(ValueError, match="time must be positive and finite"):
            build(m_half, grid, t)
        assert not grid._matrix_cache

    @pytest.mark.parametrize(
        "t,steps", [(0.0, 1), (-1.0, 1), (math.nan, 1), (math.inf, 1), (0.1, 0), (0.1, -2)]
    )
    def test_heat_apply_rejects_time_and_steps(self, m_half, t, steps):
        grid = Grid.build(m_half, 40, 8.0, 10.0)
        with pytest.raises(ValueError, match="time must be positive|steps must be at least 1"):
            heat_evolve(m_half, t, GridFunction.ones(grid), n_steps=steps)
        assert not grid._matrix_cache

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
    def test_kernel_eval_rejects_time(self, m_half, t):
        for times in (t, np.array(t), np.array([0.5, t]), np.array([[t], [0.5]])):
            with pytest.raises(InvalidInput, match="time must be positive and finite"):
                heat_kernel(m_half, times, 1.0, np.array([2.0, 3.0]))


class TestSubMarkov:
    """The scaled kernel matrix keeps the structure of the continuous kernel."""

    @given(
        alpha=st.floats(min_value=0.2, max_value=3.0),
        n=st.integers(min_value=8, max_value=200),
        ratio=st.floats(min_value=1.0, max_value=1000.0),
        x_max=st.floats(min_value=2.0, max_value=60.0),
        dt=st.floats(min_value=1e-5, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_columns_symmetry_positivity(self, alpha, n, ratio, x_max, dt):
        m = WeightedMeasure(alpha)
        grid = Grid.build(m, n, x_max, ratio)
        mat = kernel_matrix(m, grid, dt).toarray()
        raw_band = kernel_module._raw_matrix(m, grid, dt)
        raw = raw_band.toarray()
        assert_sub_markov(mat, grid.weights)
        assert np.all(mat >= 0.0) and np.all(np.diag(mat) > 0.0)
        assert np.all(mat <= raw)
        # one closed-form pass: rows under the cap are left alone, hot rows
        # and their columns are divided by max(c_i, c_j); the masses are the
        # band product, whose bits do not depend on the BLAS thread count
        mass = raw_band @ grid.weights
        if mass.max() <= MASS_CAP:
            assert np.array_equal(mat, raw)
        else:
            c = np.where(mass > MASS_CAP, mass / _MASS_TARGET, 1.0)
            assert np.array_equal(mat, raw / np.maximum.outer(c, c))


def capped_dense(m, grid, t):
    """The sub-Markov cap of the raw matrix, divided densely as kernel_matrix's docstring states it.

    The masses are the band product of the raw matrix, as there: a dense
    gemv may sum in another order under two BLAS threads.
    """
    raw = kernel_module._raw_matrix(m, grid, t)
    mass = raw @ grid.weights
    if mass.max() <= MASS_CAP:
        return raw.toarray()
    c = np.where(mass > MASS_CAP, mass / _MASS_TARGET, 1.0)
    return raw.toarray() / np.maximum.outer(c, c)


_PRODUCTS = """
import io, sys
import numpy as np
f = io.BytesIO(sys.stdin.buffer.read())
mats, vs = np.load(f), np.load(f)
if sys.argv[1] == "band":  # mats holds times: the kernel matrices of the test-14 grid are built here
    from besselhardy import Grid, WeightedMeasure, kernel_matrix
    m = WeightedMeasure(0.5)
    grid = Grid.build(m, 900, 44.0, 300.0, breakpoints=[k / 8 for k in range(1, 17)])
    mats = [kernel_matrix(m, grid, t) for t in mats.tolist()]
out = io.BytesIO()
np.save(out, np.array([[mat @ v for v in vs] for mat in mats]))
sys.stdout.buffer.write(out.getvalue())
"""


_CAPPED_DIGESTS = """
import hashlib
from besselhardy import Grid, WeightedMeasure, kernel_matrix
m = WeightedMeasure(0.5)
grid = Grid.build(m, 900, 44.0, 300.0, breakpoints=[k / 8 for k in range(1, 17)])
for t in (2.0**-5, 2.0**-9, 2.0**-13, 2.0**-17):
    print(hashlib.sha256(kernel_matrix(m, grid, t).toarray().tobytes()).hexdigest())
"""


def child_path():
    """PYTHONPATH for a child interpreter that imports this checkout's ``besselhardy``."""
    src = str(Path(kernel_module.__file__).resolve().parents[1])
    return os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))


def products_in_child(threads, mats, vs, form="dense"):
    """``[[A @ v for v in vs] for A in mats]``, one gemv per product, in a fresh interpreter
    with ``threads`` OpenBLAS threads.  A is each dense matrix, or for form "band" mats are
    times and A is the child's own ``kernel_matrix`` of the test-14 grid at each.

    A process fixes its BLAS thread count when numpy loads.  Two threads may
    split a large gemv and sum its parts in another order, so a product's
    bits can depend on the count.
    """
    payload = io.BytesIO()
    np.save(payload, np.asarray(mats))
    np.save(payload, np.asarray(vs))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=child_path())
    cmd = [sys.executable, "-c", _PRODUCTS, form]
    out = subprocess.run(cmd, input=payload.getvalue(), env=env, capture_output=True, check=True).stdout
    return np.load(io.BytesIO(out))


BAND_GRIDS = {
    "test14 n=900": grid_of_test14,
    "n=420": lambda m: Grid.build(m, 420, 24.0, 80.0, breakpoints=[k / 2 for k in range(1, 9)]),
    "n=320": lambda m: Grid.build(m, 320, 30.0, 60.0),
}


class TestBandMatrix:
    """The cached kernel matrix: 128-row blocks over 16-aligned column spans."""

    @pytest.mark.parametrize("name", list(BAND_GRIDS))
    @pytest.mark.parametrize("t", [2.0**-5, 2.0**-9, 2.0**-13, 2.0**-17])
    def test_product_is_the_dense_product(self, name, t):
        m = WeightedMeasure(0.5)
        grid = BAND_GRIDS[name](m)
        band = kernel_matrix(m, grid, t)
        dense = band.toarray()
        assert np.array_equal(dense, capped_dense(m, grid, t))
        rng = np.random.default_rng(7)
        vs = [grid.weights * rng.uniform(0.0, 1.0, len(grid)) for _ in range(5)]
        # the blocks equal the dense gemv of one BLAS thread; two may split the dense one
        (want,) = products_in_child(1, [dense], vs)
        for v, w in zip(vs, want):
            assert np.array_equal(band @ v, w)

    def test_product_is_the_same_under_one_and_two_blas_threads(self):
        m = WeightedMeasure(0.5)
        grid = grid_of_test14(m)
        times = [2.0**-5, 2.0**-9, 2.0**-13, 2.0**-17]
        rng = np.random.default_rng(7)
        vs = [grid.weights * rng.uniform(0.0, 1.0, len(grid)) for _ in range(5)]
        one, two = (products_in_child(threads, times, vs, "band") for threads in (1, 2))
        assert one.tobytes() == two.tobytes()
        # and they are this process's products
        assert np.array_equal(one, [[kernel_matrix(m, grid, t) @ v for v in vs] for t in times])

    def test_capped_matrix_is_the_same_under_one_and_two_blas_threads(self):
        # the hot rows at 2^-17 are capped with masses that a dense gemv
        # summed in another order under two threads
        digests = []
        for threads in (1, 2):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=child_path())
            cmd = [sys.executable, "-c", _CAPPED_DIGESTS]
            digests.append(subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout)
        assert digests[0] == digests[1] and len(digests[0].split()) == 4

    @given(
        alpha=st.floats(min_value=0.2, max_value=3.0),
        n=st.integers(min_value=2, max_value=600),
        ratio=st.floats(min_value=1.0, max_value=1000.0),
        x_max=st.floats(min_value=2.0, max_value=60.0),
        dt=st.floats(min_value=1e-5, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_layout_and_product_on_random_grids(self, alpha, n, ratio, x_max, dt, seed):
        m = WeightedMeasure(alpha)
        grid = Grid.build(m, n, x_max, ratio)
        band = kernel_matrix(m, grid, dt)
        dense = band.toarray()
        assert np.array_equal(dense, capped_dense(m, grid, dt))
        starts = list(range(0, n, 128))
        if n - starts[-1] == 1:  # a lone last row joins the block before
            del starts[-1]
        assert [r0 for r0, *_ in band.blocks] == starts
        for (r0, r1, c0, c1, block), end in zip(band.blocks, starts[1:] + [n]):
            assert r1 == end and block.shape == (r1 - r0, c1 - c0)
            assert block.ctypes.data % 64 == 0
            # the span is the nonzero columns, widened to 16-column lines
            nonzero = np.flatnonzero(dense[r0:r1].any(axis=0))
            assert c0 == nonzero[0] // 16 * 16
            assert c1 == min(-(-(nonzero[-1] + 1) // 16) * 16, n)
        v = np.random.default_rng(seed).uniform(0.0, 1.0, n)
        assert np.array_equal(band @ v, dense @ v)

    def test_band_is_smaller_than_the_square(self):
        m = WeightedMeasure(0.5)
        grid = grid_of_test14(m)
        n = len(grid)
        for t in (2.0**-5, 2.0**-9, 2.0**-13, 2.0**-17):
            assert kernel_matrix(m, grid, t).nbytes < n * n * 8

    @pytest.mark.parametrize("n", [2, 100, 128])
    def test_small_grid_is_one_full_block(self, m_half, n):
        grid = Grid.build(m_half, n, 8.0, 10.0)
        for t in (1e-4, 0.1, 10.0):
            ((r0, r1, c0, c1, block),) = kernel_matrix(m_half, grid, t).blocks
            assert (r0, r1, c0, c1) == (0, n, 0, n)

    @pytest.mark.parametrize("n", [129, 257, 385])
    def test_lone_last_row_joins_the_block_before(self, n):
        # numpy takes a one-row block's product as a dot, which sums that row
        # in another order than the dense gemv
        m = WeightedMeasure(1.0)
        grid = Grid.build(m, n, 2.0, 1.0)
        band = kernel_matrix(m, grid, 0.5)
        assert band.blocks[-1][:2] == (n - 129, n)
        v = np.random.default_rng(0).uniform(0.0, 1.0, n)
        assert np.array_equal(band @ v, band.toarray() @ v)

    def test_product_needs_a_vector_of_length_n(self, m_half):
        band = kernel_matrix(m_half, Grid.build(m_half, 40, 8.0, 10.0), 0.1)
        for v in (np.ones(39), np.ones(41), np.ones((40, 1))):
            with pytest.raises(InvalidInput, match="length 40"):
                band @ v


class TestMatrixCache:
    """The grid's byte-bounded LRU cache of kernel matrices and spectra."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """The times of every ``_raw_matrix`` build, as ``kernel_matrix`` makes them."""
        made = []
        raw = kernel_module._raw_matrix

        def counted(m, grid, t):
            made.append(t)
            return raw(m, grid, t)

        monkeypatch.setattr(kernel_module, "_raw_matrix", counted)
        return made

    def test_hit_is_the_same_object(self, m_half, builds):
        grid = Grid.build(m_half, 40, 8.0, 10.0)
        mat = kernel_matrix(m_half, grid, 0.1)
        assert kernel_matrix(m_half, grid, 0.1) is mat
        assert kernel_matrix(m_half, grid, 0.1) is mat
        assert builds == [0.1]

    def test_lru_stays_within_its_bytes(self, m_half):
        grid = Grid.build(m_half, 40, 8.0, 10.0)
        rng = np.random.default_rng(5)
        sizes = {key: int(rng.uniform(0.5, 12.0) * 2**20) for key in range(40)}
        sizes[40] = int(1.5 * grid_module._CACHE_BYTES)  # one entry larger than the whole cache
        for step in range(600):
            key = int(rng.integers(41))
            if grid.cache_get(key) is not None:
                assert next(reversed(grid._matrix_cache)) == key  # a get makes its entry newest
                continue
            order = [*grid._matrix_cache, key]
            grid.cache_put(key, types.SimpleNamespace(nbytes=sizes[key]))
            kept = list(grid._matrix_cache)
            assert kept == order[-len(kept) :]  # the least recently used go first; the newest put stays
            held = sum(sizes[k] for k in kept)
            assert held <= grid_module._CACHE_BYTES or len(kept) == 1, step
            if len(kept) < len(order):  # and no more of them than the bytes require
                assert held + sizes[order[-len(kept) - 1]] > grid_module._CACHE_BYTES, step
        grid.cache_put(40, types.SimpleNamespace(nbytes=sizes[40]))
        assert grid.cache_get(40).nbytes == sizes[40]

    def test_evolve_warm_pool_builds_nothing_when_reused(self, m_half, builds):
        """The warm-evolution pattern: 8 pool times, then the same times in a new order."""
        grid = Grid.build(m_half, 420, 24.0, 80.0, breakpoints=[k / 2 for k in range(1, 9)])
        scheme = SplittingScheme(steps_per_unit=16.0, min_steps=2)
        rng = np.random.default_rng(0)
        steps = np.arange(2, 17, 2)
        pool = (steps - rng.uniform(0.0, 1.0, steps.size)) / scheme.steps_per_unit
        ones = GridFunction.ones(grid)
        for t in pool:
            heat_evolve(m_half, float(t), ones, scheme)
        assert len(builds) == 8
        del builds[:]
        for _ in range(3):
            for t in rng.permutation(pool):
                heat_evolve(m_half, float(t), ones, scheme)
        assert builds == []

    def test_spectrum_survives_one_shot_checks(self, m_half, builds, monkeypatch):
        """A (D) check and two Duhamel checks between two sweeps leave the sweeps' spectrum cached.

        The (D) check builds no kernel matrix: it decomposes its own V once.
        """
        decompositions = []
        eigh = np.linalg.eigh

        def counted(a):
            decompositions.append(len(a))
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        v1, vpow = Potential.constant(1.0), Potential.power(1.0, 1.0)
        grid = grid_of_test14(m_half)
        profile = find_balanced_J(m_half, v1, build_section(m_half, v1, Interval(0.0, 4.0)).intervals[0])
        us = profile.host.length**2 * np.exp(np.linspace(math.log(1e-3), math.log(100.0), 21))
        z = profile.host.to_interval().center

        def sweep():
            return check_superharmonic(m_half, v1, profile, z, us, grid).thetas

        first = sweep()
        sweep()
        assert builds == [] and decompositions == [len(grid)]
        section = build_section(m_half, vpow, Interval(0.0, 8.0))
        check_condition_D(m_half, vpow, section, grid, intervals=[section.intervals[1]], n_max=8)
        assert builds == [] and decompositions == [len(grid)] * 2
        v09 = Potential(pieces=((0.0, 1.5, 0.7), (1.5, 3.0, 1.9), (3.0, 30.0, 0.4)))
        scheme = SplittingScheme(steps_per_unit=16.0, min_steps=2)
        for s_steps in (10, 20):
            perturbation_residual(m_half, v09, 0.5, 1.2, 2.0, grid, s_steps=s_steps, scheme=scheme)
        assert builds  # the one-shot legs did build matrices
        del builds[:], decompositions[:]
        third = sweep()
        assert builds == [] and decompositions == []
        assert np.array_equal(third, first)


class TestGaussianSandwich:
    def test_fit_is_finite_and_valid(self):
        m = WeightedMeasure(0.5)
        rep = gaussian_bound_constants(m, SampleSpec(n_samples=3000, seed=1))
        assert rep.ok
        assert rep.c_lower <= 4.0 <= rep.c_upper
        assert 1.0 <= rep.constant < 50.0
        assert rep.derivative_constant < 100.0

    def test_diagonal_is_order_one(self):
        # P_t(x,x) * mu(B(x, sqrt(t))) stays within fixed constants
        m = WeightedMeasure(0.5)
        rng = np.random.default_rng(4)
        vals = []
        for _ in range(300):
            x = 10.0 ** rng.uniform(-2, 1.5)
            t = 10.0 ** rng.uniform(-3, 2)
            vals.append(heat_kernel(m, t, x, x) * m.ball_mass(x, math.sqrt(t)))
        assert min(vals) > 0.1 and max(vals) < 3.0

    def test_deep_tail_lower_bound_positive(self):
        m = WeightedMeasure(0.5)
        rep = gaussian_bound_constants(m, SampleSpec(x_range=(8.0, 20.0), y_range=(0.05, 0.2), t_range=(1e-3, 1e-2), n_samples=500, seed=2))
        assert rep.sandwich_ok
