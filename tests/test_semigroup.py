import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from besselhardy import (
    BesselHardyError,
    GridFunction,
    Interval,
    InvalidInput,
    KernelEval,
    Potential,
    QuadratureBudgetExceeded,
    SplittingScheme,
    WeightedMeasure,
    besq_terminal_samples,
    evolve_through,
    feynman_kac,
    heat_apply,
    heat_evolve,
    heat_kernel,
    heat_kernel_mass_residual,
    kernel_matrix,
    perturbation_residual,
    schrodinger_apply,
    schrodinger_kernel_column,
)
from besselhardy.grid import Grid
from conftest import fit_slope

SCHEME = SplittingScheme(steps_per_unit=32.0, min_steps=2)


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
        # smooth potential; the kinetic factor is subdivided from one shared
        # base matrix so the spatial operator is pinned across refinements
        f = bump(grid_half)

        class SmoothPotential:
            def __call__(self, x):
                return 3.0 * np.exp(-((np.asarray(x, dtype=np.float64) - 2.0) ** 2))

            def validate_for(self, alpha):
                pass

        sv = SmoothPotential()
        t, base = 0.5, 256
        ref = schrodinger_apply(
            m_half, sv, t, f, SplittingScheme(kinetic_substeps=2), n_steps=128
        )
        errs = []
        steps_list = (4, 8, 16, 32)
        for steps in steps_list:
            approx = schrodinger_apply(
                m_half, sv, t, f, SplittingScheme(kinetic_substeps=base // steps), n_steps=steps
            )
            errs.append(np.max(np.abs(approx.values - ref.values)))
        slope = fit_slope(np.log2(steps_list), np.log2(errs))
        assert -2.35 < slope < -1.65

    def test_piecewise_potential_order_reduction(self, m_half, grid_half):
        # discontinuous V triggers the classical splitting order reduction:
        # convergence persists but the observed rate drops toward first order
        f = bump(grid_half)
        v = piecewise_v()
        t, base = 0.5, 256
        ref = schrodinger_apply(
            m_half, v, t, f, SplittingScheme(kinetic_substeps=2), n_steps=128
        )
        errs = []
        steps_list = (4, 8, 16, 32)
        for steps in steps_list:
            approx = schrodinger_apply(
                m_half, v, t, f, SplittingScheme(kinetic_substeps=base // steps), n_steps=steps
            )
            errs.append(np.max(np.abs(approx.values - ref.values)))
        slope = fit_slope(np.log2(steps_list), np.log2(errs))
        assert slope < -0.8  # still convergent
        assert np.all(np.diff(errs) < 0)


    def test_decreasing_times_rejected(self, m_half, grid_half):
        sweep = evolve_through(m_half, Potential.zero(), bump(grid_half), [0.2, 0.1], SCHEME)
        with pytest.raises(ValueError, match="0.1 after 0.2"):
            list(sweep)

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


class TestKernelColumn:
    def test_zero_potential_column_matches_kernel(self, m_half, grid_half):
        t, y = 0.5, 1.0
        col = schrodinger_kernel_column(m_half, Potential.zero(), t, y, grid_half, SCHEME)
        y_node = grid_half.nodes[grid_half.index_of(y)]
        exact = heat_kernel(m_half, t, grid_half.nodes, y_node)
        peak = exact.max()
        sig = exact > 1e-6 * peak
        assert np.max(np.abs(col.values - exact)[sig]) < 3e-3 * peak

    def test_column_dominated_by_heat_kernel(self, m_half, grid_half):
        t, y = 0.5, 1.5
        v = Potential.constant(0.8, (0.0, 100.0))
        col = schrodinger_kernel_column(m_half, v, t, y, grid_half, SCHEME)
        y_node = grid_half.nodes[grid_half.index_of(y)]
        exact = heat_kernel(m_half, t, grid_half.nodes, y_node)
        assert np.all(col.values >= 0.0)
        assert np.all(col.values <= exact * (1.0 + 1e-6) + 1e-12 * exact.max())

    def test_column_mass_at_most_one(self, m_half, grid_half):
        col = schrodinger_kernel_column(m_half, piecewise_v(), 0.7, 2.0, grid_half, SCHEME)
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
        nasty = Potential.power(1e308, 1.0)
        with pytest.raises(QuadratureBudgetExceeded):
            feynman_kac(m_half, nasty, 1.0, 0.5, lambda x: np.ones_like(x), 200, 40, seed=5)

    def test_besq_marginal_matches_kernel(self, m_half):
        # single exact transition; compare against the kernel CDF
        t, x0, n = 0.4, 1.0, 20000
        samples = besq_terminal_samples(m_half, t, x0, n, 1, seed=6)
        xs = np.linspace(1e-4, 8.0, 4000)
        dens = heat_kernel(m_half, t, x0, xs) * xs**m_half.alpha
        cdf_grid = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(xs))])
        cdf_grid /= cdf_grid[-1]

        def cdf(v):
            return np.interp(v, xs, cdf_grid)

        stat = kstest(samples, cdf).statistic
        assert stat < 1.63 / math.sqrt(n)

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


# every argument check of the kernel and semigroup entry points, one call each
BAD_CALLS = {
    "KernelEval time": lambda m, g, f: KernelEval(0.5, 0.0),
    "KernelEval alpha": lambda m, g, f: KernelEval(0.0, 1.0),
    "kernel_matrix time": lambda m, g, f: kernel_matrix(m, g, -1.0),
    "heat_apply time": lambda m, g, f: heat_apply(m, 0.0, f),
    "heat_apply steps": lambda m, g, f: heat_apply(m, 0.1, f, 0),
    "mass_residual tolerance": lambda m, g, f: heat_kernel_mass_residual(m, 1.0, 1.0, 0.0),
    "schrodinger_apply time": lambda m, g, f: schrodinger_apply(m, Potential.zero(), math.nan, f),
    "evolve_through times": lambda m, g, f: list(evolve_through(m, Potential.zero(), f, [0.2, 0.1])),
    "heat_evolve time": lambda m, g, f: heat_evolve(m, math.inf, f),
    "feynman_kac paths": lambda m, g, f: feynman_kac(m, Potential.zero(), 1.0, 1.0, np.ones_like, 0, 4, 0),
    "feynman_kac start": lambda m, g, f: feynman_kac(m, Potential.zero(), 1.0, 0.0, np.ones_like, 4, 4, 0),
}


@pytest.mark.parametrize("name", list(BAD_CALLS))
def test_bad_argument_is_a_library_error(m_half, name):
    grid = Grid.build(m_half, 40, 8.0, 10.0)
    with pytest.raises(InvalidInput) as info:
        BAD_CALLS[name](m_half, grid, GridFunction.ones(grid))
    assert isinstance(info.value, BesselHardyError) and isinstance(info.value, ValueError)
