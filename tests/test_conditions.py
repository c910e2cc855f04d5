import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from besselhardy import (
    BalanceUnreachable,
    DyadicInterval,
    GridFunction,
    Interval,
    Potential,
    QuadratureBudgetExceeded,
    WeightedMeasure,
    build_section,
    check_condition_D,
    check_condition_K,
    check_superharmonic,
    enlarge,
    find_balanced_J,
    heat_kernel,
    kernel_matrix,
    phi_equation_residual,
    schrodinger_apply,
)
from besselhardy import conditions as conditions_module
from besselhardy import kernel as kernel_module
from besselhardy.cli import RunConfig, _grid_for
from besselhardy.conditions import LeftPlateauBump, SmoothBump, balance_functional
from besselhardy.grid import Grid
from conftest import fv_generator

M = WeightedMeasure(0.5)
V1 = Potential.constant(1.0)
VPOW = Potential.power(1.0, 1.0)


@pytest.fixture(scope="module")
def section_v1():
    return build_section(M, V1, Interval(0.0, 4.0))


@pytest.fixture(scope="module")
def profile_v1(section_v1):
    return find_balanced_J(M, V1, section_v1.intervals[1])


@pytest.fixture(scope="module")
def cond_grid():
    breaks = [k / 2 for k in range(1, 9)]
    return Grid.build(M, 1400, 44.0, 300.0, breakpoints=breaks)


class TestBalancedInterval:
    def test_v1_host_balances_at_double(self, profile_v1):
        # F([1/2,1]) = 1 exactly for V = 1, so J = 2I itself
        assert profile_v1.balance_residual < 1e-10
        assert (profile_v1.balanced.a, profile_v1.balanced.b) == (0.25, 1.25)
        assert profile_v1.c_j == pytest.approx(
            M.mu(profile_v1.balanced) / profile_v1.balanced.length ** 2, rel=1e-14
        )

    def test_inclusions_hold(self):
        sec = build_section(M, VPOW, Interval(0.0, 8.0))
        for host in list(sec)[:6]:
            prof = find_balanced_J(M, VPOW, host)
            two_i = enlarge(host.to_interval(), 2.0)
            two_p = enlarge(host.parent().to_interval(), 2.0)
            assert prof.balance_residual < 1e-10
            assert two_i.a >= prof.balanced.a - 1e-12 and prof.balanced.b >= two_i.b - 1e-12
            assert two_p.a <= prof.balanced.a + 1e-12 and prof.balanced.b <= two_p.b + 1e-12
            assert balance_functional(M, VPOW, prof.balanced) == pytest.approx(1.0, abs=1e-9)

    def test_zero_potential_unreachable(self, section_v1):
        with pytest.raises(BalanceUnreachable):
            find_balanced_J(M, Potential.zero(), section_v1.intervals[1])


class TestPhi:
    def test_matches_quadrature_oracle(self, profile_v1):
        j = profile_v1.balanced
        alpha = M.alpha

        def oracle(x):
            f = lambda y: abs(x ** (1 - alpha) - y ** (1 - alpha)) * V1(y) * y**alpha  # noqa: E731
            cut = min(max(x, j.a), j.b)
            val, _ = quad(f, j.a, j.b, points=[cut], limit=200)
            return 1.0 + val / (2.0 * (1.0 - alpha))

        for x in (0.01, 0.2, 0.5, 0.75, 1.1, 1.25, 3.0, 20.0):
            assert profile_v1.phi(x) == pytest.approx(oracle(x), rel=1e-11)

    def test_phi_at_least_one(self, profile_v1):
        xs = np.geomspace(1e-6, 50.0, 2000)
        assert np.all(profile_v1.phi(xs) >= 1.0)

    def test_left_branch_derivative_exact(self, profile_v1):
        a = profile_v1.balanced.a
        for x in (0.01, 0.1, 0.2, a):
            want = -0.5 * x ** (-M.alpha) * profile_v1.c_j
            assert profile_v1.phi_prime(x) == pytest.approx(want, rel=1e-12)

    def test_derivative_matches_finite_differences(self, profile_v1):
        h = 1e-6
        for x in (0.4, 0.75, 1.0, 2.0, 10.0):
            fd = (profile_v1.phi(x + h) - profile_v1.phi(x - h)) / (2 * h)
            assert profile_v1.phi_prime(x) == pytest.approx(fd, rel=1e-6)

    def test_holder_growth_at_origin(self, profile_v1):
        # below J the increment is exactly x^{1-alpha} c_J / (2(1-alpha))
        phi0 = profile_v1.phi(0.0)
        const = profile_v1.c_j / (2.0 * (1.0 - M.alpha))
        for x in (1e-6, 1e-4, 1e-2, 0.2):
            inc = phi0 - profile_v1.phi(x)
            assert inc == pytest.approx(const * x ** (1 - M.alpha), rel=1e-10)

    def test_comparability_with_displacement_form(self, profile_v1):
        # phi(x) within fixed factors of 1 + mu(J) |x^{1-a} - z^{1-a}| / |J|^2
        j = profile_v1.balanced
        z = 0.75
        factor = M.mu(j) / j.length**2
        xs = np.geomspace(0.01, 40.0, 500)
        rhs = 1.0 + factor * np.abs(xs ** (1 - M.alpha) - z ** (1 - M.alpha))
        ratio = profile_v1.phi(xs) / rhs
        assert ratio.min() > 0.4 and ratio.max() < 2.5


class TestWeakIdentity:
    def test_support_beyond_j_telescopes(self, profile_v1):
        b = profile_v1.balanced.b
        psi = SmoothBump(b + 0.5, b + 2.0)
        assert phi_equation_residual(profile_v1, psi) < 1e-10

    def test_bump_straddling_j(self, profile_v1):
        j = profile_v1.balanced
        psi = SmoothBump(j.a - 0.15, j.b + 0.4)
        assert phi_equation_residual(profile_v1, psi) < 1e-8

    def test_boundary_term_activates_at_origin(self, profile_v1):
        psi = LeftPlateauBump(0.05, profile_v1.balanced.b)
        with_term = phi_equation_residual(profile_v1, psi, include_boundary_term=True)
        without = phi_equation_residual(profile_v1, psi, include_boundary_term=False)
        assert with_term < 1e-8
        assert without == pytest.approx(profile_v1.c_j / 2.0, rel=1e-6)

    def test_unconverged_term_raises(self, profile_v1, monkeypatch):
        monkeypatch.setattr(conditions_module, "_WEAK_QUAD_TOL", 1e-300)
        with pytest.raises(QuadratureBudgetExceeded):
            phi_equation_residual(profile_v1, SmoothBump(profile_v1.balanced.a, profile_v1.balanced.b))


def _scipy_quad(f, a, b, points=(), epsabs=1.49e-8, epsrel=1.49e-8, limit=50):
    """QUADPACK through scipy with the signature of ``kernel.quad``, one point at a time."""
    value, abserr = quad(lambda x: float(f(x)), a, b, points=list(points) or None, epsabs=epsabs, epsrel=epsrel, limit=limit)
    return value, abserr, True


def _record(calls):
    """A ``quad`` that keeps each call's value next to QUADPACK's on the same integrand."""
    own = conditions_module.quad

    def recording(*args, **kwargs):
        result = own(*args, **kwargs)
        calls.append((result[0], _scipy_quad(*args, **kwargs)[0]))
        return result

    return recording


@pytest.fixture(scope="module")
def sweep_profiles():
    """The four profiles of the ``sweep_cold`` bench workload."""
    sec1 = build_section(M, V1, Interval(0.0, 4.0))
    sec_pow = build_section(M, VPOW, Interval(0.0, 8.0))
    hosts = [(V1, sec1.intervals[0]), (V1, sec1.intervals[1]), (VPOW, sec_pow.intervals[1]), (VPOW, sec_pow.intervals[5])]
    return [(v, find_balanced_J(M, v, host)) for v, host in hosts]


class TestQuadratureOracle:
    def test_weak_integrals_match_quadpack(self, sweep_profiles, monkeypatch):
        calls = []
        monkeypatch.setattr(conditions_module, "quad", _record(calls))
        for _, prof in sweep_profiles:
            j = prof.balanced
            phi_equation_residual(prof, SmoothBump(j.a, j.b))
            phi_equation_residual(prof, LeftPlateauBump(0.25 * j.a + 1e-3, j.b))
        assert len(calls) == 16
        for ours, theirs in calls:
            assert abs(ours - theirs) < 1e-13

    def test_tail_bounds_match_quadpack(self, sweep_profiles, monkeypatch):
        cases = [
            (prof, prof.host.to_interval().center, u, x_max)
            for _, prof in sweep_profiles
            for u in prof.host.length**2 * np.geomspace(0.05, 64.0, 9)
            for x_max in (8.0, 30.0)
        ]
        ours = [conditions_module._tail_bound(M, *case) for case in cases]
        monkeypatch.setattr(conditions_module, "quad", _scipy_quad)
        wants = [conditions_module._tail_bound(M, *case) for case in cases]
        checked = [(own, want) for own, want in zip(ours, wants) if want >= 1e-12]
        assert len(checked) >= 10
        for own, want in checked:
            assert own == pytest.approx(want, rel=1e-7)


class TestSuperharmonic:
    def test_theta_nonincreasing_and_bounded(self, profile_v1, cond_grid):
        host_len = profile_v1.host.length
        us = host_len**2 * np.exp(np.linspace(math.log(1e-3), math.log(100.0), 21))
        rep = check_superharmonic(M, V1, profile_v1, 0.75, us, cond_grid)
        assert rep.monotone_ok
        assert rep.bounded_ok
        assert rep.worst_step <= 1e-6
        assert rep.thetas[-1] < 1e-6 * rep.phi_at_z

    def test_profile_of_another_potential_is_not_superharmonic(self, profile_v1):
        # L phi = -V 1_J, so phi balanced for V = 1 is subharmonic under
        # V = 0: theta rises and passes phi(z), and the check must say so
        grid = Grid.build(M, 320, 30.0, 60.0)
        us = profile_v1.host.length**2 * np.exp(np.linspace(math.log(1e-3), math.log(100.0), 21))
        rep = check_superharmonic(M, Potential.zero(), profile_v1, 0.75, us, grid)
        assert not rep.monotone_ok and not rep.bounded_ok
        assert rep.worst_step > 0.1

    def test_sweep_is_one_spectrum_at_the_requested_times(self, profile_v1):
        grid = Grid.build(M, 200, 44.0, 300.0, breakpoints=[k / 8 for k in range(1, 17)])
        us = profile_v1.host.length**2 * np.exp(np.linspace(math.log(1e-3), math.log(100.0), 21))
        shuffled = np.random.default_rng(3).permutation(us)
        rep = check_superharmonic(M, V1, profile_v1, 0.75, shuffled, grid)
        assert len(grid._matrix_cache) == 1  # the spectrum; no kernel matrix
        assert np.array_equal(rep.us, us)
        # the exact-in-time oracle: a dense matrix exponential of the generator.
        # Two oracles (A_V and its symmetric form) differ by up to 6e-13 of
        # phi(z) among themselves, so theta is held to 1e-12 of that scale
        a_v = fv_generator(M, grid, V1)
        phi, iz = profile_v1.phi_gridfunction(grid).values, grid.index_of(0.75)
        want = np.array([(expm(-u * a_v) @ phi)[iz] for u in us])
        assert np.max(np.abs(rep.thetas - want)) <= 1e-12 * rep.phi_at_z

    def test_short_time_continuity(self, profile_v1, cond_grid):
        u = 1e-4 * profile_v1.host.length ** 2
        phi_gf = profile_v1.phi_gridfunction(cond_grid)
        iz = cond_grid.index_of(0.75)
        theta0 = schrodinger_apply(M, V1, u, phi_gf).values[iz]
        phi_z = profile_v1.phi(float(cond_grid.nodes[iz]))
        assert abs(theta0 - phi_z) / phi_z < 1e-3


class TestThetaMass:
    def test_free_mass_conserved(self, cond_grid):
        val = schrodinger_apply(M, Potential.zero(), 0.5, GridFunction.point_mass(cond_grid, 1.0)).integral()
        assert val == pytest.approx(1.0, abs=2e-4)

    def test_constant_potential_exponential(self, cond_grid):
        c, t = 1.0, 0.7
        val = schrodinger_apply(M, Potential.constant(c, (0.0, 200.0)), t, GridFunction.point_mass(cond_grid, 1.0)).integral()
        assert val == pytest.approx(math.exp(-c * t), rel=2e-3)

    def test_nonincreasing_in_time(self, cond_grid):
        vals = [schrodinger_apply(M, V1, t, GridFunction.point_mass(cond_grid, 1.0)).integral() for t in (0.1, 0.4, 1.0, 3.0)]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(vals, vals[1:]))


class TestConditionD:
    def test_unit_potential_superpolynomial(self, section_v1):
        grid = Grid.build(M, 900, 70.0, 300.0, breakpoints=[k / 2 for k in range(1, 9)])
        rep = check_condition_D(M, V1, section_v1, grid, n_max=8)
        assert rep.passed
        for e in rep.entries:
            assert e.fitted_exponent < -1.0  # e^{-t} beats every polynomial
            assert e.extras["epsilon_weak"] > 0.0

    def test_power_potential_polynomial_rate(self):
        sec = build_section(M, VPOW, Interval(0.0, 8.0))
        grid = Grid.build(M, 900, 40.0, 300.0, breakpoints=[d.b for d in sec])
        small = [d for d in sec if d.length <= 0.25][:3]
        rep = check_condition_D(M, VPOW, sec, grid, intervals=small, n_max=8)
        assert rep.passed
        for e in rep.entries:
            assert e.fitted_exponent <= e.threshold
            assert e.fitted_exponent > -3.0  # genuinely polynomial, not e^{-t}

    @pytest.mark.parametrize(
        "v",
        [
            Potential.zero(),
            Potential.constant(1.0),
            Potential(pieces=((0.5, 2.0, 1.5),), power_coeff=0.3, power_exponent=1.2),
        ],
        ids=["V=0", "V=1", "piece+power"],
    )
    def test_masses_are_the_dense_semigroup(self, v):
        # M(n) = sum_i w_i (expm(-t A_V) delta_y)_i, exact in time; the spectral
        # masses read within 1.7e-13 of this oracle
        grid = Grid.build(M, 60, 8.0, 30.0)
        sec = build_section(M, VPOW, Interval(0.0, 8.0))
        d = sec.intervals[1]
        rep = check_condition_D(M, v, sec, grid, intervals=[d], n_max=6)
        a_v = fv_generator(M, grid, v)
        delta = GridFunction.point_mass(grid, d.to_interval().center).values
        want = [grid.weights @ (expm(-t * a_v) @ delta) for t in np.ldexp(d.length**2, np.arange(7))]
        np.testing.assert_allclose(rep.entries[0].values, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("alpha", [0.3, 0.5])
    def test_compact_potential_decays_at_the_recurrent_rate(self, alpha):
        # V = 1 on [0, 1] kills only near 0, so the mass decays like
        # t^(-(1-alpha)/2).  Each leg of 2^n |I|^2 in 8 Strang steps reads the
        # slopes -0.30 / -0.20 / -0.11 (alpha 0.3) and -0.22 / -0.13 / -0.06
        # (alpha 0.5): too few steps per leg fail two of the three intervals
        m = WeightedMeasure(alpha)
        v = Potential.constant(1.0, (0.0, 1.0))
        sec = build_section(m, v, Interval(0.0, 4.0))
        grid = Grid.build(m, 900, 200.0, 300.0, breakpoints=[p for d in sec for p in (d.a, d.b)])
        rep = check_condition_D(m, v, sec, grid, n_max=8)
        assert rep.passed
        for e in rep.entries:
            assert e.fitted_exponent == pytest.approx(-(1.0 - alpha) / 2.0, abs=0.03), e.label

    def test_zero_potential_fails_the_fit(self, section_v1):
        # without the stopping rule there is no decay: masses stay near 1
        grid = Grid.build(M, 500, 70.0, 300.0)
        rep = check_condition_D(
            M, Potential.zero(), section_v1, grid, intervals=[section_v1.intervals[1]], n_max=5
        )
        assert not rep.passed
        assert np.all(rep.entries[0].values > 0.9)


class TestConditionK:
    def test_unit_potential_rates(self, section_v1):
        grid = Grid.build(M, 900, 70.0, 300.0, breakpoints=[k / 2 for k in range(1, 9)])
        rep = check_condition_K(M, V1, section_v1, grid, t_count=6)
        assert rep.passed
        near = [e for e in rep.entries if e.extras.get("near_origin")]
        far = [e for e in rep.entries if not e.extras.get("near_origin")]
        assert near and far
        for e in near:
            assert e.fitted_exponent >= (1 - M.alpha) / 2 - 0.1
        for e in far:
            assert e.fitted_exponent >= 0.5 - 0.1

    def test_zero_potential_vacuous(self, section_v1):
        # (0, 1/2] is near the origin and [7/2, 4] is not; both entries say which rule they got
        grid = Grid.build(M, 400, 70.0, 300.0)
        ends = [section_v1.intervals[0], section_v1.intervals[-1]]
        rep = check_condition_K(M, Potential.zero(), section_v1, grid, intervals=ends, t_count=4)
        assert rep.passed
        near, far = rep.entries
        assert near.extras == {"vacuous": True, "near_origin": True}
        assert far.extras == {"vacuous": True, "near_origin": False}
        assert (near.threshold, far.threshold) == ((1.0 - M.alpha) / 2.0 - 0.1, 0.5 - 0.1)

    def test_power_potential_near_origin(self):
        sec = build_section(M, VPOW, Interval(0.0, 8.0))
        grid = Grid.build(M, 900, 40.0, 300.0, breakpoints=[d.b for d in sec])
        near = [d for d in sec if d.to_interval().a <= 2 * d.length][:2]
        rep = check_condition_K(M, VPOW, sec, grid, intervals=near, t_count=5)
        assert rep.passed


def full_width_G(m, potential, beta, grid, d, t_count, s_nodes):
    """G of (K) for one interval from the pointwise heat kernel: the independent reference.

    At every node within 2|I| of I***, the kernel against every node of
    I***, integrated in s by an s_nodes-point Gauss-Legendre rule in
    u = sqrt(s), which absorbs the integrable s^{-(1-alpha)/2} blow-up at 0.
    """
    gl_u, gl_w = np.polynomial.legendre.leggauss(s_nodes)
    base = d.to_interval()
    star3 = enlarge(base, beta**3)
    mask = (grid.nodes >= star3.a) & (grid.nodes <= star3.b)
    weight_vec = (np.asarray(potential(grid.nodes), dtype=np.float64) * grid.weights)[mask]
    near = (grid.nodes >= star3.a - 2.0 * base.length) & (grid.nodes <= star3.b + 2.0 * base.length)
    probes = grid.nodes[near]
    gs = []
    for t in d.length**2 * 2.0 ** (-np.arange(t_count, dtype=float)):
        u_hi = math.sqrt(2.0 * t)
        acc = np.zeros(probes.size)
        for u, w_u in zip(0.5 * u_hi * (gl_u + 1.0), 0.5 * u_hi * gl_w):
            rows = heat_kernel(m, u * u, probes[:, None], grid.nodes[None, mask])
            acc += (2.0 * u * w_u) * (rows @ weight_vec)
        gs.append(float(acc.max()))
    return np.array(gs)


def dense_G(m, potential, beta, grid, d, ts):
    """G of (K) for one interval as max over the probe nodes of A_0^-1 (I - expm(-2t A_0)) g, densely."""
    a0 = fv_generator(m, grid, Potential.zero())
    base = d.to_interval()
    star3 = enlarge(base, beta**3)
    g = np.where((grid.nodes >= star3.a) & (grid.nodes <= star3.b), potential(grid.nodes), 0.0)
    near = (grid.nodes >= star3.a - 2.0 * base.length) & (grid.nodes <= star3.b + 2.0 * base.length)
    return np.array([np.linalg.solve(a0, g - expm(-2.0 * t * a0) @ g)[near].max() for t in ts])


def cli_case(n=None):
    """The measure, V, section and grid of ``besselhardy all``'s (K) check, on n cells if given."""
    cfg = RunConfig() if n is None else RunConfig(grid_n=n)
    section = build_section(cfg.measure, cfg.potential, cfg.window)
    return cfg.measure, cfg.potential, section, _grid_for(cfg, section)


def grid900_case(n=900):
    """V = 1/x on its section of [0, 8], on the test-14 grid construction with n cells."""
    section = build_section(M, VPOW, Interval(0.0, 8.0))
    return M, VPOW, section, Grid.build(M, n, 44.0, 300.0, breakpoints=[k / 8 for k in range(1, 17)])


class TestConditionKSpectral:
    """(K) reads the cached finite-volume spectrum of V = 0, exact in time."""

    @pytest.mark.parametrize(
        "alpha,potential,window,grid_args",
        [
            (0.5, V1, (0.0, 4.0), (60, 30.0, 60.0)),
            (0.5, V1, (0.0, 4.0), (40, 30.0, 60.0)),
            (0.2, Potential.constant(5.0, (0.0, 1.0)), (0.0, 4.0), (48, 20.0, 30.0)),
            (0.8, Potential.power(2.0, 0.5), (0.0, 4.0), (56, 16.0, 100.0)),
            (0.5, V1, (0.0, 30.0), (60, 30.0, 60.0)),
        ],
    )
    def test_equals_the_dense_oracle(self, alpha, potential, window, grid_args):
        # G agreed with the dense oracle to at most 2.6e-13 relative on these
        # grids.  On graded ones (ratio 300) the dense solve loses digits to the
        # condition of A_0 (1.1e-11), while a 40-digit mpmath eigsy of the same
        # A_0 agreed with the spectral G to 5e-13.  The window [0, 30] puts an
        # interval at x_max, where I*** reaches past the grid.  In the third
        # case V vanishes on one I***, a vacuous entry of G = 0
        m = WeightedMeasure(alpha)
        section = build_section(m, potential, Interval(*window))
        grid = Grid.build(m, *grid_args, breakpoints=[p for d in section for p in (d.a, d.b) if p < grid_args[1]])
        chosen = conditions_module._pick_intervals(section, None)
        rep = check_condition_K(m, potential, section, grid, t_count=5)
        for e, d in zip(rep.entries, chosen):
            want = dense_G(m, potential, section.beta, grid, d, e.xs)
            np.testing.assert_allclose(e.values, want, rtol=1e-12, atol=0.0, err_msg=e.label)

    @pytest.mark.parametrize("case", [cli_case, grid900_case], ids=["cli", "grid 900, V = 1/x"])
    def test_agrees_with_the_pointwise_kernel(self, case):
        # Each side's discretization error is estimated by its change from n
        # to n/2 cells; the two agree to within the sum of those changes, entry
        # by entry.  Measured: the difference was at most 0.29 / 0.34 of that
        # sum, and 7.8e-3 / 1.7e-3 relative, at the CLI config / grid 900
        m, potential, section, grid = case()
        _, _, _, half = case(len(grid) // 2)
        fv, fv_half = (check_condition_K(m, potential, section, g, t_count=5) for g in (grid, half))
        for e, e_half, d in zip(fv.entries, fv_half.entries, conditions_module._pick_intervals(section, None)):
            pw, pw_half = (full_width_G(m, potential, section.beta, g, d, 5, 48) for g in (grid, half))
            bound = np.abs(e.values - e_half.values) + np.abs(pw - pw_half)
            assert np.all(np.abs(e.values - pw) <= bound), e.label

    def test_no_kernel_call_one_eigh_cold_none_warm(self, monkeypatch):
        m, potential, section, grid = cli_case()
        calls = {"heat_kernel": 0, "bessel": 0, "eigh": 0}

        def spy(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(kernel_module, "heat_kernel", spy("heat_kernel", kernel_module.heat_kernel))
        monkeypatch.setattr(kernel_module, "bessel_i_scaled_ratio", spy("bessel", kernel_module.bessel_i_scaled_ratio))
        monkeypatch.setattr(np.linalg, "eigh", spy("eigh", np.linalg.eigh))
        cold = check_condition_K(m, potential, section, grid, t_count=5)
        assert calls == {"heat_kernel": 0, "bessel": 0, "eigh": 1}
        warm = check_condition_K(m, potential, section, grid, t_count=5)
        assert calls == {"heat_kernel": 0, "bessel": 0, "eigh": 1}
        assert [e.values.tobytes() for e in warm.entries] == [e.values.tobytes() for e in cold.entries]

    def test_peak_memory_is_at_most_one_kernel_matrix_build(self):
        # one cold check at the CLI config, its eigh included, needs no more
        # memory than one kernel_matrix build at dt = 1 on its grid took when
        # the matrix was filled densely and then packed: 6,564,499 bytes
        # (numpy 2.4).  It peaked at 2.48 MB; the grouped pointwise rule
        # before it peaked at 5.59 MB
        m, potential, section, grid = cli_case()
        tracemalloc.start()
        try:
            check_condition_K(m, potential, section, grid, t_count=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6_564_499

    def test_near_origin_rule_at_its_boundary(self, section_v1):
        # rho(0, I) = a: [2, 3] has a = 2|I| and is near the origin, [3, 4] is not
        grid = Grid.build(M, 200, 30.0, 60.0)
        rep = check_condition_K(M, V1, section_v1, grid, intervals=[DyadicInterval(0, 2), DyadicInterval(0, 3)], t_count=3)
        near, far = rep.entries
        assert near.extras["near_origin"] is True and near.threshold == (1.0 - M.alpha) / 2.0 - 0.1
        assert far.extras["near_origin"] is False and far.threshold == 0.5 - 0.1
