import math

import numpy as np
import pytest
from scipy.linalg import expm

from besselhardy import (
    AtomicCombination,
    CutoffViolation,
    GridFunction,
    Interval,
    MixedGrids,
    Potential,
    SupportViolation,
    WeightedMeasure,
    build_section,
    enlarge,
    hardy_norm,
    local_hardy_norm,
    make_cancellative_atom,
    make_cutoff,
    make_local_atom,
    make_mu_atom,
    maximal_function,
    partition_of_unity,
    resupport_atom,
    validate_atom,
)
from besselhardy import generator
from besselhardy.grid import Grid
from besselhardy.hardy import Atom, AtomKind, log_time_grid
from conftest import fit_slope, fv_generator

V1 = Potential.constant(1.0)


class TestAtoms:
    def test_local_atom_unit_integral(self, m_half, grid_half):
        atom = make_local_atom(grid_half, Interval(1.0, 1.5))
        assert atom.kind is AtomKind.LOCAL
        assert atom.values.integral() == pytest.approx(1.0, abs=1e-12)
        inside = atom.values.values[atom.cells.i0 : atom.cells.i1]
        assert np.all(inside == inside[0])
        validate_atom(atom)

    def test_mu_atom_cancellation_and_size(self, m_half, grid_half):
        atom = make_mu_atom(grid_half, Interval(1.0, 2.0))
        assert abs(atom.values.integral()) <= 1e-12
        assert atom.values.linf() <= atom.size_bound * (1 + 1e-12)
        validate_atom(atom)

    def test_cancellative_atom_needs_host_containment(self, m_half, grid_half):
        host = Interval(1.0, 1.5)
        star2 = enlarge(host, 1.2**2)
        with pytest.raises(SupportViolation):
            make_cancellative_atom(grid_half, host, Interval(star2.a, star2.b + 0.5), beta=1.2)
        good = make_cancellative_atom(grid_half, host, Interval(1.1, 1.4), beta=1.2)
        validate_atom(good, beta=1.2)

    @pytest.mark.parametrize(
        "defect, message",
        [
            ("mass outside the cells", "outside its support cells"),
            ("too large", "exceeds its size bound"),
            ("no mean zero", "mean-zero"),
            ("no host", "needs a host"),
            ("support outside I**", r"outside I\*\*"),
        ],
    )
    def test_validate_atom_catches_each_defect(self, m_half, grid_half, defect, message):
        good = make_cancellative_atom(grid_half, Interval(1.0, 1.5), Interval(1.1, 1.4), beta=1.2)
        validate_atom(good, beta=1.2)
        vals, cells, host = good.values.values.copy(), good.cells, good.host
        if defect == "mass outside the cells":
            vals[cells.i1] = vals[cells.i0]
        elif defect == "too large":
            vals *= 2.0
        elif defect == "no mean zero":
            vals[cells.i0 : cells.i1] = 0.5 * good.size_bound
        elif defect == "no host":
            host = None
        else:
            host = Interval(1.3, 1.35)  # its I** misses most of [1.1, 1.4]
        with pytest.raises(SupportViolation, match=message):
            validate_atom(Atom(good.kind, cells, GridFunction(grid_half, vals), host), beta=1.2)

    def test_random_atoms_validate(self, m_half, grid_half):
        rng = np.random.default_rng(17)
        for _ in range(50):
            a = rng.uniform(0.05, 8.0)
            b = a + rng.uniform(0.1, 4.0)
            profile = rng.choice(["haar", None])
            atom = make_mu_atom(grid_half, Interval(a, b), profile)
            validate_atom(atom)


class TestSynthesis:
    def test_single_atom(self, m_half, grid_half):
        atom = make_mu_atom(grid_half, Interval(1.0, 2.0))
        combo = AtomicCombination(((1.0, atom),))
        f, cert = combo.synthesize()
        assert cert == 1.0
        assert np.array_equal(f.values, atom.values.values)

    def test_cancelling_pair_certificate_overshoots(self, m_half, grid_half):
        atom = make_mu_atom(grid_half, Interval(1.0, 2.0))
        combo = AtomicCombination(((2.5, atom), (-2.5, atom)))
        f, cert = combo.synthesize()
        assert np.all(f.values == 0.0)
        assert cert == 5.0

    def test_l1_below_certificate(self, m_half, grid_half):
        rng = np.random.default_rng(23)
        terms = []
        for _ in range(10):
            a = rng.uniform(0.1, 6.0)
            atom = make_mu_atom(grid_half, Interval(a, a + rng.uniform(0.2, 2.0)))
            terms.append((float(rng.normal()), atom))
        f, cert = AtomicCombination(tuple(terms)).synthesize()
        assert f.l1() <= cert * (1 + 1e-12)

    def test_mixed_grids_rejected(self, m_half, grid_half):
        other = Grid.build(m_half, 50, 10.0, 10.0)
        combo = AtomicCombination(
            ((1.0, make_mu_atom(grid_half, Interval(1.0, 2.0))), (1.0, make_mu_atom(other, Interval(1.0, 2.0))))
        )
        with pytest.raises(MixedGrids):
            combo.synthesize()


class TestPartitionOfUnity:
    @pytest.fixture(scope="class")
    def section(self, m_half):
        return build_section(m_half, V1, Interval(0.0, 4.0), beta=1.2)

    def test_sums_to_one_on_window(self, m_half, grid_half, section):
        bumps = partition_of_unity(section)
        xs = grid_half.nodes[(grid_half.nodes > 1e-6) & (grid_half.nodes < 4.0)]
        total = sum(b(xs) for b in bumps)
        assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_supported_in_star(self, grid_half, section):
        bumps = partition_of_unity(section)
        for b in bumps:
            outside = (grid_half.nodes < b.star.a - 1e-12) | (grid_half.nodes > b.star.b + 1e-12)
            assert np.all(b(grid_half.nodes)[outside] == 0.0)

    def test_range_and_slope_envelope(self, section):
        # supp in I* makes |phi'| <= 1/|I| unattainable for beta < 2^(1/3);
        # the recorded envelope carries the explicit geometry constant instead
        bumps = partition_of_unity(section)
        c0, beta = section.c0, section.beta
        interior_env = 3.0 * c0 / (2.0 * 0.9 * (beta - 1.0))
        edge_env = 4.5 / (beta - 1.0)
        envelope = max(interior_env, edge_env)
        for b in bumps:
            xs = np.linspace(max(b.star.a, 1e-9), b.star.b, 4001)
            vals = b(xs)
            assert np.all((0.0 <= vals) & (vals <= 1.0))
            slopes = np.abs(np.diff(vals) / np.diff(xs))
            assert slopes.max() <= b.slope_bound * 1.0001
            assert b.slope_bound * b.host.length <= envelope * 1.0001


class TestMaximalFunction:
    def test_single_time_equals_heat(self, m_half, grid_half):
        f = GridFunction(grid_half, np.exp(-((grid_half.nodes - 2.0) ** 2)))
        got = maximal_function(m_half, Potential.zero(), f, [0.3])
        spec = generator.spectrum(m_half, grid_half, Potential.zero())
        want = generator.sweep(spec, f.values, slice(None), np.array([0.3]))[0]
        assert np.array_equal(got.values, np.abs(want))

    def test_repeated_time_is_an_identity_leg(self, m_half, grid_half):
        # a repeated time adds nothing to the sup
        f = GridFunction(grid_half, np.exp(-((grid_half.nodes - 2.0) ** 2)))
        got = maximal_function(m_half, Potential.zero(), f, [0.1, 0.1, 0.2])
        want = maximal_function(m_half, Potential.zero(), f, [0.1, 0.2])
        assert np.array_equal(got.values, want.values)

    def test_monotone_in_time_grid(self, m_half, grid_half):
        # enlarging the time grid can only grow the sup: the spectrum gives
        # the same bits at a shared time, whatever the other times are
        f = GridFunction(grid_half, np.exp(-((grid_half.nodes - 2.0) ** 2)))
        coarse = maximal_function(m_half, V1, f, [0.1, 0.4])
        fine = maximal_function(m_half, V1, f, [0.05, 0.1, 0.2, 0.4])
        assert np.all(fine.values >= coarse.values)

    def test_cancellative_tail_decay_slope(self, m_half, grid_half):
        # sup_t |P_t a| for a mean-zero atom decays like |x - c|^{-2} in the
        # weight-compensated variable once the time range is global
        atom = make_mu_atom(grid_half, Interval(1.0, 1.5))
        c = 1.25
        ts = np.exp(np.linspace(math.log(1e-3), math.log(400.0), 40))
        mf = maximal_function(m_half, Potential.zero(), atom.values, ts)
        sel = (grid_half.nodes > 3.0) & (grid_half.nodes < 12.0)
        d = grid_half.nodes[sel] - c
        compensated = mf.values[sel] * grid_half.nodes[sel] ** m_half.alpha
        slope = fit_slope(np.log(d), np.log(compensated))
        assert -2.4 < slope < -1.6


class TestDenseOracle:
    """At small n the maximal function and the Hardy norms are sup_t |expm(-t A_V) f| of the dense generator."""

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    @pytest.mark.parametrize(
        "potential",
        [Potential.zero(), Potential(pieces=((0.5, 2.0, 1.5),), power_coeff=0.3, power_exponent=1.1)],
        ids=["V=0", "piece+power"],
    )
    def test_sup_of_the_dense_semigroup(self, alpha, potential):
        m = WeightedMeasure(alpha)
        grid = Grid.build(m, 60, 8.0, 30.0)
        a_v = fv_generator(m, grid, potential)
        w = grid.weights
        for atom in (make_local_atom(grid, Interval(1.0, 1.5)), make_mu_atom(grid, Interval(1.0, 2.0))):
            f = atom.values

            def dense(ts):
                return np.array([np.abs(expm(-t * a_v) @ f.values) for t in ts])

            ts = log_time_grid(1e-3, 2.0, 20)
            want = dense(ts).max(axis=0)
            got = maximal_function(m, potential, f, ts).values
            assert np.max(np.abs(got - want)) <= 1e-12 * want.max()

            res = hardy_norm(m, potential, f, 1e-3, 1.0, n_times=16)
            ts = log_time_grid(1e-3, 2.0, 18)  # the 16 + 2 times of the norm
            sups = dense(ts)
            for value, upto in ((res.value, 1.0), (res.value_half_range, 0.5), (res.value_double_range, 2.0)):
                assert value == pytest.approx(w @ sups[ts <= upto * (1.0 + 1e-12)].max(axis=0), rel=1e-12)


class TestHardyNorm:
    def test_local_atoms_uniform_over_section(self, m_half, grid_half):
        section = build_section(m_half, V1, Interval(0.0, 4.0))
        norms = []
        for d in section:
            atom = make_local_atom(grid_half, d.to_interval())
            res = local_hardy_norm(m_half, Potential.zero(), atom.values, d.length, n_times=12)
            norms.append(res.value)
        assert max(norms) < 10.0 * float(np.median(norms))
        assert max(norms) < 4.0  # the empirical constant for this section

    def test_cancellative_atom_norm_stable_as_range_doubles(self, m_half, grid_half):
        atom = make_mu_atom(grid_half, Interval(1.0, 1.5))
        res = hardy_norm(m_half, Potential.zero(), atom.values, 2.5e-4, 16.0, n_times=40)
        assert res.range_sensitivity < 0.10

    def test_local_atom_without_cancellation_grows_logarithmically(self, m_half, grid_half):
        atom = make_local_atom(grid_half, Interval(1.0, 1.5))
        tau2 = 0.25
        ks = np.arange(0, 7)
        values = [
            hardy_norm(m_half, Potential.zero(), atom.values, 1e-3 * tau2, tau2 * 2.0**k, n_times=30).value
            for k in ks
        ]
        slope = fit_slope(ks.astype(float), np.array(values))
        assert slope > 0.05
        resid = np.array(values) - (slope * ks + values[0])
        assert np.all(np.diff(values) > 0.0)
        # growth is close to linear in log2 t_max: residuals small vs total rise
        assert np.max(np.abs(resid - resid.mean())) < 0.25 * (values[-1] - values[0])


class TestResupport:
    @pytest.fixture(scope="class")
    def host(self):
        return Interval(1.0, 1.5)

    @pytest.fixture(scope="class")
    def psi(self, grid_half, host):
        return make_cutoff(host, 1.2, grid_half)

    def test_contained_support_passes_through(self, m_half, grid_half, host, psi):
        atom = make_mu_atom(grid_half, Interval(1.05, 1.4))
        out = resupport_atom(atom, host, psi, 1.2)
        assert len(out) == 1
        lam, back = out[0]
        assert lam == 1.0 and back is atom

    def test_disjoint_support_vanishes(self, m_half, grid_half, host, psi):
        atom = make_mu_atom(grid_half, Interval(3.0, 4.0))
        assert resupport_atom(atom, host, psi, 1.2) == []

    def test_straddling_reconstruction_and_validation(self, m_half, grid_half, host, psi):
        rng = np.random.default_rng(31)
        for _ in range(20):
            width = rng.uniform(0.08, 1.2) * host.length
            left = rng.uniform(host.b - 0.6 * width, host.b + 0.6 * width)
            atom = make_mu_atom(grid_half, Interval(max(1e-4, left), left + width))
            parts = resupport_atom(atom, host, psi, 1.2)
            psi_a = np.asarray(psi(grid_half.nodes)) * atom.values.values
            recon = np.zeros(len(grid_half))
            kinds = []
            for lam, piece in parts:
                validate_atom(piece, 1.2)
                kinds.append(piece.kind)
                recon += lam * piece.values.values
            scale = max(np.max(np.abs(psi_a)), 1e-300)
            assert np.max(np.abs(recon - psi_a)) < 1e-12 * scale
            cert = sum(abs(lam) for lam, _ in parts)
            assert cert <= 10.0
            decomposed = len(parts) > 1
            if decomposed and abs(float((grid_half.weights * psi_a).sum())) > 0:
                assert kinds[-1] is AtomKind.LOCAL

    def test_bad_cutoff_rejected(self, m_half, grid_half, host):
        with pytest.raises(CutoffViolation):
            resupport_atom(
                make_mu_atom(grid_half, Interval(1.4, 1.9)),
                host,
                lambda x: np.full(np.shape(x), 0.9),
                1.2,
            )

    def test_sharp_cutoff_rejected(self, m_half, grid_half, host):
        star2 = enlarge(host, 1.44)

        def step(x):
            x = np.asarray(x)
            return ((x >= star2.a) & (x <= star2.b)).astype(float)

        with pytest.raises(CutoffViolation):
            resupport_atom(make_mu_atom(grid_half, Interval(1.4, 1.9)), host, step, 1.2)
