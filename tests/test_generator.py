import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm

from besselhardy import GridFunction, Grid, Interval, InvalidInput, MixedGrids, Potential, WeightedMeasure, heat_kernel
from besselhardy import generator
from conftest import fv_generator

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import fv_reference  # noqa: E402


def semigroup_matrix(spec: generator.Spectrum, t: float) -> np.ndarray:
    """K_t = W^-1/2 U e^(-t lam) U^T W^1/2 as a dense matrix."""
    u = spec.vectors
    return ((u * np.exp(-t * spec.lam)) @ u.T) / spec.sqrt_w[:, None] * spec.sqrt_w


@st.composite
def grids_and_potentials(draw, max_n: int = 150):
    """A random grid with a potential of up to three pieces plus a power term."""
    alpha = draw(st.floats(min_value=0.2, max_value=3.0))
    x_max = draw(st.floats(min_value=2.0, max_value=60.0))
    m = WeightedMeasure(alpha)
    n = draw(st.integers(min_value=8, max_value=max_n))
    grid = Grid.build(m, n, x_max, draw(st.floats(min_value=1.0, max_value=1000.0)))
    pieces = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        a = draw(st.floats(min_value=0.0, max_value=x_max))
        value = draw(st.floats(min_value=0.0, max_value=5.0, allow_subnormal=False))
        pieces.append((a, a + draw(st.floats(min_value=0.01, max_value=20.0)), value))
    coeff = draw(st.floats(min_value=0.0, max_value=2.0, allow_subnormal=False))
    exponent = draw(st.floats(min_value=-1.0, max_value=0.95 + alpha))
    return m, grid, Potential(pieces=tuple(pieces), power_coeff=coeff, power_exponent=exponent)


# Rounding of eigh: over random grids whose cell masses span up to 1e15,
# symmetry and the semigroup law (in L2(mu)) read under 3e-15.  Positivity
# and the constant-potential identity are held to node-wise bounds derived
# in their tests.
EXACT = 1e-14
EPS = float(np.finfo(np.float64).eps)


def _case(alpha: float, n: int, x_max: float, ratio: float, potential: Potential = Potential.zero()):
    """A ``grids_and_potentials`` value."""
    m = WeightedMeasure(alpha)
    return m, Grid.build(m, n, x_max, ratio), potential


def product_rounding(spec: generator.Spectrum, t: float, f: np.ndarray) -> np.ndarray:
    """n eps (|U| e^(-t lam) |U|^T (sqrt(w) |f|)) / sqrt(w): the rounding of K_t f's two products, node by node.

    Each of W^-1/2 U e^(-t lam) U^T W^1/2 f's two dot products of n terms is
    off by up to n eps times the sum of its terms' moduli.  It does not shrink
    with t, and it grows where the cell masses span many decades (alpha near 3).
    """
    u = np.abs(spec.vectors)
    return len(spec.lam) * EPS * ((u * np.exp(-t * spec.lam)) @ (u.T @ (spec.sqrt_w * np.abs(f)))) / spec.sqrt_w


class TestStructure:
    """K_t keeps the structure of the continuous semigroup, up to the rounding of one eigh."""

    @given(case=grids_and_potentials(), t=st.floats(min_value=1e-4, max_value=5.0))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_in_l2_mu(self, case, t):
        m, grid, v = case
        wk = grid.weights[:, None] * semigroup_matrix(generator.spectrum(m, grid, v), t)
        assert np.max(np.abs(wk - wk.T)) <= EXACT * np.max(np.abs(wk))

    @given(case=grids_and_potentials(), t=st.floats(min_value=1e-4, max_value=5.0), seed=st.integers(0, 2**32 - 1))
    @example(  # K_t f reads -4.7e-7 at node 112 (x = 0.365) here, lam_max 1.9e16, over a flat bound of 1e-12
        case=_case(
            3.0,
            150,
            2.0,
            880.2336569079806,
            Potential(
                pieces=(
                    (0.6810683544461558, 4.288338921721126, 2.270003185059384),
                    (0.9378197168925528, 7.405880566300511, 1.4743268007946537),
                ),
                power_coeff=1.1097115478114865,
                power_exponent=3.7699743098062584,
            ),
        ),
        t=0.7267578258362789,
        seed=176,
    )
    @settings(max_examples=60, deadline=None)
    def test_positive_and_sub_markov_killed_at_x_max(self, case, t, seed):
        # 0 <= K_t f <= 1 for 0 <= f <= 1 in exact arithmetic.  Two roundings move it:
        # * eigh.  It is backward stable: the computed lam and U decompose T + E,
        #   with |E|_2 of order eps |T|_2 = eps lam_max.  T and T + E are both
        #   >= 0 when the computed lam are, so their semigroups contract l2, and
        #   by Duhamel's formula |exp(-t (T + E)) g - exp(-t T) g|_2 <= t |E|_2 |g|_2
        #   (times exp(t |lam_min|) were a computed lam negative).  With
        #   g = W^1/2 f and K_t f = W^-1/2 exp(-t T) g, and a node's entry at most
        #   the l2 norm, node i moves by at most
        #   t eps lam_max |W^1/2 f|_2 / sqrt(w_i).
        #   The example above has eps lam_max = 4.3, and the bound reads 129 at
        #   its node 112.
        # * The products, ``product_rounding``.
        # Over 1,500 random cases in the strategy's ranges the excess over
        # [0, 1] reached 1.6e-9 of this bound.  With the sign of T's
        # off-diagonal flipped (the same lam, U with alternate rows negated) 400
        # of 500 random cases broke the bound, and the test failed in 3 of 3 runs.
        m, grid, v = case
        f = np.random.default_rng(seed).uniform(0.0, 1.0, len(grid))
        spec = generator.spectrum(m, grid, v)
        kf = semigroup_matrix(spec, t) @ f
        growth = math.exp(-t * min(spec.lam[0], 0.0))
        eigh = t * EPS * spec.lam[-1] * growth * math.sqrt(grid.weights @ f**2) / spec.sqrt_w
        bound = eigh + product_rounding(spec, t, f)
        assert np.all(kf >= -bound) and np.all(kf <= 1.0 + bound)
        # value 0 at x_max: with V = 0 the chain loses its mass there, and by
        # t = x_max^2 most of it
        free = semigroup_matrix(generator.spectrum(m, grid, Potential.zero()), grid.x_max**2)
        assert (free @ np.ones(len(grid))).max() < 0.5

    @given(
        case=grids_and_potentials(),
        s=st.floats(min_value=1e-4, max_value=5.0),
        t=st.floats(min_value=1e-4, max_value=5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_semigroup_law(self, case, s, t, seed):
        m, grid, v = case
        spec = generator.spectrum(m, grid, v)
        f = np.random.default_rng(seed).uniform(0.0, 1.0, len(grid))
        two_legs = semigroup_matrix(spec, s) @ (semigroup_matrix(spec, t) @ f)
        gap = two_legs - semigroup_matrix(spec, s + t) @ f
        # in L2(mu), the norm the spectrum is orthogonal in: pointwise, a cell
        # of tiny mass sees its neighbours' rounding scaled by sqrt(w_j / w_i)
        assert math.sqrt(grid.weights @ gap**2) <= EXACT * math.sqrt(grid.weights @ f**2)

    @given(
        case=grids_and_potentials(),
        c=st.floats(min_value=0.0, max_value=3.0),
        t=st.floats(min_value=1e-4, max_value=5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(  # the gap reads 1.13e-12 here (lam_max 3.8e6), over a flat bound of 1e-12
        case=_case(0.21321273761296144, 147, 8.116032589659206, 365.85060957802483),
        c=1.9118949094956499,
        t=0.1189430218042429,
        seed=0,
    )
    @settings(max_examples=60, deadline=None)
    def test_constant_potential_is_a_factor(self, case, c, t, seed):
        # K^c_t f = e^(-ct) K^0_t f in exact arithmetic.  Two roundings part them:
        # * The shift.  T's diagonal entries d_k reach lam_max, and d_k + c is
        #   rounded by up to eps (d_k + c) / 2, so the killed T has Vbar moved by
        #   at most eps lam_max.  By Duhamel's formula, with K_s sub-Markov in
        #   L-inf, a change delta of V moves K_t f by at most t max|delta| max|f|:
        #   t eps lam_max max|f|.  eigh's backward error, eps |T| = eps lam_max
        #   times a modest factor, enters at the same order.
        # * The products, ``product_rounding``, for each of the two spectra.
        # Over 1,300 random cases in the strategy's ranges, edge values
        # included, the gap reached 0.26 of the bound (0.011 in the example
        # above); with Vbar scaled by 1 + 1e-9 it passed the bound in 429 of them.
        m, grid, _ = case
        f = np.random.default_rng(seed).uniform(0.0, 1.0, len(grid))
        killed_spec = generator.spectrum(m, grid, Potential.constant(c, (0.0, grid.x_max + 1.0)))
        free_spec = generator.spectrum(m, grid, Potential.zero())
        killed = semigroup_matrix(killed_spec, t) @ f
        free = semigroup_matrix(free_spec, t) @ f
        shift = t * EPS * killed_spec.lam[-1] * f.max()
        bound = shift + product_rounding(killed_spec, t, f) + math.exp(-c * t) * product_rounding(free_spec, t, f)
        assert np.all(np.abs(killed - math.exp(-c * t) * free) <= bound)

    @given(case=grids_and_potentials())
    @settings(max_examples=60, deadline=None)
    def test_cell_means_are_the_closed_form(self, case):
        m, grid, v = case
        vbar = generator.cell_means(m, grid, v)
        e = grid.edges.tolist()
        cells = [m.potential_integral(v, Interval(a, b)) for a, b in zip(e[:-1], e[1:])]
        np.testing.assert_allclose(vbar * grid.weights, cells, rtol=EXACT, atol=0.0)
        # the cells tile (0, x_max]
        whole = m.potential_integral(v, Interval(0.0, grid.x_max))
        assert math.fsum(cells) == pytest.approx(whole, rel=1e-13, abs=1e-300)

    @given(case=grids_and_potentials(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_cell_means_are_the_cell_loop_bit_for_bit(self, case, data):
        m, grid, v = case
        # piece ends on grid edges too, where a term's end cell is clipped to nothing
        e = grid.edges.tolist()
        ends = st.one_of(st.sampled_from(e), st.floats(min_value=0.0, max_value=1.5 * grid.x_max))
        pieces = list(v.pieces)
        for _ in range(data.draw(st.integers(0, 3))):
            a, b = sorted(data.draw(st.lists(ends, min_size=2, max_size=2, unique=True)))
            pieces.append((a, b, data.draw(st.floats(min_value=0.0, max_value=5.0))))
        v = Potential(pieces=tuple(pieces), power_coeff=v.power_coeff, power_exponent=v.power_exponent)
        cells = np.array([m.potential_integral(v, Interval(a, b)) for a, b in zip(e[:-1], e[1:])]) / grid.weights
        assert generator.cell_means(m, grid, v).tobytes() == cells.tobytes()

    def test_spectrum_is_the_dense_generator(self, m_half):
        grid = Grid.build(m_half, 60, 8.0, 30.0)
        v = Potential(pieces=((0.5, 2.0, 1.5),), power_coeff=0.3, power_exponent=1.2)
        spec = generator.spectrum(m_half, grid, v)
        a_v = fv_generator(m_half, grid, v)
        rebuilt = (spec.vectors * spec.lam) @ spec.vectors.T / spec.sqrt_w[:, None] * spec.sqrt_w
        assert np.max(np.abs(rebuilt - a_v)) <= 1e-12 * np.max(np.abs(a_v))

    def test_cached_per_potential_on_the_grid_of_its_measure(self, m_half):
        grid = Grid.build(m_half, 40, 8.0, 10.0)
        spec = generator.spectrum(m_half, grid, Potential.constant(1.0))
        assert generator.spectrum(m_half, grid, Potential.constant(1.0)) is spec
        assert generator.spectrum(m_half, grid, Potential.zero()) is not spec
        assert grid.cache_get(Potential.constant(1.0)).nbytes == 8 * 40 * 40 + 16 * 40
        with pytest.raises(MixedGrids):
            generator.spectrum(WeightedMeasure(0.7), grid, Potential.zero())


@pytest.mark.parametrize("alpha", [0.3, 2.0])
def test_free_semigroup_converges_to_the_heat_kernel(alpha):
    """V = 0 against quadrature of P_t f: the error falls about 4x as n doubles."""
    m = WeightedMeasure(alpha)
    t = 0.05

    def f(x):
        return np.exp(-2.0 * (x - 2.0) ** 2)

    errors = []
    for n in (100, 200, 400):
        grid = Grid.build(m, n, 12.0, 30.0)
        spec = generator.spectrum(m, grid, Potential.zero())
        error = 0.0
        for i in (grid.index_of(x) for x in (0.5, 2.0, 3.0)):
            x = float(grid.nodes[i])
            want = quad(
                lambda y: heat_kernel(m, t, x, y) * f(y) * y**alpha, 0.0, 8.0, points=[2.0], epsabs=1e-13, epsrel=1e-12, limit=200
            )[0]
            error = max(error, abs(generator.sweep(spec, f(grid.nodes), i, np.array([t]))[0] - want))
        errors.append(error)
    assert errors[0] < 1e-3
    assert errors[0] > 3.0 * errors[1] > 9.0 * errors[2]


_THETAS = """
import hashlib, math, sys, tempfile, contextlib, io
from pathlib import Path
import numpy as np
from besselhardy import Grid, Interval, Potential, WeightedMeasure, build_section, check_superharmonic, find_balanced_J
from besselhardy.cli import main
m, v = WeightedMeasure(0.5), Potential.power(1.0, 1.0)
profile = find_balanced_J(m, v, build_section(m, v, Interval(0.0, 8.0)).intervals[5])
us = profile.host.length**2 * np.exp(np.linspace(math.log(1e-3), math.log(100.0), 21))
for n in (320, 900):
    grid = Grid.build(m, n, 44.0, 300.0, breakpoints=[k / 8 for k in range(1, 17)])
    print(check_superharmonic(m, v, profile, profile.host.to_interval().center, us, grid).thetas.tobytes().hex())
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    main(["conditions", "--out", out])
    digest = hashlib.sha256((Path(out) / "superharmonic.csv").read_bytes()).hexdigest()
print(digest)
"""


def test_sweep_under_one_and_two_blas_threads():
    """A process fixes its BLAS thread count when numpy loads, so each count runs in a child.

    The sweep's own sums are numpy reductions; only eigh depends on the count.
    At n = 320 (the CLI's grid size) the thetas and ``superharmonic.csv`` are
    the same bits; at n = 900 eigh's eigenvectors moved the thetas by up to
    8.7e-15 relative.
    """
    src = str(Path(generator.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = []
    for threads in (1, 2):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=path)
        out = subprocess.run([sys.executable, "-c", _THETAS], env=env, capture_output=True, text=True, check=True)
        runs.append(out.stdout.split())
    (small1, large1, csv1), (small2, large2, csv2) = runs
    assert small1 == small2 and csv1 == csv2
    one, two = (np.frombuffer(bytes.fromhex(h)) for h in (large1, large2))
    assert np.max(np.abs(one - two) / one) <= 1e-13


# The resolvent's error is absolute: node-wise at most 2.8e-14 of max|f|
# against 40-digit references at the five of 2,400 random (grid, V, t) draws
# of ``grids_and_potentials(60)`` where it was farthest from expm, and 4e-15
# of max delta_y against eigh on the sweep_cold grid.  With the conjugate
# factor 2 dropped every value halves.
RESOLVENT = 1e-13


def grid14(m: WeightedMeasure, n: int) -> Grid:
    return Grid.build(m, n, 44.0, 300.0, breakpoints=[k / 8 for k in range(1, 17)])


class TestResolvent:
    """``generator.resolvent_sweep``: K_t f of the FV operator from contour integrals, no eigh."""

    @given(
        case=grids_and_potentials(max_n=60),
        times=st.lists(st.floats(min_value=1e-4, max_value=5.0), min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_is_the_dense_exponential(self, case, times, seed):
        m, grid, v = case
        f = np.random.default_rng(seed).uniform(0.0, 1.0, len(grid))
        a_v = fv_generator(m, grid, v)
        got = generator.resolvent_sweep(m, grid, v, f, times)
        for t, row in zip(times, got):
            # scipy's expm of the nonsymmetric A_V has its own error: over
            # 1,665 random cases it reached 1.6 t eps max|diag A_V| max|f| where
            # that exceeds 1e-14, and the 40-digit reference sided with the resolvent
            oracle = t * EPS * np.max(np.abs(np.diag(a_v)))
            assert np.max(np.abs(row - expm(-t * a_v) @ f)) <= (RESOLVENT + 4.0 * oracle) * f.max()

    def test_agrees_with_the_spectral_sweep_on_the_sweep_cold_grid(self, m_half):
        grid = grid14(m_half, 900)
        v = Potential(pieces=((0.0, 1.5, 0.7), (1.5, 3.0, 1.9), (3.0, 30.0, 0.4)), power_coeff=1.0, power_exponent=1.0)
        f = GridFunction.point_mass(grid, 2.0).values
        times = 0.5 * np.geomspace(5e-3, 1.0, 41)  # 7 windows
        want = generator.sweep(generator.spectrum(m_half, grid, v), f, slice(None), times)
        got = generator.resolvent_sweep(m_half, grid, v, f, times)
        assert np.max(np.abs(got - want)) <= RESOLVENT * f.max()

    @given(
        case=grids_and_potentials(),
        times=st.lists(st.floats(min_value=1e-4, max_value=5.0), min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_positive_and_dominated_by_the_free_semigroup(self, case, times, seed):
        m, grid, v = case
        f = np.random.default_rng(seed).uniform(0.0, 1.0, len(grid))
        killed = generator.resolvent_sweep(m, grid, v, f, times)
        free = generator.resolvent_sweep(m, grid, Potential.zero(), f, times)
        assert np.all(killed >= -RESOLVENT * f.max())
        assert np.all(killed <= free + 2.0 * RESOLVENT * f.max())

    def test_matches_the_40_digit_reference(self):
        """Where eigh's K_t f is off by 96% of its max (``tools/fv_reference.py`` made the data)."""
        path = Path(__file__).resolve().parent / "data" / "fv_reference.json"
        for case in json.loads(path.read_text()):
            m, grid, v, f = fv_reference.case_inputs(case)
            diag, off, _ = generator._tridiagonal(m, grid, v)
            assert fv_reference.tridiagonal_sha256(diag, off) == case["tridiagonal_sha256"], "T is not the referenced one"
            want = np.array([float(x) for x in case["values"]])
            got = generator.resolvent_sweep(m, grid, v, f, [case["t"]])[0]
            assert np.max(np.abs(got - want)) <= RESOLVENT * f.max(), case["name"]

    def test_times_in_any_order(self, m_half):
        # the windows are made from the sorted times, so the order the times come in moves no bit
        grid = Grid.build(m_half, 50, 8.0, 30.0)
        f = np.exp(-((grid.nodes - 2.0) ** 2))
        times = np.array([0.3, 1e-3, 2.0, 0.3, 0.05])
        got = generator.resolvent_sweep(m_half, grid, Potential.constant(0.5), f, times)
        in_order = generator.resolvent_sweep(m_half, grid, Potential.constant(0.5), f, np.sort(times))
        assert np.array_equal(got[np.argsort(times, kind="stable")], in_order)

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_a_bad_time(self, m_half, t):
        grid = Grid.build(m_half, 20, 8.0, 10.0)
        with pytest.raises(InvalidInput):
            generator.resolvent_sweep(m_half, grid, Potential.zero(), np.ones(20), [0.5, t])

    def test_rejects_another_measure(self, m_half):
        with pytest.raises(MixedGrids):
            generator.resolvent_sweep(WeightedMeasure(0.7), Grid.build(m_half, 20, 8.0, 10.0), Potential.zero(), np.ones(20), [0.5])


_RESOLVENT_BITS = """
import hashlib
import numpy as np
from besselhardy import Grid, GridFunction, Potential, WeightedMeasure, generator
m = WeightedMeasure(0.5)
grid = Grid.build(m, 900, 44.0, 300.0, breakpoints=[k / 8 for k in range(1, 17)])
v = Potential(pieces=((0.0, 1.5, 0.7), (1.5, 3.0, 1.9), (3.0, 30.0, 0.4)), power_coeff=1.0, power_exponent=1.0)
f = GridFunction.point_mass(grid, 2.0).values
print(hashlib.sha256(generator.resolvent_sweep(m, grid, v, f, 0.5 * np.geomspace(5e-3, 1.0, 41)).tobytes()).hexdigest())
"""


def test_resolvent_under_one_and_two_blas_threads():
    """Cyclic reduction and the einsum call no BLAS, so the bits do not depend on the thread count."""
    src = str(Path(generator.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = set()
    for threads in (1, 2):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=path)
        out = subprocess.run([sys.executable, "-c", _RESOLVENT_BITS], env=env, capture_output=True, text=True, check=True)
        digests.add(out.stdout.strip())
    assert len(digests) == 1
