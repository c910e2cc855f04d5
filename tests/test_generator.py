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

from besselhardy import Grid, Interval, MixedGrids, Potential, WeightedMeasure, heat_kernel
from besselhardy import generator
from conftest import fv_generator


def semigroup_matrix(spec: generator.Spectrum, t: float) -> np.ndarray:
    """K_t = W^-1/2 U e^(-t lam) U^T W^1/2 as a dense matrix."""
    u = spec.vectors
    return ((u * np.exp(-t * spec.lam)) @ u.T) / spec.sqrt_w[:, None] * spec.sqrt_w


@st.composite
def grids_and_potentials(draw):
    """A random grid with a potential of up to three pieces plus a power term."""
    alpha = draw(st.floats(min_value=0.2, max_value=3.0))
    x_max = draw(st.floats(min_value=2.0, max_value=60.0))
    m = WeightedMeasure(alpha)
    n = draw(st.integers(min_value=8, max_value=150))
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
