import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ive

from besselhardy import bessel as bessel_module
from besselhardy import bessel_i_scaled, bessel_i_scaled_ratio
from besselhardy.bessel import SERIES_ASYM_SEAM, asymptotic_branch, series_branch


def half_integer_oracle(order: float, zs: np.ndarray) -> np.ndarray:
    """Elementary closed forms evaluated in 30-digit arithmetic."""
    mpmath.mp.dps = 30
    out = np.empty_like(zs)
    for i, z in enumerate(zs):
        zm = mpmath.mpf(float(z))
        pref = mpmath.sqrt(2.0 / (mpmath.pi * zm))
        if order == 0.5:
            val = pref * mpmath.sinh(zm)
        elif order == 1.5:
            val = pref * (mpmath.cosh(zm) - mpmath.sinh(zm) / zm)
        else:
            raise ValueError(order)
        out[i] = float(val * mpmath.exp(-zm))
    return out


class TestHalfIntegerOracle:
    @pytest.mark.parametrize("order", [0.5, 1.5])
    def test_matches_closed_form_over_full_range(self, order):
        zs = np.geomspace(1e-6, 700.0, 400)
        got = bessel_i_scaled(order, zs)
        want = half_integer_oracle(order, zs)
        rel = np.abs(got - want) / want
        assert rel.max() < 1e-12

    def test_point_example_z1(self):
        want = math.sqrt(2.0 / math.pi) * math.sinh(1.0) * math.exp(-1.0)
        assert bessel_i_scaled(0.5, 1.0) == pytest.approx(want, rel=1e-13)
        assert bessel_i_scaled(0.5, 1.0) == pytest.approx(0.34498, abs=5e-5)

    def test_point_example_z100(self):
        want = (2.0 * math.pi * 100.0) ** -0.5 * -math.expm1(-200.0)
        assert bessel_i_scaled(0.5, 100.0) == pytest.approx(want, rel=1e-13)
        assert bessel_i_scaled(0.5, 100.0) == pytest.approx(0.039894, abs=1e-6)


class TestSeam:
    @pytest.mark.parametrize("order", [-0.45, -0.25, 0.0, 0.35, 0.5, 1.5, 2.0, 4.5])
    def test_branches_agree_at_crossover(self, order):
        for z in (SERIES_ASYM_SEAM, SERIES_ASYM_SEAM - 1e-9, SERIES_ASYM_SEAM + 1e-9):
            s = series_branch(order, z)
            a = asymptotic_branch(order, z)
            assert abs(s - a) / a < 1e-12

    @pytest.mark.parametrize("order", [-0.25, 0.5, 2.0])
    def test_no_jump_across_seam(self, order):
        below = bessel_i_scaled(order, np.nextafter(SERIES_ASYM_SEAM, 0.0))
        above = bessel_i_scaled(order, SERIES_ASYM_SEAM)
        assert abs(below - above) / above < 1e-12


class TestEdgeCases:
    def test_zero_argument_positive_order(self):
        assert bessel_i_scaled(0.75, 0.0) == 0.0

    def test_zero_argument_zero_order(self):
        assert bessel_i_scaled(0.0, 0.0) == 1.0

    def test_ratio_form_regular_at_zero(self):
        nu = -0.25
        want = 2.0**-nu / math.gamma(nu + 1.0)
        assert bessel_i_scaled_ratio(nu, 0.0) == pytest.approx(want, rel=1e-14)
        assert bessel_i_scaled_ratio(nu, 1e-12) == pytest.approx(want, rel=1e-10)

    def test_order_at_most_minus_one_rejected(self):
        with pytest.raises(ValueError):
            bessel_i_scaled(-1.0, 1.0)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            bessel_i_scaled(0.5, -1.0)

    @pytest.mark.parametrize("order", [-0.25, 0.0, 0.5])
    def test_subnormal_argument_gives_leading_term(self, order):
        zs = np.array([5e-324, 1e-310])
        # z/2 underflows at the smallest subnormal, so split off 2^-order
        want = zs**order * 2.0**-order / math.gamma(order + 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            array = bessel_i_scaled(order, zs)
            scalars = [bessel_i_scaled(order, float(z)) for z in zs]
        assert np.all(np.abs(array - want) <= 1e-12 * want)
        assert np.all(np.abs(np.array(scalars) - want) <= 1e-12 * want)

    def test_array_shape_preserved(self):
        z = np.linspace(0.1, 50.0, 12).reshape(3, 4)
        out = bessel_i_scaled(0.5, z)
        assert out.shape == (3, 4)


class TestAgainstScipy:
    @pytest.mark.parametrize("order", [-0.35, -0.25, 0.4, 0.75, 2.0, 4.5])
    def test_scaled_value(self, order):
        zs = np.geomspace(1e-5, 1e5, 300)
        got = bessel_i_scaled(order, zs)
        want = ive(order, zs)
        assert np.max(np.abs(got - want) / want) < 1e-11

    @pytest.mark.parametrize("order", [-0.35, 0.75, 4.5])
    def test_ratio_form(self, order):
        zs = np.geomspace(1e-5, 1e5, 200)
        got = bessel_i_scaled_ratio(order, zs)
        want = ive(order, zs) * zs ** (-order)
        assert np.max(np.abs(got - want) / want) < 1e-11

    def test_monotone_decay_of_order_zero(self):
        # e^{-z} I_0(z) decreases from 1; positive orders first rise from 0
        zs = np.linspace(0.0, 200.0, 4000)
        vals = bessel_i_scaled(0.0, zs)
        assert vals[0] == 1.0
        assert np.all(np.diff(vals) < 1e-15)


def global_break_series(order, z):
    """The array series loop that runs every element until the slowest converges."""
    q = 0.25 * z * z
    term = np.full(z.shape, 1.0 / math.gamma(order + 1.0))
    total = term.copy()
    for m in range(1, 260):
        term = term * (q / (m * (m + order)))
        total += term
        if np.all(term <= 1e-18 * total):
            break
    return total


def global_break_asym(order, z):
    """The array Hankel loop that runs every element until all are dead or converged."""
    mu4 = 4.0 * order * order
    term = np.ones_like(z)
    total = np.ones_like(z)
    prev = np.ones_like(z)
    alive = np.ones(z.shape, dtype=bool)
    for k in range(40):
        term = term * (-(mu4 - (2 * k + 1) ** 2) / (8.0 * (k + 1))) / z
        a = np.abs(term)
        alive &= a < prev
        if not alive.any():
            break
        total = np.where(alive, total + term, total)
        prev = np.where(alive, a, prev)
        if np.all(a[alive] <= 1e-18 * np.abs(total[alive])):
            break
    return total


def assert_matches_global_break(order, z):
    got = bessel_i_scaled_ratio(order, z), bessel_i_scaled(order, z)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bessel_module, "_series_sum_numpy", global_break_series)
        mp.setattr(bessel_module, "_asym_factor_numpy", global_break_asym)
        want = bessel_i_scaled_ratio(order, z), bessel_i_scaled(order, z)
    for g, w in zip(got, want):
        assert np.array_equal(g, w, equal_nan=True)


SPECIAL_Z = [0.0, 1e-300, float(np.nextafter(SERIES_ASYM_SEAM, 0.0)), SERIES_ASYM_SEAM,
             float(np.nextafter(SERIES_ASYM_SEAM, 60.0)), math.nan]


class TestPerElementTermination:
    """Stopping each element on its own moves no bit against the global break."""

    @given(
        order=st.floats(min_value=-1.0, max_value=3.0, exclude_min=True),
        z=st.lists(
            st.one_of(
                st.sampled_from(SPECIAL_Z),
                st.floats(min_value=0.0, max_value=60.0),
                st.floats(min_value=0.0, max_value=1e7),
            ),
            min_size=1,
            max_size=200,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_global_break(self, order, z):
        assert_matches_global_break(order, np.array(z))

    @pytest.mark.parametrize("order", [-0.45, -0.25, 0.5, 2.5, 20.0])
    def test_matches_global_break_on_a_shuffled_kernel_size_array(self, order):
        # kernel-build sizes, so the checks between terms and the compactions
        # see thousands of elements that finish in no particular order.  At
        # order 20 the Hankel terms first grow, which kills the element, and
        # later shrink again, which must not revive it
        rng = np.random.default_rng(2016)
        z = np.concatenate([10.0 ** rng.uniform(-12.0, 5.0, 4990), np.zeros(10)])
        assert_matches_global_break(order, rng.permutation(z))
