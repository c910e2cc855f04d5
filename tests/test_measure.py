import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besselhardy import (
    ConfigError,
    Grid,
    Interval,
    NonLocallyIntegrable,
    Potential,
    WeightedMeasure,
    ball,
    enlarge,
    parse_potential,
)

alphas = st.floats(min_value=0.05, max_value=0.95)
positives = st.floats(min_value=1e-3, max_value=1e3)


class TestMass:
    def test_closed_form_alpha_half(self):
        m = WeightedMeasure(0.5)
        assert m.mu_ab(0.0, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_closed_form_alpha_one(self):
        m = WeightedMeasure(1.0)
        assert m.mu_ab(1.0, 2.0) == pytest.approx(1.5, rel=1e-15)

    def test_degenerate_interval_is_zero(self):
        assert WeightedMeasure(0.5).mu_ab(1.0, 1.0) == 0.0

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            WeightedMeasure(0.0)

    @given(alphas, positives, st.floats(min_value=1e-3, max_value=10.0), st.floats(min_value=1e-3, max_value=10.0))
    @settings(max_examples=80, deadline=None)
    def test_additivity(self, alpha, a, d1, d2):
        m = WeightedMeasure(alpha)
        b, c = a + d1, a + d1 + d2
        whole = m.mu_ab(a, c)
        parts = m.mu_ab(a, b) + m.mu_ab(b, c)
        assert abs(whole - parts) <= 1e-12 * max(whole, 1.0)

    @given(alphas, st.floats(min_value=0.0, max_value=50.0), st.floats(min_value=1e-3, max_value=20.0))
    @settings(max_examples=80, deadline=None)
    def test_two_regime_comparability(self, alpha, a, width):
        m = WeightedMeasure(alpha)
        b = a + width
        mass = m.mu_ab(a, b)
        if 2 * a <= b:
            comp = b ** (alpha + 1.0)
        else:
            comp = (b - a) * a**alpha
        assert 0.2 <= mass / comp <= 2.01


class TestBallAndEnlarge:
    def test_interior_ball(self):
        b = ball(2.0, 1.0)
        assert (b.a, b.b) == (1.0, 3.0)

    def test_truncated_ball(self):
        b = ball(1.0, 2.0)
        assert (b.a, b.b) == (0.0, 3.0)

    def test_ball_mass_comparable_to_t_x_plus_t_alpha(self):
        rng = np.random.default_rng(3)
        worst = (math.inf, 0.0)
        for _ in range(500):
            alpha = rng.uniform(0.1, 2.0)
            m = WeightedMeasure(alpha)
            x = rng.uniform(0.0, 20.0)
            t = 10.0 ** rng.uniform(-3, 1)
            ratio = m.ball_mass(x, t) / (t * (x + t) ** alpha)
            worst = (min(worst[0], ratio), max(worst[1], ratio))
        assert worst[0] > 0.05 and worst[1] < 2.01

    def test_centered_dilation(self):
        out = enlarge(Interval(1.0, 2.0), 2.0)
        assert (out.a, out.b) == (0.5, 2.5)

    def test_left_touching_enlargement_keeps_nominal(self):
        # the nominal ball B(1/2, 1), truncated at 0
        out = enlarge(Interval(0.0, 1.0), 2.0)
        assert (out.a, out.b) == (0.0, 1.5)
        assert out == ball(0.5, 1.0)

    def test_identity_enlargement(self):
        iv = Interval(1.0, 2.0)
        assert enlarge(iv, 1.0) is iv

    def test_enlargement_composes_on_the_ball(self):
        # off 0 no truncation intervenes, so dilations about the midpoint compose
        iv = Interval(1.0, 2.0)
        once = enlarge(enlarge(iv, 1.2), 1.2)
        twice = enlarge(iv, 1.44)
        assert twice.a == pytest.approx(0.78, rel=1e-15) and twice.b == pytest.approx(2.22, rel=1e-15)
        assert once.a == pytest.approx(twice.a, rel=1e-12)
        assert once.b == pytest.approx(twice.b, rel=1e-12)


class TestRatioAndGamma:
    # |I|^2 / mu(I) is (1 + alpha) gamma_ratio(a, b)
    def test_ratio_at_origin_interval(self):
        m = WeightedMeasure(0.5)
        assert 1.5 * m.gamma_ratio(0.0, 1.0) == pytest.approx(1.5, rel=1e-15)
        assert 1.0 / m.mu(Interval(0.0, 1.0)) == pytest.approx(1.5, rel=1e-15)

    def test_ratio_interior_interval(self):
        m = WeightedMeasure(0.5)
        value = 1.5 * m.gamma_ratio(1.0, 2.0)
        assert value == pytest.approx(1.5 / (2.0**1.5 - 1.0), rel=1e-14)
        assert value == pytest.approx(0.8203, abs=1e-4)
        assert value == pytest.approx(1.0 / m.mu(Interval(1.0, 2.0)), rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_ratio_comparand_bounded_factor(self, alpha):
        # the factor is uniform over intervals at fixed alpha (it does grow
        # like 1/(1-alpha) as alpha -> 1)
        rng = np.random.default_rng(5)
        m = WeightedMeasure(alpha)
        ratios = []
        for _ in range(400):
            a = rng.uniform(0.0, 10.0)
            b = a + 10.0 ** rng.uniform(-3, 1)
            comparand = b ** (1.0 - alpha) - a ** (1.0 - alpha)
            ratios.append((1.0 + alpha) * m.gamma_ratio(a, b) / comparand)
        assert min(ratios) > 0.5
        assert max(ratios) < 2.2 / (1.0 - alpha)

    def test_gamma_at_origin_unit(self):
        for alpha in (0.1, 0.5, 0.9, 2.0):
            assert WeightedMeasure(alpha).gamma_ratio(0.0, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_gamma_example(self):
        m = WeightedMeasure(0.5)
        assert m.gamma_ratio(1.0, 2.0) == pytest.approx(1.0 / (2.0**1.5 - 1.0), rel=1e-14)
        assert m.gamma_ratio(1.0, 2.0) == pytest.approx(0.5469, abs=5e-5)

    @given(
        alphas,
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=1e-3, max_value=5.0),
        st.floats(min_value=0.0, max_value=5.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_gamma_monotone_under_nesting(self, alpha, a, g1, width, g2):
        # a <= b < c <= d; the inner ratio never exceeds the outer one
        m = WeightedMeasure(alpha)
        b = a + g1
        c = b + width
        d = c + g2
        assert m.gamma_ratio(b, c) <= m.gamma_ratio(a, d) * (1.0 + 1e-12)


def doubling(m: WeightedMeasure, x: float, r: float) -> float:
    return m.ball_mass(x, 2.0 * r) / m.ball_mass(x, r)


class TestDoubling:
    def test_origin_is_pure_scaling(self):
        for alpha in (0.3, 0.5, 1.0, 2.0):
            m = WeightedMeasure(alpha)
            assert doubling(m, 0.0, 1.7) == pytest.approx(2.0 ** (1 + alpha), rel=1e-13)

    def test_density_limit(self):
        m = WeightedMeasure(0.5)
        assert doubling(m, 1.0, 1e-9) == pytest.approx(2.0, rel=1e-6)

    def test_point_example(self):
        m = WeightedMeasure(0.5)
        expected = (21.0 / 11.0) ** 1.5
        assert doubling(m, 1.0, 10.0) == pytest.approx(expected, rel=1e-14)
        assert doubling(m, 1.0, 10.0) == pytest.approx(2.639, abs=2e-3)

    @given(alphas, st.floats(min_value=0.0, max_value=20.0), st.floats(min_value=1e-3, max_value=10.0))
    @settings(max_examples=100, deadline=None)
    def test_bounded_by_origin_value(self, alpha, x, r):
        m = WeightedMeasure(alpha)
        assert doubling(m, x, r) <= 2.0 ** (1 + alpha) * (1 + 1e-12)


class TestPotential:
    def test_constant_integral_is_mass(self):
        m = WeightedMeasure(0.7)
        v = Potential.constant(1.0, (0.0, 100.0))
        iv = Interval(0.3, 7.0)
        assert m.potential_integral(v, iv) == pytest.approx(m.mu(iv), rel=1e-15)

    def test_zero_potential(self):
        m = WeightedMeasure(0.7)
        assert m.potential_integral(Potential.zero(), Interval(0.0, 5.0)) == 0.0

    def test_power_closed_form(self):
        # V = x^{-1}, alpha = 1/2: integrand x^{-1/2}, antiderivative 2 sqrt(x)
        m = WeightedMeasure(0.5)
        v = Potential.power(1.0, 1.0)
        assert m.potential_integral(v, Interval(1.0, 4.0)) == pytest.approx(2.0, rel=1e-14)

    def test_power_integrability_guard(self):
        m = WeightedMeasure(0.5)
        v = Potential.power(1.0, 2.0)
        with pytest.raises(NonLocallyIntegrable):
            m.potential_integral(v, Interval(0.0, 1.0))

    def test_negative_piece_rejected(self):
        with pytest.raises(ValueError):
            Potential(pieces=((0.0, 1.0, -1.0),))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_nonfinite_piece_and_coefficient_rejected(self, value):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            Potential(pieces=((0.0, 1.0, value),))
        with pytest.raises(ValueError, match="nonnegative and finite"):
            Potential.power(value, 0.5)
        with pytest.raises(ConfigError, match="nonnegative and finite"):
            parse_potential(f"piece 0 1 {value}")

    def test_evaluation_sums_pieces_and_tail(self):
        v = Potential(pieces=((0.0, 1.0, 2.0), (0.5, 2.0, 3.0)), power_coeff=1.0, power_exponent=0.5)
        assert v(0.75) == pytest.approx(5.0 + 0.75**-0.5)
        arr = v(np.array([0.25, 1.5]))
        assert arr[0] == pytest.approx(2.0 + 0.25**-0.5)
        assert arr[1] == pytest.approx(3.0 + 1.5**-0.5)


class TestPotentialFormat:
    def test_parse_directives(self):
        text = "# heading\npiece 0 8 1\n\npower 1 0.5  # tail\n"
        v = parse_potential(text)
        assert v.pieces == ((0.0, 8.0, 1.0),)
        assert (v.power_coeff, v.power_exponent) == (1.0, 0.5)

    def test_inline_semicolons(self):
        v = parse_potential("piece 0 2 1; piece 2 4 3")
        assert len(v.pieces) == 2

    def test_error_carries_line_number(self):
        with pytest.raises(ConfigError, match=":2:"):
            parse_potential("piece 0 1 1\nbogus 1 2\n")

    def test_bad_arity_rejected(self):
        with pytest.raises(ConfigError):
            parse_potential("piece 0 1\n")


class TestGridBuild:
    def test_ratio_within_rounding_of_one_is_uniform(self):
        # the geometric edges for this ratio do not increase strictly
        m = WeightedMeasure(1.0)
        near = Grid.build(m, 8, 2.0, 1.0 + 2.0**-52)
        assert np.array_equal(near.edges, Grid.build(m, 8, 2.0, 1.0).edges)
