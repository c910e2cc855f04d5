import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besselhardy import (
    DegeneratePotential,
    DyadicInterval,
    Interval,
    Potential,
    ProperSection,
    WeightedMeasure,
    brute_force_section,
    build_section,
    s_functional,
    validate_section,
)

M = WeightedMeasure(0.5)
V1 = Potential.constant(1.0)


def random_piecewise(rng, hi=8.0, n_pieces=3) -> Potential:
    cuts = np.sort(rng.uniform(0.0, hi, n_pieces - 1))
    edges = [0.0, *cuts.tolist(), hi]
    pieces = tuple(
        (edges[i], edges[i + 1], float(rng.uniform(0.05, 20.0))) for i in range(len(edges) - 1)
    )
    return Potential(pieces=pieces)


class TestDyadic:
    def test_endpoints_exact(self):
        d = DyadicInterval(-1, 3)  # [3/2, 2]
        assert (d.a, d.b) == (1.5, 2.0)
        left = DyadicInterval(2, 0)
        assert (left.a, left.b) == (0.0, 4.0)

    def test_parent_of_k1_merges_left(self):
        assert DyadicInterval(-1, 1).parent() == DyadicInterval(0, 0)  # [1/2,1] -> (0,1]

    def test_parent_of_unit_interval(self):
        assert DyadicInterval(0, 1).parent() == DyadicInterval(1, 0)  # [1,2] -> (0,2]

    def test_parent_of_left_chain(self):
        assert DyadicInterval(0, 0).parent() == DyadicInterval(1, 0)

    def test_parent_contains_and_is_one_scale_up(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(-6, 7))
            k = int(rng.integers(0, 40))
            d = DyadicInterval(n, k)
            p = d.parent()
            assert p.n == d.n + 1
            assert p.a <= d.a and d.b <= p.b
            assert d in p.children()

    def test_doubles_nest_in_parent_doubles(self):
        from besselhardy.measure import enlarge

        rng = np.random.default_rng(1)
        for _ in range(200):
            d = DyadicInterval(int(rng.integers(-5, 6)), int(rng.integers(0, 30)))
            two_i = enlarge(d.to_interval(), 2.0)
            two_p = enlarge(d.parent().to_interval(), 2.0)
            assert two_p.a <= two_i.a and two_i.b <= two_p.b


class TestStoppingFunctional:
    def test_constant_potential_cancels_measure(self):
        # F(I) = |2I|^2 exactly when V = 1
        assert s_functional(M, V1, DyadicInterval(0, 1)) == 4.0
        assert s_functional(M, V1, DyadicInterval(-1, 3)) == 1.0

    def test_zero_potential(self):
        assert s_functional(M, Potential.zero(), DyadicInterval(0, 1)) == 0.0

    def test_monotone_under_parent(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            m = WeightedMeasure(rng.uniform(0.1, 0.9))
            v = random_piecewise(rng)
            d = DyadicInterval(int(rng.integers(-4, 4)), int(rng.integers(0, 16)))
            assert s_functional(m, v, d) <= s_functional(m, v, d.parent()) * (1.0 + 1e-12)


class TestBuildSection:
    EXPECTED = [DyadicInterval(-1, 0)] + [DyadicInterval(-1, k) for k in range(1, 8)]

    def test_unit_potential_window_four(self):
        sec = build_section(M, V1, Interval(0.0, 4.0))
        assert list(sec.intervals) == self.EXPECTED

    def test_matches_brute_force(self):
        got = build_section(M, V1, Interval(0.0, 4.0))
        want = brute_force_section(M, V1, Interval(0.0, 4.0), -6, 4)
        assert list(got.intervals) == want

    @given(
        alpha=st.floats(min_value=0.05, max_value=0.95),
        cuts=st.lists(st.floats(min_value=0.1, max_value=11.9), max_size=2, unique=True),
        values=st.lists(st.floats(min_value=0.05, max_value=20.0), min_size=3, max_size=3),
        power=st.none() | st.tuples(st.floats(min_value=0.05, max_value=4.0), st.floats(min_value=-1.0, max_value=1.0)),
        lo=st.floats(min_value=0.0, max_value=6.0),
        width=st.floats(min_value=0.25, max_value=6.0),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_brute_force_on_random_potentials(self, alpha, cuts, values, power, lo, width):
        # 1-3 pieces on [0, 12] and an optional power term; the oracle
        # searches two scales beyond the built section's on each side
        m = WeightedMeasure(alpha)
        edges = [0.0, *sorted(cuts), 12.0]
        pieces = tuple((edges[i], edges[i + 1], values[i]) for i in range(len(edges) - 1))
        coeff, expo = power or (0.0, 0.0)
        v = Potential(pieces=pieces, power_coeff=coeff, power_exponent=expo)
        window = Interval(lo, lo + width)
        got = build_section(m, v, window)
        scales = [d.n for d in got]
        want = brute_force_section(m, v, window, min(scales) - 2, max(scales) + 2)
        assert list(got.intervals) == want

    def test_zero_potential_degenerate(self):
        with pytest.raises(DegeneratePotential):
            build_section(M, Potential.zero(), Interval(0.0, 4.0))

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            build_section(WeightedMeasure(1.5), V1, Interval(0.0, 4.0))

    def test_power_potential_lengths_grow(self):
        v = Potential.power(1.0, 1.0)
        sec = build_section(M, v, Interval(0.0, 8.0))
        want = brute_force_section(M, v, Interval(0.0, 8.0), -8, 5)
        assert list(sec.intervals) == want
        lengths = [d.length for d in sec]
        assert lengths == sorted(lengths)
        assert lengths[0] < lengths[-1]

    def test_stopping_rule_recheck_random(self):
        rng = np.random.default_rng(21)
        for _ in range(12):
            m = WeightedMeasure(rng.uniform(0.15, 0.85))
            v = random_piecewise(rng)
            sec = build_section(m, v, Interval(0.0, 8.0))
            rep = validate_section(sec, m, v)
            assert rep.stopping_ok, rep.stopping_witness
            assert rep.disjoint_ok and rep.coverage_ok

    def test_section_covers_window_tightly(self):
        sec = build_section(M, V1, Interval(0.0, 4.0))
        assert sec.intervals[0].a == 0.0
        assert sec.intervals[-1].b >= 4.0


class TestValidation:
    def test_constant_potential_c0_is_one(self):
        sec = build_section(M, V1, Interval(0.0, 4.0))
        rep = validate_section(sec, M, V1)
        assert rep.ok
        assert rep.c0_observed == 1.0

    def test_overlapping_family_fails_axiom_a(self):
        fam = ProperSection(
            (Interval(0.5, 1.5), Interval(1.0, 2.0)), 1.05, 1.0, Interval(0.5, 2.0)
        )
        rep = validate_section(fam, M)
        assert not rep.disjoint_ok
        assert rep.overlap_witness is not None
        assert not rep.ok

    def test_gap_fails_coverage(self):
        fam = ProperSection((Interval(0.0, 1.0), Interval(2.0, 3.0)), 1.05, 1.0, Interval(0.0, 3.0))
        rep = validate_section(fam, M)
        assert not rep.coverage_ok
        assert rep.coverage_gaps == [(1.0, 2.0)]

    def test_gaps_at_the_window_edges_fail_coverage(self):
        fam = ProperSection((Interval(1.0, 2.0),), 1.05, 1.0, Interval(0.0, 3.0))
        rep = validate_section(fam, M)
        assert not rep.coverage_ok and not rep.ok
        assert rep.coverage_gaps == [(0.0, 1.0), (2.0, 3.0)]

    def test_other_potential_fails_the_stopping_rule_with_a_witness(self):
        sec = build_section(M, V1, Interval(0.0, 4.0))
        rep = validate_section(sec, M, Potential.constant(16.0))
        assert rep.stopping_ok is False and not rep.ok
        assert rep.disjoint_ok and rep.coverage_ok
        first = min(sec.intervals, key=lambda d: d.a)
        assert rep.stopping_witness.startswith(f"{first}: F=")

    def test_power_potential_reports_finite_c0(self):
        v = Potential.power(1.0, 1.0)
        sec = build_section(M, v, Interval(0.0, 8.0))
        rep = validate_section(sec, M, v)
        assert rep.ok
        assert 1.0 <= rep.c0_observed <= 4.0

    def test_inadmissible_beta_flagged(self):
        sec = build_section(M, V1, Interval(0.0, 4.0), beta=1.3)
        rep = validate_section(sec, M, V1)
        assert not rep.beta_admissible


class TestSerialization:
    def test_round_trip(self):
        sec = build_section(M, V1, Interval(0.0, 4.0))
        text = sec.to_text()
        assert "left -1" in text and "std 7 -1" in text
        assert [ln for ln in text.splitlines() if not ln.startswith("#")] == [str(d) for d in sec.intervals]
