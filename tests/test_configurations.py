"""Overlap constraints, admissible targets and derived overlap sequences."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupledsk.configurations import (
    OverlapConstraint,
    SearchExhaustedError,
    admissible_sequence,
    construct_u_prime,
    nearest_admissible,
)


class TestOverlapConstraint:
    def test_parity_enforced(self):
        with pytest.raises(ValueError, match="parity"):
            OverlapConstraint(4, 1)
        with pytest.raises(ValueError, match="parity"):
            OverlapConstraint(3, 0)

    def test_fields(self):
        c = OverlapConstraint(6, 2)
        assert c.d == 2
        assert c.u == pytest.approx(1 / 3)

    def test_window_range(self):
        c = OverlapConstraint(6, 0, eps=1 / 3)
        assert c.window_disagreement_range() == (2, 4)
        full = OverlapConstraint(6, 0, eps=2.0)
        assert full.window_disagreement_range() == (0, 6)


class TestNearestAdmissible:
    def test_even_exact(self):
        assert nearest_admissible(4, 0.0).k == 0

    def test_odd_tie_positive(self):
        c = nearest_admissible(3, 0.0)
        assert c.k == 1
        assert abs(c.u - 0.0) <= 1 / 3

    def test_scan_oracle(self):
        # frozen from scanning all admissible k at n = 6
        assert nearest_admissible(6, 0.3).k == 2
        best = min(range(-6, 7, 2), key=lambda k: (abs(k / 6 - 0.3), abs(k)))
        assert best == 2

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 16), u=st.floats(-1.0, 1.0))
    def test_guarantee(self, n, u):
        c = nearest_admissible(n, u)
        assert (c.k - n) % 2 == 0
        assert abs(c.u - u) <= 1.0 / n + 1e-12


class TestConstructUPrime:
    def test_alternating_sequence(self):
        def seq(m: int) -> Fraction:
            return Fraction(0) if m % 2 == 0 else Fraction(1, m)

        res = construct_u_prime(2, seq, m_max=20, u=0.0)
        assert res.value == 0
        assert set(range(2, 21, 2)) <= set(res.recurrence)

    def test_constant_sequence(self):
        res = construct_u_prime(3, lambda m: Fraction(1), m_max=10, u=1.0)
        assert res.value == 1
        assert res.constraint.k == 3

    def test_tie_goes_to_the_first_occurrence(self):
        # M = 1..4 derive 2, 0, 0, 2: two hits each, and 2 occurs first
        ks = {1: -1, 2: -1, 3: 1, 4: -1, 5: 1, 6: 1}
        res = construct_u_prime(2, lambda m: Fraction(ks[m], m), m_max=4, u=0.0)
        assert res.constraint.k == 2
        assert res.recurrence == (1, 4)

    def test_parity_forced(self):
        res = construct_u_prime(5, admissible_sequence(0.2), m_max=40, u=0.2)
        assert (res.constraint.k - 5) % 2 == 0
        assert abs(float(res.value) - 0.2) <= 2 / 5 + 1e-12

    def test_search_exhausted(self):
        vals = {1: Fraction(1), 2: Fraction(0), 3: Fraction(-1, 3), 4: Fraction(0)}

        def seq(m: int) -> Fraction:
            return vals[m]

        with pytest.raises(SearchExhaustedError):
            construct_u_prime(2, seq, m_max=2, u=0.0)

    def test_precondition_checked(self):
        with pytest.raises(ValueError, match="1/M"):
            construct_u_prime(2, lambda m: Fraction(1), m_max=6, u=0.0)
