"""Covariance-function evaluators and their structural checks."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupledsk.mixture import (
    ConvexityWarning,
    DomainError,
    MixtureSpec,
    NonConvexMixtureError,
    check_convexity,
    check_positivity,
    mixture_functions,
)

from conftest import random_even_spec


class TestEvalXi:
    def test_pure_quadratic(self):
        spec = MixtureSpec(a1=(0.0, 1.0), a2=(0.0, 1.0))
        assert mixture_functions(spec).xi(1, 1, 0.5) == pytest.approx(0.25, abs=1e-15)

    def test_zero_argument_has_no_constant_term(self):
        spec = MixtureSpec(a1=(0.3, 0.4, 0.1), a2=(0.2, 0.5))
        for pair in ((1, 1), (1, 2), (2, 2)):
            assert mixture_functions(spec).xi(*pair, 0.0) == 0.0

    def test_coefficient_products_at_one(self):
        spec = MixtureSpec(a1=(0.0, 1.0, 0.5), a2=(0.0, 1.0, 0.0))
        assert mixture_functions(spec).xi(1, 1, 1.0) == pytest.approx(1.25, abs=1e-15)
        assert mixture_functions(spec).xi(1, 2, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_cross_symmetry(self):
        spec = MixtureSpec(a1=(0.0, 0.7, 0.0, 0.2), a2=(0.0, 0.3, 0.0, 0.6))
        x = np.linspace(-1, 1, 11)
        f = mixture_functions(spec)
        np.testing.assert_array_equal(f.xi(1, 2, x), f.xi(2, 1, x))

    def test_domain_error(self):
        spec = MixtureSpec(a1=(0.0, 1.0), a2=(0.0, 1.0))
        with pytest.raises(DomainError):
            mixture_functions(spec).xi(1, 1, 1.5)


class TestEvalTheta:
    def test_pure_quadratic(self):
        spec = MixtureSpec(a1=(0.0, 1.0), a2=(0.0, 1.0))
        # theta(x) = x * 2x - x^2 = x^2
        assert mixture_functions(spec).theta(1, 1, 0.5) == pytest.approx(0.25, abs=1e-15)

    def test_zero(self):
        spec = MixtureSpec(a1=(0.2, 0.4, 0.0, 0.1), a2=(0.1, 0.3))
        assert mixture_functions(spec).theta(1, 2, 0.0) == 0.0

    def test_pure_quartic_at_one(self):
        spec = MixtureSpec(a1=(0.0, 0.0, 0.0, 1.0), a2=(0.0, 0.0, 0.0, 1.0))
        assert mixture_functions(spec).theta(1, 1, 1.0) == pytest.approx(3.0, abs=1e-14)

    def test_identity_against_independent_evaluations(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            spec = random_even_spec(rng)
            x = rng.uniform(-1, 1)
            f = mixture_functions(spec)
            for pair in ((1, 1), (1, 2), (2, 2)):
                lhs = f.theta(*pair, x)
                rhs = x * f.xi_prime(*pair, x) - f.xi(*pair, x)
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


class TestConvexity:
    def test_pure_quadratic_structural(self):
        rep = check_convexity(MixtureSpec(a1=(0.0, 1.0), a2=(0.0, 1.0)))
        assert rep.convex and rep.structural

    def test_linear_is_convex_but_not_structural(self):
        rep = check_convexity(MixtureSpec(a1=(1.0,), a2=(1.0,)))
        assert rep.convex
        assert not rep.structural

    def test_cubic_defect_detected(self):
        # xi = x - x^3 has second derivative -6x, which changes sign
        with pytest.warns(ConvexityWarning):
            spec = MixtureSpec(a1=(1.0, 0.0, -1.0), a2=(1.0, 0.0, -1.0))
        rep = check_convexity(spec)
        assert not rep.convex
        assert rep.worst_second_difference < -1e-10

    def test_opposite_sign_even_coefficients_not_structural(self):
        with pytest.warns(ConvexityWarning):
            spec = MixtureSpec(a1=(0.0, 1.0), a2=(0.0, -1.0))
        assert not check_convexity(spec).structural


class TestPositivity:
    def test_diagonal_is_zero(self):
        spec = MixtureSpec(a1=(0.0, 1.0), a2=(0.0, 1.0))
        f = mixture_functions(spec)
        x = np.linspace(-1, 1, 41)
        vals = f.xi(1, 1, x) - x * f.xi_prime(1, 1, x) + f.theta(1, 1, x)
        np.testing.assert_allclose(vals, 0.0, atol=1e-14)

    def test_off_diagonal_point(self):
        spec = MixtureSpec(a1=(0.0, 1.0), a2=(0.0, 1.0))
        f = mixture_functions(spec)
        # x = 0, y = 1: 0 - 0 + theta(1) = 1
        val = f.xi(1, 1, 0.0) - 0.0 * f.xi_prime(1, 1, 1.0) + f.theta(1, 1, 1.0)
        assert val == pytest.approx(1.0, abs=1e-14)

    def test_mixed_even_grid(self):
        spec = MixtureSpec(a1=(0.0, 1.0, 0.0, 0.3), a2=(0.0, 1.0, 0.0, 0.3))
        rep = check_positivity(spec)
        assert min(rep.minima.values()) >= -1e-12
        assert rep.passed

    def test_refuses_nonconvex(self):
        with pytest.warns(ConvexityWarning):
            spec = MixtureSpec(a1=(1.0, 0.0, -1.0), a2=(1.0, 0.0, -1.0))
        with pytest.raises(NonConvexMixtureError, match=r"pair \(1"):
            check_positivity(spec)

    def test_holds_whenever_convex(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            spec = random_even_spec(rng)
            if check_convexity(spec).convex:
                assert check_positivity(spec).passed


class TestCauchySchwarz:
    def test_cross_bounded_by_diagonals(self):
        rng = np.random.default_rng(3)
        x = np.linspace(0.0, 1.0, 51)
        for trial in range(10):
            spec = random_even_spec(rng)
            f = mixture_functions(spec)
            lhs = np.asarray(f.xi(1, 2, x)) ** 2
            rhs = np.asarray(f.xi(1, 1, x)) * np.asarray(f.xi(2, 2, x))
            assert np.all(lhs <= rhs + 1e-12)


class TestSpecValidation:
    def test_padding_and_p_max(self):
        spec = MixtureSpec(a1=(0.0, 0.1), a2=(0.0, 0.2, 0.0, 0.4))
        assert spec.p_max == 4
        assert spec.a1 == (0.0, 0.1, 0.0, 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            MixtureSpec(a1=(float("nan"),), a2=(0.0,))

    @pytest.mark.parametrize("a, where", [
        (1e200, "products"),  # a_2^1 a_2^1 = 1e400
        (1e154, "second difference"),  # xi_11 = 1e308 x^2, its second differences overflow
        (-1e200, "products"),
    ])
    def test_rejects_coefficients_beyond_a_double(self, a, where):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before numpy warns
            with pytest.raises(ValueError, match=where):
                MixtureSpec(a1=(0.0, a), a2=(0.0, 0.5))

    def test_json_round_trip(self):
        spec = MixtureSpec(a1=(0.0, 0.5), a2=(0.0, 0.25), h1=0.3, h2=-0.2)
        assert MixtureSpec.from_json(spec.to_json()) == spec


@settings(max_examples=40, deadline=None)
@given(
    coeffs=st.lists(st.floats(-0.8, 0.8), min_size=1, max_size=4),
    x=st.floats(-1.0, 1.0),
)
def test_theta_identity_property(coeffs, x):
    """theta equals x*xi' - xi for arbitrary (possibly non-convex) mixtures."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvexityWarning)
        spec = MixtureSpec(a1=tuple(coeffs), a2=tuple(reversed(coeffs)))
    f = mixture_functions(spec)
    lhs = f.theta(1, 2, x)
    rhs = x * f.xi_prime(1, 2, x) - f.xi(1, 2, x)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)
