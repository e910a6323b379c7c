"""Disorder samplers: covariance identities, determinism, field laws."""

import numpy as np
import pytest

from coupledsk.bits import spin_matrix
from coupledsk.disorder import (
    CovarianceProbe,
    DirichletWeights,
    ExplicitSystemSampler,
    FixedWeights,
    ResourceError,
    RostFieldSampler,
    RostInvalidError,
    RostSpec,
    TensorSampler,
    empirical_covariance,
    finite_y_covariance,
    finite_z_covariance,
    random_gram_rost,
    sample_process,
    sample_rost_fields,
    sample_tensor,
)
from coupledsk.mixture import MixtureSpec, mixture_functions


class TestTensorSampler:
    def test_zero_mixture_gives_zero_tables(self, zero_mixture):
        t = sample_tensor(zero_mixture, 4, 0)
        assert np.all(t.values == 0.0)

    def test_shared_tensors_make_proportional_copies(self):
        spec = MixtureSpec(a1=(1.0,), a2=(2.0,))
        t = sample_tensor(spec, 5, 3)
        np.testing.assert_allclose(t.values[1], 2.0 * t.values[0], rtol=1e-15)

    def test_proportional_for_general_scaling(self):
        spec = MixtureSpec(a1=(0.0, 0.4, 0.2), a2=(0.0, 0.6, 0.3))
        t = sample_tensor(spec, 4, 9)
        np.testing.assert_allclose(t.values[1], 1.5 * t.values[0], rtol=1e-12)

    def test_deterministic(self, pure_p2):
        a = sample_tensor(pure_p2, 6, 1234)
        b = sample_tensor(pure_p2, 6, 1234)
        assert np.array_equal(a.values, b.values)

    def test_variance_matches_covariance_function(self, pure_p2):
        n, reps = 6, 6000
        funcs = mixture_functions(pure_p2)
        sampler = TensorSampler(pure_p2, n)
        vals = np.empty(reps)
        for rep in range(reps):
            table = sampler.sample(np.random.SeedSequence(5, spawn_key=(rep,)))
            vals[rep] = table.values[0, 17]
        second = vals**2
        target = n * float(funcs.xi(1, 1, 1.0))
        se = second.std(ddof=1) / np.sqrt(reps)
        assert abs(second.mean() - target) <= 3 * se

    def test_budget_error_advises_process_route(self, pure_p2):
        with pytest.raises(ResourceError, match="process"):
            TensorSampler(pure_p2, 8, budget_bytes=64)


class TestProcessSampler:
    def test_zero_mixture(self, zero_mixture):
        t = sample_process(zero_mixture, 3, 0)
        assert np.all(t.values == 0.0)

    def test_rank_one_antisymmetry(self):
        spec = MixtureSpec(a1=(1.0,), a2=(1.0,))
        for seed in range(5):
            t = sample_process(spec, 1, seed)
            assert t.values[0, 0] == pytest.approx(-t.values[0, 1], abs=1e-12)

    def test_deterministic(self, pure_p2):
        a = sample_process(pure_p2, 5, 42)
        b = sample_process(pure_p2, 5, 42)
        assert np.array_equal(a.values, b.values)

    def test_covariance_probe(self, mixed_even):
        rep = empirical_covariance(
            mixed_even, 5, 4000,
            [CovarianceProbe(0, 0, 1, 1), CovarianceProbe(0, 31, 1, 2),
             CovarianceProbe(3, 12, 2, 2)],
            seed=8, sampler="process",
        )
        assert rep.max_sigmas <= 4.0


class TestEmpiricalCovariance:
    def test_targets(self, pure_p2):
        funcs = mixture_functions(pure_p2)
        rep = empirical_covariance(
            pure_p2, 4, 100,
            [CovarianceProbe(0, 0, 1, 1), CovarianceProbe(0, 15, 1, 1)],
            seed=3,
        )
        assert rep.targets[0] == pytest.approx(float(funcs.xi(1, 1, 1.0)))
        assert rep.targets[1] == pytest.approx(float(funcs.xi(1, 1, -1.0)))

    def test_zero_mixture_reports_exact(self, zero_mixture):
        rep = empirical_covariance(
            zero_mixture, 3, 50, [CovarianceProbe(0, 0, 1, 1)], seed=0
        )
        assert rep.max_sigmas == 0.0


class TestRostSpec:
    def test_bad_diagonal_rejected(self):
        q = np.eye(2)
        with pytest.raises(RostInvalidError, match="unit diagonal"):
            RostSpec(q11=0.5 * q, q12=np.zeros((2, 2)), q22=q,
                     weights=DirichletWeights(), delta=0.1, u=0.0)

    def test_delta_violation_rejected(self):
        q = np.eye(2)
        with pytest.raises(RostInvalidError, match="delta"):
            RostSpec(q11=q, q12=0.5 * q, q22=q,
                     weights=DirichletWeights(), delta=0.1, u=0.0)

    def test_entry_bound(self):
        q = np.eye(2)
        bad = np.array([[1.0, 1.5], [1.5, 1.0]])
        with pytest.raises(RostInvalidError, match="outside"):
            RostSpec(q11=bad, q12=np.zeros((2, 2)), q22=q,
                     weights=DirichletWeights(), delta=0.1, u=0.0)

    def test_round_trip(self):
        rost = random_gram_rost(3, 0.2, 0.05, np.random.default_rng(0))
        back = RostSpec.from_dict(rost.to_dict())
        np.testing.assert_allclose(back.q12, rost.q12)
        assert back.delta == rost.delta

    def test_indefinite_structure_rejected(self, pure_p2):
        # q requires copy-1 vectors anti-aligned yet both aligned to the same
        # copy-2 vector: no Gaussian field family exists
        q_anti = np.array([[1.0, -1.0], [-1.0, 1.0]])
        ones = np.ones((2, 2))
        rost = RostSpec(q11=q_anti, q12=ones, q22=q_anti,
                        weights=DirichletWeights(), delta=0.0, u=1.0)
        with pytest.raises(RostInvalidError, match="no Gaussian fields"):
            RostFieldSampler(rost, mixture_functions(pure_p2))


class TestRostFields:
    def test_single_element_moments(self, pure_p2):
        u = 0.4
        rost = RostSpec(
            q11=np.ones((1, 1)), q12=np.full((1, 1), u), q22=np.ones((1, 1)),
            weights=FixedWeights((1.0,)), delta=0.0, u=u,
        )
        funcs = mixture_functions(pure_p2)
        sampler = RostFieldSampler(rost, funcs)
        reps = 8000
        vals = np.empty((reps, 2))
        for rep in range(reps):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(4, spawn_key=(rep,))))
            f = sampler.sample(rng, 2)
            vals[rep, 0] = f.z[0, 0, 0] * f.z[0, 0, 0]
            vals[rep, 1] = f.z[0, 0, 0] * f.z[0, 1, 0]
        for j, target in enumerate(
            [float(funcs.xi_prime(1, 1, 1.0)), float(funcs.xi_prime(1, 2, u))]
        ):
            se = vals[:, j].std(ddof=1) / np.sqrt(reps)
            assert abs(vals[:, j].mean() - target) <= 3 * se

    def test_linear_mixture_has_zero_compensator(self):
        spec = MixtureSpec(a1=(0.8,), a2=(0.5,))
        rost = random_gram_rost(3, 0.1, 0.05, np.random.default_rng(1))
        f = sample_rost_fields(rost, mixture_functions(spec), 2, 9)
        assert np.all(f.y == 0.0)

    def test_field_cross_covariance(self, pure_p2):
        rost = random_gram_rost(3, 0.0, 0.05, np.random.default_rng(2))
        funcs = mixture_functions(pure_p2)
        sampler = RostFieldSampler(rost, funcs)
        reps = 8000
        prods = np.empty(reps)
        for rep in range(reps):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(6, spawn_key=(rep,))))
            f = sampler.sample(rng, 1)
            prods[rep] = f.y[0, 1] * f.y[1, 2]
        target = float(funcs.theta(1, 2, rost.q12[1, 2]))
        se = prods.std(ddof=1) / np.sqrt(reps)
        assert abs(prods.mean() - target) <= 3 * se

    def test_fields_independent_of_weight_law(self, pure_p2):
        base = random_gram_rost(3, 0.0, 0.05, np.random.default_rng(3))
        other = RostSpec(q11=base.q11, q12=base.q12, q22=base.q22,
                         weights=FixedWeights((0.2, 0.3, 0.5)),
                         delta=base.delta, u=base.u)
        funcs = mixture_functions(pure_p2)
        rng1 = np.random.Generator(np.random.PCG64(123))
        rng2 = np.random.Generator(np.random.PCG64(123))
        f1 = RostFieldSampler(base, funcs).sample(rng1, 3)
        f2 = RostFieldSampler(other, funcs).sample(rng2, 3)
        assert np.array_equal(f1.z, f2.z)
        assert np.array_equal(f1.y, f2.y)


class TestExplicitCavity:
    def test_zero_mixture_all_zero(self, zero_mixture):
        draw = ExplicitSystemSampler(zero_mixture, 3, 2).sample(0)
        for arr in (draw.trunc, draw.z, draw.z_finite, draw.y, draw.y_finite, draw.full):
            assert np.all(arr == 0.0)

    def test_linear_decomposition_is_exact(self):
        spec = MixtureSpec(a1=(0.7,), a2=(1.1,))
        m, n = 3, 2
        draw = ExplicitSystemSampler(spec, m, n).sample(42)
        tau_spins = spin_matrix(n)
        for sigma in range(1 << (m + n)):
            rho, tau = sigma & ((1 << m) - 1), sigma >> m
            for ell in range(2):
                recon = draw.trunc[ell, rho] + tau_spins[tau] @ draw.z_finite[:, ell, rho]
                assert draw.full[ell, sigma] == pytest.approx(recon, abs=1e-12)

    def test_quadratic_remainder_ignores_base_coordinates(self, pure_p2):
        m, n = 4, 2
        draw = ExplicitSystemSampler(pure_p2, m, n).sample(43)
        tau_spins = spin_matrix(n)
        for ell in range(2):
            res = np.empty((1 << m, 1 << n))
            for sigma in range(1 << (m + n)):
                rho, tau = sigma & ((1 << m) - 1), sigma >> m
                recon = draw.trunc[ell, rho] + tau_spins[tau] @ draw.z_finite[:, ell, rho]
                res[rho, tau] = draw.full[ell, sigma] - recon
            np.testing.assert_allclose(res - res[0:1, :], 0.0, atol=1e-12)

    def test_limit_field_covariance(self, pure_p2):
        m, n, reps = 5, 2, 6000
        sampler = ExplicitSystemSampler(pure_p2, m, n)
        rho_a, rho_b = 0b00000, 0b00011  # base overlap 0.2
        funcs = mixture_functions(pure_p2)
        prods = np.empty(reps)
        for rep in range(reps):
            d = sampler.sample(np.random.SeedSequence(9, spawn_key=(rep,)))
            prods[rep] = d.z[0, 0, rho_a] * d.z[0, 0, rho_b]
        target = float(funcs.xi_prime(1, 1, 0.2))
        se = prods.std(ddof=1) / np.sqrt(reps)
        assert abs(prods.mean() - target) <= 3 * se

    def test_finite_field_covariance_formula(self, pure_p2):
        m, n, reps = 5, 3, 6000
        sampler = ExplicitSystemSampler(pure_p2, m, n)
        prods = np.empty(reps)
        for rep in range(reps):
            d = sampler.sample(np.random.SeedSequence(10, spawn_key=(rep,)))
            prods[rep] = d.z_finite[1, 0, 0b00000] * d.z_finite[1, 0, 0b00011]
        target = finite_z_covariance(pure_p2, m, n, 1, 1, 0.2)
        se = prods.std(ddof=1) / np.sqrt(reps)
        assert abs(prods.mean() - target) <= 3 * se

    def test_compensator_covariance(self, pure_p2):
        m, n, reps = 5, 2, 6000
        sampler = ExplicitSystemSampler(pure_p2, m, n)
        funcs = mixture_functions(pure_p2)
        lim = np.empty(reps)
        fin = np.empty(reps)
        for rep in range(reps):
            d = sampler.sample(np.random.SeedSequence(11, spawn_key=(rep,)))
            lim[rep] = d.y[0, 0b00000] * d.y[0, 0b00011]
            fin[rep] = d.y_finite[0, 0b00000] * d.y_finite[0, 0b00011]
        se = lim.std(ddof=1) / np.sqrt(reps)
        assert abs(lim.mean() - float(funcs.theta(1, 1, 0.2))) <= 3 * se
        se = fin.std(ddof=1) / np.sqrt(reps)
        assert abs(fin.mean() - finite_y_covariance(pure_p2, m, n, 1, 1, 0.2)) <= 3 * se

    def test_finite_covariance_converges_monotonically(self, pure_p2):
        # deterministic: the exact finite-size covariance approaches the
        # limit value from below as the base grows
        gaps = [
            abs(finite_z_covariance(pure_p2, m, 2, 1, 1, 0.5)
                - float(mixture_functions(pure_p2).xi_prime(1, 1, 0.5)))
            for m in (4, 8, 16)
        ]
        assert gaps[0] > gaps[1] > gaps[2]
        gaps_y = [
            abs(finite_y_covariance(pure_p2, m, 2, 1, 1, 0.5)
                - float(mixture_functions(pure_p2).theta(1, 1, 0.5)))
            for m in (4, 8, 16)
        ]
        assert gaps_y[0] > gaps_y[1] > gaps_y[2]

    def test_size_cap(self, pure_p2):
        with pytest.raises(ResourceError, match="capped"):
            ExplicitSystemSampler(pure_p2, 13, 2)


class TestRandomGramRost:
    def test_invariants(self, pure_p2):
        rng = np.random.default_rng(12)
        for trial in range(5):
            rost = random_gram_rost(5, 0.3, 0.05, rng)
            assert np.all(np.abs(np.diag(rost.q12) - 0.3) <= 0.05)
            assert np.allclose(np.diag(rost.q11), 1.0)
            # Gram construction admits fields for any structural mixture
            RostFieldSampler(rost, mixture_functions(pure_p2))

    def test_requires_feasible_target(self):
        with pytest.raises(RostInvalidError, match="<= 1"):
            random_gram_rost(3, 0.99, 0.05, np.random.default_rng(0))
