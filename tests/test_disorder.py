"""Disorder samplers: covariance identities, determinism, field laws."""

import math
import warnings

import numpy as np
import pytest

from conftest import orders_up_to
from coupledsk import bits, disorder
from coupledsk.bits import fwht, spin_matrix
from coupledsk.disorder import (
    DirichletWeights,
    ExplicitSystemSampler,
    FactorizationError,
    FixedWeights,
    ProcessSampler,
    ResourceError,
    RostFieldSampler,
    RostInvalidError,
    RostSpec,
    TensorSampler,
    empirical_covariance,
    get_field_sampler,
    get_sampler,
    random_gram_rost,
)
from coupledsk.mixture import MixtureSpec, mixture_functions
from coupledsk.parallel import replica_seed
from coupledsk.reference import (
    dense_process_covariance,
    explicit_full_table,
    finite_y_covariance,
    finite_z_covariance,
    spin_contraction,
)

with warnings.catch_warnings():
    warnings.simplefilter("ignore")  # odd orders: convexity not needed to sample
    PROCESS_MIXTURES = {
        "pure-p1": MixtureSpec(a1=(1.0,), a2=(0.7,)),
        "pure-p2": MixtureSpec(a1=(0.0, 0.5), a2=(0.0, 0.5)),
        "mixed-p4": MixtureSpec(a1=(0.1, 0.6, 0.2, 0.2), a2=(0.2, 0.4, 0.1, 0.3)),
        "odd-p3": MixtureSpec(a1=(0.3, 0.5, 0.4), a2=(0.2, 0.4, -0.3)),
    }


def _sliced_explicit_draw(spec: MixtureSpec, m: int, n: int, seed) -> dict:
    """The explicit draw from seed by slicing each big tensor and contracting
    the slices with the base spin matrix: the tuples inside the base for
    trunc, the p slices with one index at a new site for the site fields,
    and the compensator tensor for y.  Tuples with two or more new indices,
    such as (new i, new j, new j), fall in no slice."""
    rng = np.random.default_rng(seed)
    big, s = m + n, spin_matrix(m)
    out = {"trunc": np.zeros((2, 2**m)), "z": np.zeros((n, 2, 2**m)),
           "z_finite": np.zeros((n, 2, 2**m)), "y": np.zeros((2, 2**m)),
           "y_finite": np.zeros((2, 2**m))}
    for p in range(1, spec.p_max + 1):
        g = rng.standard_normal((big,) * p)
        g_new = rng.standard_normal((m,) * p)
        coef = np.array([[spec.a1[p - 1]], [spec.a2[p - 1]]])
        base = (slice(0, m),) * (p - 1)
        sites = sum(np.moveaxis(g[base[:pos] + (slice(m, big),) + base[pos:]], pos, 0)
                    for pos in range(p))  # (n,) + (m,) * (p - 1)
        site_contr = np.stack([np.full(2**m, t) if p == 1 else spin_contraction(t, s)
                               for t in sites])[:, None]
        comp_contr = spin_contraction(g_new, s)
        scale_big, scale_base = big ** (0.5 - 0.5 * p), m ** (0.5 - 0.5 * p)
        out["trunc"] += coef * scale_big * spin_contraction(g[(slice(0, m),) * p], s)
        out["z"] += coef * scale_base * site_contr
        out["z_finite"] += coef * scale_big * site_contr
        out["y"] += coef * math.sqrt(p - 1.0) * m ** (-0.5 * p) * comp_contr
        out["y_finite"] += coef * math.sqrt((m ** (1.0 - p) - big ** (1.0 - p)) / n) * comp_contr
    return out


class TestTensorSampler:
    def test_zero_mixture_gives_zero_tables(self, zero_mixture):
        t = get_sampler(zero_mixture, 4, "tensor").sample(0)
        assert np.all(t.values == 0.0)

    def test_shared_tensors_make_proportional_copies(self):
        spec = MixtureSpec(a1=(1.0,), a2=(2.0,))
        t = get_sampler(spec, 5, "tensor").sample(3)
        np.testing.assert_allclose(t.values[1], 2.0 * t.values[0], rtol=1e-15)

    def test_proportional_for_general_scaling(self):
        spec = MixtureSpec(a1=(0.0, 0.4, 0.2), a2=(0.0, 0.6, 0.3))
        t = get_sampler(spec, 4, "tensor").sample(9)
        np.testing.assert_allclose(t.values[1], 1.5 * t.values[0], rtol=1e-12)

    def test_deterministic(self, pure_p2):
        a = get_sampler(pure_p2, 6, "tensor").sample(1234)
        b = get_sampler(pure_p2, 6, "tensor").sample(1234)
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

    def test_budget_error_advises_process_route(self):
        # the process route takes every size the engine does, n = 12 included
        p7 = MixtureSpec(a1=(0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.1), a2=(0.0, 0.5))
        with pytest.raises(ResourceError, match=r"312713952 bytes > budget 268435456; "
                                                r"use the process sampler at this size"):
            TensorSampler(p7, 12)


class TestWalshCoefficientRoute:
    """Both tensor samplers fold each tensor into Walsh coefficients; these
    oracles contract the same tensors with the spin matrix instead."""

    @pytest.mark.parametrize("p", [3, 4])
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_tensor_route_is_the_direct_contraction(self, n, p):
        spec, seed = orders_up_to(p), replica_seed(3, n)
        table = TensorSampler(spec, n).sample(seed).values
        rng = np.random.default_rng(seed)
        want = np.zeros((2, 2**n))
        for q in range(1, p + 1):
            contr = spin_contraction(rng.standard_normal((n,) * q), spin_matrix(n))
            want += np.array([[spec.a1[q - 1]], [spec.a2[q - 1]]]) * n ** (0.5 - 0.5 * q) * contr
        np.testing.assert_allclose(table, want, rtol=0, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("p", [3, 4])
    @pytest.mark.parametrize("m, n", [(3, 2), (4, 3)])
    def test_explicit_sampler_is_the_sliced_contraction(self, m, n, p):
        spec = orders_up_to(p)
        for rep in range(3):
            seed = replica_seed(4, rep)
            draw, want = ExplicitSystemSampler(spec, m, n).sample(seed), _sliced_explicit_draw(
                spec, m, n, seed)
            for name, value in want.items():
                np.testing.assert_allclose(getattr(draw, name), value, rtol=0,
                                           atol=1e-12 * np.abs(value).max(), err_msg=name)


class TestProcessSampler:
    def test_zero_mixture(self, zero_mixture):
        t = get_sampler(zero_mixture, 3, "process").sample(0)
        assert np.all(t.values == 0.0)

    def test_rank_one_antisymmetry(self):
        spec = MixtureSpec(a1=(1.0,), a2=(1.0,))
        for seed in range(5):
            t = get_sampler(spec, 1, "process").sample(seed)
            assert t.values[0, 0] == pytest.approx(-t.values[0, 1], abs=1e-12)

    def test_deterministic(self, pure_p2):
        a = get_sampler(pure_p2, 5, "process").sample(42)
        b = get_sampler(pure_p2, 5, "process").sample(42)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("name", sorted(PROCESS_MIXTURES))
    def test_linear_map_reproduces_dense_covariance(self, name):
        spec = PROCESS_MIXTURES[name]
        for n in range(1, 9):
            sampler, c = ProcessSampler(spec, n), 2**n
            # column j of the map is the table drawn from the j-th unit noise vector
            f = np.stack([sampler.transform(e.reshape(2, c)).ravel() for e in np.eye(2 * c)],
                         axis=1)
            cov = dense_process_covariance(spec, n)
            assert np.max(np.abs(f @ f.T - cov)) <= 1e-13 * np.max(np.abs(cov)), (name, n)

    @pytest.mark.parametrize("name", sorted(PROCESS_MIXTURES))
    def test_walsh_blocks_hold_the_dense_spectrum(self, name):
        # class k of frequencies holds C(n, k) copies of block k's eigenvalues
        funcs = mixture_functions(PROCESS_MIXTURES[name])
        for n in (3, 5):
            r = 1.0 - 2.0 * np.arange(n + 1) / n
            f = np.stack([n * funcs.xi(1, 1, r), n * funcs.xi(1, 2, r), n * funcs.xi(2, 2, r)])
            w, v = disorder.walsh_blocks(f)
            assert w.shape == (n + 1, 2) and v.shape == (n + 1, 2, 2)
            copies = [math.comb(n, k) for k in range(n + 1)]
            cov = dense_process_covariance(PROCESS_MIXTURES[name], n)
            dense = np.linalg.eigvalsh(cov)
            walsh = np.sort(np.repeat(w, copies, axis=0).ravel())
            assert np.max(np.abs(walsh - dense)) <= 1e-12 * np.max(np.abs(dense)), (name, n)

    def test_walsh_blocks_run_no_transform(self, pure_p2, monkeypatch):
        # the block spectra are f @ krawtchouk(n), a cached table: after the
        # table's first build, no call transforms anything
        calls = []
        transform = disorder.fwht

        def counted(a):
            calls.append(np.shape(a))
            return transform(a)

        f = np.stack([8 * mixture_functions(pure_p2).xi(ell, ellp, 1 - np.arange(9) / 4)
                      for ell, ellp in ((1, 1), (1, 2), (2, 2))])
        disorder.walsh_blocks(f)
        for module in (bits, disorder):
            monkeypatch.setattr(module, "fwht", counted)
        disorder.walsh_blocks(f)
        assert calls == []

    def test_block_below_floor_raises(self, pure_p2, monkeypatch):
        class CrossHeavy:
            """xi_12 = 2 xi_11 = 2 xi_22: every nonzero block is indefinite."""

            def xi(self, ell, ellp, x):
                return (1.0 if ell == ellp else 2.0) * np.asarray(x) ** 2

        monkeypatch.setattr(disorder, "mixture_functions", lambda spec: CrossHeavy())
        with pytest.raises(FactorizationError, match="indefinite"):
            ProcessSampler(pure_p2, 4)

    def test_transform_of_a_block_is_the_per_row_einsum(self, mixed_even):
        for n, b in ((4, 3), (8, 128), (10, 32), (12, 8)):
            sampler = ProcessSampler(mixed_even, n)
            noise = np.random.default_rng(n).standard_normal((b, 2, 2**n))
            per_row = np.stack([fwht(np.einsum("ijw,jw->iw", sampler.factor, x)) / np.sqrt(2**n)
                                for x in noise])
            assert np.array_equal(sampler.transform(noise), per_row), n

    def test_covariance_probe(self, mixed_even):
        rep = empirical_covariance(
            mixed_even, 5, 4000,
            [(0, 0, 1, 1), (0, 31, 1, 2), (3, 12, 2, 2)],
            seed=8, sampler="process",
        )
        assert rep.max_sigmas <= 4.0

    def test_covariance_probe_at_engine_cap(self, mixed_even):
        rep = empirical_covariance(
            mixed_even, 12, 2000,
            [(0, 0, 1, 1), (0, 4095, 1, 2), (5, 1234, 2, 2), (77, 77, 1, 2)],
            seed=8, sampler="process",
        )
        assert rep.max_sigmas <= 4.0


class TestEmpiricalCovariance:
    def test_targets(self, pure_p2):
        funcs = mixture_functions(pure_p2)
        rep = empirical_covariance(
            pure_p2, 4, 100,
            [(0, 0, 1, 1), (0, 15, 1, 1)],
            seed=3,
        )
        assert rep.targets[0] == pytest.approx(float(funcs.xi(1, 1, 1.0)))
        assert rep.targets[1] == pytest.approx(float(funcs.xi(1, 1, -1.0)))

    def test_zero_mixture_reports_exact(self, zero_mixture):
        rep = empirical_covariance(
            zero_mixture, 3, 50, [(0, 0, 1, 1)], seed=0
        )
        assert rep.max_sigmas == 0.0

    @pytest.mark.parametrize("sampler", ["tensor", "process"])
    def test_overflowing_stderr_raises(self, sampler):
        # fields near 1e153 give products near 1e306, whose squares overflow
        spec = MixtureSpec(a1=(0.0, 1e153), a2=(0.0, 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(disorder.NumericalError, match="overflows a double"):
                empirical_covariance(spec, 4, 20, [(0, 0, 1, 1), (3, 5, 1, 2)], 1, sampler)


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

    @pytest.mark.parametrize("weights, law", [
        ({"kind": "fixed", "w": [1.0, 3.0]}, FixedWeights((0.25, 0.75))),
        ({"kind": "dirichlet", "gamma": 0.5}, DirichletWeights(0.5)),
        ({"kind": "dirichlet"}, DirichletWeights(1.0)),
    ])
    def test_from_dict(self, weights, law):
        q = [[1.0, 0.3], [0.3, 1.0]]
        rost = RostSpec.from_dict({"q11": q, "q12": [[0.2, 0.1], [0.1, 0.25]], "q22": q,
                                   "weights": weights, "delta": 0.05, "u": 0.2})
        assert np.array_equal(rost.q12, [[0.2, 0.1], [0.1, 0.25]])
        assert rost.q11.dtype == np.float64 and np.array_equal(rost.q22, q)
        assert (rost.delta, rost.u, rost.weights) == (0.05, 0.2, law)

    def test_from_dict_rejects_unknown_weight_kind(self):
        q = [[1.0]]
        with pytest.raises(RostInvalidError, match="unknown weight kind"):
            RostSpec.from_dict({"q11": q, "q12": q, "q22": q, "weights": {"kind": "uniform"},
                                "delta": 0.0, "u": 1.0})

    @pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan"), float("inf")])
    def test_dirichlet_gamma_must_be_finite_and_positive(self, gamma):
        with pytest.raises(RostInvalidError, match="gamma"):
            DirichletWeights(gamma)

    @pytest.mark.parametrize("m", [0, -1])
    def test_gram_structure_needs_an_element(self, m):
        with pytest.raises(RostInvalidError, match="at least one element"):
            random_gram_rost(m, 0.0, 0.05, np.random.default_rng(0))

    @staticmethod
    def _dense_block_matrix(rost, entry_fn):
        """Every block evaluated on its whole q-matrix and written in place."""
        m = rost.m
        out = np.empty((2 * m, 2 * m))
        for ell in (1, 2):
            for ellp in (1, 2):
                out[(ell - 1) * m:ell * m, (ellp - 1) * m:ellp * m] = entry_fn(
                    ell, ellp, rost.q(ell, ellp))
        return out

    @pytest.mark.parametrize("kind", ["gram", "random"])
    def test_block_matrix_matches_dense_evaluation(self, kind, mixed_even):
        rng = np.random.default_rng(4)
        spec = MixtureSpec(a1=(0.3, 0.6, 0.1, 0.2), a2=(0.2, 0.4, 0.25, 0.3), h1=0.1)
        if kind == "gram":
            rosts = [random_gram_rost(m, 0.1, 0.05, rng) for m in (1, 3, 17, 40)]
        else:
            rosts = []
            for m in (2, 9, 30):
                q11 = rng.uniform(-1, 1, (m, m))
                q11 = (q11 + q11.T) / 2
                np.fill_diagonal(q11, 1.0)
                rosts.append(RostSpec(q11=q11, q12=rng.uniform(-1, 1, (m, m)), q22=q11.T.copy(),
                                      weights=DirichletWeights(), delta=2.0, u=0.0))
        for mixture in (spec, mixed_even):
            funcs = mixture_functions(mixture)
            for rost in rosts:
                for entry_fn in (funcs.xi_prime, funcs.theta, funcs.xi):
                    assert np.array_equal(rost.block_matrix(entry_fn),
                                          self._dense_block_matrix(rost, entry_fn))

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
        f = RostFieldSampler(rost, mixture_functions(spec)).sample(np.random.default_rng(9), 2)
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

    def test_field_sampler_is_built_once_per_structure_and_mixture(self, pure_p2, mixed_even):
        rost = random_gram_rost(3, 0.0, 0.05, np.random.default_rng(4))
        twin = RostSpec(q11=rost.q11, q12=rost.q12, q22=rost.q22, weights=rost.weights,
                        delta=rost.delta, u=rost.u)
        sampler = get_field_sampler(rost, pure_p2)
        assert sampler.rost is rost
        assert get_field_sampler(rost, MixtureSpec(a1=(0.0, 0.5), a2=(0.0, 0.5))) is sampler
        assert get_field_sampler(rost, mixed_even) is not sampler
        # structures compare by identity: an equal copy is factored anew
        assert get_field_sampler(twin, pure_p2) is not sampler
        assert np.array_equal(get_field_sampler(twin, pure_p2).factor_z, sampler.factor_z)

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
        full = explicit_full_table(zero_mixture, 3, 2, 0)
        for arr in (draw.trunc, draw.z, draw.z_finite, draw.y, draw.y_finite, full):
            assert np.all(arr == 0.0)

    def test_linear_decomposition_is_exact(self):
        spec = MixtureSpec(a1=(0.7,), a2=(1.1,))
        m, n = 3, 2
        draw = ExplicitSystemSampler(spec, m, n).sample(42)
        full = explicit_full_table(spec, m, n, 42)
        tau_spins = spin_matrix(n)
        for sigma in range(1 << (m + n)):
            rho, tau = sigma & ((1 << m) - 1), sigma >> m
            for ell in range(2):
                recon = draw.trunc[ell, rho] + tau_spins[tau] @ draw.z_finite[:, ell, rho]
                assert full[ell, sigma] == pytest.approx(recon, abs=1e-12)

    def test_quadratic_remainder_ignores_base_coordinates(self, pure_p2):
        m, n = 4, 2
        draw = ExplicitSystemSampler(pure_p2, m, n).sample(43)
        full = explicit_full_table(pure_p2, m, n, 43)
        tau_spins = spin_matrix(n)
        for ell in range(2):
            res = np.empty((1 << m, 1 << n))
            for sigma in range(1 << (m + n)):
                rho, tau = sigma & ((1 << m) - 1), sigma >> m
                recon = draw.trunc[ell, rho] + tau_spins[tau] @ draw.z_finite[:, ell, rho]
                res[rho, tau] = full[ell, sigma] - recon
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

    def test_tensor_budget(self):
        # order 7 at M + n = 14 draws a 14**7-double tensor a replica (843 MB);
        # it is refused on construction, before any draw
        p7 = MixtureSpec(a1=(0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.1), a2=(0.0, 0.5))
        with pytest.raises(ResourceError, match="908179904 bytes a replica > budget 268435456"):
            ExplicitSystemSampler(p7, 2, 12)
        ExplicitSystemSampler(MixtureSpec(a1=(0.0,) * 5 + (0.1,), a2=(0.0, 0.5)), 4, 10)


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

    def test_requires_nonnegative_delta(self):
        with pytest.raises(RostInvalidError, match="nonnegative"):
            random_gram_rost(3, 0.0, -0.1, np.random.default_rng(0))
