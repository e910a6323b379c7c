"""Interpolating paths: endpoint identities, derivative formulas, verdicts."""

import math

import numpy as np
import pytest
from scipy.special import logsumexp

from coupledsk.bits import magnetizations, popcounts, spin_matrix
from coupledsk.configurations import OverlapConstraint, nearest_admissible
from coupledsk.disorder import (
    DirichletWeights,
    FixedWeights,
    RostFieldSampler,
    RostSpec,
    random_gram_rost,
)
from coupledsk.free_energy import Estimate, GEstimate, g_terms_replica, partition_by_overlap
from coupledsk.interpolation import (
    STRUCTURE_MARGIN_SIGMAS,
    VerdictConfig,
    first_sum_bound,
    lemma2_derivative_replica,
    lemma2_phi,
    lemma2_phi_prime_fd,
    lemma2_phi_prime_gibbs,
    lemma2_phi_replica,
    lemma3_phi,
    lemma3_phi_prime_fd,
    lemma3_phi_prime_gibbs,
    lemma3_phi_replica,
    lemma3_state,
    run_lemma2_curve,
    run_lemma3_curve,
    structure_bound_check,
    superadditivity_check,
    verdict_suite,
    window_constant_check,
    window_gap_profile,
    _split_energies,
    _split_tables,
)
from coupledsk.mixture import MixtureSpec, NonConvexMixtureError, mixture_functions


def _combined_sigmas(a, b):
    sig = math.hypot(a.stderr, b.stderr)
    return abs(a.mean - b.mean) / sig if sig > 0 else 0.0


class TestSplitPath:
    def test_zero_disorder_constant_in_t(self, zero_mixture):
        u_m = OverlapConstraint(4, 0)
        u_n = OverlapConstraint(3, 1)
        expected = (
            math.log(2**4 * math.comb(4, 2)) + math.log(2**3 * math.comb(3, 1))
        ) / 7
        for t in (0.0, 0.3, 1.0):
            est = lemma2_phi(zero_mixture, u_m, u_n, t, 3, seed=0)
            assert est.mean == pytest.approx(expected, abs=1e-12)
            assert est.stderr == 0.0

    def test_left_endpoint_is_size_weighted_mixture(self, mixed_even):
        m, n, seed = 4, 4, 40
        u_m = nearest_admissible(m, 0.0)
        u_n = nearest_admissible(n, 0.0)
        for rep in range(3):
            tables = _split_tables(mixed_even, m, n, seed, rep)
            phi0 = lemma2_phi_replica(mixed_even, u_m, u_n, 0.0, tables)
            pm = partition_by_overlap(tables[0], mixed_even.h1, mixed_even.h2)
            pn = partition_by_overlap(tables[1], mixed_even.h1, mixed_even.h2)
            expected = (pm.log_value(u_m.d) + pn.log_value(u_n.d)) / (m + n)
            assert phi0 == pytest.approx(expected, rel=1e-12)

    def test_right_endpoint_matches_direct_enumeration(self, mixed_even):
        m, n, seed = 3, 2, 41
        u_m = nearest_admissible(m, 0.0)
        u_n = nearest_admissible(n, 0.0)
        tables = _split_tables(mixed_even, m, n, seed, 0)
        phi1 = lemma2_phi_replica(mixed_even, u_m, u_n, 1.0, tables)
        big = tables[2]
        mag = magnetizations(m + n)
        vals = []
        for s1 in range(1 << (m + n)):
            for s2 in range(1 << (m + n)):
                d_rho = ((s1 ^ s2) & ((1 << m) - 1)).bit_count()
                d_tau = ((s1 ^ s2) >> m).bit_count()
                if d_rho != u_m.d or d_tau != u_n.d:
                    continue
                vals.append(
                    big.values[0][s1] + big.values[1][s2]
                    + mixed_even.h1 * mag[s1] + mixed_even.h2 * mag[s2]
                )
        assert phi1 == pytest.approx(float(logsumexp(np.array(vals))) / (m + n), rel=1e-12)

    def test_two_replica_machinery_against_brute_force(self, pure_p2):
        m, n, t, seed = 3, 2, 0.4, 42
        u_m = nearest_admissible(m, 1 / 3)
        u_n = nearest_admissible(n, 0.0)
        funcs = mixture_functions(pure_p2)
        tables = _split_tables(pure_p2, m, n, seed, 0)
        constrained, convexity = lemma2_derivative_replica(pure_p2, u_m, u_n, t, tables)

        f1, f2 = _split_energies(pure_p2, tables, t)
        states = []
        for s1 in range(1 << (m + n)):
            for s2 in range(1 << (m + n)):
                d_rho = ((s1 ^ s2) & ((1 << m) - 1)).bit_count()
                d_tau = ((s1 ^ s2) >> m).bit_count()
                if d_rho == u_m.d and d_tau == u_n.d:
                    states.append((s1, s2, f1[s1] + f2[s2]))
        logw = np.array([e for _, _, e in states])
        p = np.exp(logw - logsumexp(logw))
        big = m + n

        def r_parts(x, y):
            d_rho = ((x ^ y) & ((1 << m) - 1)).bit_count()
            d_tau = ((x ^ y) >> m).bit_count()
            return 1 - 2 * d_rho / m, 1 - 2 * d_tau / n

        brute = 0.0
        for i, (s1, s2, _) in enumerate(states):
            for j, (s1b, s2b, _) in enumerate(states):
                w = p[i] * p[j]
                for ell, ellp, xa, xb in (
                    (1, 1, s1, s1b), (2, 2, s2, s2b), (1, 2, s1, s2b), (2, 1, s2, s1b),
                ):
                    r_rho, r_tau = r_parts(xa, xb)
                    r_sig = (m * r_rho + n * r_tau) / big
                    brute += 0.5 * w * (
                        big * float(funcs.xi(ell, ellp, r_sig))
                        - m * float(funcs.xi(ell, ellp, r_rho))
                        - n * float(funcs.xi(ell, ellp, r_tau))
                    )
        assert convexity == pytest.approx(brute, rel=1e-10, abs=1e-10)
        u_split = (m * u_m.u + n * u_n.u) / big
        assert constrained == pytest.approx(
            big * float(funcs.xi(1, 2, u_split))
            - m * float(funcs.xi(1, 2, u_m.u))
            - n * float(funcs.xi(1, 2, u_n.u)),
            rel=1e-12,
        )

    def test_zero_disorder_derivative_vanishes(self, zero_mixture):
        der = lemma2_phi_prime_gibbs(
            zero_mixture, OverlapConstraint(3, 1), OverlapConstraint(3, 1), 0.5, 3, seed=1
        )
        assert der.phi_prime.mean == pytest.approx(0.0, abs=1e-12)
        assert der.constrained_term == 0.0

    def test_convexity_term_sign(self, pure_p2):
        u3 = nearest_admissible(3, 0.0)
        der = lemma2_phi_prime_gibbs(pure_p2, u3, u3, 0.5, 500, seed=2)
        assert der.convexity_term.mean <= 3 * der.convexity_term.stderr

    def test_gibbs_matches_finite_difference(self, pure_p2):
        u4 = nearest_admissible(4, 0.0)
        g = lemma2_phi_prime_gibbs(pure_p2, u4, u4, 0.5, 400, seed=3)
        fd = lemma2_phi_prime_fd(pure_p2, u4, u4, 0.5, 400, seed=3)
        assert _combined_sigmas(g.phi_prime, fd) <= 3.0

    def test_refuses_nonconvex_mixture(self):
        with pytest.warns(Warning):
            spec = MixtureSpec(a1=(1.0, 0.0, -1.0), a2=(1.0, 0.0, -1.0))
        with pytest.raises(NonConvexMixtureError):
            lemma2_phi_prime_gibbs(
                spec, OverlapConstraint(3, 1), OverlapConstraint(3, 1), 0.5, 2, seed=0
            )

    def test_size_cap(self, pure_p2):
        with pytest.raises(ValueError, match="capped"):
            lemma2_phi(pure_p2, OverlapConstraint(8, 0), OverlapConstraint(8, 0), 0.5, 2, 0)


class TestStructurePath:
    def test_zero_mixture_constant(self, zero_mixture):
        rost = random_gram_rost(3, 0.0, 0.05, np.random.default_rng(1))
        c = OverlapConstraint(4, 0)
        expected = math.log(2**4 * math.comb(4, 2)) / 4
        for t in (0.0, 0.5, 1.0):
            est = lemma3_phi(rost, zero_mixture, 4, c, t, 3, seed=0)
            assert est.mean == pytest.approx(expected, abs=1e-12)

    def test_left_endpoint_is_structure_term(self, pure_p2):
        rost = random_gram_rost(4, 0.0, 0.05, np.random.default_rng(2))
        c = OverlapConstraint(4, 0)
        fs = RostFieldSampler(rost, mixture_functions(pure_p2))
        for rep in range(3):
            state = lemma3_state(rost, fs, pure_p2, 4, 50, rep)
            phi0 = lemma3_phi_replica(state, pure_p2, 4, c, 0.0)
            t1, _ = g_terms_replica(rost, fs, pure_p2, 4, c, 50, rep)
            assert phi0 == pytest.approx(t1, rel=1e-10)

    def test_right_endpoint_decouples(self, pure_p2):
        rost = random_gram_rost(4, 0.0, 0.05, np.random.default_rng(3))
        c = OverlapConstraint(4, 0)
        fs = RostFieldSampler(rost, mixture_functions(pure_p2))
        state = lemma3_state(rost, fs, pure_p2, 4, 51, 0)
        phi1 = lemma3_phi_replica(state, pure_p2, 4, c, 1.0)
        part = partition_by_overlap(state.table, pure_p2.h1, pure_p2.h2)
        y_term = logsumexp(np.sqrt(4) * (state.y[0] + state.y[1]), b=state.w)
        assert phi1 == pytest.approx((part.log_value(c.d) + float(y_term)) / 4, rel=1e-12)

    def test_single_element_reduction(self, pure_p2):
        u = 0.2
        rost = RostSpec(
            q11=np.ones((1, 1)), q12=np.full((1, 1), u), q22=np.ones((1, 1)),
            weights=FixedWeights((1.0,)), delta=0.0, u=u,
        )
        c = nearest_admissible(5, u)
        fs = RostFieldSampler(rost, mixture_functions(pure_p2))
        state = lemma3_state(rost, fs, pure_p2, 5, 52, 0)
        t = 0.6
        phi = lemma3_phi_replica(state, pure_p2, 5, c, t)
        # direct computation without the element layer
        s = spin_matrix(5)
        rt, rs = math.sqrt(t), math.sqrt(1 - t)
        e1 = rt * state.table.values[0] + s @ (rs * state.z[:, 0, 0] + pure_p2.h1)
        e2 = rt * state.table.values[1] + s @ (rs * state.z[:, 1, 0] + pure_p2.h2)
        pop = popcounts(5)
        vals = [
            e1[x] + e2[y]
            for x in range(32)
            for y in range(32)
            if pop[x ^ y] == c.d
        ]
        direct = (
            float(logsumexp(np.array(vals)))
            + math.sqrt(t * 5) * float(state.y[0, 0] + state.y[1, 0])
        ) / 5
        assert phi == pytest.approx(direct, rel=1e-12)

    def test_first_sum_vanishes_for_pinned_diagonal(self, pure_p2):
        # q12 diagonal exactly equal to the constraint overlap (both zero)
        rost = RostSpec(
            q11=np.eye(2), q12=np.zeros((2, 2)), q22=np.eye(2),
            weights=DirichletWeights(1.0), delta=0.0, u=0.0,
        )
        c = OverlapConstraint(4, 0)
        der = lemma3_phi_prime_gibbs(rost, pure_p2, 4, c, 0.5, 50, seed=4)
        assert der.first_sum.mean == 0.0
        assert der.first_sum_bound == 0.0

    def test_second_line_sign_across_structures(self, pure_p2):
        rng = np.random.default_rng(6)
        c = OverlapConstraint(4, 0)
        for trial in range(5):
            rost = random_gram_rost(int(rng.integers(2, 6)), 0.0, 0.05, rng)
            der = lemma3_phi_prime_gibbs(rost, pure_p2, 4, c, 0.5, 200, seed=60 + trial)
            assert der.second_line.mean <= 3 * der.second_line.stderr

    def test_gibbs_matches_finite_difference(self, pure_p2):
        rost = random_gram_rost(5, 0.0, 0.05, np.random.default_rng(3))
        c = OverlapConstraint(4, 0)
        g = lemma3_phi_prime_gibbs(rost, pure_p2, 4, c, 0.5, 600, seed=77)
        fd = lemma3_phi_prime_fd(rost, pure_p2, 4, c, 0.5, 600, seed=77)
        assert _combined_sigmas(g.phi_prime, fd) <= 3.0

    def test_first_sum_respects_computable_bound(self, mixed_even):
        rost = random_gram_rost(4, 0.2, 0.1, np.random.default_rng(8))
        c = nearest_admissible(4, 0.2)
        der = lemma3_phi_prime_gibbs(rost, mixed_even, 4, c, 0.3, 100, seed=9)
        assert abs(der.first_sum.mean) <= der.first_sum_bound + 1e-12
        assert der.first_sum_bound == first_sum_bound(
            rost, mixture_functions(mixed_even), c.u
        )


class TestCurveRunners:
    def test_split_curve_verdicts(self, pure_p2):
        run = run_lemma2_curve(pure_p2, 3, 3, 0.0, (0.25, 0.5, 0.75), 120, seed=5)
        assert run.verdicts["fd_gibbs_pass"]
        assert run.verdicts["convexity_term_nonpositive"]
        assert len(run.phi) == 3

    def test_structure_curve_verdicts(self, pure_p2):
        rost = random_gram_rost(3, 0.0, 0.05, np.random.default_rng(10))
        c = OverlapConstraint(4, 0)
        run = run_lemma3_curve(rost, pure_p2, 4, c, (0.5,), 150, seed=6)
        assert run.verdicts["fd_gibbs_pass"]
        assert run.verdicts["second_line_nonpositive"]


class TestWindowProfile:
    def test_zero_disorder_exact_gaps(self, zero_mixture):
        prof = window_gap_profile(zero_mixture, 6, 0, (0.0, 0.5, 1.0), 3, seed=0)
        total = sum(math.comb(6, d) for d in (2, 3, 4))
        expected = math.log(total / math.comb(6, 3)) / 6
        assert prof["gap_mean"][1] == pytest.approx(expected, abs=1e-12)
        assert prof["gap_stderr"][1] == 0.0
        assert prof["min_gap"] >= 0.0

    def test_gap_nonnegative_per_replica(self, pure_p2):
        prof = window_gap_profile(pure_p2, 6, 0, (0.0, 0.5, 1.0), 50, seed=1)
        assert prof["min_gap"] >= -1e-12

    def test_requires_zero_baseline(self, pure_p2):
        with pytest.raises(ValueError, match="start at 0"):
            window_gap_profile(pure_p2, 6, 0, (0.5, 1.0), 5, seed=0)


class TestVerdictSuite:
    def test_zero_disorder_all_pass(self, zero_mixture):
        cfg = VerdictConfig(
            spec=zero_mixture, u=0.0, n_list=(4, 6), n_rep=3, seed=0,
            rost=random_gram_rost(3, 0.0, 0.05, np.random.default_rng(0)),
            rost_n=4, rost_t_grid=(0.5,),
        )
        report = verdict_suite(cfg)
        assert report["pass"], report
        names = {c["check"] for c in report["checks"]}
        assert names == {
            "window-constant", "superadditivity", "structure-upper-bound",
            "sequence-independence",
        }

    def test_real_mixture_passes(self, pure_p2):
        cfg = VerdictConfig(
            spec=pure_p2, u=0.0, n_list=(4, 6), n_rep=150, seed=3,
        )
        report = verdict_suite(cfg)
        assert report["pass"], report

    def test_suite_composes_the_check_functions(self, pure_p2):
        eps_grid = (0.0, 0.5, 1.0)
        cfg = VerdictConfig(spec=pure_p2, u=0.0, n_list=(4, 6), eps_grid=eps_grid,
                            n_rep=20, seed=4)
        checks = verdict_suite(cfg)["checks"]
        profiles = {n: window_gap_profile(pure_p2, n, 0, eps_grid, 20, seed=4) for n in (4, 6)}
        assert checks[0] == window_constant_check((4, 6), profiles)
        assert checks[1] == superadditivity_check(pure_p2, 0.0, (4, 6), 20, seed=4)

    def test_structure_margin_is_four_sigma(self, pure_p2):
        rost = random_gram_rost(3, 0.0, 0.05, np.random.default_rng(11))
        c = OverlapConstraint(4, 0)
        bound = first_sum_bound(rost, mixture_functions(pure_p2), c.u)

        def check(f_mean):
            f_est = Estimate(mean=f_mean, stderr=0.03, n_rep=10, seed=0)
            g = Estimate(mean=1.0, stderr=0.04, n_rep=10, seed=0)
            return structure_bound_check(rost, pure_p2, c, f_est, GEstimate(g, g, g), (),
                                         10, seed=0)

        assert STRUCTURE_MARGIN_SIGMAS == 4.0
        assert check(1.0)["margin"] == pytest.approx(4.0 * 0.05, rel=1e-15)
        assert check(1.0 + bound + 0.19)["pass"]
        assert not check(1.0 + bound + 0.21)["pass"]
