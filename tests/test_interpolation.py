"""Interpolating paths: endpoint identities, derivative formulas, verdicts."""

import math

import numpy as np
import pytest
from scipy.special import logsumexp

from coupledsk.bits import magnetizations, popcounts, spin_matrix
from coupledsk.configurations import OverlapConstraint, nearest_admissible
from coupledsk import bits, interpolation, parallel
from coupledsk.disorder import (
    DirichletWeights,
    FixedWeights,
    RostSpec,
    TensorSampler,
    random_gram_rost,
)
from coupledsk.free_energy import (
    Estimate,
    GEstimate,
    estimate_F,
    estimate_G,
    g_terms_block,
    overlap_logz_replicas,
    partition_by_overlap,
)
from coupledsk.interpolation import (
    ABOVE_ZERO_SIGMAS,
    FD_STEP,
    STRUCTURE_MARGIN_SIGMAS,
    first_sum_bound,
    lemma2_derivative_block,
    lemma2_phi_block,
    lemma3_derivative_block,
    lemma3_phi_block,
    lemma3_states,
    run_lemma2_curve,
    run_lemma3_curve,
    sigmas_above_zero,
    structure_bound_check,
    superadditivity_check,
    window_constant_check,
    window_gap_profile,
    window_gaps,
    _bracket_spectra,
    _lemma2_pass,
    _lemma3_pass,
    _lemma3_terms,
    _split_block,
    _split_constrained_term,
    _split_energies,
)
from coupledsk.mixture import MixtureSpec, NonConvexMixtureError, mixture_functions
from coupledsk.parallel import replica_row, summarize


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
        phi, _ = _lemma2_pass(zero_mixture, u_m, u_n, (0.0, 0.3, 1.0), (), 3, seed=0)
        for column in phi.T:
            mean, stderr = summarize(column)
            assert mean == pytest.approx(expected, abs=1e-12)
            assert stderr == 0.0

    def test_left_endpoint_is_size_weighted_mixture(self, mixed_even):
        m, n, seed = 4, 4, 40
        u_m = nearest_admissible(m, 0.0)
        u_n = nearest_admissible(n, 0.0)
        for rep in range(3):
            tables = _split_block(mixed_even, m, n, seed, range(rep, rep + 1))
            phi0 = lemma2_phi_block(mixed_even, u_m, u_n, 0.0, tables)[0]
            pm = partition_by_overlap(tables[0], mixed_even.h1, mixed_even.h2)[0]
            pn = partition_by_overlap(tables[1], mixed_even.h1, mixed_even.h2)[0]
            expected = (pm[u_m.d] + pn[u_n.d]) / (m + n)
            assert phi0 == pytest.approx(expected, rel=1e-12)

    def test_right_endpoint_matches_direct_enumeration(self, mixed_even):
        m, n, seed = 3, 2, 41
        u_m = nearest_admissible(m, 0.0)
        u_n = nearest_admissible(n, 0.0)
        tables = _split_block(mixed_even, m, n, seed, range(1))
        phi1 = lemma2_phi_block(mixed_even, u_m, u_n, 1.0, tables)[0]
        big = replica_row(tables[2], 0)
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

    def test_split_energies_equal_a_gather_replay(self, mixed_even):
        # mask tau << M | rho gathers sm[rho] + sn[tau]; the outer sum must
        # give the same bits, for one replica's tables and for a block
        m, n, t = 3, 4, 0.3
        masks = np.arange(1 << (m + n))
        rho, tau = masks & ((1 << m) - 1), masks >> m
        mag = magnetizations(m + n)
        block = _split_block(mixed_even, m, n, 5, range(3))
        for tables in (tuple(replica_row(system, 0) for system in block), block):
            sm, sn, sbig = tables
            for ell, (f, h) in enumerate(zip(_split_energies(mixed_even, tables, t),
                                             (mixed_even.h1, mixed_even.h2))):
                gathered = sm.values[..., ell, :][..., rho] + sn.values[..., ell, :][..., tau]
                replay = np.sqrt(t) * sbig.values[..., ell, :] + np.sqrt(1.0 - t) * gathered
                assert np.array_equal(f, replay + h * mag)

    def test_two_replica_machinery_against_brute_force(self, pure_p2):
        m, n, t, seed = 3, 2, 0.4, 42
        u_m = nearest_admissible(m, 1 / 3)
        u_n = nearest_admissible(n, 0.0)
        funcs = mixture_functions(pure_p2)
        tables = _split_block(pure_p2, m, n, seed, range(1))
        _, convexity = lemma2_derivative_block(pure_p2, u_m, u_n, t, tables,
                                               _bracket_spectra(pure_p2, m, n))[0]
        constrained = _split_constrained_term(funcs, u_m, u_n)

        f1, f2 = (f[0] for f in _split_energies(pure_p2, tables, t))
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
        _, (der,) = _lemma2_pass(
            zero_mixture, OverlapConstraint(3, 1), OverlapConstraint(3, 1), (), (0.5,), 3, seed=1
        )
        assert der.phi_prime.mean == pytest.approx(0.0, abs=1e-12)
        assert der.constrained_term == 0.0

    def test_convexity_term_sign(self, pure_p2):
        u3 = nearest_admissible(3, 0.0)
        _, (der,) = _lemma2_pass(pure_p2, u3, u3, (), (0.5,), 500, seed=2)
        assert der.convexity_term.mean <= 3 * der.convexity_term.stderr

    def test_gibbs_matches_finite_difference(self, pure_p2):
        run = run_lemma2_curve(pure_p2, 4, 4, 0.0, (0.5,), 400, seed=3)
        assert _combined_sigmas(run.dphi_gibbs[0], run.dphi_fd[0]) <= 3.0

    def test_refuses_nonconvex_mixture(self):
        with pytest.warns(Warning):
            spec = MixtureSpec(a1=(1.0, 0.0, -1.0), a2=(1.0, 0.0, -1.0))
        with pytest.raises(NonConvexMixtureError):
            _lemma2_pass(
                spec, OverlapConstraint(3, 1), OverlapConstraint(3, 1), (), (0.5,), 2, seed=0
            )

    def test_size_cap(self, pure_p2):
        with pytest.raises(ValueError, match="capped"):
            _lemma2_pass(pure_p2, OverlapConstraint(8, 0), OverlapConstraint(8, 0), (0.5,), (),
                         2, 0)


class TestSizeMismatches:
    """A kernel given tables or states of other sizes than its constraints'
    raises instead of evaluating another class."""

    def test_lemma2_kernels_refuse_swapped_constraints(self, pure_p2):
        u_m, u_n = OverlapConstraint(3, 1), OverlapConstraint(5, 1)
        tables = _split_block(pure_p2, 3, 5, 0, range(1))
        with pytest.raises(ValueError, match="block sizes"):
            lemma2_phi_block(pure_p2, u_n, u_m, 0.5, tables)
        with pytest.raises(ValueError, match="block sizes"):
            lemma2_derivative_block(pure_p2, u_n, u_m, 0.5, tables,
                                    _bracket_spectra(pure_p2, 5, 3))

    @pytest.mark.parametrize("n, c", [(4, OverlapConstraint(5, 1)), (5, OverlapConstraint(4, 0))])
    def test_lemma3_kernels_refuse_states_of_another_size(self, pure_p2, n, c):
        rost = random_gram_rost(3, 0.0, 0.05, np.random.default_rng(1))
        states = lemma3_states(rost, pure_p2, n, 0, range(1))
        with pytest.raises(ValueError):
            lemma3_phi_block(states, pure_p2, c, 0.5)
        with pytest.raises(ValueError):
            lemma3_derivative_block(states, _lemma3_terms(rost, pure_p2, c), pure_p2, c, 0.5)


class TestStructurePath:
    def test_zero_mixture_constant(self, zero_mixture):
        rost = random_gram_rost(3, 0.0, 0.05, np.random.default_rng(1))
        c = OverlapConstraint(4, 0)
        expected = math.log(2**4 * math.comb(4, 2)) / 4
        phi, _ = _lemma3_pass(rost, zero_mixture, c, (0.0, 0.5, 1.0), (), 3, seed=0)
        for column in phi.T:
            assert summarize(column)[0] == pytest.approx(expected, abs=1e-12)

    def test_left_endpoint_is_structure_term(self, pure_p2):
        rost = random_gram_rost(4, 0.0, 0.05, np.random.default_rng(2))
        c = OverlapConstraint(4, 0)
        for rep in range(3):
            states = lemma3_states(rost, pure_p2, 4, 50, range(rep, rep + 1))
            phi0 = lemma3_phi_block(states, pure_p2, c, 0.0)[0]
            t1, _ = g_terms_block(rost, pure_p2, c, 50, range(rep, rep + 1))[0]
            assert phi0 == pytest.approx(t1, rel=1e-10)

    def test_right_endpoint_decouples(self, pure_p2):
        rost = random_gram_rost(4, 0.0, 0.05, np.random.default_rng(3))
        c = OverlapConstraint(4, 0)
        states = lemma3_states(rost, pure_p2, 4, 51, range(1))
        phi1 = lemma3_phi_block(states, pure_p2, c, 1.0)[0]
        state = replica_row(states, 0)
        log_z = partition_by_overlap(state.table, pure_p2.h1, pure_p2.h2)
        y_term = logsumexp(np.sqrt(4) * (state.y[0] + state.y[1]), b=state.w)
        assert phi1 == pytest.approx((log_z[c.d] + float(y_term)) / 4, rel=1e-12)

    def test_single_element_reduction(self, pure_p2):
        u = 0.2
        rost = RostSpec(
            q11=np.ones((1, 1)), q12=np.full((1, 1), u), q22=np.ones((1, 1)),
            weights=FixedWeights((1.0,)), delta=0.0, u=u,
        )
        c = nearest_admissible(5, u)
        states = lemma3_states(rost, pure_p2, 5, 52, range(1))
        t = 0.6
        phi = lemma3_phi_block(states, pure_p2, c, t)[0]
        state = replica_row(states, 0)
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

    def test_two_replica_machinery_against_brute_force(self, mixed_even):
        n, t, seed = 4, 0.4, 43
        rost = random_gram_rost(3, 0.5, 0.1, np.random.default_rng(43))
        c = nearest_admissible(n, 0.5)
        funcs = mixture_functions(mixed_even)
        states = lemma3_states(rost, mixed_even, n, seed, range(1))
        _, first, second = lemma3_derivative_block(states, _lemma3_terms(rost, mixed_even, c),
                                                   mixed_even, c, t)[0]
        state = replica_row(states, 0)

        # every (element, sigma1, sigma2) with the pair's overlap pinned, and
        # its Gibbs weight, straight from the interpolated Hamiltonian
        s = spin_matrix(n)
        rt, rs = math.sqrt(t), math.sqrt(1 - t)
        pop = popcounts(n)
        states, logw = [], []
        for a in range(rost.m):
            e1 = rt * state.table.values[0] + s @ (rs * state.z[:, 0, a] + mixed_even.h1)
            e2 = rt * state.table.values[1] + s @ (rs * state.z[:, 1, a] + mixed_even.h2)
            y_part = math.sqrt(t * n) * float(state.y[0, a] + state.y[1, a])
            for x in range(1 << n):
                for y in range(1 << n):
                    if pop[x ^ y] == c.d:
                        states.append((a, x, y))
                        logw.append(math.log(state.w[a]) + e1[x] + e2[y] + y_part)
        logw = np.array(logw)
        p = np.exp(logw - logsumexp(logw))
        alpha, sig1, sig2 = (np.array(col) for col in zip(*states))

        qd = np.diag(rost.q12)
        terms = funcs.xi(1, 2, c.u) - c.u * funcs.xi_prime(1, 2, qd) + funcs.theta(1, 2, qd)
        assert first == pytest.approx(float(p @ terms[alpha]), rel=1e-10, abs=1e-10)

        # two independent replicas; copy l of the first against copy l' of
        # the second, for all four copy pairs
        sig = {1: sig1, 2: sig2}
        brute = 0.0
        for ell, ellp in ((1, 1), (2, 2), (1, 2), (2, 1)):
            r = 1.0 - 2.0 * pop[sig[ell][:, None] ^ sig[ellp][None, :]] / n
            q = rost.q(ell, ellp)[alpha[:, None], alpha[None, :]]
            vals = (funcs.xi(ell, ellp, r) - r * funcs.xi_prime(ell, ellp, q)
                    + funcs.theta(ell, ellp, q))
            brute += float(p @ vals @ p)
        assert second == pytest.approx(-0.5 * brute, rel=1e-10, abs=1e-10)

    def test_first_sum_vanishes_for_pinned_diagonal(self, pure_p2):
        # q12 diagonal exactly equal to the constraint overlap (both zero)
        rost = RostSpec(
            q11=np.eye(2), q12=np.zeros((2, 2)), q22=np.eye(2),
            weights=DirichletWeights(1.0), delta=0.0, u=0.0,
        )
        c = OverlapConstraint(4, 0)
        _, (der,) = _lemma3_pass(rost, pure_p2, c, (), (0.5,), 50, seed=4)
        assert der.first_sum.mean == 0.0
        assert der.first_sum_bound == 0.0

    def test_second_line_sign_across_structures(self, pure_p2):
        rng = np.random.default_rng(6)
        c = OverlapConstraint(4, 0)
        for trial in range(5):
            rost = random_gram_rost(int(rng.integers(2, 6)), 0.0, 0.05, rng)
            _, (der,) = _lemma3_pass(rost, pure_p2, c, (), (0.5,), 200, seed=60 + trial)
            assert der.second_line.mean <= 3 * der.second_line.stderr

    def test_gibbs_matches_finite_difference(self, pure_p2):
        rost = random_gram_rost(5, 0.0, 0.05, np.random.default_rng(3))
        c = OverlapConstraint(4, 0)
        run = run_lemma3_curve(rost, pure_p2, c, (0.5,), 600, seed=77)
        assert _combined_sigmas(run.dphi_gibbs[0], run.dphi_fd[0]) <= 3.0

    def test_first_sum_respects_computable_bound(self, mixed_even):
        rost = random_gram_rost(4, 0.2, 0.1, np.random.default_rng(8))
        c = nearest_admissible(4, 0.2)
        _, (der,) = _lemma3_pass(rost, mixed_even, c, (), (0.3,), 100, seed=9)
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
        run = run_lemma3_curve(rost, pure_p2, c, (0.5,), 150, seed=6)
        assert run.verdicts["fd_gibbs_pass"]
        assert run.verdicts["second_line_nonpositive"]

    def test_curves_read_the_replica_functions(self, pure_p2):
        # each grid t's value and finite difference (one-sided at 0 and 1)
        # equal the per-replica path values of the same tables or state
        t_grid, n_rep, seed = (0.0, 0.5, 1.0), 4, 12
        u_m, u_n = nearest_admissible(3, 0.0), nearest_admissible(2, 0.0)
        rost = random_gram_rost(3, 0.0, 0.05, np.random.default_rng(12))
        c = OverlapConstraint(4, 0)
        paths = {
            "split": (run_lemma2_curve(pure_p2, 3, 2, 0.0, t_grid, n_rep, seed),
                      lambda rep: _split_block(pure_p2, 3, 2, seed, range(rep, rep + 1)),
                      lambda tables, t: lemma2_phi_block(pure_p2, u_m, u_n, t, tables)[0]),
            "rost": (run_lemma3_curve(rost, pure_p2, c, t_grid, n_rep, seed),
                     lambda rep: lemma3_states(rost, pure_p2, 4, seed, range(rep, rep + 1)),
                     lambda states, t: lemma3_phi_block(states, pure_p2, c, t)[0]),
        }
        for run, draw, phi in paths.values():
            inputs = [draw(rep) for rep in range(n_rep)]
            for j, t in enumerate(t_grid):
                t_lo, t_hi = max(0.0, t - FD_STEP), min(1.0, t + FD_STEP)
                values = np.array([phi(x, t) for x in inputs])
                slopes = np.array([(phi(x, t_hi) - phi(x, t_lo)) / (t_hi - t_lo)
                                   for x in inputs])
                assert (run.phi[j].mean, run.phi[j].stderr) == summarize(values)
                assert (run.dphi_fd[j].mean, run.dphi_fd[j].stderr) == summarize(slopes)

    @pytest.mark.parametrize("mean, stderr, sigmas, nonpositive", [
        (1.5, 0.5, 3.0, True), (2.0, 0.5, 4.0, False), (-1.0, 0.5, -2.0, True),
        # a zero stderr: a positive mean is above zero, whatever its size
        (1e-9, 0.0, math.inf, False), (0.0, 0.0, 0.0, True), (-1.0, 0.0, -math.inf, True),
    ])
    def test_one_rule_for_sigmas_above_zero(self, mean, stderr, sigmas, nonpositive):
        est = Estimate(mean=mean, stderr=stderr, n_rep=10, seed=0)
        assert sigmas_above_zero(est) == sigmas
        assert (sigmas_above_zero(est) <= ABOVE_ZERO_SIGMAS) is nonpositive

    def test_rejects_t_outside_unit_interval(self, pure_p2):
        rost = random_gram_rost(3, 0.0, 0.05, np.random.default_rng(10))
        c = OverlapConstraint(4, 0)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            run_lemma2_curve(pure_p2, 3, 3, 0.0, (1.5,), 2, seed=0)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            run_lemma3_curve(rost, pure_p2, c, (-0.2,), 2, seed=0)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            _lemma3_pass(rost, pure_p2, c, (), (float("nan"),), 2, seed=0)


class TestOneStatePerReplica:
    """Every t and every statistic of a curve reads one draw per replica."""

    T_GRID = (0.25, 0.5, 0.75)
    N_REP = 5

    @pytest.fixture
    def states(self, monkeypatch):
        """The replicas whose states are built, one entry per replica."""
        replicas = []
        lemma3_states = interpolation.lemma3_states

        def counted(rost, spec, n, root, block, sampler="tensor"):
            replicas.extend(block)
            return lemma3_states(rost, spec, n, root, block, sampler)

        monkeypatch.setattr(interpolation, "lemma3_states", counted)
        return replicas

    def test_split_curve_draws_three_tables_per_replica(self, pure_p2, monkeypatch):
        draws = []
        sample_block = TensorSampler.sample_block

        def counted(self, seeds):
            draws.extend(seeds)
            return sample_block(self, seeds)

        monkeypatch.setattr(TensorSampler, "sample_block", counted)
        run_lemma2_curve(pure_p2, 3, 3, 0.0, self.T_GRID, self.N_REP, seed=1)
        assert len(draws) == 3 * self.N_REP

    def test_structure_curve_builds_one_state_per_replica(self, pure_p2, states):
        rost = random_gram_rost(3, 0.0, 0.05, np.random.default_rng(10))
        run_lemma3_curve(rost, pure_p2, OverlapConstraint(4, 0), self.T_GRID, self.N_REP,
                         seed=2)
        assert sorted(states) == list(range(self.N_REP))

    def test_structure_bound_builds_one_state_per_replica(self, pure_p2, states):
        rost = random_gram_rost(3, 0.0, 0.05, np.random.default_rng(11))
        c = OverlapConstraint(4, 0)
        g = Estimate(mean=1.0, stderr=0.04, n_rep=10, seed=0)
        structure_bound_check(rost, pure_p2, c, g, GEstimate(g, g, g), self.T_GRID,
                              self.N_REP, seed=3)
        assert sorted(states) == list(range(self.N_REP))


class TestOneEvaluationPerReplicaAndT:
    """A curve evaluates each replica's exact-Gibbs derivative once per grid t
    and takes that t's path value from it; phi alone runs only at the
    finite-difference ends.  The kernels run on replica blocks, so each call
    counts the replica rows it evaluates."""

    T_GRID = (0.25, 0.5, 0.75)
    N_REP = 4

    def _count(self, monkeypatch, rows, *names):
        """Rows evaluated per block kernel; rows(args) is a call's row count."""
        calls = {name: 0 for name in names}
        for name in names:
            fn = getattr(interpolation, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += rows(args)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(interpolation, name, counted)
        return calls

    def _split_rows(self, spec, monkeypatch):
        calls = self._count(monkeypatch, lambda args: len(args[4][0].values),
                            "lemma2_derivative_block", "lemma2_phi_block")
        run_lemma2_curve(spec, 3, 3, 0.0, self.T_GRID, self.N_REP, seed=1)
        return calls

    def _structure_rows(self, spec, monkeypatch):
        calls = self._count(monkeypatch, lambda args: len(args[0].w),
                            "lemma3_derivative_block", "lemma3_phi_block")
        rost = random_gram_rost(3, 0.0, 0.05, np.random.default_rng(10))
        run_lemma3_curve(rost, spec, OverlapConstraint(4, 0), self.T_GRID, self.N_REP,
                         seed=2)
        return calls

    def test_split_curve(self, pure_p2, monkeypatch):
        assert self._split_rows(pure_p2, monkeypatch) == {
            "lemma2_derivative_block": 3 * self.N_REP, "lemma2_phi_block": 6 * self.N_REP}

    def test_structure_curve(self, pure_p2, monkeypatch):
        assert self._structure_rows(pure_p2, monkeypatch) == {
            "lemma3_derivative_block": 3 * self.N_REP, "lemma3_phi_block": 6 * self.N_REP}

    def test_one_replica_blocks_count_the_same_rows(self, pure_p2, monkeypatch):
        monkeypatch.setattr(parallel, "BLOCK_DOUBLES", 1)
        assert self._split_rows(pure_p2, monkeypatch) == {
            "lemma2_derivative_block": 3 * self.N_REP, "lemma2_phi_block": 6 * self.N_REP}
        assert self._structure_rows(pure_p2, monkeypatch) == {
            "lemma3_derivative_block": 3 * self.N_REP, "lemma3_phi_block": 6 * self.N_REP}

    @pytest.mark.parametrize("t", [0.0, 0.3, 0.5, 1.0])
    def test_derivative_path_value_is_phi(self, pure_p2, mixed_even, t):
        u_m, u_n = nearest_admissible(3, 1 / 3), nearest_admissible(2, 0.0)
        for spec in (pure_p2, mixed_even):
            for rep in range(2):
                tables = _split_block(spec, 3, 2, 13, range(rep, rep + 1))
                value, _ = lemma2_derivative_block(spec, u_m, u_n, t, tables,
                                                   _bracket_spectra(spec, 3, 2))[0]
                assert value == lemma2_phi_block(spec, u_m, u_n, t, tables)[0]
        rost = random_gram_rost(3, 0.2, 0.05, np.random.default_rng(13))
        c = nearest_admissible(4, 0.2)
        for spec in (pure_p2, mixed_even):
            for rep in range(2):
                states = lemma3_states(rost, spec, 4, 13, range(rep, rep + 1))
                value, _, _ = lemma3_derivative_block(states, _lemma3_terms(rost, spec, c),
                                                      spec, c, t)[0]
                assert value == lemma3_phi_block(states, spec, c, t)[0]


class TestOneTransformPerArray:
    """Each class indicator is held as its Walsh spectrum, each weight array
    is transformed once, and no copy-pair law is transformed back."""

    @pytest.fixture
    def fwht_calls(self, monkeypatch):
        calls = []
        fwht = bits.fwht

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return fwht(*args, **kwargs)

        for module in (bits, interpolation):
            monkeypatch.setattr(module, "fwht", counted)
        return calls

    def test_calls_per_replica_function(self, mixed_even, fwht_calls):
        u3 = nearest_admissible(3, 1 / 3)
        tables = _split_block(mixed_even, 3, 3, 1, range(1))
        b_hats = _bracket_spectra(mixed_even, 3, 3)
        rost = random_gram_rost(3, 0.0, 0.05, np.random.default_rng(3))
        states = lemma3_states(rost, mixed_even, 4, 1, range(1))
        c = OverlapConstraint(4, 0)
        terms = _lemma3_terms(rost, mixed_even, c)
        evaluations = {
            "lemma2_phi_block": lambda: lemma2_phi_block(mixed_even, u3, u3, 0.5, tables),
            "lemma2_derivative_block":
                lambda: lemma2_derivative_block(mixed_even, u3, u3, 0.5, tables, b_hats),
            "lemma3_phi_block": lambda: lemma3_phi_block(states, mixed_even, c, 0.5),
            "lemma3_derivative_block":
                lambda: lemma3_derivative_block(states, terms, mixed_even, c, 0.5),
        }
        counts = {}
        for name, evaluate in evaluations.items():
            evaluate()  # the first call caches the class tables
            before = len(fwht_calls)
            evaluate()
            counts[name] = len(fwht_calls) - before
        # phi: copy 2's weights there and back; the derivative also copy 1's
        # and each conditional law once, paired in the Walsh domain
        assert counts == {"lemma2_phi_block": 2, "lemma2_derivative_block": 6,
                          "lemma3_phi_block": 2, "lemma3_derivative_block": 6}
        # a replica's rows are its structure elements (one on the split path);
        # an element-pair axis would give rost.m ** 2 rows
        assert max(math.prod(shape[:-1]) for shape in fwht_calls) <= rost.m

    def test_one_pair_sum_per_row(self, mixed_even, monkeypatch):
        # each derivative evaluation takes and checks each row's class pair
        # sum once, and both copies' laws and the path value read it
        checked = []
        positive_sums = interpolation.positive_sums

        def counted(z):
            checked.append(np.shape(z))
            return positive_sums(z)

        monkeypatch.setattr(interpolation, "positive_sums", counted)
        u3 = nearest_admissible(3, 1 / 3)
        tables = _split_block(mixed_even, 3, 3, 1, range(2))
        lemma2_derivative_block(mixed_even, u3, u3, 0.5, tables,
                                _bracket_spectra(mixed_even, 3, 3))
        assert checked == [(2,)]
        checked.clear()
        rost = random_gram_rost(3, 0.0, 0.05, np.random.default_rng(3))
        states = lemma3_states(rost, mixed_even, 4, 1, range(2))
        c = OverlapConstraint(4, 0)
        lemma3_derivative_block(states, _lemma3_terms(rost, mixed_even, c), mixed_even,
                                c, 0.5)
        assert checked == [(2, rost.m)]


class TestWindowProfile:
    def test_zero_disorder_exact_gaps(self, zero_mixture):
        prof = window_gap_profile(zero_mixture, OverlapConstraint(6, 0), (0.0, 0.5, 1.0), 3,
                                  seed=0)
        total = sum(math.comb(6, d) for d in (2, 3, 4))
        expected = math.log(total / math.comb(6, 3)) / 6
        assert prof["gap_mean"][1] == pytest.approx(expected, abs=1e-12)
        assert prof["gap_stderr"][1] == 0.0
        assert prof["min_gap"] >= 0.0

    def test_zero_disorder_has_no_excess(self, zero_mixture):
        prof = window_gap_profile(zero_mixture, OverlapConstraint(6, 0), (0.0, 0.25, 0.5, 1.0),
                                  3, seed=0)
        assert prof["fitted_constant"] > 0.2
        assert prof["excess_constant"] == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("seed", [4, 6])
    def test_lattice_steps_fail_no_trend(self, pure_p2, seed):
        # at n 4, 6 and 8 the raw constant's trend read t = 2.18 and 5.10 on
        # these seeds; the counting gaps alone step up from 6 to 8
        n_list = (4, 6, 8)
        profiles = {n: window_gap_profile(pure_p2, OverlapConstraint(n, 0),
                                          (0.0, 0.25, 0.5, 1.0), 200, seed)
                    for n in n_list}
        check = window_constant_check(n_list, profiles)
        assert check["trend_assessed"] and check["pass"]
        assert check["slope_tstat"] < -5.0

    def test_gap_nonnegative_per_replica(self, pure_p2):
        prof = window_gap_profile(pure_p2, OverlapConstraint(6, 0), (0.0, 0.5, 1.0), 50, seed=1)
        assert prof["min_gap"] >= -1e-12

    def test_requires_zero_baseline(self, pure_p2):
        with pytest.raises(ValueError, match="start at 0"):
            window_gap_profile(pure_p2, OverlapConstraint(6, 0), (0.5, 1.0), 5, seed=0)


def _size_checks(spec, u, n_list, n_rep, seed, eps_grid=(0.0, 0.25, 0.5, 1.0)):
    """The window-constant and superadditivity checks over n_list."""
    profiles = {
        n: window_gaps(overlap_logz_replicas(spec, n, n_rep, seed),
                       nearest_admissible(n, u).k, eps_grid)
        for n in n_list
    }
    return [
        window_constant_check(n_list, profiles),
        superadditivity_check(spec, u, n_list, n_rep, seed),
    ]


class TestVerdictSuite:
    def test_zero_disorder_all_pass(self, zero_mixture):
        rost = random_gram_rost(3, 0.0, 0.05, np.random.default_rng(0))
        c = nearest_admissible(4, 0.0)
        f_est = estimate_F(zero_mixture, c, 3, 0)
        g_est = estimate_G(rost, zero_mixture, c, 3, 0)
        checks = _size_checks(zero_mixture, 0.0, (4, 6), 3, 0) + [
            structure_bound_check(rost, zero_mixture, c, f_est, g_est, (0.5,), 3, 0)
        ]
        assert all(ch["pass"] for ch in checks), checks
        names = {ch["check"] for ch in checks}
        assert names == {"window-constant", "superadditivity", "structure-upper-bound"}

    def test_real_mixture_passes(self, pure_p2):
        checks = _size_checks(pure_p2, 0.0, (4, 6), 150, 3)
        assert all(ch["pass"] for ch in checks), checks

    def test_superadd_fits_each_unordered_pair_once(self, pure_p2):
        # a mirror pair (n, m) repeats (m, n)'s deficit from the same F's; the
        # trend fit must not weigh that one point twice
        res = superadditivity_check(pure_p2, 0.0, (3, 4, 5, 6, 4), 4, seed=0)
        pairs = [tuple(p) for p in res["sizes"]]
        assert pairs == [(m, n) for m in range(3, 7) for n in range(m, min(2 * m, 6) + 1)]
        assert len(res["normalized_deficit_stderrs"]) == len(pairs)
        assert res["trend_assessed"]

    def test_superadd_estimates_each_size_once(self, pure_p2, monkeypatch):
        # each size's F is estimated once, in the order the pairs first read
        # it as m, n and m + n, each from root seed + 104729 * size
        calls = []

        def recorded(spec, c, n_rep, seed, sampler="tensor", threads=1):
            calls.append((c.n, seed))
            return Estimate(mean=0.1 * c.n, stderr=0.01, n_rep=n_rep, seed=seed)

        monkeypatch.setattr(interpolation, "estimate_F", recorded)
        superadditivity_check(pure_p2, 0.0, (3, 4, 5, 6, 4), 4, seed=9)
        assert calls == [(n, 9 + 104729 * n) for n in (3, 6, 4, 7, 5, 8, 9, 10, 11, 12)]

    def test_structure_margin_is_four_sigma(self, pure_p2):
        rost = random_gram_rost(3, 0.0, 0.05, np.random.default_rng(11))
        c = OverlapConstraint(4, 0)
        bound = first_sum_bound(rost, mixture_functions(pure_p2), c.u)

        def check(f_mean):
            f_est = Estimate(mean=f_mean, stderr=0.03, n_rep=10, seed=0)
            g = Estimate(mean=1.0, stderr=0.04, n_rep=10, seed=0)
            return structure_bound_check(rost, pure_p2, c, f_est, GEstimate(g, g, g), (0.5,),
                                         10, seed=0)

        assert STRUCTURE_MARGIN_SIGMAS == 4.0
        assert check(1.0)["margin"] == pytest.approx(4.0 * 0.05, rel=1e-15)
        assert check(1.0 + bound + 0.19)["pass"]
        assert not check(1.0 + bound + 0.21)["pass"]

    def test_structure_bound_needs_a_t(self, pure_p2):
        rost = random_gram_rost(3, 0.0, 0.05, np.random.default_rng(11))
        g = Estimate(mean=1.0, stderr=0.04, n_rep=10, seed=0)
        with pytest.raises(ValueError, match="at least one t"):
            structure_bound_check(rost, pure_p2, OverlapConstraint(4, 0), g,
                                  GEstimate(g, g, g), (), 10, seed=0)
