"""Constrained partition sums, cavity ladders, and structure functionals."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from coupledsk.bits import magnetizations, popcounts, spin_matrix, split_popcounts
from coupledsk import free_energy
from coupledsk.configurations import OverlapConstraint, nearest_admissible
from coupledsk.disorder import (
    ExplicitSystemSampler,
    FixedWeights,
    RostFieldSampler,
    RostInvalidError,
    RostSpec,
    explicit_fields_psd,
    get_explicit_sampler,
    get_sampler,
    random_gram_rost,
)
from coupledsk.free_energy import logsumexp as own_logsumexp
from coupledsk.free_energy import (
    EXPLICIT_VARIANTS,
    Estimate,
    NumericalError,
    cavity_logz_by_count,
    estimate_F,
    estimate_G,
    estimate_G_MN,
    explicit_terms_block,
    explicit_terms_replica,
    g_terms_block,
    overlap_logz_replicas,
    partition_by_overlap,
    window_estimate,
    window_values,
    _constrained_pairs,
)
from coupledsk.interpolation import run_lemma2_curve, run_lemma3_curve
from coupledsk.mixture import MixtureSpec, mixture_functions
from coupledsk.parallel import replica_seed, rng_for
from coupledsk.reference import (
    brute_cavity_logz,
    brute_explicit_terms,
    brute_overlap_logz,
    build_explicit_rost,
    explicit_full_table,
    zero_disorder_log_pair_count,
)


# log-weights drawn from a few values so that ties at the maximum are common
LOG_VALUES = st.one_of(
    st.sampled_from([-np.inf, -np.inf, -1.0, 0.0, -0.0, 2.5, 700.0]),
    st.floats(-800.0, 800.0, allow_nan=False),
)
WEIGHTS = st.one_of(st.just(0.0), st.floats(0.0, 1e300, allow_nan=False))


class TestLogSumExp:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_bit_identical_to_scipy(self, data):
        shape = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=2).map(tuple))
        size = math.prod(shape)
        a = np.array(data.draw(st.lists(LOG_VALUES, min_size=size, max_size=size))
                     ).reshape(shape)
        b = data.draw(st.none() | st.lists(WEIGHTS, min_size=size, max_size=size))
        b = None if b is None else np.array(b).reshape(shape)
        axis = data.draw(st.none() | st.integers(-len(shape), len(shape) - 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ours = own_logsumexp(a, axis=axis, b=b)
        with np.errstate(over="ignore"):  # scipy warns where s/m overflows, then falls back
            theirs = logsumexp(a, axis=axis, b=b)
        assert type(ours) is type(theirs)
        assert np.shape(ours) == np.shape(theirs)
        # bit for bit, sign of zero included, wherever the slice's weighted
        # sum is positive; where it is 0, -inf
        positive = np.any((a > -np.inf) & (True if b is None else b > 0), axis=axis)
        ours, theirs = np.asarray(ours), np.asarray(theirs)
        assert np.array_equal(ours[positive].view(np.int64), theirs[positive].view(np.int64))
        assert np.all(ours[~positive] == -np.inf)

    def test_zero_weight_slice_is_minus_inf(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0], [-np.inf, -np.inf]])
        b = np.array([[0.0, 0.0], [1.0, 0.5], [1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = own_logsumexp(a, axis=1, b=b)
            assert own_logsumexp(a[0], b=b[0]) == -np.inf
        assert out[0] == -np.inf and out[2] == -np.inf
        assert out[1] == logsumexp(a[1], b=b[1])


class TestPartitionByOverlap:
    def test_zero_disorder_counts(self, zero_mixture):
        table = get_sampler(zero_mixture, 6, "tensor").sample(0)
        log_z = partition_by_overlap(table, 0.0, 0.0)
        for d in range(7):
            expected = math.log(2**6 * math.comb(6, d))
            assert log_z[d] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_matches_brute_force(self, n, mixed_even):
        for rep in range(4):
            table = get_sampler(mixed_even, n, "tensor").sample(100 + rep)
            log_z = partition_by_overlap(table, mixed_even.h1, mixed_even.h2)
            mag = magnetizations(n)
            brute = brute_overlap_logz(
                table.values[0] + mixed_even.h1 * mag,
                table.values[1] + mixed_even.h2 * mag,
            )
            rel = np.abs(np.expm1(log_z - brute))
            assert rel.max() <= 1e-10

    def test_aligned_slice_reduces_to_single_loop(self, pure_p2):
        n = 5
        table = get_sampler(pure_p2, n, "tensor").sample(7)
        h1, h2 = 0.3, -0.2
        log_z = partition_by_overlap(table, h1, h2)
        mag = magnetizations(n)
        direct = logsumexp(table.values[0] + table.values[1] + (h1 + h2) * mag)
        assert log_z[0] == pytest.approx(float(direct), rel=1e-12)

    def test_total_equals_decoupled_product(self, mixed_even):
        n = 6
        table = get_sampler(mixed_even, n, "tensor").sample(3)
        log_z = partition_by_overlap(table, mixed_even.h1, mixed_even.h2)
        mag = magnetizations(n)
        product = logsumexp(table.values[0] + mixed_even.h1 * mag) + logsumexp(
            table.values[1] + mixed_even.h2 * mag
        )
        assert logsumexp(log_z) == pytest.approx(float(product), rel=1e-10)

    def test_rejects_non_finite(self, pure_p2):
        table = get_sampler(pure_p2, 4, "tensor").sample(0)
        bad = table.values.copy()
        bad[0, 3] = np.nan
        with pytest.raises(ValueError):
            from coupledsk.disorder import HamiltonianTable

            HamiltonianTable(n=4, values=bad)


class TestCavityLadder:
    def test_zero_fields(self):
        n = 6
        ladder = cavity_logz_by_count(np.zeros(n), np.zeros(n))
        for d in range(n + 1):
            assert ladder[d] == pytest.approx(
                math.log(2**n * math.comb(n, d)), abs=1e-12
            )

    def test_aligned_case(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(5), rng.standard_normal(5)
        expected = float(np.sum(np.logaddexp(a + b, -(a + b))))
        assert cavity_logz_by_count(a, b)[0] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_brute_force(self, n):
        rng = np.random.default_rng(n)
        for trial in range(5):
            a = rng.standard_normal(n) * 1.5
            b = rng.standard_normal(n) * 1.5
            ladder = cavity_logz_by_count(a, b)
            for d in range(n + 1):
                assert ladder[d] == pytest.approx(
                    brute_cavity_logz(a, b, d), rel=1e-10, abs=1e-10
                )

    def test_batched(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((7, 4))
        b = rng.standard_normal((7, 4))
        batch = cavity_logz_by_count(a, b)
        for i in range(7):
            np.testing.assert_allclose(batch[i], cavity_logz_by_count(a[i], b[i]))

    @pytest.mark.parametrize("scale", [1.0, 50.0, 400.0])
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_matches_brute_force_at_strong_fields(self, n, scale):
        # at scale 400 the classes span thousands of nats, more than the
        # range of a double, so no class may be formed outside the log domain
        for seed in range(3):
            rng = np.random.default_rng([n, int(scale), seed])
            a = rng.standard_normal(n) * scale
            b = rng.standard_normal(n) * scale
            ladder = cavity_logz_by_count(a, b)
            for d in range(n + 1):
                assert ladder[d] == pytest.approx(brute_cavity_logz(a, b, d), rel=1e-12)

    def test_batched_transposed_view_is_bit_equal(self):
        # the (m, n) field rows of a structure are a transposed, non-contiguous
        # view of the (n, 2, m) draw, as in g_terms_block
        z = np.random.default_rng(2).standard_normal((10, 2, 32)) * 3.0
        a, b = z[:, 0, :].T, z[:, 1, :].T
        assert not a.flags.c_contiguous
        batch = cavity_logz_by_count(a, b)
        for i in range(32):
            assert np.array_equal(batch[i], cavity_logz_by_count(a[i].copy(), b[i].copy()))

    @pytest.mark.parametrize("scale", [1.0, 50.0, 400.0])
    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_ladder_stopped_at_a_class_is_bit_equal(self, n, scale):
        rng = np.random.default_rng([n, int(scale)])
        a = rng.standard_normal((5, n)) * scale
        b = rng.standard_normal((5, n)) * scale
        full = cavity_logz_by_count(a, b)
        for d in range(n + 1):
            stopped = cavity_logz_by_count(a, b, d)
            assert stopped.shape == (5, d + 1)
            assert np.array_equal(stopped, full[:, :d + 1])

    def test_ladder_refuses_a_class_outside_the_counts(self):
        with pytest.raises(ValueError, match="outside"):
            cavity_logz_by_count(np.zeros(3), np.zeros(3), 4)
        with pytest.raises(ValueError, match="outside"):
            cavity_logz_by_count(np.zeros(3), np.zeros(3), -1)

    @settings(max_examples=25, deadline=None)
    @given(
        fields=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=8),
        d_frac=st.floats(0.0, 1.0),
    )
    def test_brute_force_property(self, fields, d_frac):
        n = len(fields) // 2
        if n == 0:
            return
        a = np.array(fields[:n])
        b = np.array(fields[n:2 * n])
        d = min(n, int(d_frac * (n + 1)))
        assert cavity_logz_by_count(a, b)[d] == pytest.approx(
            brute_cavity_logz(a, b, d), rel=1e-10, abs=1e-10
        )


class TestEstimateF:
    def test_zero_disorder_closed_form(self, zero_mixture):
        est = estimate_F(zero_mixture, OverlapConstraint(4, 2), 3, seed=0)
        assert est.mean == pytest.approx(math.log(64) / 4, abs=1e-13)
        assert est.stderr == 0.0

    def test_field_only_matches_cavity_ladder(self):
        spec = MixtureSpec(a1=(0.0,), a2=(0.0,), h1=0.4, h2=-0.3)
        n = 5
        c = nearest_admissible(n, 0.2)
        est = estimate_F(spec, c, 2, seed=1)
        expected = cavity_logz_by_count(np.full(n, spec.h1), np.full(n, spec.h2))[c.d] / n
        assert est.mean == pytest.approx(expected, rel=1e-12)
        assert est.stderr == 0.0

    def test_aligned_reduction_per_replica(self, mixed_even):
        n, seed = 5, 17
        c = OverlapConstraint(n, n)
        val = window_values(overlap_logz_replicas(mixed_even, n, 1, seed), c)[0]
        table = get_sampler(mixed_even, n, "tensor").sample(replica_seed(seed, 0))
        mag = magnetizations(n)
        direct = logsumexp(
            table.values[0] + table.values[1] + (mixed_even.h1 + mixed_even.h2) * mag
        )
        assert val == pytest.approx(float(direct) / n, rel=1e-12)

    def test_rejects_window_constraint(self, pure_p2):
        with pytest.raises(ValueError, match="exact"):
            estimate_F(pure_p2, OverlapConstraint(4, 0, eps=0.5), 2, seed=0)

    def test_single_replica_rejected(self, pure_p2):
        with pytest.raises(ValueError, match="replicas"):
            estimate_F(pure_p2, OverlapConstraint(4, 0), 1, seed=0)


class TestOverlapLogzReplicas:
    def test_rows_are_per_replica_partitions(self, mixed_even):
        n, seed = 5, 13
        rows = overlap_logz_replicas(mixed_even, n, 4, seed)
        assert rows.shape == (4, n + 1)
        for rep in range(4):
            table = get_sampler(mixed_even, n, "tensor").sample(replica_seed(seed, rep))
            log_z = partition_by_overlap(table, mixed_even.h1, mixed_even.h2)
            np.testing.assert_array_equal(rows[rep], log_z)

    def test_window_values_match_partition_windows(self, mixed_even):
        n, seed = 6, 14
        rows = overlap_logz_replicas(mixed_even, n, 3, seed)
        for eps in (0.0, 0.25, 1.0):
            c = OverlapConstraint(n, 2, eps=eps)
            for rep in range(3):
                table = get_sampler(mixed_even, n, "tensor").sample(replica_seed(seed, rep))
                log_z = partition_by_overlap(table, mixed_even.h1, mixed_even.h2)
                d_lo, d_hi = c.window_disagreement_range()
                assert window_values(rows, c)[rep] == float(logsumexp(log_z[d_lo:d_hi + 1])) / n

    @pytest.mark.parametrize("sampler", ["tensor", "process"])
    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_p1_identity_up_to_the_cap(self, n, sampler):
        # at p = 1 copy l's log-weight is sum_i (a_l g_i + h_l) sigma_i on one
        # shared g, so log Z(d) is the per-site ladder's: an oracle where
        # brute force would cost 4**n pairs a table.  The tensor route draws
        # g itself; the process route's g is fitted to copy 1's table, and
        # copy 2 must be a_2 / a_1 times copy 1 for the identity to hold
        spec = MixtureSpec(a1=(1.0,), a2=(0.7,), h1=0.2, h2=-0.1)
        seed, n_rep = 31, 4
        rows = overlap_logz_replicas(spec, n, n_rep, seed, sampler)
        for rep in range(n_rep):
            if sampler == "tensor":
                g = np.random.default_rng(replica_seed(seed, rep)).standard_normal(n)
            else:
                table = get_sampler(spec, n, sampler).sample(replica_seed(seed, rep))
                g = np.linalg.lstsq(spin_matrix(n), table.values[0], rcond=None)[0] / spec.a1[0]
            ladder = cavity_logz_by_count(spec.a1[0] * g + spec.h1, spec.a2[0] * g + spec.h2)
            np.testing.assert_allclose(rows[rep], ladder, rtol=0, atol=1e-9)


class TestEstimateFWindow:
    def test_zero_width_equals_exact(self, pure_p2):
        c0 = OverlapConstraint(6, 0)
        cw = OverlapConstraint(6, 0, eps=0.0)
        a = estimate_F(pure_p2, c0, 5, seed=3)
        b = window_estimate(overlap_logz_replicas(pure_p2, 6, 5, 3), cw, 3)
        assert a.mean == b.mean and a.stderr == b.stderr

    def test_full_window_is_decoupled_total(self, mixed_even):
        n, seed = 5, 11
        c = OverlapConstraint(n, 1, eps=2.0)
        val = window_values(overlap_logz_replicas(mixed_even, n, 1, seed), c)[0]
        table = get_sampler(mixed_even, n, "tensor").sample(replica_seed(seed, 0))
        log_z = partition_by_overlap(table, mixed_even.h1, mixed_even.h2)
        assert val == pytest.approx(logsumexp(log_z) / n, rel=1e-12)

    def test_monotone_in_width_per_replica(self, pure_p2):
        n, seed = 6, 5
        prev = None
        for eps in (0.0, 0.25, 0.5, 1.0, 2.0):
            c = OverlapConstraint(n, 0, eps=eps)
            val = window_values(overlap_logz_replicas(pure_p2, n, 1, seed), c)[0]
            if prev is not None:
                assert val >= prev - 1e-13
            prev = val


class TestSizeMismatches:
    """A constraint whose size differs from its rows' or its draws' raises
    before any arithmetic."""

    @pytest.mark.parametrize("c", [OverlapConstraint(4, 0), OverlapConstraint(8, 0, eps=0.5)])
    def test_window_rows_of_another_size(self, pure_p2, c):
        rows = overlap_logz_replicas(pure_p2, 6, 2, 3)
        with pytest.raises(ValueError, match="classes"):
            window_values(rows, c)
        with pytest.raises(ValueError, match="classes"):
            window_estimate(rows, c, 3)

    @pytest.mark.parametrize("m, n", [(4, 3), (3, 5)])
    def test_explicit_draws_of_another_size(self, mixed_even, m, n):
        draws = get_explicit_sampler(mixed_even, 3, 3).sample_block([replica_seed(4, 0)])
        with pytest.raises(ValueError, match="base and increment sizes"):
            explicit_terms_block(draws, mixed_even, nearest_admissible(m, 0.0),
                                 nearest_admissible(n, 0.0))


class TestEstimateG:
    def test_zero_mixture_weights_drop_out(self, zero_mixture):
        c = OverlapConstraint(4, 2)
        rost = random_gram_rost(4, 0.5, 0.05, np.random.default_rng(2))
        g = estimate_G(rost, zero_mixture, c, 3, seed=1)
        assert g.diff.mean == pytest.approx(math.log(64) / 4, abs=1e-13)
        assert g.diff.stderr == 0.0
        assert g.term2.mean == 0.0

    def test_single_element_reduction(self, pure_p2):
        u = 0.0
        c = OverlapConstraint(4, 0)
        rost = RostSpec(
            q11=np.ones((1, 1)), q12=np.zeros((1, 1)), q22=np.ones((1, 1)),
            weights=FixedWeights((1.0,)), delta=0.0, u=u,
        )
        sampler = RostFieldSampler(rost, mixture_functions(pure_p2))
        t1, t2 = g_terms_block(rost, pure_p2, c, 5, range(1))[0]
        fields = sampler.sample(rng_for(5, 0, stream=1), 4)
        direct1 = cavity_logz_by_count(
            fields.z[:, 0, 0] + pure_p2.h1, fields.z[:, 1, 0] + pure_p2.h2
        )[c.d] / 4
        direct2 = float(np.sqrt(4) * (fields.y[0, 0] + fields.y[1, 0])) / 4
        assert t1 == pytest.approx(direct1, rel=1e-12)
        assert t2 == pytest.approx(direct2, rel=1e-12)

    def test_weight_scaling_invariance(self, pure_p2):
        c = OverlapConstraint(4, 0)
        rost_a = random_gram_rost(
            3, 0.0, 0.05, np.random.default_rng(4), weights=FixedWeights((1.0, 1.0, 2.0))
        )
        rost_b = RostSpec(
            q11=rost_a.q11, q12=rost_a.q12, q22=rost_a.q22,
            weights=FixedWeights((0.25, 0.25, 0.5)), delta=rost_a.delta, u=rost_a.u,
        )
        ga = estimate_G(rost_a, pure_p2, c, 4, seed=9)
        gb = estimate_G(rost_b, pure_p2, c, 4, seed=9)
        assert ga.diff.mean == gb.diff.mean

    def test_element_relabeling_invariance(self, pure_p2):
        # permuting the sampled element arrays leaves both reductions unchanged
        c = OverlapConstraint(4, 0)
        rost = random_gram_rost(4, 0.0, 0.05, np.random.default_rng(5))
        sampler = RostFieldSampler(rost, mixture_functions(pure_p2))
        w = np.array([0.1, 0.2, 0.3, 0.4])
        fields = sampler.sample(rng_for(8, 0, stream=1), 4)
        log_b = np.array([
            cavity_logz_by_count(fields.z[:, 0, a] + pure_p2.h1,
                                 fields.z[:, 1, a] + pure_p2.h2)[c.d]
            for a in range(4)
        ])
        perm = np.array([2, 0, 3, 1])
        t1 = logsumexp(log_b, b=w)
        t1p = logsumexp(log_b[perm], b=w[perm])
        assert t1 == pytest.approx(t1p, rel=1e-14)

    def test_site_permutation_invariance(self, pure_p2):
        rng = np.random.default_rng(6)
        a = rng.standard_normal(5)
        b = rng.standard_normal(5)
        c = OverlapConstraint(5, 1)
        perm = rng.permutation(5)
        assert cavity_logz_by_count(a, b)[c.d] == pytest.approx(
            cavity_logz_by_count(a[perm], b[perm])[c.d], rel=1e-13
        )


def _per_pair_explicit_terms(draw, r1, r2, spec, u_prime, variant):
    """brute_explicit_terms replayed one base pair at a time: one logsumexp
    over each pair's selected energies."""
    n = draw.n
    mag_m = magnetizations(draw.m)
    z = draw.z if variant == "limit" else draw.z_finite
    y = draw.y if variant == "limit" else draw.y_finite
    s = spin_matrix(n)
    pop = popcounts(n)
    pair_ok = pop[np.arange(1 << n)[:, None] ^ np.arange(1 << n)[None, :]] == u_prime.d
    terms1, terms2 = [], []
    for rho1, rho2 in zip(r1, r2):
        log_w = (draw.trunc[0, rho1] + draw.trunc[1, rho2]
                 + spec.h1 * mag_m[rho1] + spec.h2 * mag_m[rho2])
        e1 = s @ (z[:, 0, rho1] + spec.h1)
        e2 = s @ (z[:, 1, rho2] + spec.h2)
        terms1.append(log_w + own_logsumexp((e1[:, None] + e2[None, :])[pair_ok]))
        terms2.append(log_w + np.sqrt(n) * (y[0, rho1] + y[1, rho2]))
    return (float(own_logsumexp(np.array(terms1))) / n,
            float(own_logsumexp(np.array(terms2))) / n)


class TestExplicitStructure:
    def test_diagonals_and_delta(self, pure_p2):
        u_m = nearest_admissible(4, 0.3)
        rost = build_explicit_rost(u_m, 0.3)
        np.testing.assert_array_equal(np.diag(rost.q12), u_m.u)
        np.testing.assert_array_equal(np.diag(rost.q11), 1.0)
        np.testing.assert_array_equal(np.diag(rost.q22), 1.0)
        assert rost.delta == abs(u_m.u - 0.3)

    def test_blocks_admit_fields(self, pure_p2):
        u_m = nearest_admissible(4, 0.0)
        rost = build_explicit_rost(u_m, 0.0)
        RostFieldSampler(rost, mixture_functions(pure_p2))  # PSD or it raises

    @pytest.mark.parametrize("spec, m, u", [
        (MixtureSpec(a1=(0.0, 0.5), a2=(0.0, 0.5)), 3, 0.0),
        # criterion 10's input, whose dense blocks only this case factors
        (MixtureSpec(a1=(0.0, 0.5), a2=(0.0, 0.5)), 6, 0.0),
        (MixtureSpec(a1=(0.0, 0.6, 0.0, 0.2), a2=(0.0, 0.4, 0.0, 0.3), h1=0.2), 5, 0.2),
        (MixtureSpec(a1=(0.3, 0.5, 0.2), a2=(0.1, 0.4, 0.1)), 4, 0.5),
        (MixtureSpec(a1=(0.3, 0.5, 0.2), a2=(0.1, 0.4, 0.1)), 4, 1.0),
        (MixtureSpec(a1=(0.0,), a2=(0.0,)), 4, 0.0),
    ], ids=["p2-m3", "p2-m6", "even-m5", "odd-m4", "odd-m4-d0", "zero-m4"])
    def test_walsh_psd_verdict_is_the_field_samplers(self, spec, m, u):
        u_m = nearest_admissible(m, u)
        funcs = mixture_functions(spec)
        try:
            RostFieldSampler(build_explicit_rost(u_m, u), funcs)
            dense = True
        except RostInvalidError:
            dense = False
        assert explicit_fields_psd(funcs, u_m) == dense

    @pytest.mark.parametrize("indefinite", ["xi_prime", "theta"])
    def test_indefinite_entry_function_refused_by_both_routes(self, pure_p2, indefinite):
        class CrossHeavy:
            """One entry function's cross block is twice its diagonal ones,
            so that block matrix is indefinite; the other stays PSD."""

            def __init__(self, funcs):
                self.funcs = funcs

            def xi_prime(self, ell, ellp, x):
                return self._entry("xi_prime", ell, ellp, x)

            def theta(self, ell, ellp, x):
                return self._entry("theta", ell, ellp, x)

            def _entry(self, name, ell, ellp, x):
                heavy = 2.0 if name == indefinite and ell != ellp else 1.0
                return heavy * getattr(self.funcs, name)(1, 1, x)

        funcs = CrossHeavy(mixture_functions(pure_p2))
        u_m = nearest_admissible(4, 0.0)
        with pytest.raises(RostInvalidError, match="not positive semidefinite"):
            RostFieldSampler(build_explicit_rost(u_m, 0.0), funcs)
        assert not explicit_fields_psd(funcs, u_m)

    def test_estimate_G_refuses_weightless_structure(self, pure_p2):
        u_m = nearest_admissible(4, 0.0)
        rost = build_explicit_rost(u_m, 0.0)
        assert rost.weights is None
        with pytest.raises(RostInvalidError, match="weight law"):
            estimate_G(rost, pure_p2, OverlapConstraint(4, 0), 2, seed=0)

    def test_both_variants_from_one_draw(self, mixed_even):
        m = n = 3
        u_m = nearest_admissible(m, 0.0)
        u_p = nearest_admissible(n, 0.0)
        g_lim, g_fin = estimate_G_MN(mixed_even, u_m, u_p, 4, seed=8)
        for g, variant in ((g_lim, "limit"), (g_fin, "finite")):
            terms = [
                explicit_terms_replica(mixed_even, m, n, u_m, u_p, variant, replica_seed(8, rep))
                for rep in range(4)
            ]
            assert g.term1.mean == np.mean([t.term1 for t in terms])
            assert g.term2.mean == np.mean([t.term2 for t in terms])
            assert g.diff.label == f"G_MN(m={m},n={n},{variant})"

    def test_both_variants_share_one_ladder_call(self, mixed_even, monkeypatch):
        calls = []
        ladder_class = free_energy._ladder_class

        def counted(a, b, d):
            calls.append(a.shape)
            return ladder_class(a, b, d)

        monkeypatch.setattr(free_energy, "_ladder_class", counted)
        u_m = nearest_admissible(3, 0.0)
        draws = get_explicit_sampler(mixed_even, 3, 3).sample_block(
            [replica_seed(4, rep) for rep in range(3)])
        terms = explicit_terms_block(draws, mixed_even, u_m, nearest_admissible(3, 0.0))
        assert terms.shape == (3, len(EXPLICIT_VARIANTS), 3)
        assert len(calls) == 1

    def test_zero_mixture_value(self, zero_mixture):
        u_m = nearest_admissible(4, 0.0)
        u_p = OverlapConstraint(4, 0)
        g, _ = estimate_G_MN(zero_mixture, u_m, u_p, 3, seed=2)
        assert g.diff.mean == pytest.approx(zero_disorder_log_pair_count(4, 2), abs=1e-13)
        assert g.diff.stderr == 0.0

    @pytest.mark.parametrize("variant", ["limit", "finite"])
    def test_dual_path_oracle(self, mixed_even, variant):
        m = n = 3
        u_m = nearest_admissible(m, 0.0)
        u_p = nearest_admissible(n, 0.0)
        sampler = ExplicitSystemSampler(mixed_even, m, n)
        r1, r2 = _constrained_pairs(m, u_m.d)
        for rep in range(3):
            seed = replica_seed(31, rep)
            t = explicit_terms_replica(mixed_even, m, n, u_m, u_p, variant, seed)
            draw = sampler.sample(seed)
            bt1, bt2 = brute_explicit_terms(draw, r1, r2, mixed_even, u_p, variant)
            assert t.term1 + t.log_norm == pytest.approx(bt1, abs=1e-10)
            assert t.term2 + t.log_norm == pytest.approx(bt2, abs=1e-10)

    @pytest.mark.parametrize("variant", ["limit", "finite"])
    @pytest.mark.parametrize("m, n, u", [(3, 4, 0.0), (5, 6, 0.2)])
    def test_chunked_oracle_is_the_per_pair_replay(self, mixed_even, variant, m, n, u):
        # at (5, 6) the 320 base pairs span seven chunks, the last partial
        u_m = nearest_admissible(m, u)
        u_p = nearest_admissible(n, 0.0)
        r1, r2 = _constrained_pairs(m, u_m.d)
        for rep in range(2):
            draw = ExplicitSystemSampler(mixed_even, m, n).sample(replica_seed(13, rep))
            assert (brute_explicit_terms(draw, r1, r2, mixed_even, u_p, variant)
                    == _per_pair_explicit_terms(draw, r1, r2, mixed_even, u_p, variant))

    @pytest.mark.parametrize("variant", ["limit", "finite"])
    def test_lost_cavity_class_raises(self, variant):
        # fields of 400 per site put the ladder's classes thousands of nats
        # apart; the log-domain ladder keeps every one of them
        spec = MixtureSpec(a1=(0.0,), a2=(0.0,), h1=400.0, h2=400.0)
        u_m = nearest_admissible(3, 0.0)
        u_p = OverlapConstraint(4, 0)
        r1, r2 = _constrained_pairs(3, u_m.d)
        t = explicit_terms_replica(spec, 3, 4, u_m, u_p, variant, 1)
        draw = ExplicitSystemSampler(spec, 3, 4).sample(1)
        bt1, bt2 = brute_explicit_terms(draw, r1, r2, spec, u_p, variant)
        assert t.term1 + t.log_norm == pytest.approx(bt1, abs=1e-10)
        assert t.term2 + t.log_norm == pytest.approx(bt2, abs=1e-10)
        # fields too large for a double overflow in a + b: that class is lost
        huge = MixtureSpec(a1=(0.0,), a2=(0.0,), h1=1e308, h2=1e308)
        with pytest.raises(NumericalError, match="lost disagreement class d=2"):
            explicit_terms_replica(huge, 3, 4, u_m, u_p, variant, 1)

    def test_variant_gap_shrinks_with_base_size(self, pure_p2):
        # same draws for both variants, so the per-replica gap isolates the
        # normalization difference; aligned base constraint keeps the element
        # set at 2**m entries, which makes the largest size affordable
        n = 2
        u_p = OverlapConstraint(n, 0)
        gaps = []
        for m in (4, 8, 12):
            u_m = OverlapConstraint(m, m)
            per_rep = []
            for rep in range(150):
                s = replica_seed(5, rep)
                lim = explicit_terms_replica(pure_p2, m, n, u_m, u_p, "limit", s)
                fin = explicit_terms_replica(pure_p2, m, n, u_m, u_p, "finite", s)
                per_rep.append(abs((lim.term1 - lim.term2) - (fin.term1 - fin.term2)))
            gaps.append(float(np.mean(per_rep)))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_split_free_energy_dominates_truncated_cavity(self, pure_p2):
        """The full split-system free energy exceeds the one-new-coordinate
        truncation in expectation (the dropped remainder is independent and
        centered)."""
        m = n = 3
        u_m = nearest_admissible(m, 0.0)
        u_p = nearest_admissible(n, 0.0)
        sampler = ExplicitSystemSampler(pure_p2, m, n)
        r1, r2 = _constrained_pairs(m, u_m.d)
        lo, hi = split_popcounts(m, n)
        sel = (lo == u_m.d) & (hi == u_p.d)
        mag = magnetizations(m + n)
        diffs = []
        for rep in range(400):
            seed = replica_seed(23, rep)
            draw = sampler.sample(seed)
            full = explicit_full_table(pure_p2, m, n, seed)
            f1 = full[0] + pure_p2.h1 * mag
            f2 = full[1] + pure_p2.h2 * mag
            e = f1[:, None] + f2[None, :]
            masks = np.arange(1 << (m + n))
            pair_ok = sel[masks[:, None] ^ masks[None, :]]
            log_split = float(logsumexp(e[pair_ok])) / n
            t1, _ = brute_explicit_terms(draw, r1, r2, pure_p2, u_p, "finite")
            diffs.append(log_split - t1)
        diffs = np.array(diffs)
        se = diffs.std(ddof=1) / np.sqrt(len(diffs))
        assert diffs.mean() >= -3 * se


class TestEstimate:
    def test_stderr_nonnegative(self):
        with pytest.raises(ValueError):
            Estimate(mean=0.0, stderr=-1.0, n_rep=2, seed=0)


class TestParallelism:
    def test_threaded_replicas_match_serial(self, pure_p2):
        c = OverlapConstraint(6, 0)
        serial = estimate_F(pure_p2, c, 30, seed=5, threads=1)
        pooled = estimate_F(pure_p2, c, 30, seed=5, threads=2)
        assert serial.mean == pooled.mean
        assert serial.stderr == pooled.stderr

    def test_threaded_process_route_matches_serial(self, pure_p2):
        c = OverlapConstraint(6, 0)
        serial = estimate_F(pure_p2, c, 30, seed=5, sampler="process", threads=1)
        pooled = estimate_F(pure_p2, c, 30, seed=5, sampler="process", threads=2)
        assert serial.mean == pooled.mean
        assert serial.stderr == pooled.stderr

    def test_threaded_structure_functional(self, pure_p2):
        c = OverlapConstraint(4, 0)
        rost = random_gram_rost(3, 0.0, 0.05, np.random.default_rng(7))
        serial = estimate_G(rost, pure_p2, c, 20, seed=6, threads=1)
        pooled = estimate_G(rost, pure_p2, c, 20, seed=6, threads=2)
        assert serial.diff.mean == pooled.diff.mean

    @staticmethod
    def _curve_numbers(run):
        return [(e.mean, e.stderr) for e in run.phi + run.dphi_fd + run.dphi_gibbs]

    def test_threaded_split_curve(self, pure_p2):
        serial = run_lemma2_curve(pure_p2, 3, 3, 0.0, (0.25, 0.75), 12, seed=8, threads=1)
        pooled = run_lemma2_curve(pure_p2, 3, 3, 0.0, (0.25, 0.75), 12, seed=8, threads=2)
        assert self._curve_numbers(serial) == self._curve_numbers(pooled)
        assert serial.verdicts == pooled.verdicts

    def test_threaded_structure_curve(self, pure_p2):
        c = OverlapConstraint(4, 0)
        rost = random_gram_rost(3, 0.0, 0.05, np.random.default_rng(9))
        serial = run_lemma3_curve(rost, pure_p2, c, (0.25, 0.75), 12, seed=9, threads=1)
        pooled = run_lemma3_curve(rost, pure_p2, c, (0.25, 0.75), 12, seed=9, threads=2)
        assert self._curve_numbers(serial) == self._curve_numbers(pooled)
        assert serial.verdicts == pooled.verdicts


@pytest.mark.parametrize("values", [[1e200, -1e200, 0.0], [np.inf, 0.0], [np.nan, 1.0]],
                         ids=["overflowing-square", "infinite", "nan"])
def test_estimate_that_is_not_finite_raises(values):
    from coupledsk.free_energy import _estimate

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning above the error
        with pytest.raises(NumericalError, match="overflow a double"):
            _estimate(np.array(values), 0, "x")

