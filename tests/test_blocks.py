"""Replica blocks: how range(n_rep) is cut, how a block is stacked and
mapped, and the invariance every block kernel keeps -- row r of a block is
bit-for-bit the kernel on replica r alone, wherever the block boundaries
fall."""

import concurrent.futures
import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import orders_up_to, random_even_spec
from coupledsk import parallel
from coupledsk.bits import bucket_by_popcount, fwht, spin_matrix
from coupledsk.configurations import nearest_admissible
from coupledsk.disorder import (
    ExplicitSystemSampler,
    RostFieldSampler,
    TensorSampler,
    get_explicit_sampler,
    get_sampler,
    random_gram_rost,
)
from coupledsk.free_energy import (
    cavity_logz_by_count,
    estimate_G_MN,
    explicit_terms_block,
    g_terms_block,
    overlap_logz_replicas,
    partition_by_overlap,
)
from coupledsk.interpolation import (
    _bracket_spectra,
    _lemma3_terms,
    _split_block,
    lemma2_derivative_block,
    lemma2_phi_block,
    lemma3_derivative_block,
    lemma3_phi_block,
    lemma3_states,
)
from coupledsk.mixture import MixtureSpec, mixture_functions
from coupledsk.parallel import pmap, replica_blocks, replica_row, replica_seed, rng_for

N_REP = 6


class TestReplicaBlocks:
    @pytest.mark.parametrize("n_rep, row", [(1, 1), (7, 1 << 14), (200, 8192), (60, 1536),
                                            (5, 1 << 20), (0, 8)])
    def test_blocks_cover_the_replicas_in_order(self, n_rep, row):
        blocks = replica_blocks(n_rep, row)
        assert [r for b in blocks for r in b] == list(range(n_rep))
        for b in blocks:
            assert len(b) * row <= parallel.BLOCK_DOUBLES or len(b) == 1
        # blocks are as long as the cap allows; only the last may be shorter
        assert all(len(b) == max(1, parallel.BLOCK_DOUBLES // row) for b in blocks[:-1])

    def test_block_length_is_set_by_the_cap(self, monkeypatch):
        monkeypatch.setattr(parallel, "BLOCK_DOUBLES", 100)
        assert [len(b) for b in replica_blocks(7, 30)] == [3, 3, 1]


class TestBlockDraws:
    """A block draw is the per-seed draws stacked, bit for bit."""

    SEEDS = [replica_seed(5, r) for r in range(7)]

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind, sizes", [("tensor", (4, 6, 8, 10)), ("process", (6, 8, 10))])
    def test_block_draw_is_the_stacked_draws(self, kind, sizes, p):
        spec = orders_up_to(p)
        for n in sizes:
            sampler = get_sampler(spec, n, kind)
            block = sampler.sample_block(self.SEEDS)
            alone = np.stack([sampler.sample(seed).values for seed in self.SEEDS])
            assert block.n == n and np.array_equal(block.values, alone), (kind, n, p)

    def test_block_never_stacks_its_tensors(self):
        # 512 order-6 tensors at n = 6 hold 6**6 doubles each, 191 MB stacked;
        # each is folded into its 64 Walsh coefficients as soon as it is drawn
        spec = MixtureSpec(a1=(0.3, 0.7, 0.2, 0.15, 0.1, 0.05),
                           a2=(0.2, 0.6, 0.15, 0.1, 0.05, 0.02))
        sampler = TensorSampler(spec, 6)
        seeds = [replica_seed(5, r) for r in range(512)]
        tracemalloc.start()
        try:
            block = sampler.sample_block(seeds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert block.values.shape == (512, 2, 64)
        assert peak < 8 << 20, peak

    @pytest.mark.parametrize("spec", [orders_up_to(p) for p in (1, 2, 3, 4)] + [
        # orders 1 and 3 draw their tensors but contribute nothing
        MixtureSpec(a1=(0.0, 0.6, 0.0, 0.2), a2=(0.0, 0.4, 0.0, 0.3), h1=0.2, h2=-0.1)])
    @pytest.mark.parametrize("m, n", [(1, 1), (3, 2), (4, 3), (5, 6)])
    def test_explicit_block_draw_is_the_stacked_draws(self, m, n, spec):
        sampler = ExplicitSystemSampler(spec, m, n)
        block = sampler.sample_block(self.SEEDS)
        for r, seed in enumerate(self.SEEDS):
            alone = sampler.sample(seed)
            for name in ("trunc", "z", "z_finite", "y", "y_finite"):
                assert np.array_equal(getattr(block, name)[r], getattr(alone, name)), name

    @pytest.mark.parametrize("spec", [orders_up_to(2), orders_up_to(4)])
    @pytest.mark.parametrize("m, n", [(1, 1), (1, 6), (3, 4), (8, 10), (32, 3)])
    def test_field_block_draw_is_the_per_generator_draws(self, m, n, spec):
        # each generator draws its z normals, then its y normals, and the
        # factors apply to them as in a draw made alone
        sampler = RostFieldSampler(random_gram_rost(m, 0.2, 0.05, np.random.default_rng(m)),
                                   mixture_functions(spec))
        block = sampler.sample_block([rng_for(5, r, 1) for r in range(7)], n)
        assert block.z.shape == (7, n, 2, m) and block.y.shape == (7, 2, m)
        for r in range(7):
            alone = sampler.sample(rng_for(5, r, 1), n)
            assert np.array_equal(block.z[r], alone.z) and np.array_equal(block.y[r], alone.y)
            rng = rng_for(5, r, 1)
            z = (sampler.factor_z @ rng.standard_normal((2 * m, n))).T.reshape(n, 2, m)
            y = (sampler.factor_y @ rng.standard_normal(2 * m)).reshape(2, m)
            assert np.array_equal(block.z[r], z) and np.array_equal(block.y[r], y)

    def test_row_of_a_block_is_the_draw_alone(self, pure_p2):
        block = get_sampler(pure_p2, 4, "tensor").sample_block(self.SEEDS[:3])
        row = replica_row(block, 1)
        assert row.n == 4 and row.values.shape == (2, 16)
        assert np.array_equal(row.values,
                              get_sampler(pure_p2, 4, "tensor").sample(self.SEEDS[1]).values)


class _RecordingExecutor:
    """A stand-in ThreadPoolExecutor that records the pool size it is asked
    for and maps in the calling thread, starting no thread."""

    def __init__(self):
        self.sizes = []

    def __call__(self, max_workers):
        self.sizes.append(max_workers)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.fixture
def executor(monkeypatch):
    stand_in = _RecordingExecutor()
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", stand_in)
    return stand_in


class TestPmap:
    def test_at_most_one_worker_per_item(self, executor, monkeypatch):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 4)
        assert pmap(abs, [-1, -2], threads=4) == [1, 2]
        assert pmap(abs, [-1, -2, -3], threads=2) == [1, 2, 3]
        assert pmap(abs, [-1], threads=4) == [1]  # one item runs in the calling thread
        assert executor.sizes == [2, 2]

    def test_at_most_one_worker_per_usable_cpu(self, executor, monkeypatch):
        # a huge --threads on many blocks asks the stand-in executor, which
        # starts no thread, for one worker per usable CPU
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
        items = list(range(-50, 0))
        assert pmap(abs, items, threads=10**6) == [abs(x) for x in items]
        assert executor.sizes == [3]
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
        assert pmap(abs, items, threads=10**6) == [abs(x) for x in items]
        assert executor.sizes == [3]  # one usable CPU: no pool at all

    def test_pool_runs_in_this_process(self, monkeypatch):
        # a real pool of two threads: items are neither pickled nor sent to
        # another process, so a closure maps and sees this process's id
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        pid = os.getpid()
        assert pmap(lambda x: (x, os.getpid()), [1, 2, 3], threads=2) == [
            (1, pid), (2, pid), (3, pid)]

    def test_many_threads_on_cold_caches_match_one_thread(self, pure_p2, monkeypatch):
        # more threads than cores, switching every microsecond, from cold
        # sampler and spin caches: the same bits as one thread
        monkeypatch.setattr(parallel, "BLOCK_DOUBLES", 64)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 8)
        u_m, u_prime = nearest_admissible(3, 1 / 3), nearest_admissible(4, 0.0)

        def run(threads):
            for cache in (get_explicit_sampler, spin_matrix):
                cache.cache_clear()
            return estimate_G_MN(pure_p2, u_m, u_prime, 24, seed=5, threads=threads)

        serial = run(1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = run(8)
        finally:
            sys.setswitchinterval(interval)
        assert pooled == serial

    def test_usable_cpus_is_the_affinity_set(self):
        cpus = parallel.usable_cpus()
        assert 1 <= cpus <= (os.cpu_count() or cpus)
        if hasattr(os, "sched_getaffinity"):
            assert cpus == len(os.sched_getaffinity(0))

    def test_four_threads_on_two_blocks_match_one_thread(self, pure_p2, monkeypatch):
        # n = 6 tables hold 128 doubles a replica: two blocks of 4 replicas
        monkeypatch.setattr(parallel, "BLOCK_DOUBLES", 512)
        assert len(replica_blocks(8, 2 << 6)) == 2
        serial = overlap_logz_replicas(pure_p2, 6, 8, seed=3, threads=1)
        pooled = overlap_logz_replicas(pure_p2, 6, 8, seed=3, threads=4)
        assert np.array_equal(serial, pooled)


def _state_field(state, name: str) -> np.ndarray:
    value = getattr(state, name)
    return value.values if name == "table" else value


def _splits(n: int):
    """Sorted cut points splitting range(n) into contiguous nonempty blocks."""
    return st.sets(st.integers(1, n - 1)).map(lambda cuts: [0, *sorted(cuts), n])


def _rows_match(kernel, per_replica: list, bounds: list) -> None:
    """kernel(lo, hi) on each block of bounds against kernel(r, r + 1)."""
    alone = [np.asarray(kernel(r, r + 1))[0] for r in range(len(per_replica))]
    for lo, hi in zip(bounds, bounds[1:]):
        block = np.asarray(kernel(lo, hi))
        assert block.shape[0] == hi - lo
        for r in range(lo, hi):
            assert np.array_equal(block[r - lo], alone[r]), (kernel, lo, hi, r)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**16), bounds=_splits(N_REP), n=st.integers(3, 5),
       m=st.integers(1, 4), t=st.sampled_from([0.0, 0.3, 1.0]))
def test_block_kernels_are_blind_to_block_boundaries(seed, bounds, n, m, t):
    rng = np.random.default_rng(seed)
    spec = random_even_spec(rng)
    reps = range(N_REP)

    # bits and the engine
    x = rng.standard_normal((N_REP, 3, 1 << n))
    _rows_match(lambda lo, hi: fwht(x[lo:hi]), x, bounds)
    _rows_match(lambda lo, hi: bucket_by_popcount(x[lo:hi], n), x, bounds)
    seeds = [replica_seed(seed, r) for r in reps]
    tensor = get_sampler(spec, n, "tensor")
    _rows_match(lambda lo, hi: partition_by_overlap(tensor.sample_block(seeds[lo:hi]),
                                                    spec.h1, spec.h2), seeds, bounds)
    a, b = rng.standard_normal((2, N_REP, 3, n))
    _rows_match(lambda lo, hi: cavity_logz_by_count(a[lo:hi], b[lo:hi]), a, bounds)

    # the structure functional and the explicit structure
    rost = random_gram_rost(m, 0.0, 0.05, rng)
    c = nearest_admissible(n, 0.0)
    _rows_match(lambda lo, hi: g_terms_block(rost, spec, c, seed, range(lo, hi)),
                seeds, bounds)
    big_m = 3
    u_m = nearest_admissible(big_m, 1 / 3)
    explicit = get_explicit_sampler(spec, big_m, n)
    _rows_match(lambda lo, hi: explicit_terms_block(explicit.sample_block(seeds[lo:hi]), spec,
                                                    u_m, c), seeds, bounds)

    # both interpolation paths
    u_n = nearest_admissible(2, 0.0)
    b_hats = _bracket_spectra(spec, big_m, 2)
    _rows_match(lambda lo, hi: lemma2_phi_block(
        spec, u_m, u_n, t, _split_block(spec, big_m, 2, seed, range(lo, hi))), seeds, bounds)
    _rows_match(lambda lo, hi: lemma2_derivative_block(
        spec, u_m, u_n, t, _split_block(spec, big_m, 2, seed, range(lo, hi)), b_hats),
        seeds, bounds)
    for system in range(3):
        _rows_match(lambda lo, hi: _split_block(spec, big_m, 2, seed, range(lo, hi))[system].values,
                    seeds, bounds)
    for name in ("w", "z", "y", "table"):
        _rows_match(lambda lo, hi: _state_field(
            lemma3_states(rost, spec, n, seed, range(lo, hi)), name), seeds, bounds)
    terms = _lemma3_terms(rost, spec, c)
    _rows_match(lambda lo, hi: lemma3_phi_block(
        lemma3_states(rost, spec, n, seed, range(lo, hi)), spec, c, t), seeds, bounds)
    _rows_match(lambda lo, hi: lemma3_derivative_block(
        lemma3_states(rost, spec, n, seed, range(lo, hi)), terms, spec, c, t),
        seeds, bounds)
