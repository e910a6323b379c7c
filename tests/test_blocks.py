"""Replica blocks: how range(n_rep) is cut, how a block is stacked and
mapped, and the invariance every block kernel keeps -- row r of a block is
bit-for-bit the kernel on replica r alone, wherever the block boundaries
fall."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_even_spec
from coupledsk import parallel
from coupledsk.bits import bucket_by_popcount, fwht
from coupledsk.configurations import nearest_admissible
from coupledsk.disorder import RostFieldSampler, get_sampler, random_gram_rost
from coupledsk.free_energy import (
    _cached_explicit_sampler,
    cavity_logz_by_count,
    explicit_terms_block,
    g_terms_block,
    overlap_logz_replicas,
    partition_by_overlap,
)
from coupledsk.interpolation import (
    _bracket_spectra,
    _lemma3_terms,
    _split_tables,
    _stack_split_tables,
    lemma2_derivative_block,
    lemma2_phi_block,
    lemma3_derivative_block,
    lemma3_phi_block,
    lemma3_state,
)
from coupledsk.mixture import mixture_functions
from coupledsk.parallel import pmap, replica_blocks, replica_seed, stack_replicas

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

    def test_stack_replicas_stacks_arrays_and_keeps_sizes(self, pure_p2):
        tables = [get_sampler(pure_p2, 3, "tensor").sample(replica_seed(1, r)) for r in range(4)]
        block = stack_replicas(tables)
        assert block.n == 3 and block.values.shape == (4, 2, 8)
        for r, table in enumerate(tables):
            assert np.array_equal(block.values[r], table.values)


class _RecordingContext:
    """A stand-in multiprocessing context that records the pool size it is
    asked for and maps in this process."""

    def __init__(self):
        self.sizes = []

    def Pool(self, processes):
        self.sizes.append(processes)

        class Pool:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return [fn(x) for x in items]

        return Pool()


class TestPmap:
    def test_forks_at_most_one_worker_per_item(self, monkeypatch):
        ctx = _RecordingContext()
        monkeypatch.setattr(parallel.mp, "get_context", lambda *args: ctx)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 4)
        assert pmap(abs, [-1, -2], threads=4) == [1, 2]
        assert pmap(abs, [-1, -2, -3], threads=2) == [1, 2, 3]
        assert pmap(abs, [-1], threads=4) == [1]  # one item runs in this process
        assert ctx.sizes == [2, 2]

    def test_forks_at_most_one_worker_per_usable_cpu(self, monkeypatch):
        # a huge --threads on many blocks asks the stand-in context, which
        # starts no process, for one worker per usable CPU
        ctx = _RecordingContext()
        monkeypatch.setattr(parallel.mp, "get_context", lambda *args: ctx)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
        items = list(range(-50, 0))
        assert pmap(abs, items, threads=10**6) == [abs(x) for x in items]
        assert ctx.sizes == [3]
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
        assert pmap(abs, items, threads=10**6) == [abs(x) for x in items]
        assert ctx.sizes == [3]  # one usable CPU: no pool at all

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
    tables = [get_sampler(spec, n, "tensor").sample(replica_seed(seed, r)) for r in reps]
    _rows_match(lambda lo, hi: partition_by_overlap(stack_replicas(tables[lo:hi]),
                                                    spec.h1, spec.h2), tables, bounds)
    a, b = rng.standard_normal((2, N_REP, 3, n))
    _rows_match(lambda lo, hi: cavity_logz_by_count(a[lo:hi], b[lo:hi]), a, bounds)

    # the structure functional and the explicit structure
    rost = random_gram_rost(m, 0.0, 0.05, rng)
    fields = RostFieldSampler(rost, mixture_functions(spec))
    c = nearest_admissible(n, 0.0)
    _rows_match(lambda lo, hi: g_terms_block(rost, fields, spec, n, c, seed, range(lo, hi)),
                tables, bounds)
    big_m = 3
    u_m = nearest_admissible(big_m, 1 / 3)
    draws = [_cached_explicit_sampler(spec, big_m, n).sample(replica_seed(seed, r))
             for r in reps]
    for variant in ("limit", "finite"):
        _rows_match(lambda lo, hi: explicit_terms_block(stack_replicas(draws[lo:hi]), spec,
                                                        u_m, c, variant), draws, bounds)

    # both interpolation paths
    u_n = nearest_admissible(2, 0.0)
    split = [_split_tables(spec, big_m, 2, seed, r) for r in reps]
    b_hats = _bracket_spectra(spec, big_m, 2)
    _rows_match(lambda lo, hi: lemma2_phi_block(spec, u_m, u_n, t,
                                                _stack_split_tables(split[lo:hi])), split, bounds)
    _rows_match(lambda lo, hi: lemma2_derivative_block(
        spec, u_m, u_n, t, _stack_split_tables(split[lo:hi]), b_hats), split, bounds)
    states = [lemma3_state(rost, fields, spec, n, seed, r) for r in reps]
    terms = _lemma3_terms(rost, spec, n, c)
    _rows_match(lambda lo, hi: lemma3_phi_block(stack_replicas(states[lo:hi]), spec, n, c, t),
                states, bounds)
    _rows_match(lambda lo, hi: lemma3_derivative_block(stack_replicas(states[lo:hi]), terms,
                                                       spec, n, c, t), states, bounds)
