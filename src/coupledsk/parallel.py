"""Reproducible seeding and replica-parallel mapping.

One root seed drives everything.  Stream s of replica r uses
SeedSequence(root, spawn_key=(r, s)), a stateless counter-based split, so
any replica can be recomputed in isolation and results do not depend on
worker scheduling.

The unit of Monte Carlo work is a replica block: a contiguous range of
replicas held on a leading axis.  Each replica's normals come from its own
seeds, and each contraction or transform runs once per block.  Block
lengths follow from BLOCK_DOUBLES and the size of a replica's row alone,
never from the worker count, and every kernel reduces along its last axis
only, so a row's bits never depend on the block it sits in.
"""

from __future__ import annotations

import dataclasses
import functools
import os
from typing import Callable, Iterable, Sequence

import numpy as np

# most doubles any stacked array of one replica block may hold (512 KiB)
BLOCK_DOUBLES = 1 << 16


def replica_seed(root_seed: int, replica: int, stream: int = 0) -> np.random.SeedSequence:
    return np.random.SeedSequence(root_seed, spawn_key=(replica, stream))


def rng_for(root_seed: int, replica: int, stream: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(replica_seed(root_seed, replica, stream)))


def replica_blocks(n_rep: int, row_doubles: int) -> list[range]:
    """range(n_rep) cut into contiguous blocks whose stacked arrays, of at
    most row_doubles doubles per replica, hold at most BLOCK_DOUBLES doubles
    (one replica per block if a single row is larger)."""
    size = max(1, BLOCK_DOUBLES // row_doubles)
    return [range(lo, min(lo + size, n_rep)) for lo in range(0, n_rep, size)]


def replica_row(block, r: int):
    """Replica r of a block draw, as it was drawn alone: every array field's
    row r, dataclass fields taken the same way, any other field (a size) as
    it is."""

    def row(value):
        if isinstance(value, np.ndarray):
            return value[r]
        if dataclasses.is_dataclass(value):
            return replica_row(value, r)
        return value

    return type(block)(**{f.name: row(getattr(block, f.name)) for f in dataclasses.fields(block)})


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def pmap(fn: Callable, items: Sequence, threads: int = 1) -> list:
    """Map fn over items, on a thread pool of at most one worker per item and
    per usable CPU; a single worker maps in the calling thread.

    Each item is a replica block whose kernels spend their time in numpy,
    which releases the interpreter lock.  Results are returned in item order
    regardless of scheduling, so any downstream reduction is
    order-independent by construction.
    """
    items = list(items)
    workers = min(threads, len(items), usable_cpus())
    if workers <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor  # only runs that use a pool pay for it

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def map_blocks(fn: Callable, args: tuple, n_rep: int, row_doubles: int,
               threads: int = 1) -> np.ndarray:
    """fn(*args, block) for each block of replica_blocks(n_rep, row_doubles),
    one pmap item per block; the (len(block), ...) results joined in replica
    order."""
    blocks = replica_blocks(n_rep, row_doubles)
    return np.concatenate(pmap(functools.partial(fn, *args), blocks, threads))


def summarize(values: Iterable[float]) -> tuple[float, float]:
    """Mean and standard error of i.i.d. per-replica scalars (ddof=1)."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size < 2:
        raise ValueError("need at least 2 replicas for a standard error")
    return float(arr.mean()), float(arr.std(ddof=1) / np.sqrt(arr.size))
