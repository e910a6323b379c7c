"""Reproducible seeding and replica-parallel mapping.

One root seed drives everything.  Stream s of replica r uses
SeedSequence(root, spawn_key=(r, s)), a stateless counter-based split, so
any replica can be recomputed in isolation and results do not depend on
worker scheduling.
"""

from __future__ import annotations

import multiprocessing as mp
from typing import Callable, Iterable, Sequence

import numpy as np


def replica_seed(root_seed: int, replica: int, stream: int = 0) -> np.random.SeedSequence:
    return np.random.SeedSequence(root_seed, spawn_key=(replica, stream))


def rng_for(root_seed: int, replica: int, stream: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(replica_seed(root_seed, replica, stream)))


def pmap(fn: Callable, items: Sequence, threads: int = 1) -> list:
    """Map fn over items, optionally across a process pool.

    Results are returned in item order regardless of scheduling, so any
    downstream reduction is order-independent by construction.
    """
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    ctx = mp.get_context("fork") if "fork" in mp.get_all_start_methods() else mp.get_context()
    with ctx.Pool(processes=threads) as pool:
        return pool.map(fn, items, chunksize=max(1, len(items) // (4 * threads)))


def summarize(values: Iterable[float]) -> tuple[float, float]:
    """Mean and standard error of i.i.d. per-replica scalars (ddof=1)."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size < 2:
        raise ValueError("need at least 2 replicas for a standard error")
    return float(arr.mean()), float(arr.std(ddof=1) / np.sqrt(arr.size))
