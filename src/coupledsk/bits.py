"""Bitmask utilities shared by the enumeration engines.

A configuration of n spins is a mask in [0, 2**n); bit i set means spin i
equals -1.  All engines index tables by this mask.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Hard cap on the word width any enumeration engine will accept.
CONFIG_CAP = 20


@lru_cache(maxsize=None)
def spin_matrix(n: int) -> np.ndarray:
    """All 2**n configurations as a (2**n, n) float array of +-1 values."""
    if not 1 <= n <= CONFIG_CAP:
        raise ValueError(f"n must be in [1, {CONFIG_CAP}], got {n}")
    masks = np.arange(2**n, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(n)) & 1
    out = 1.0 - 2.0 * bits
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def popcounts(n: int) -> np.ndarray:
    """Popcount of every mask in [0, 2**n) as an int64 array."""
    if not 1 <= n <= CONFIG_CAP:
        raise ValueError(f"n must be in [1, {CONFIG_CAP}], got {n}")
    masks = np.arange(2**n, dtype=np.int64)
    out = ((masks[:, None] >> np.arange(n)) & 1).sum(axis=1)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def magnetizations(n: int) -> np.ndarray:
    """Sum of spins per mask: n - 2*popcount."""
    out = (n - 2 * popcounts(n)).astype(np.float64)
    out.flags.writeable = False
    return out


def fwht(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the last, power-of-two axis.

    Self-inverse up to a factor of the axis length.  Constant-geometry
    levels: the input is copied once into a row-major (rows, length) buffer,
    and each of the log2(length) levels reads the pairs (x[2j], x[2j+1]) of
    the previous level's output and writes their sum to y[j] and their
    difference to y[length/2 + j] of a second buffer.  Level k thus pairs the
    indices that differ in bit k, bit 0 first, with the same lo + hi and
    lo - hi as the in-place butterfly, and after the last level every index
    is back in place, so results are bit-for-bit those of the butterfly.  The
    input is never written, and each row's arithmetic is the same whatever
    the other rows hold.
    """
    a = np.asarray(a, dtype=np.float64)
    m = a.shape[-1]
    if m < 1 or m & (m - 1):
        raise ValueError(f"axis length must be a power of two, got {m}")
    x = np.array(a, order="C").reshape(a.size // m, m)
    y = np.empty_like(x)
    h = m // 2
    for _ in range(m.bit_length() - 1):
        pairs = x.reshape(-1, h, 2)
        lo, hi = pairs[..., 0], pairs[..., 1]
        np.add(lo, hi, out=y[:, :h])
        np.subtract(lo, hi, out=y[:, h:])
        x, y = y, x
    return x.reshape(a.shape)


def xor_correlation(w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """c[m] = sum_x w1[x] * w2[x ^ m], computed in O(n 2**n) via fwht.

    Both inputs must share one power-of-two length along the last axis.
    """
    m = w1.shape[-1]
    return fwht(fwht(w1) * fwht(w2)) / m


def bucket_by_popcount(values: np.ndarray, n: int) -> np.ndarray:
    """Sum the length-2**n rows of values, shape (..., 2**n), into n+1
    buckets each keyed by mask popcount; shape (..., n+1).  One bincount with
    row offsets adds each row's entries in the same order as the row alone."""
    rows = values.size >> n
    keys = popcounts(n) + (n + 1) * np.arange(rows)[:, None]
    flat = np.bincount(keys.ravel(), weights=values.ravel(), minlength=rows * (n + 1))
    return flat.reshape(values.shape[:-1] + (n + 1,))


def split_popcounts(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-mask popcounts of the low m bits and the high n bits of m+n-bit masks."""
    masks = np.arange(2 ** (m + n), dtype=np.int64)
    lo = popcounts(m)[masks & ((1 << m) - 1)]
    hi = popcounts(n)[masks >> m]
    return lo, hi

