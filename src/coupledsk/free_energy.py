"""Exact constrained partition sums and their disorder-averaged logarithms.

Everything here is exact in the spin sum (no thermal sampling): the engine
resolves the two-copy partition function by disagreement count d through a
Walsh-Hadamard XOR convolution in O(n 2**n), and Monte Carlo enters only
through the outer average over Gaussian disorder.  All arithmetic is
log-domain, with per-table max shifts in the engine; a disagreement class
lost to rounding or overflow raises NumericalError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bits import bucket_by_popcount, magnetizations, popcounts, xor_correlation
from .configurations import OverlapConstraint
from .disorder import (
    CavityFieldSample,
    ExplicitDraw,
    HamiltonianTable,
    NumericalError,
    ResourceError,
    RostInvalidError,
    RostSpec,
    get_explicit_sampler,
    get_field_sampler,
    get_sampler,
)
from .mixture import MixtureSpec
from .parallel import map_blocks, replica_seed, rng_for, summarize

WHT_CAP = 12
EXPLICIT_PAIR_CAP = 2048
EXPLICIT_VARIANTS = ("limit", "finite")


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo scalar: across-replica mean with plain standard error."""

    mean: float
    stderr: float
    n_rep: int
    seed: int
    label: str = ""

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")


def _estimate(values, seed: int, label: str) -> Estimate:
    """The Estimate of per-replica values; NumericalError if its mean or
    standard error is not finite (the squares of values near 1e154 overflow)."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean, stderr = summarize(values)
    if not (math.isfinite(mean) and math.isfinite(stderr)):
        raise NumericalError(f"{label} has mean {mean:.6g} and standard error {stderr:.6g}: "
                             "its replica values overflow a double")
    return Estimate(mean=mean, stderr=stderr, n_rep=len(values), seed=seed, label=label)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def logsumexp(a, axis=None, b=None):
    """log of sum(b * exp(a)) over axis (every axis if None), for real a and
    weights b >= 0.

    Zero-weight entries are dropped, the maxima are summed apart and the
    rest enters through log1p (Blanchard, Higham & Higham, IMA J. Numer.
    Anal. 41, 2021); where that overflows, the direct sum is taken.  These
    are scipy.special.logsumexp's operations in its order, so the two agree
    bit for bit wherever a slice's weighted sum is positive.  Where it is 0,
    this gives -inf (scipy gives nan if a zero weight meets exp(a) = inf).
    """
    # C order: a row's sums then run pairwise along it, as for the row alone,
    # whatever layout the caller's block came in
    a = np.atleast_1d(np.ascontiguousarray(a, dtype=np.float64))
    b = None if b is None else np.ascontiguousarray(b)
    axis = tuple(range(a.ndim)) if axis is None else axis
    kept = a if b is None else np.where(b == 0, -np.inf, a)
    a_max = np.max(kept, axis=axis, keepdims=True)
    top = kept == a_max
    m = np.sum(top if b is None else b * top, axis=axis, keepdims=True, dtype=np.float64)
    e = np.exp(np.where(top, -np.inf, kept) - np.where(np.isfinite(a_max), a_max, 0.0))
    s = np.sum(e if b is None else b * e, axis=axis, keepdims=True)
    out = np.log1p(np.where(s == 0, s, s / m)) + np.log(m) + a_max
    lost = ~np.isfinite(out) & (out != -np.inf)
    if np.any(lost):
        e = np.exp(a) if b is None else b * np.exp(a)
        out = np.where(lost, np.log(np.sum(e, axis=axis, keepdims=True)), out)
    return np.squeeze(out, axis=axis)[()]


# ---------------------------------------------------------------------------
# Overlap-resolved partition function
# ---------------------------------------------------------------------------


def overlap_resolved_logz(logw1: np.ndarray, logw2: np.ndarray) -> np.ndarray:
    """log of Z(d) = sum over pairs at disagreement d of exp(logw1 + logw2).

    Computed as an XOR correlation of the two weight tables followed by a
    popcount bucketing; matches the direct quadratic double loop to rounding.
    Tables run along the last axis, and leading axes hold a block of table
    pairs, each shifted by its own maxima; returns shape (..., n+1).
    """
    if logw1.shape != logw2.shape or logw1.ndim == 0:
        raise ValueError("weight tables must be equal-shape arrays of tables")
    size = logw1.shape[-1]
    n = size.bit_length() - 1
    if 1 << n != size:
        raise ValueError("table length must be a power of two")
    if not (np.all(np.isfinite(logw1)) and np.all(np.isfinite(logw2))):
        raise ValueError("weight tables must be finite")
    s1 = logw1.max(axis=-1, keepdims=True)
    s2 = logw2.max(axis=-1, keepdims=True)
    c = xor_correlation(np.exp(logw1 - s1), np.exp(logw2 - s2))
    return np.log(positive_sums(bucket_by_popcount(c, n))) + s1 + s2


def positive_sums(z):
    """z unchanged if every class sum in it is positive, as it is by
    construction; one lost to underflow or cancellation raises NumericalError."""
    if not np.all(z > 0.0):
        raise NumericalError("a disagreement class summed to a non-positive value")
    return z


def require_finite_fields(n: int, *fields: float) -> None:
    """NumericalError unless each field's term h * magnetization in an n-spin
    log-weight table, which spans 2 n |h|, fits a double; beyond that numpy
    would overflow to inf and nan."""
    for h in fields:
        if not math.isfinite(2.0 * n * h):
            raise NumericalError(
                f"field {h:g} on {n} spins spreads the log-weights beyond a double"
            )


def partition_by_overlap(table: HamiltonianTable, h1: float, h2: float) -> np.ndarray:
    """log Z(d) of one disorder sample for every disagreement count d, shape
    (n+1,), or of each sample of a block, shape (..., n+1); a constraint's
    value is the logsumexp over its d range."""
    if table.n > WHT_CAP:
        raise ResourceError(f"engine capped at n={WHT_CAP}, got {table.n}")
    require_finite_fields(table.n, h1, h2)
    mag = magnetizations(table.n)
    logw1 = table.values[..., 0, :] + h1 * mag
    logw2 = table.values[..., 1, :] + h2 * mag
    return overlap_resolved_logz(logw1, logw2)


# ---------------------------------------------------------------------------
# Constrained free energy estimates
# ---------------------------------------------------------------------------


def _logz_worker(spec: MixtureSpec, n: int, sampler: str, root: int, block: range) -> np.ndarray:
    tables = get_sampler(spec, n, sampler).sample_block([replica_seed(root, rep) for rep in block])
    return partition_by_overlap(tables, spec.h1, spec.h2)


def overlap_logz_replicas(
    spec: MixtureSpec,
    n: int,
    n_rep: int,
    seed: int,
    sampler: str = "tensor",
    threads: int = 1,
) -> np.ndarray:
    """log Z(d) of every disorder replica, shape (n_rep, n+1).

    Row r comes from the table drawn from replica_seed(seed, r); every exact
    and windowed constraint at this n reads these rows, so each table is
    drawn and transformed once.
    """
    # built here, before pmap, so the workers share one factorization
    get_sampler(spec, n, sampler)
    # a block's largest stacked array is its tables, 2 * 2**n doubles a replica
    return map_blocks(_logz_worker, (spec, n, sampler, seed), n_rep, 2 << n, threads)


def window_values(log_z: np.ndarray, c: OverlapConstraint) -> np.ndarray:
    """(1/n) log of the window-constrained pair sum for each row of c's log Z(d)."""
    if log_z.shape[-1] != c.n + 1:
        raise ValueError(f"log Z(d) rows have {log_z.shape[-1]} classes; n = {c.n} has {c.n + 1}")
    d_lo, d_hi = c.window_disagreement_range()
    return logsumexp(log_z[:, d_lo:d_hi + 1], axis=1) / c.n


def window_estimate(log_z: np.ndarray, c: OverlapConstraint, seed: int) -> Estimate:
    """Across-replica estimate of the constrained free energy from log Z(d) rows."""
    label = (
        f"F(n={c.n},k={c.k})" if c.eps == 0.0
        else f"F_window(n={c.n},k={c.k},eps={c.eps:g})"
    )
    return _estimate(window_values(log_z, c), seed, label)


def estimate_F(
    spec: MixtureSpec,
    c: OverlapConstraint,
    n_rep: int,
    seed: int,
    sampler: str = "tensor",
    threads: int = 1,
) -> Estimate:
    """Disorder average of (1/n) log of the exactly-constrained partition sum."""
    if c.eps != 0.0:
        raise ValueError("estimate_F requires an exact constraint; for a window use "
                         "window_estimate(overlap_logz_replicas(...), c, seed)")
    return window_estimate(overlap_logz_replicas(spec, c.n, n_rep, seed, sampler, threads), c,
                           seed)


# ---------------------------------------------------------------------------
# Per-site field sums over the constrained pair set (cavity inner sum)
# ---------------------------------------------------------------------------


# fields too large for a double overflow in a + b; the lost class surfaces
# as a non-finite entry, which _ladder_class reports; numpy's warnings would
# only repeat it
@np.errstate(over="ignore", invalid="ignore")
def cavity_logz_by_count(a: np.ndarray, b: np.ndarray, last: int | None = None) -> np.ndarray:
    """log of sum over pairs at each disagreement count of the factorized
    per-site weights exp(t1_i a_i + t2_i b_i).

    Site i contributes weight 2cosh(a_i + b_i) when the pair agrees there and
    2cosh(a_i - b_i) when it disagrees, so the count-resolved sums are the
    coefficients of a product of linear polynomials.  The ladder adds one
    site at a time with logaddexp, O(n^2) time, log-domain throughout, so no
    class underflows however far it lies below the others.  Supports leading
    batch axes; returns shape (..., last+1), the counts 0..last (every count
    up to n by default).  Count k reads only counts k and k-1, so a ladder
    stopped at last gives the full ladder's columns bit for bit.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("field vectors must have matching shapes")
    n = a.shape[-1]
    last = n if last is None else last
    if not 0 <= last <= n:
        raise ValueError(f"disagreement count {last} outside [0, {n}]")
    log_agree = np.logaddexp(a + b, -(a + b))
    log_disagree = np.logaddexp(a - b, -(a - b))
    out = np.full(a.shape[:-1] + (last + 1,), -np.inf)
    out[..., 0] = 0.0
    for i in range(n):
        la = log_agree[..., i]
        out[..., 1:] = np.logaddexp(out[..., 1:] + la[..., None],
                                    out[..., :-1] + log_disagree[..., i, None])
        out[..., 0] += la
    return out


def _ladder_class(a: np.ndarray, b: np.ndarray, d: int) -> np.ndarray:
    """Class d of the cavity ladders of fields a, b, from a ladder stopped
    at d.  Every class sum is positive and the ladder is log-domain, so a
    non-finite entry comes from fields too large for a double:
    NumericalError."""
    col = cavity_logz_by_count(a, b, d)[..., d]
    if not np.all(np.isfinite(col)):
        raise NumericalError(f"the cavity ladder lost disagreement class d={d} to overflow")
    return col


# ---------------------------------------------------------------------------
# Structure functional: cavity term minus compensator term
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GEstimate:
    """Difference functional with both terms; the difference is computed
    per replica (common weights and fields), so its stderr reflects the
    coupled estimator."""

    diff: Estimate
    term1: Estimate
    term2: Estimate


def _g_estimate(terms: np.ndarray, seed: int, label: str, prefix: str) -> GEstimate:
    """The GEstimate of per-replica (term1, term2) rows, shape (n_rep, 2)."""
    t1, t2 = terms.T
    return GEstimate(_estimate(t1 - t2, seed, label), _estimate(t1, seed, f"{prefix}_term1"),
                     _estimate(t2, seed, f"{prefix}_term2"))


def structure_draws(
    rost: RostSpec, spec: MixtureSpec, n: int, root: int, block: range
) -> tuple[np.ndarray, CavityFieldSample]:
    """The weights, (len(block), m), and the fields of each replica of a block,
    from get_field_sampler.  Weights use stream 0 and fields stream 1 of each
    replica's seed, so swapping the weight law never changes the field draws."""
    w = np.stack([rost.weights.sample(rng_for(root, rep, stream=0), rost.m) for rep in block])
    fields = get_field_sampler(rost, spec).sample_block(
        [rng_for(root, rep, stream=1) for rep in block], n)
    return w, fields


def g_terms_block(
    rost: RostSpec,
    spec: MixtureSpec,
    c: OverlapConstraint,
    root: int,
    block: range,
) -> np.ndarray:
    """Both structure-functional terms of each replica of a block at c, shape
    (len(block), 2), from structure_draws; one ladder call covers every
    (replica, element).
    """
    w, fields = structure_draws(rost, spec, c.n, root, block)
    a = fields.z[:, :, 0, :].swapaxes(-1, -2) + spec.h1  # (replica, element, site)
    b = fields.z[:, :, 1, :].swapaxes(-1, -2) + spec.h2
    log_b = _ladder_class(a, b, c.d)
    term1 = logsumexp(log_b, axis=-1, b=w) / c.n
    term2 = logsumexp(np.sqrt(c.n) * (fields.y[:, 0] + fields.y[:, 1]), axis=-1, b=w) / c.n
    return np.stack([term1, term2], axis=-1)


def estimate_G(
    rost: RostSpec,
    spec: MixtureSpec,
    c: OverlapConstraint,
    n_rep: int,
    seed: int,
    threads: int = 1,
) -> GEstimate:
    """Monte Carlo over (weights, fields) of the structure functional."""
    if c.eps != 0.0:
        raise ValueError("the structure functional uses an exact constraint")
    if rost.weights is None:
        raise RostInvalidError(
            "structure has no weight law; evaluate explicit structures with estimate_G_MN"
        )
    get_field_sampler(rost, spec)  # built before map_blocks: the workers share it
    # a block's largest stacked array is its fields z, (n, 2, m) a replica
    terms = map_blocks(g_terms_block, (rost, spec, c, seed), n_rep, 2 * rost.m * c.n, threads)
    return _g_estimate(terms, seed, f"G(n={c.n},k={c.k})", "G")


# ---------------------------------------------------------------------------
# Explicit structure built from a constrained base system
# ---------------------------------------------------------------------------


def _constrained_pairs(m: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """All base-mask pairs at disagreement d, deterministic order."""
    masks_d = np.flatnonzero(popcounts(m) == d)
    r1 = np.repeat(np.arange(1 << m, dtype=np.int64), masks_d.size)
    r2 = (r1.reshape(-1, masks_d.size) ^ masks_d).reshape(-1)
    return r1, r2


def explicit_pairs(u_m: OverlapConstraint) -> tuple[np.ndarray, np.ndarray]:
    """The elements of the explicit structure: the pairs of u_m.n-spin base
    masks at u_m's disagreement count, ResourceError beyond
    EXPLICIT_PAIR_CAP of them."""
    size = math.comb(u_m.n, u_m.d) << u_m.n  # checked before any pair is built
    if size > EXPLICIT_PAIR_CAP:
        raise ResourceError(
            f"pair set has {size} elements > cap {EXPLICIT_PAIR_CAP}; reduce the base size"
        )
    return _constrained_pairs(u_m.n, u_m.d)


@dataclass(frozen=True)
class ExplicitTerms:
    """Per-replica pieces of the explicit-structure functional."""

    term1: float
    term2: float
    log_norm: float  # (1/n) log of the weight normalizer


def explicit_terms_block(
    draws: ExplicitDraw,
    spec: MixtureSpec,
    u_m: OverlapConstraint,
    u_prime: OverlapConstraint,
) -> np.ndarray:
    """The ExplicitTerms fields (term1, term2, log_norm) of each draw of a
    block in each variant, shape (replicas, variant, 3), variants in
    EXPLICIT_VARIANTS order: 'limit' uses the exact-covariance cavity fields,
    'finite' the big-system-normalized ones from the same tensors.  The
    variants share the pairs, their weights and the normalizer, and one
    ladder call covers every (replica, variant, pair).
    """
    if (u_m.n, u_prime.n) != (draws.m, draws.n):
        raise ValueError("constraint sizes must equal the draws' base and increment sizes")
    n = draws.n
    r1, r2 = _constrained_pairs(draws.m, u_m.d)
    z = np.stack([draws.z, draws.z_finite], axis=1)  # (replica, variant, site, copy, mask)
    y = np.stack([draws.y, draws.y_finite], axis=1)  # (replica, variant, copy, mask)
    a = z[..., 0, r1].swapaxes(-1, -2) + spec.h1  # (replica, variant, pair, site)
    b = z[..., 1, r2].swapaxes(-1, -2) + spec.h2
    log_b = _ladder_class(a, b, u_prime.d)
    require_finite_fields(draws.m, spec.h1, spec.h2)
    mag = magnetizations(draws.m)
    log_w = (draws.trunc[:, 0, r1] + draws.trunc[:, 1, r2]
             + spec.h1 * mag[r1] + spec.h2 * mag[r2])
    log_norm = logsumexp(log_w, axis=-1)
    lw = (log_w - log_norm[:, None])[:, None]  # (replica, 1, pair): both variants' weights
    term1 = logsumexp(lw + log_b, axis=-1) / n
    term2 = logsumexp(lw + np.sqrt(n) * (y[..., 0, r1] + y[..., 1, r2]), axis=-1) / n
    return np.stack(np.broadcast_arrays(term1, term2, (log_norm / n)[:, None]), axis=-1)


def explicit_terms_replica(
    spec: MixtureSpec,
    m: int,
    n: int,
    u_m: OverlapConstraint,
    u_prime: OverlapConstraint,
    variant: str,
    seed,
) -> ExplicitTerms:
    """Both terms of the explicit-structure functional for the draw from
    seed: its variant's row of explicit_terms_block on that draw alone."""
    draws = get_explicit_sampler(spec, m, n).sample_block([seed])
    row = explicit_terms_block(draws, spec, u_m, u_prime)[0, EXPLICIT_VARIANTS.index(variant)]
    return ExplicitTerms(*map(float, row))


def _gmn_worker(spec: MixtureSpec, u_m: OverlapConstraint, u_prime: OverlapConstraint,
                root: int, probe: Callable | None, block: range) -> np.ndarray:
    draws = get_explicit_sampler(spec, u_m.n, u_prime.n).sample_block(
        [replica_seed(root, rep) for rep in block])
    terms = explicit_terms_block(draws, spec, u_m, u_prime)
    if probe is not None:
        probe(block, draws, terms[:, 0])
    return terms[..., :2]


def estimate_G_MN(
    spec: MixtureSpec,
    u_m: OverlapConstraint,
    u_prime: OverlapConstraint,
    n_rep: int,
    seed: int,
    threads: int = 1,
    probe: Callable | None = None,
) -> tuple[GEstimate, GEstimate]:
    """Monte Carlo averages of the explicit-structure functional, the 'limit'
    and the 'finite' variant, both from one draw of u_m.n + u_prime.n spins
    per replica.  probe, if given, is called with each replica block's range,
    its draws and their 'limit' explicit_terms_block rows, so a check reads
    the draws of this pass instead of drawing them again."""
    m, n = u_m.n, u_prime.n
    get_explicit_sampler(spec, m, n)  # built before map_blocks: the workers share it
    # a block's largest stacked array is its ladders, (variant, pairs, n+1) a replica,
    # its fields z, (variant, n, 2, 2**m), or one order's Walsh coefficients, (n+3, 2**m)
    row = max(2 * (math.comb(m, u_m.d) << m) * (n + 1), 4 * n << m, n + 3 << m)
    out = map_blocks(_gmn_worker, (spec, u_m, u_prime, seed, probe), n_rep, row,
                     threads)  # (n_rep, variant, term)
    return tuple(_g_estimate(out[:, i], seed, f"G_MN(m={m},n={n},{variant})", "G_MN")
                 for i, variant in enumerate(EXPLICIT_VARIANTS))
