"""Slow exact reference implementations used as cross-checks.

The brute_* sums deliberately avoid the fast transforms and DP ladders of
the production engines: each one is a direct sum over the full pair space,
so the two routes share nothing but the inputs.  dense_process_covariance
builds the process route's covariance entry by entry, without the Walsh
basis the sampler factors it in, and build_explicit_rost builds the explicit
structure's q-matrices element by element, where explicit_fields_psd reads
only their Walsh blocks.  explicit_full_table replays an explicit-split
draw's tensors into the whole (M+n)-spin Hamiltonian that the split
decomposes.  The closed forms at the end are the exact values that sampled
fields and zero-disorder estimates must reproduce.
"""

from __future__ import annotations

import math

import numpy as np

from .bits import magnetizations, popcounts, spin_matrix
from .configurations import OverlapConstraint
from .disorder import ExplicitDraw, RostSpec, _contract_all_configs
from .free_energy import explicit_pairs, logsumexp
from .mixture import MixtureSpec, mixture_functions
from .parallel import BLOCK_DOUBLES


def brute_overlap_logz(logw1: np.ndarray, logw2: np.ndarray) -> np.ndarray:
    """Direct quadratic double loop over configuration pairs, resolved by d."""
    size = logw1.size
    n = size.bit_length() - 1
    s1, s2 = float(logw1.max()), float(logw2.max())
    t1 = np.exp(logw1 - s1)
    t2 = np.exp(logw2 - s2)
    idx = np.arange(size)
    z = np.zeros(n + 1)
    pop = popcounts(n)
    for mask in range(size):
        z[pop[mask]] += float(t1 @ t2[idx ^ mask])
    return np.log(z) + s1 + s2


def brute_cavity_logz(a: np.ndarray, b: np.ndarray, d: int) -> float:
    """Field-only constrained pair sum over all 4**n pairs, no DP."""
    n = len(a)
    s = spin_matrix(n)
    e1 = s @ np.asarray(a, dtype=np.float64)
    e2 = s @ np.asarray(b, dtype=np.float64)
    pop = popcounts(n)
    vals = []
    for s1 in range(1 << n):
        for s2 in range(1 << n):
            if pop[s1 ^ s2] == d:
                vals.append(e1[s1] + e2[s2])
    return float(logsumexp(np.array(vals)))


def brute_explicit_terms(
    draw: ExplicitDraw,
    r1: np.ndarray,
    r2: np.ndarray,
    spec: MixtureSpec,
    u_prime: OverlapConstraint,
    variant: str = "limit",
) -> tuple[float, float]:
    """Both explicit-functional terms with unnormalized weights and a flat
    enumeration over increment-spin pairs (no per-site ladder, no element
    abstraction).  Returns (1/n)-scaled log sums.

    The base pairs run in chunks whose energies, one per base pair and
    increment pair at disagreement d, hold at most BLOCK_DOUBLES doubles;
    each base pair's energies form one C-order row, so its log-sum is the
    one it would have alone."""
    m, n = draw.m, draw.n
    mag_m = magnetizations(m)
    z = draw.z if variant == "limit" else draw.z_finite
    y = draw.y if variant == "limit" else draw.y_finite
    s = spin_matrix(n)
    pop = popcounts(n)
    # the increment pairs at disagreement d, in row-major order
    i1, i2 = np.nonzero(pop[np.arange(1 << n)[:, None] ^ np.arange(1 << n)[None, :]]
                        == u_prime.d)
    log_w = (
        draw.trunc[0, r1] + draw.trunc[1, r2]
        + spec.h1 * mag_m[r1] + spec.h2 * mag_m[r2]
    )
    size = max(1, BLOCK_DOUBLES // i1.size)
    log_b = []
    for lo in range(0, len(r1), size):
        e1 = np.stack([s @ (z[:, 0, rho1] + spec.h1) for rho1 in r1[lo:lo + size]])
        e2 = np.stack([s @ (z[:, 1, rho2] + spec.h2) for rho2 in r2[lo:lo + size]])
        log_b.append(logsumexp(e1[:, i1] + e2[:, i2], axis=1))
    terms1 = log_w + np.concatenate(log_b)
    terms2 = log_w + np.sqrt(n) * (y[0, r1] + y[1, r2])
    return float(logsumexp(terms1)) / n, float(logsumexp(terms2)) / n


def dense_process_covariance(spec: MixtureSpec, n: int) -> np.ndarray:
    """The 2**(n+1)-square covariance n * xi_{l,l'}(s . s' / n) of both copies'
    tables, copy-major, from the overlap of every configuration pair."""
    s = spin_matrix(n)
    r = (s @ s.T) / n
    funcs = mixture_functions(spec)
    c = 2**n
    cov = np.empty((2 * c, 2 * c))
    cov[:c, :c] = n * funcs.xi(1, 1, r)
    cov[:c, c:] = n * funcs.xi(1, 2, r)
    cov[c:, :c] = cov[:c, c:].T
    cov[c:, c:] = n * funcs.xi(2, 2, r)
    return cov


def build_explicit_rost(m: int, u_m: OverlapConstraint, u: float) -> RostSpec:
    """The structure whose elements are constrained base pairs, as dense
    q-matrices: the oracle behind disorder.explicit_fields_psd.

    q-matrices are pairwise overlaps of the base configurations and
    delta = |u_m - u| exactly.  The q-matrices are Gram-type by construction,
    so the field covariances are PSD for any admissible mixture.  There is no
    weight law: an element's weight is the truncated big Hamiltonian of the
    same draw as its fields, so the functional is evaluated by estimate_G_MN
    and estimate_G refuses the structure.
    """
    r1, r2 = explicit_pairs(m, u_m)
    pop = popcounts(m)

    def q_of(left: np.ndarray, right: np.ndarray) -> np.ndarray:
        # (m - 2d)/m rather than 1 - 2d/m: bitwise-identical to k/m, so the
        # diagonal matches the constraint target exactly
        return (m - 2.0 * pop[left[:, None] ^ right[None, :]]) / m

    return RostSpec(
        q11=q_of(r1, r1),
        q12=q_of(r1, r2),
        q22=q_of(r2, r2),
        weights=None,
        delta=abs(u_m.u - u),
        u=u,
    )


def explicit_full_table(spec: MixtureSpec, m: int, n: int, seed) -> np.ndarray:
    """Both copies' whole (M+n)-spin Hamiltonians, shape (2, 2**(M+n)), from
    the big coupling tensors of ExplicitSystemSampler(spec, m, n).sample(seed).

    The draw order is replayed: per order p, the (M+n)^p tensor, then the
    M^p compensator tensor, which the whole Hamiltonian does not use."""
    rng = np.random.default_rng(seed)
    big = m + n
    s_full = spin_matrix(big)
    full = np.zeros((2, 2**big))
    for p in range(1, spec.p_max + 1):
        g = rng.standard_normal((big,) * p)
        rng.standard_normal((m,) * p)
        coeffs = (spec.a1[p - 1], spec.a2[p - 1])
        if coeffs == (0.0, 0.0):
            continue
        full_contr = _contract_all_configs(g[None], s_full)[0]
        scale_big = big ** (0.5 - 0.5 * p)
        for ell, ap in enumerate(coeffs):
            if ap != 0.0:
                full[ell] += ap * scale_big * full_contr
    return full


def finite_z_covariance(spec: MixtureSpec, m: int, n: int, ell: int, ellp: int, r: float) -> float:
    """Exact covariance of the finite-size per-site fields at base overlap r."""
    a1 = spec.coeffs(ell)
    a2 = spec.coeffs(ellp)
    tot = 0.0
    for p in range(1, spec.p_max + 1):
        tot += (m / (m + n)) ** (p - 1) * p * a1[p - 1] * a2[p - 1] * r ** (p - 1)
    return tot


def finite_y_covariance(spec: MixtureSpec, m: int, n: int, ell: int, ellp: int, r: float) -> float:
    """Exact covariance of the finite-size compensator fields at base overlap r."""
    a1 = spec.coeffs(ell)
    a2 = spec.coeffs(ellp)
    tot = 0.0
    for p in range(1, spec.p_max + 1):
        tot += (
            (m ** (1.0 - p) - (m + n) ** (1.0 - p))
            * a1[p - 1] * a2[p - 1] * (m * r) ** p / n
        )
    return tot


def zero_disorder_log_pair_count(n: int, d: int) -> float:
    """Closed form (1/n) log(2**n C(n, d)) the estimators must hit exactly
    when every coefficient and field vanishes."""
    return (n * math.log(2.0) + math.log(math.comb(n, d))) / n
