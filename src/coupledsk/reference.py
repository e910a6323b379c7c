"""Slow exact reference implementations used as cross-checks.

The brute_* sums deliberately avoid the fast transforms and DP ladders of
the production engines: each one is a direct sum over the full pair space,
so the two routes share nothing but the inputs.  dense_process_covariance
builds the process route's covariance entry by entry, without the Walsh
basis the sampler factors it in, and build_explicit_rost builds the explicit
structure's q-matrices element by element, where explicit_fields_psd reads
only their Walsh blocks.  spin_contraction contracts a coupling tensor with
the spin matrix directly, where the samplers sum it into Walsh coefficients,
and explicit_full_table replays an explicit-split draw's tensors through it
into the whole (M+n)-spin Hamiltonian that the split decomposes; neither
shares code with the samplers.  The closed forms that follow are the exact
values that sampled fields and zero-disorder estimates must reproduce.

The check functions at the end hold validate's and explicit-rost's verdicts.
"""

from __future__ import annotations

import math

import numpy as np

from .bits import magnetizations, popcounts, spin_matrix
from .configurations import OverlapConstraint
from .disorder import (
    ExplicitDraw,
    RostSpec,
    empirical_covariance,
    explicit_fields_psd,
    get_sampler,
)
from .free_energy import (
    cavity_logz_by_count,
    estimate_G_MN,
    explicit_pairs,
    logsumexp,
    partition_by_overlap,
    require_finite_fields,
)
from .mixture import MixtureSpec, check_convexity, check_positivity, mixture_functions
from .parallel import BLOCK_DOUBLES, replica_row, replica_seed, rng_for


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


def build_explicit_rost(u_m: OverlapConstraint, u: float) -> RostSpec:
    """The structure whose elements are u_m's base pairs, as dense
    q-matrices: the oracle behind disorder.explicit_fields_psd.

    q-matrices are pairwise overlaps of the base configurations and
    delta = |u_m - u| exactly.  The q-matrices are Gram-type by construction,
    so the field covariances are PSD for any admissible mixture.  There is no
    weight law: an element's weight is the truncated big Hamiltonian of the
    same draw as its fields, so the functional is evaluated by estimate_G_MN
    and estimate_G refuses the structure.
    """
    r1, r2 = explicit_pairs(u_m)
    q11, q12, q22 = (_base_overlaps(u_m.n, left[:, None], right[None, :])
                     for left, right in ((r1, r1), (r1, r2), (r2, r2)))
    return RostSpec(q11=q11, q12=q12, q22=q22, weights=None, delta=abs(u_m.u - u), u=u)


def _base_overlaps(m: int, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The overlaps of base masks as (m - 2d)/m, not 1 - 2d/m: bitwise k/m,
    so a pair at u_m's disagreement count has overlap exactly u_m.u."""
    return (m - 2.0 * popcounts(m)[left ^ right]) / m


def spin_contraction(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """sum over ordered index tuples of g[i_1, ..., i_p] s[c, i_1] ... s[c, i_p]
    for every row c of the spin matrix s, one index contracted at a time."""
    v = np.einsum("ci,i...->c...", s, g)
    for _ in range(g.ndim - 1):
        v = np.einsum("ci...,ci->c...", v, s)
    return v


def explicit_full_table(spec: MixtureSpec, m: int, n: int, seed) -> np.ndarray:
    """Both copies' whole (M+n)-spin Hamiltonians, shape (2, 2**(M+n)), from
    the big coupling tensors of ExplicitSystemSampler(spec, m, n).sample(seed).

    The draw order is replayed: per order p, the (M+n)^p tensor, then the
    M^p compensator tensor, which the whole Hamiltonian does not use."""
    rng = np.random.default_rng(seed)
    big = m + n
    full = np.zeros((2, 2**big))
    for p in range(1, spec.p_max + 1):
        g = rng.standard_normal((big,) * p)
        rng.standard_normal((m,) * p)
        coef = np.array([[spec.a1[p - 1]], [spec.a2[p - 1]]])
        full += coef * big ** (0.5 - 0.5 * p) * spin_contraction(g, spin_matrix(big))
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


def validate_check(spec: MixtureSpec, n: int, n_rep: int, seed: int,
                   sampler: str = "tensor") -> tuple[dict, bool]:
    """(results, pass) of validate's checks at size n: the mixture's
    convexity (reported only) and positivity, the sampled covariance against
    xi within 4 sigma, and the WHT engine and the cavity ladder against their
    brute-force sums within 1e-10.  pass is whether every entry's own pass
    holds."""
    require_finite_fields(n, spec.h1, spec.h2)
    conv = check_convexity(spec)
    results = {"convexity": {"convex": conv.convex, "structural": conv.structural,
                             "worst_second_difference": conv.worst_second_difference}}
    if conv.convex:
        pos = check_positivity(spec)
        results["positivity"] = {"min": min(pos.minima.values()), "pass": pos.passed}

    rng = rng_for(seed, 0, stream=5)
    masks = [(int(rng.integers(1 << n)), int(rng.integers(1 << n))) for _ in range(6)]
    probes = [(m1, m2, 1, ellp) for m1, m2 in masks for ellp in (1, 2)]
    cov = empirical_covariance(spec, n, max(n_rep, 2000), probes, seed, sampler)
    results["covariance"] = {"max_sigmas": cov.max_sigmas, "pass": cov.max_sigmas <= 4.0}

    worst = 0.0
    mag = magnetizations(n)
    tables = get_sampler(spec, n, sampler).sample_block(
        [replica_seed(seed, rep, stream=6) for rep in range(3)])
    for log_z, h in zip(partition_by_overlap(tables, spec.h1, spec.h2), tables.values):
        brute = brute_overlap_logz(h[0] + spec.h1 * mag, h[1] + spec.h2 * mag)
        worst = max(worst, float(np.max(np.abs(np.expm1(log_z - brute)))))
    results["engine_oracle"] = {"max_rel_gap": worst, "pass": worst <= 1e-10}

    worst_dp = 0.0
    n_small = min(n, 5)
    for rep in range(3):
        rng = rng_for(seed, rep, stream=7)
        a, b = rng.standard_normal(n_small), rng.standard_normal(n_small)
        ladder = cavity_logz_by_count(a, b)
        for d in range(n_small + 1):
            worst_dp = max(worst_dp, abs(ladder[d] - brute_cavity_logz(a, b, d)))
    results["cavity_oracle"] = {"max_gap": worst_dp, "pass": worst_dp <= 1e-10}
    return results, all(bool(v.get("pass", True)) for v in results.values())


def explicit_rost_check(spec: MixtureSpec, u_m: OverlapConstraint, u: float,
                        u_prime: OverlapConstraint, n_rep: int, seed: int,
                        threads: int = 1) -> tuple[dict, bool, tuple]:
    """(results, pass, estimate_G_MN's two estimates) of build_explicit_rost(
    u_m, u) for increments at u_prime: its size and tolerance, and three
    checks.  Each base pair's overlap is exactly u_m.u (diag_exact), its
    fields exist (psd_ok), and the terms of replicas 0..4 match their
    brute-force sums to 1e-10 relative, absolute below 1 (dual_path_gap is
    the worst absolute gap).  Those replicas are read from the estimate's
    own draws; the pair cap and the tensor budget are checked before any
    draw."""
    r1, r2 = explicit_pairs(u_m)
    diag_exact = bool(np.all(_base_overlaps(u_m.n, r1, r2) == u_m.u))
    psd_ok = explicit_fields_psd(mixture_functions(spec), u_m)
    checked = min(n_rep, 5)
    terms, brute = np.empty((checked, 3)), np.empty((checked, 2))

    def dual_path(block: range, draws: ExplicitDraw, limit: np.ndarray) -> None:
        for rep in range(block.start, min(block.stop, checked)):
            i = rep - block.start
            terms[rep] = limit[i]
            brute[rep] = brute_explicit_terms(replica_row(draws, i), r1, r2, spec, u_prime)

    estimates = estimate_G_MN(spec, u_m, u_prime, n_rep, seed, threads, probe=dual_path)
    # explicit_terms_block normalizes the weights, so its terms plus its
    # log_norm column are the brute-force sums of unnormalized weights
    gaps = np.abs(terms[:, :2] + terms[:, 2:] - brute)
    ok = diag_exact and psd_ok and np.all(gaps <= 1e-10 * np.maximum(1.0, np.abs(brute)))
    return {"elements": r1.size, "delta": abs(u_m.u - u), "diag_exact": diag_exact,
            "psd_ok": psd_ok, "dual_path_gap": float(gaps.max())}, bool(ok), estimates
