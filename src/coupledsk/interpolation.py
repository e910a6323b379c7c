"""Interpolating Hamiltonians and derivative verdicts.

Two interpolation families are implemented, each with the path value phi(t)
and its t-derivative computed two independent ways:

  * size splitting (lemma2_*): sqrt(t) times an (M+N)-spin coupled system
    against sqrt(1-t) times independent M- and N-spin systems, on the set
    where both block overlaps are pinned.  The derivative decomposes into a
    deterministic constrained term plus a convexity term that is pointwise
    nonpositive for convex mixtures.
  * structure comparison (lemma3_*): sqrt(t) times the true Hamiltonian plus
    its compensator fields against sqrt(1-t) times the per-site cavity
    fields of a random overlap structure, on the product of the structure's
    index set with the exactly-constrained pair set.

Derivatives via Gibbs averages use Gaussian integration by parts identities
evaluated by exact enumeration (XOR-transform bucketing of the two-replica
overlap law), never thermal sampling; the cross-check is a common-random-
number finite difference of phi itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import logsumexp

from .bits import (
    bucket_by_split_popcount,
    fwht,
    magnetizations,
    popcounts,
    spin_matrix,
    split_popcounts,
    xor_correlation,
)
from .configurations import OverlapConstraint, nearest_admissible
from .disorder import HamiltonianTable, RostFieldSampler, RostSpec, get_sampler
from .free_energy import (
    WHT_CAP,
    Estimate,
    GEstimate,
    _estimate,
    estimate_F,
    estimate_G,
    overlap_logz_replicas,
    window_values,
)
from .mixture import (
    MixtureFunctions,
    MixtureSpec,
    NonConvexMixtureError,
    check_convexity,
    mixture_functions,
)
from .parallel import pmap, replica_seed, rng_for


def require_convex(spec: MixtureSpec, what: str) -> None:
    rep = check_convexity(spec)
    if not rep.convex:
        raise NonConvexMixtureError(
            f"{what} is only a theorem for convex mixtures; pair {rep.worst_pair} "
            f"fails near x = {rep.worst_x:.4f}"
        )


# ---------------------------------------------------------------------------
# Size-splitting interpolation
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _split_index_maps(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    masks = np.arange(1 << (m + n), dtype=np.int64)
    rho = masks & ((1 << m) - 1)
    tau = masks >> m
    rho.flags.writeable = False
    tau.flags.writeable = False
    return rho, tau


@lru_cache(maxsize=None)
def _split_indicator(m: int, n: int, d_m: int, d_n: int) -> np.ndarray:
    lo, hi = split_popcounts(m, n)
    ind = ((lo == d_m) & (hi == d_n)).astype(np.float64)
    ind.flags.writeable = False
    return ind


def _split_tables(spec: MixtureSpec, m: int, n: int, root: int, rep: int):
    """Independent disorder tables for the M-, N-, and (M+N)-spin systems."""
    sm = get_sampler(spec, m, "tensor").sample(replica_seed(root, rep, 0))
    sn = get_sampler(spec, n, "tensor").sample(replica_seed(root, rep, 1))
    sbig = get_sampler(spec, m + n, "tensor").sample(replica_seed(root, rep, 2))
    return sm, sn, sbig


def _split_energies(
    spec: MixtureSpec,
    tables: tuple[HamiltonianTable, HamiltonianTable, HamiltonianTable],
    t: float,
) -> tuple[np.ndarray, np.ndarray]:
    sm, sn, sbig = tables
    m, n = sm.n, sn.n
    rho, tau = _split_index_maps(m, n)
    mag = magnetizations(m + n)
    rt, rs = np.sqrt(t), np.sqrt(1.0 - t)
    f1 = rt * sbig.values[0] + rs * (sm.values[0][rho] + sn.values[0][tau]) + spec.h1 * mag
    f2 = rt * sbig.values[1] + rs * (sm.values[1][rho] + sn.values[1][tau]) + spec.h2 * mag
    return f1, f2


def lemma2_phi_replica(
    spec: MixtureSpec,
    u_m: OverlapConstraint,
    u_n: OverlapConstraint,
    t: float,
    tables,
) -> float:
    """Path value for one disorder replica: (1/(M+N)) log of the pinned-block
    pair sum under the interpolated Hamiltonian."""
    m, n = u_m.n, u_n.n
    f1, f2 = _split_energies(spec, tables, t)
    ind = _split_indicator(m, n, u_m.d, u_n.d)
    s1, s2 = float(f1.max()), float(f2.max())
    w1 = np.exp(f1 - s1)
    w2 = np.exp(f2 - s2)
    z = float(w1 @ xor_correlation(w2, ind))
    return (np.log(z) + s1 + s2) / (m + n)


def _lemma2_phi_worker(args) -> float:
    spec, u_m, u_n, t, root, rep = args
    tables = _split_tables(spec, u_m.n, u_n.n, root, rep)
    return lemma2_phi_replica(spec, u_m, u_n, t, tables)


def lemma2_phi(
    spec: MixtureSpec,
    u_m: OverlapConstraint,
    u_n: OverlapConstraint,
    t: float,
    n_rep: int,
    seed: int,
    threads: int = 1,
) -> Estimate:
    """Monte Carlo estimate of the size-splitting path value at t."""
    if u_m.n + u_n.n > WHT_CAP:
        raise ValueError(f"pinned-block route capped at M + N = {WHT_CAP}")
    vals = pmap(
        _lemma2_phi_worker,
        [(spec, u_m, u_n, t, seed, rep) for rep in range(n_rep)],
        threads,
    )
    return _estimate(vals, seed, f"phi_split(m={u_m.n},n={u_n.n},t={t:g})")


@dataclass(frozen=True)
class Lemma2Derivative:
    """Decomposed derivative of the size-splitting path.

    constrained_term is the deterministic pinned-overlap combination
    (M+N) xi12(u') - M xi12(u_M) - N xi12(u_N); convexity_term averages the
    two-replica convexity bracket and must be <= 0 within error; phi_prime is
    (constrained - convexity) / (M+N).
    """

    phi_prime: Estimate
    constrained_term: float
    convexity_term: Estimate


def lemma2_derivative_replica(
    spec: MixtureSpec,
    u_m: OverlapConstraint,
    u_n: OverlapConstraint,
    t: float,
    tables,
) -> tuple[float, float]:
    """(constrained term, convexity term) for one replica, by exact
    two-replica enumeration of the block-overlap law."""
    m, n = u_m.n, u_n.n
    funcs = mixture_functions(spec)
    f1, f2 = _split_energies(spec, tables, t)
    ind = _split_indicator(m, n, u_m.d, u_n.d)
    w1 = np.exp(f1 - f1.max())
    w2 = np.exp(f2 - f2.max())
    conv2 = xor_correlation(w2, ind)
    conv1 = xor_correlation(w1, ind)
    mu1 = w1 * conv2
    mu2 = w2 * conv1
    mu1 /= mu1.sum()
    mu2 /= mu2.sum()

    r_rho = 1.0 - 2.0 * np.arange(m + 1) / m
    r_tau = 1.0 - 2.0 * np.arange(n + 1) / n
    big = m + n
    r_sig = (m * r_rho[:, None] + n * r_tau[None, :]) / big

    def bracket(ell, ellp):
        return (
            big * funcs.xi(ell, ellp, r_sig)
            - m * funcs.xi(ell, ellp, r_rho)[:, None]
            - n * funcs.xi(ell, ellp, r_tau)[None, :]
        )

    p11 = bucket_by_split_popcount(xor_correlation(mu1, mu1), m, n)
    p22 = bucket_by_split_popcount(xor_correlation(mu2, mu2), m, n)
    p12 = bucket_by_split_popcount(xor_correlation(mu1, mu2), m, n)
    convexity = 0.5 * (
        float((p11 * bracket(1, 1)).sum())
        + float((p22 * bracket(2, 2)).sum())
        + 2.0 * float((p12 * bracket(1, 2)).sum())
    )

    u_split = (m * u_m.u + n * u_n.u) / big
    constrained = (
        big * funcs.xi(1, 2, u_split)
        - m * funcs.xi(1, 2, u_m.u)
        - n * funcs.xi(1, 2, u_n.u)
    )
    return float(constrained), convexity


def _lemma2_deriv_worker(args) -> tuple[float, float]:
    spec, u_m, u_n, t, root, rep = args
    tables = _split_tables(spec, u_m.n, u_n.n, root, rep)
    return lemma2_derivative_replica(spec, u_m, u_n, t, tables)


def lemma2_phi_prime_gibbs(
    spec: MixtureSpec,
    u_m: OverlapConstraint,
    u_n: OverlapConstraint,
    t: float,
    n_rep: int,
    seed: int,
    threads: int = 1,
) -> Lemma2Derivative:
    """Exact-Gibbs derivative of the size-splitting path at t."""
    require_convex(spec, "the size-splitting derivative decomposition")
    out = pmap(
        _lemma2_deriv_worker,
        [(spec, u_m, u_n, t, seed, rep) for rep in range(n_rep)],
        threads,
    )
    constrained = out[0][0]
    conv = np.array([v[1] for v in out])
    big = u_m.n + u_n.n
    total = (constrained - conv) / big
    return Lemma2Derivative(
        phi_prime=_estimate(total, seed, f"dphi_split(t={t:g})"),
        constrained_term=constrained,
        convexity_term=_estimate(conv, seed, "convexity_term"),
    )


def _lemma2_fd_worker(args) -> float:
    spec, u_m, u_n, t_lo, t_hi, root, rep = args
    tables = _split_tables(spec, u_m.n, u_n.n, root, rep)
    lo = lemma2_phi_replica(spec, u_m, u_n, t_lo, tables)
    hi = lemma2_phi_replica(spec, u_m, u_n, t_hi, tables)
    return (hi - lo) / (t_hi - t_lo)


def lemma2_phi_prime_fd(
    spec: MixtureSpec,
    u_m: OverlapConstraint,
    u_n: OverlapConstraint,
    t: float,
    n_rep: int,
    seed: int,
    dt: float = 0.05,
    threads: int = 1,
) -> Estimate:
    """Common-random-number finite difference of the path value.

    Central away from the endpoints; one-sided at t = 0 and t = 1 where the
    sqrt factors have infinite slope.
    """
    t_lo, t_hi = max(0.0, t - dt), min(1.0, t + dt)
    vals = pmap(
        _lemma2_fd_worker,
        [(spec, u_m, u_n, t_lo, t_hi, seed, rep) for rep in range(n_rep)],
        threads,
    )
    return _estimate(vals, seed, f"dphi_split_fd(t={t:g})")


# ---------------------------------------------------------------------------
# Structure-comparison interpolation
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _count_indicator(n: int, d: int) -> np.ndarray:
    ind = (popcounts(n) == d).astype(np.float64)
    ind.flags.writeable = False
    return ind


@lru_cache(maxsize=None)
def _popcount_onehot(n: int) -> np.ndarray:
    out = np.zeros((1 << n, n + 1))
    out[np.arange(1 << n), popcounts(n)] = 1.0
    out.flags.writeable = False
    return out


@dataclass(eq=False)
class _Lemma3State:
    """One replica's random inputs: weights, structure fields, and table."""

    w: np.ndarray
    z: np.ndarray  # (n, 2, m)
    y: np.ndarray  # (2, m)
    table: HamiltonianTable


def lemma3_state(
    rost: RostSpec,
    field_sampler: RostFieldSampler,
    spec: MixtureSpec,
    n: int,
    root: int,
    rep: int,
) -> _Lemma3State:
    """Weights on stream 0, fields on stream 1, disorder table on stream 2,
    matching the stream layout of the plain structure-functional estimator."""
    w = rost.weights.sample(rng_for(root, rep, stream=0), rost.m)
    fields = field_sampler.sample(rng_for(root, rep, stream=1), n)
    table = get_sampler(spec, n, "tensor").sample(replica_seed(root, rep, 2))
    return _Lemma3State(w=w, z=fields.z, y=fields.y, table=table)


def _lemma3_element_tables(
    state: _Lemma3State, spec: MixtureSpec, n: int, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-element log-weight tables over configurations, shape (m, 2**n)."""
    s = spin_matrix(n)
    rt, rs = np.sqrt(t), np.sqrt(1.0 - t)
    g1 = rt * state.table.values[0][None, :] + (s @ (rs * state.z[:, 0, :] + spec.h1)).T
    g2 = rt * state.table.values[1][None, :] + (s @ (rs * state.z[:, 1, :] + spec.h2)).T
    return g1, g2


def _lemma3_element_logz(
    state: _Lemma3State, spec: MixtureSpec, n: int, c: OverlapConstraint, t: float
) -> np.ndarray:
    """log of the constrained pair sum per structure element, plus that
    element's compensator contribution, shape (m,)."""
    g1, g2 = _lemma3_element_tables(state, spec, n, t)
    ind = _count_indicator(n, c.d)
    s1 = g1.max(axis=1, keepdims=True)
    s2 = g2.max(axis=1, keepdims=True)
    w1 = np.exp(g1 - s1)
    w2 = np.exp(g2 - s2)
    z = np.einsum("ac,ac->a", w1, xor_correlation(w2, ind))
    log_pairs = np.log(z) + s1[:, 0] + s2[:, 0]
    y_part = np.sqrt(t * n) * (state.y[0] + state.y[1])
    return log_pairs + y_part


def lemma3_phi_replica(
    state: _Lemma3State, spec: MixtureSpec, n: int, c: OverlapConstraint, t: float
) -> float:
    log_z = _lemma3_element_logz(state, spec, n, c, t)
    return float(logsumexp(log_z, b=state.w)) / n


def _lemma3_phi_worker(args) -> float:
    rost, field_sampler, spec, n, c, t, root, rep = args
    state = lemma3_state(rost, field_sampler, spec, n, root, rep)
    return lemma3_phi_replica(state, spec, n, c, t)


def lemma3_phi(
    rost: RostSpec,
    spec: MixtureSpec,
    n: int,
    c: OverlapConstraint,
    t: float,
    n_rep: int,
    seed: int,
    threads: int = 1,
) -> Estimate:
    """Monte Carlo estimate of the structure-comparison path value at t."""
    field_sampler = RostFieldSampler(rost, mixture_functions(spec))
    vals = pmap(
        _lemma3_phi_worker,
        [(rost, field_sampler, spec, n, c, t, seed, rep) for rep in range(n_rep)],
        threads,
    )
    return _estimate(vals, seed, f"phi_rost(n={n},t={t:g})")


@dataclass(frozen=True)
class Lemma3Derivative:
    """Decomposed derivative of the structure-comparison path.

    first_sum averages xi12(u_N) - u_N xi12'(q_aa) + theta12(q_aa) over the
    element marginal; its magnitude never exceeds first_sum_bound, a fully
    computable constant.  second_line is nonpositive within error for convex
    mixtures; phi_prime = first_sum + second_line.
    """

    phi_prime: Estimate
    first_sum: Estimate
    second_line: Estimate
    first_sum_bound: float


def first_sum_bound(rost: RostSpec, funcs: MixtureFunctions, u_n: float) -> float:
    """max over elements of |xi12(u_N) - u_N xi12'(q_aa) + theta12(q_aa)|."""
    qd = np.diag(rost.q12)
    vals = (
        funcs.xi(1, 2, u_n)
        - u_n * funcs.xi_prime(1, 2, qd)
        + funcs.theta(1, 2, qd)
    )
    return float(np.max(np.abs(vals)))


def lemma3_derivative_replica(
    state: _Lemma3State,
    rost: RostSpec,
    spec: MixtureSpec,
    n: int,
    c: OverlapConstraint,
    t: float,
) -> tuple[float, float]:
    """(first sum, second line) for one replica by exact enumeration.

    Element marginals and the conditional single-copy laws are exact; the
    two-replica overlap distribution per element pair comes from an XOR
    correlation of the conditional laws.
    """
    funcs = mixture_functions(spec)
    m = rost.m
    g1, g2 = _lemma3_element_tables(state, spec, n, t)
    ind = _count_indicator(n, c.d)
    s1 = g1.max(axis=1, keepdims=True)
    s2 = g2.max(axis=1, keepdims=True)
    w1 = np.exp(g1 - s1)
    w2 = np.exp(g2 - s2)
    conv2 = xor_correlation(w2, ind)
    conv1 = xor_correlation(w1, ind)
    nu1 = w1 * conv2
    nu2 = w2 * conv1
    z = nu1.sum(axis=1)
    nu1 /= z[:, None]
    nu2 /= nu2.sum(axis=1)[:, None]
    log_z = np.log(z) + s1[:, 0] + s2[:, 0]
    with np.errstate(divide="ignore"):
        log_p = np.log(state.w)
    log_p = log_p + log_z + np.sqrt(t * n) * (state.y[0] + state.y[1])
    p_alpha = np.exp(log_p - logsumexp(log_p))

    u_n = c.u
    diag_vals = (
        funcs.xi(1, 2, u_n)
        - u_n * funcs.xi_prime(1, 2, np.diag(rost.q12))
        + funcs.theta(1, 2, np.diag(rost.q12))
    )
    first = float(p_alpha @ diag_vals)

    onehot = _popcount_onehot(n)
    r_vals = 1.0 - 2.0 * np.arange(n + 1) / n
    f1 = fwht(nu1, axis=1)
    f2 = fwht(nu2, axis=1)
    fcopy = {1: f1, 2: f2}
    total_b = 0.0
    for ell in (1, 2):
        for ellp in (1, 2):
            q = rost.q(ell, ellp)
            xi_r = funcs.xi(ell, ellp, r_vals)
            corr = fwht(fcopy[ell][:, None, :] * fcopy[ellp][None, :, :], axis=2) / (1 << n)
            pmf = corr @ onehot  # (m, m, n+1)
            e_xi = pmf @ xi_r
            e_r = pmf @ r_vals
            vals = e_xi - e_r * funcs.xi_prime(ell, ellp, q) + funcs.theta(ell, ellp, q)
            total_b += float(p_alpha @ vals @ p_alpha)
    second_line = -0.5 * total_b
    return first, second_line


def _lemma3_deriv_worker(args) -> tuple[float, float]:
    rost, field_sampler, spec, n, c, t, root, rep = args
    state = lemma3_state(rost, field_sampler, spec, n, root, rep)
    return lemma3_derivative_replica(state, rost, spec, n, c, t)


def lemma3_phi_prime_gibbs(
    rost: RostSpec,
    spec: MixtureSpec,
    n: int,
    c: OverlapConstraint,
    t: float,
    n_rep: int,
    seed: int,
    threads: int = 1,
) -> Lemma3Derivative:
    """Exact-Gibbs derivative of the structure-comparison path at t."""
    require_convex(spec, "the structure-comparison derivative decomposition")
    field_sampler = RostFieldSampler(rost, mixture_functions(spec))
    out = pmap(
        _lemma3_deriv_worker,
        [(rost, field_sampler, spec, n, c, t, seed, rep) for rep in range(n_rep)],
        threads,
    )
    first = np.array([v[0] for v in out])
    second = np.array([v[1] for v in out])
    bound = first_sum_bound(rost, mixture_functions(spec), c.u)
    if np.any(np.abs(first) > bound + 1e-9):
        raise RuntimeError("element average escaped its computable bound")
    return Lemma3Derivative(
        phi_prime=_estimate(first + second, seed, f"dphi_rost(t={t:g})"),
        first_sum=_estimate(first, seed, "first_sum"),
        second_line=_estimate(second, seed, "second_line"),
        first_sum_bound=bound,
    )


def _lemma3_fd_worker(args) -> float:
    rost, field_sampler, spec, n, c, t_lo, t_hi, root, rep = args
    state = lemma3_state(rost, field_sampler, spec, n, root, rep)
    lo = lemma3_phi_replica(state, spec, n, c, t_lo)
    hi = lemma3_phi_replica(state, spec, n, c, t_hi)
    return (hi - lo) / (t_hi - t_lo)


def lemma3_phi_prime_fd(
    rost: RostSpec,
    spec: MixtureSpec,
    n: int,
    c: OverlapConstraint,
    t: float,
    n_rep: int,
    seed: int,
    dt: float = 0.05,
    threads: int = 1,
) -> Estimate:
    """Common-random-number finite difference; one-sided at the endpoints."""
    t_lo, t_hi = max(0.0, t - dt), min(1.0, t + dt)
    field_sampler = RostFieldSampler(rost, mixture_functions(spec))
    vals = pmap(
        _lemma3_fd_worker,
        [(rost, field_sampler, spec, n, c, t_lo, t_hi, seed, rep) for rep in range(n_rep)],
        threads,
    )
    return _estimate(vals, seed, f"dphi_rost_fd(t={t:g})")


# ---------------------------------------------------------------------------
# Curve runners
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class InterpolationRun:
    kind: str
    sizes: dict
    t_grid: tuple[float, ...]
    phi: list[Estimate]
    dphi_fd: list[Estimate]
    dphi_gibbs: list[Estimate]
    verdicts: dict = field(default_factory=dict)


def run_lemma2_curve(
    spec: MixtureSpec,
    m: int,
    n: int,
    u: float,
    t_grid,
    n_rep: int,
    seed: int,
    threads: int = 1,
) -> InterpolationRun:
    u_m = nearest_admissible(m, u)
    u_n = nearest_admissible(n, u)
    phi = [lemma2_phi(spec, u_m, u_n, t, n_rep, seed, threads) for t in t_grid]
    fd = [lemma2_phi_prime_fd(spec, u_m, u_n, t, n_rep, seed, threads=threads) for t in t_grid]
    gibbs = [
        lemma2_phi_prime_gibbs(spec, u_m, u_n, t, n_rep, seed, threads) for t in t_grid
    ]
    agree = _fd_gibbs_agreement(fd, [g.phi_prime for g in gibbs])
    verdicts = {
        "fd_gibbs_max_sigmas": agree,
        "fd_gibbs_pass": agree <= 3.0,
        "convexity_term_nonpositive": all(
            g.convexity_term.mean <= 3.0 * g.convexity_term.stderr for g in gibbs
        ),
    }
    return InterpolationRun(
        kind="size-splitting",
        sizes={"m": m, "n": n, "u": u},
        t_grid=tuple(t_grid),
        phi=phi,
        dphi_fd=fd,
        dphi_gibbs=[g.phi_prime for g in gibbs],
        verdicts=verdicts,
    )


def run_lemma3_curve(
    rost: RostSpec,
    spec: MixtureSpec,
    n: int,
    c: OverlapConstraint,
    t_grid,
    n_rep: int,
    seed: int,
    threads: int = 1,
) -> InterpolationRun:
    phi = [lemma3_phi(rost, spec, n, c, t, n_rep, seed, threads) for t in t_grid]
    fd = [
        lemma3_phi_prime_fd(rost, spec, n, c, t, n_rep, seed, threads=threads)
        for t in t_grid
    ]
    gibbs = [
        lemma3_phi_prime_gibbs(rost, spec, n, c, t, n_rep, seed, threads)
        for t in t_grid
    ]
    agree = _fd_gibbs_agreement(fd, [g.phi_prime for g in gibbs])
    verdicts = {
        "fd_gibbs_max_sigmas": agree,
        "fd_gibbs_pass": agree <= 3.0,
        "second_line_nonpositive": all(
            g.second_line.mean <= 3.0 * g.second_line.stderr for g in gibbs
        ),
        "first_sum_bound": gibbs[0].first_sum_bound if gibbs else 0.0,
    }
    return InterpolationRun(
        kind="structure-comparison",
        sizes={"n": n, "m_elements": rost.m},
        t_grid=tuple(t_grid),
        phi=phi,
        dphi_fd=fd,
        dphi_gibbs=[g.phi_prime for g in gibbs],
        verdicts=verdicts,
    )


def _fd_gibbs_agreement(fd: list[Estimate], gibbs: list[Estimate]) -> float:
    worst = 0.0
    for a, b in zip(fd, gibbs):
        sig = np.hypot(a.stderr, b.stderr)
        if sig == 0.0:
            if abs(a.mean - b.mean) > 1e-9:
                return np.inf
            continue
        worst = max(worst, abs(a.mean - b.mean) / sig)
    return worst


# ---------------------------------------------------------------------------
# Verdict suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerdictConfig:
    spec: MixtureSpec
    u: float
    n_list: tuple[int, ...]
    eps_grid: tuple[float, ...] = (0.0, 0.25, 0.5, 1.0)
    n_rep: int = 500
    seed: int = 0
    sampler: str = "tensor"
    threads: int = 1
    rost: RostSpec | None = None
    rost_n: int | None = None
    rost_t_grid: tuple[float, ...] = (0.25, 0.5, 0.75)


# F <= G + computable bound is asserted up to this many combined standard
# errors of F and G
STRUCTURE_MARGIN_SIGMAS = 4.0


def _zero_based(eps_grid) -> tuple[float, ...]:
    eps_grid = tuple(eps_grid)
    if eps_grid[0] != 0.0:
        raise ValueError("eps grid must start at 0 (the exact-constraint baseline)")
    return eps_grid


def window_gaps(log_z: np.ndarray, k: int, eps_grid) -> dict:
    """Per-eps window gaps relative to the exact constraint, from the log Z(d)
    rows of common tables.

    Returns means, stderrs, the per-replica minimum gap (must be >= 0), and
    the fitted window constant max over eps > 0 of gap / sqrt(eps).
    """
    eps_grid = _zero_based(eps_grid)
    n_rep, n = log_z.shape[0], log_z.shape[1] - 1
    rows = np.stack(
        [window_values(log_z, OverlapConstraint(n=n, k=k, eps=e)) for e in eps_grid], axis=1
    )
    gaps = rows - rows[:, :1]
    means = gaps.mean(axis=0)
    ses = gaps.std(axis=0, ddof=1) / np.sqrt(n_rep)
    ratios = means[1:] / np.sqrt(eps_grid[1:])
    j = int(np.argmax(ratios))
    return {
        "eps": eps_grid,
        "gap_mean": means,
        "gap_stderr": ses,
        "min_gap": float(gaps.min()),
        "fitted_constant": float(ratios[j]),
        "fitted_constant_stderr": float(ses[1 + j] / np.sqrt(eps_grid[1 + j])),
    }


def window_gap_profile(
    spec: MixtureSpec,
    n: int,
    k: int,
    eps_grid,
    n_rep: int,
    seed: int,
    sampler: str = "tensor",
    threads: int = 1,
) -> dict:
    """window_gaps of n_rep freshly drawn tables at size n."""
    eps_grid = _zero_based(eps_grid)
    return window_gaps(overlap_logz_replicas(spec, n, n_rep, seed, sampler, threads), k, eps_grid)


def _weighted_slope(x: np.ndarray, y: np.ndarray, se: np.ndarray) -> tuple[float, float]:
    """Weighted least-squares slope and its standard error."""
    w = 1.0 / np.maximum(se, 1e-15) ** 2
    xbar = (w * x).sum() / w.sum()
    sxx = (w * (x - xbar) ** 2).sum()
    slope = (w * (x - xbar) * y).sum() / sxx
    return float(slope), float(np.sqrt(1.0 / sxx))


def _trend_tstat(x, y: np.ndarray, se: np.ndarray) -> float:
    """One-sided t statistic of the weighted slope of y against x."""
    slope, slope_se = _weighted_slope(np.array(x, dtype=np.float64), y, se)
    return slope / slope_se if slope_se > 0 else 0.0


# Unknown proof constants are never asserted numerically: every check below
# either uses a computable bound or fits a constant and monitors its trend
# across sizes (one-sided t statistic of the weighted slope < 2).


def window_constant_check(n_list, profiles: dict[int, dict]) -> dict:
    """Window values dominate point values, and the fitted window constant
    does not grow with n.  profiles maps each n to its window_gaps result."""
    lhat = np.array([profiles[n]["fitted_constant"] for n in n_list])
    lse = np.array([profiles[n]["fitted_constant_stderr"] for n in n_list])
    # a two-point weighted slope has no residual freedom; only test the
    # growth trend when three or more sizes are available
    assessed = len(n_list) >= 3
    tstat = _trend_tstat(n_list, lhat, lse) if assessed else 0.0
    min_gap = min(profiles[n]["min_gap"] for n in n_list)
    return {
        "check": "window-constant",
        "sizes": list(n_list),
        "fitted_constant": lhat.tolist(),
        "slope_tstat": float(tstat),
        "trend_assessed": assessed,
        "min_gap": min_gap,
        "pass": bool(min_gap >= -1e-12 and tstat < 2.0),
    }


def superadditivity_check(
    spec: MixtureSpec,
    u: float,
    n_list,
    n_rep: int,
    seed: int,
    sampler: str = "tensor",
    threads: int = 1,
) -> dict:
    """Restricted-range superadditivity: the normalized deficit
    -((m+n) F_{m+n} - m F_m - n F_n) / sqrt(m+n) does not grow with m+n."""
    f_cache: dict[int, Estimate] = {}

    def f_of(n: int) -> Estimate:
        if n not in f_cache:
            f_cache[n] = estimate_F(
                spec, n, nearest_admissible(n, u), n_rep, seed + 104729 * n, sampler, threads
            )
        return f_cache[n]

    pairs = [
        (m, n)
        for m in n_list
        for n in n_list
        if n / 2 <= m <= 2 * n and m + n <= WHT_CAP
    ]
    normalized = []
    norm_se = []
    sizes = []
    for m, n in pairs:
        fm, fn, fb = f_of(m), f_of(n), f_of(m + n)
        deficit = (m + n) * fb.mean - m * fm.mean - n * fn.mean
        se = np.sqrt(
            ((m + n) * fb.stderr) ** 2 + (m * fm.stderr) ** 2 + (n * fn.stderr) ** 2
        )
        normalized.append(-deficit / np.sqrt(m + n))
        norm_se.append(se / np.sqrt(m + n))
        sizes.append(m + n)
    normalized = np.array(normalized)
    norm_se = np.array(norm_se)
    fitted = float(np.clip(normalized, 0.0, None).max()) if pairs else 0.0
    tstat = _trend_tstat(sizes, normalized, norm_se) if len(set(sizes)) >= 3 else 0.0
    # shift constant large enough to absorb the fitted defect on the
    # restricted range; reported, never asserted
    gap_coeff = np.sqrt(1.0 / 3.0) + np.sqrt(2.0 / 3.0) - 1.0
    return {
        "check": "superadditivity",
        "sizes": [list(p) for p in pairs],
        "fitted_constant": fitted,
        "margin_sigmas": 3.0,
        "pass": bool(tstat < 2.0),
        "slope_tstat": float(tstat),
        "normalized_deficits": normalized.tolist(),
        "implied_shift_threshold": float(fitted / gap_coeff),
    }


def structure_bound_check(
    rost: RostSpec,
    spec: MixtureSpec,
    c: OverlapConstraint,
    f_est: Estimate,
    g_est: GEstimate,
    t_grid,
    n_rep: int,
    seed: int,
    threads: int = 1,
) -> dict:
    """F <= G + first_sum_bound within STRUCTURE_MARGIN_SIGMAS, and the
    second line of the structure-comparison derivative at most 3 sigma above
    zero at every t.  f_est and g_est are the F and G estimates at c."""
    bound = first_sum_bound(rost, mixture_functions(spec), c.u)
    margin = STRUCTURE_MARGIN_SIGMAS * float(np.hypot(f_est.stderr, g_est.diff.stderr))
    worst = -np.inf
    for t in t_grid:
        line = lemma3_phi_prime_gibbs(rost, spec, c.n, c, t, n_rep, seed, threads).second_line
        worst = max(worst, line.mean / line.stderr if line.stderr > 0 else 0.0)
    return {
        "check": "structure-upper-bound",
        "sizes": [c.n, rost.m],
        "f": f_est.mean,
        "g": g_est.diff.mean,
        "computable_bound": bound,
        "margin": margin,
        "margin_sigmas": STRUCTURE_MARGIN_SIGMAS,
        "second_line_worst_sigmas": float(worst),
        "pass": bool(f_est.mean <= g_est.diff.mean + bound + margin and worst <= 3.0),
    }


def sequence_check(n_list, log_z: dict[int, np.ndarray], profiles: dict[int, dict], u: float) -> dict:
    """The exactly-constrained free energy moves between neighbouring
    admissible overlaps by no more than the fitted window constant allows.
    log_z and profiles map each n to its log Z(d) rows and window_gaps."""
    ok = True
    ratios = []
    for n in n_list:
        k0 = nearest_admissible(n, u).k
        k1 = k0 + 2 if k0 + 2 <= n else k0 - 2
        vals = (log_z[n][:, (n - k0) // 2] - log_z[n][:, (n - k1) // 2]) / n
        diff_mean, diff_se = float(np.mean(vals)), float(np.std(vals, ddof=1) / np.sqrt(len(vals)))
        bound = profiles[n]["fitted_constant"] * np.sqrt(abs(k1 - k0) / n) + 3.0 * diff_se
        ratios.append(abs(diff_mean) / bound if bound > 0 else 0.0)
        ok = ok and abs(diff_mean) <= bound
    return {
        "check": "sequence-independence",
        "sizes": list(n_list),
        "fitted_constant": float(max(ratios)) if ratios else 0.0,
        "margin_sigmas": 3.0,
        "pass": bool(ok),
    }


def verdict_suite(config: VerdictConfig) -> dict:
    """Machine-readable verdicts for the window constant, restricted-range
    superadditivity, the structure upper bound (when a structure is given),
    and sequence independence.  The window-constant and sequence checks read
    one table pass per size."""
    spec, u = config.spec, config.u
    log_z, profiles = {}, {}
    for n in config.n_list:
        log_z[n] = overlap_logz_replicas(
            spec, n, config.n_rep, config.seed, config.sampler, config.threads
        )
        profiles[n] = window_gaps(log_z[n], nearest_admissible(n, u).k, config.eps_grid)
    checks = [
        window_constant_check(config.n_list, profiles),
        superadditivity_check(
            spec, u, config.n_list, config.n_rep, config.seed, config.sampler, config.threads
        ),
    ]
    if config.rost is not None and config.rost_n is not None:
        c = nearest_admissible(config.rost_n, u)
        f_est = estimate_F(spec, c.n, c, config.n_rep, config.seed, config.sampler,
                           config.threads)
        g_est = estimate_G(config.rost, spec, c.n, c, config.n_rep, config.seed, config.threads)
        checks.append(structure_bound_check(
            config.rost, spec, c, f_est, g_est, config.rost_t_grid, config.n_rep,
            config.seed, config.threads,
        ))
    checks.append(sequence_check(config.n_list, log_z, profiles, u))
    return {"checks": checks, "pass": all(c["pass"] for c in checks)}
