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

Both paths draw their disorder tables on the route the caller's sampler
names: the derivative identities use only the covariance n * xi_{l,l'}(R),
which the tensor and process routes share.

Derivatives via Gibbs averages use Gaussian integration by parts identities
evaluated by exact enumeration, never thermal sampling; the cross-check is a
common-random-number finite difference of phi itself.  Each class indicator
is held as its Walsh spectrum, and each weight array is transformed once.  A
two-replica average of a function of the overlap is never taken over the
copy-pair XOR law itself: by Parseval on Z_2^n it is the pairing of the two
copies' conditional-law spectra with the function's spectrum, and a function
of popcounts has its spectrum from the Krawtchouk table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bits import fwht, magnetizations, popcounts, spin_matrix, split_popcounts
from .configurations import OverlapConstraint, nearest_admissible
from .disorder import HamiltonianTable, RostFieldSampler, RostSpec, get_sampler
from .free_energy import (
    WHT_CAP,
    Estimate,
    GEstimate,
    _estimate,
    estimate_F,
    logsumexp,
    overlap_logz_replicas,
    positive_sums,
    require_finite_fields,
    window_values,
)
from .mixture import (
    COPY_PAIRS,
    MixtureFunctions,
    MixtureSpec,
    NonConvexMixtureError,
    check_convexity,
    mixture_functions,
)
from .parallel import pmap, replica_seed, rng_for


# step of the common-random-number finite difference of phi
FD_STEP = 0.05


def _unit_points(ts) -> tuple[float, ...]:
    ts = tuple(ts)
    if not all(0.0 <= t <= 1.0 for t in ts):
        raise ValueError(f"interpolation points must lie in [0, 1], got {ts}")
    return ts


def require_convex(spec: MixtureSpec, what: str) -> None:
    rep = check_convexity(spec)
    if not rep.convex:
        raise NonConvexMixtureError(
            f"{what} is only a theorem for convex mixtures; pair {rep.worst_pair} "
            f"fails near x = {rep.worst_x:.4f}"
        )


@lru_cache(maxsize=None)
def _count_spectrum(n: int, d: int) -> np.ndarray:
    """Walsh spectrum of the indicator of the masks with popcount d."""
    out = fwht((popcounts(n) == d).astype(np.float64))
    out.flags.writeable = False
    return out


def _class_correlation(w: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """XOR correlation of the rows of w with the class of the given spectrum."""
    return fwht(fwht(w) * spectrum) / w.shape[-1]


def _class_weights(g1: np.ndarray, g2: np.ndarray, spectrum: np.ndarray):
    """(s1, s2, w1, w2, conv2) for rows of copy-1 and copy-2 log-weights and a
    class spectrum: the per-row max shifts, the shifted weights exp(g - s),
    and copy 2's XOR correlation with the class.  A row's pair sum over the
    class is exp(s1 + s2) times w1 . conv2."""
    s1 = g1.max(axis=-1, keepdims=True)
    s2 = g2.max(axis=-1, keepdims=True)
    w1 = np.exp(g1 - s1)
    w2 = np.exp(g2 - s2)
    return s1[..., 0], s2[..., 0], w1, w2, _class_correlation(w2, spectrum)


def _copy_spectra(w1: np.ndarray, w2: np.ndarray, conv2: np.ndarray, spectrum: np.ndarray):
    """(z, spectra) from _class_weights' output for rows of 2**n weights: each
    row's pair sum over the class, w1 . conv2, and the Walsh spectra of the
    two copies' conditional laws on the class, spectra[l] = fwht(nu_l).

    The XOR law of copies l and l', sum_s nu_l[a, s] nu_l'[b, s ^ x], has
    spectrum spectra[l][a] * spectra[l'][b]; by Parseval its sum against f(x)
    is (spectra[l][a] * spectra[l'][b]) @ fwht(f) / 2**n, so no law is built."""
    nu1 = w1 * conv2
    nu2 = w2 * _class_correlation(w1, spectrum)
    z = positive_sums(nu1.sum(axis=-1, keepdims=True))
    nu1 /= z
    nu2 /= nu2.sum(axis=-1, keepdims=True)
    return z[..., 0], {1: fwht(nu1), 2: fwht(nu2)}


@lru_cache(maxsize=None)
def _krawtchouk(n: int) -> np.ndarray:
    """K[d, j], the Walsh spectrum of the popcount-d class at any mask of
    popcount j, so f(popcount) has the spectrum (f @ K)[popcounts(n)]."""
    first = (1 << np.arange(n + 1)) - 1  # the least mask of each popcount
    out = np.stack([_count_spectrum(n, d)[first] for d in range(n + 1)])
    out.flags.writeable = False
    return out


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
def _split_spectrum(m: int, n: int, d_m: int, d_n: int) -> np.ndarray:
    """Walsh spectrum of the pinned-block class (popcount d_m in the low m
    bits, d_n in the high n bits); the indicator is a tensor product, so its
    spectrum is the Kronecker product of the blocks' spectra."""
    out = np.kron(_count_spectrum(n, d_n), _count_spectrum(m, d_m))
    out.flags.writeable = False
    return out


def _split_tables(spec: MixtureSpec, m: int, n: int, root: int, rep: int,
                  sampler: str = "tensor"):
    """Independent disorder tables for the M-, N-, and (M+N)-spin systems,
    on streams 0, 1 and 2."""
    return tuple(get_sampler(spec, size, sampler).sample(replica_seed(root, rep, stream))
                 for stream, size in enumerate((m, n, m + n)))


def _split_energies(
    spec: MixtureSpec,
    tables: tuple[HamiltonianTable, HamiltonianTable, HamiltonianTable],
    t: float,
) -> tuple[np.ndarray, np.ndarray]:
    sm, sn, sbig = tables
    m, n = sm.n, sn.n
    require_finite_fields(m + n, spec.h1, spec.h2)
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
    spectrum = _split_spectrum(u_m.n, u_n.n, u_m.d, u_n.d)
    s1, s2, w1, _, conv2 = _class_weights(*_split_energies(spec, tables, t), spectrum)
    return _split_phi(s1, s2, w1, conv2, u_m.n + u_n.n)


def _split_phi(s1, s2, w1: np.ndarray, conv2: np.ndarray, big: int) -> float:
    """The path value from _class_weights of the pinned-block class."""
    return float((np.log(positive_sums(float(w1 @ conv2))) + s1 + s2) / big)


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
    """(path value, convexity term) for one replica, by exact two-replica
    enumeration: the block-overlap law's pairing with each convexity bracket
    is taken in the Walsh domain.  The path value is lemma2_phi_replica's,
    from the same weights."""
    m, n = u_m.n, u_n.n
    funcs = mixture_functions(spec)
    spectrum = _split_spectrum(m, n, u_m.d, u_n.d)
    s1, s2, w1, w2, conv2 = _class_weights(*_split_energies(spec, tables, t), spectrum)
    _, spectra = _copy_spectra(w1, w2, conv2, spectrum)

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

    # each bracket laid over the masks by their block popcounts, as a spectrum
    # (the pinned-block spectra are Kronecker products); the (2, 1) law is
    # the mirror of the (1, 2) one, so that pair counts twice
    lo, hi = split_popcounts(m, n)
    k_m, k_n = _krawtchouk(m), _krawtchouk(n)
    total = 0.0
    for (ell, ellp), mult in zip(COPY_PAIRS, (1.0, 2.0, 1.0)):
        b_hat = (k_m.T @ bracket(ell, ellp) @ k_n)[lo, hi]
        total += mult * float((spectra[ell] * spectra[ellp]) @ b_hat)
    convexity = 0.5 * total / 2**big

    return _split_phi(s1, s2, w1, conv2, big), convexity


def _split_constrained_term(
    funcs: MixtureFunctions, u_m: OverlapConstraint, u_n: OverlapConstraint
) -> float:
    """(M+N) xi12(u') - M xi12(u_M) - N xi12(u_N); it involves no disorder."""
    m, n = u_m.n, u_n.n
    big = m + n
    u_split = (m * u_m.u + n * u_n.u) / big
    constrained = (
        big * funcs.xi(1, 2, u_split)
        - m * funcs.xi(1, 2, u_m.u)
        - n * funcs.xi(1, 2, u_n.u)
    )
    return float(constrained)


def _lemma2_worker(args) -> tuple[list[float], list[float]]:
    spec, u_m, u_n, phi_ts, deriv_ts, root, rep, sampler = args
    tables = _split_tables(spec, u_m.n, u_n.n, root, rep, sampler)
    der = {t: lemma2_derivative_replica(spec, u_m, u_n, t, tables) for t in deriv_ts}
    phi = [der[t][0] if t in der else lemma2_phi_replica(spec, u_m, u_n, t, tables)
           for t in phi_ts]
    return phi, [der[t][1] for t in deriv_ts]


def _lemma2_pass(
    spec: MixtureSpec,
    u_m: OverlapConstraint,
    u_n: OverlapConstraint,
    phi_ts,
    deriv_ts,
    n_rep: int,
    seed: int,
    sampler: str = "tensor",
    threads: int = 1,
) -> tuple[np.ndarray, list[Lemma2Derivative]]:
    """One pass over the replicas of the size-splitting path: each replica's
    tables are drawn once and evaluated at every t, once per t: a phi point
    that is also a derivative point takes the derivative's path value.
    Returns the path values, shape (n_rep, len(phi_ts)), and the exact-Gibbs
    derivative at each of deriv_ts."""
    if u_m.n + u_n.n > WHT_CAP:
        raise ValueError(f"pinned-block route capped at M + N = {WHT_CAP}")
    phi_ts, deriv_ts = _unit_points(phi_ts), _unit_points(deriv_ts)
    if deriv_ts:
        require_convex(spec, "the size-splitting derivative decomposition")
    # built here, before pmap forks: a size check fails before any replica
    for size in (u_m.n, u_n.n, u_m.n + u_n.n):
        get_sampler(spec, size, sampler)
    out = pmap(
        _lemma2_worker,
        [(spec, u_m, u_n, phi_ts, deriv_ts, seed, rep, sampler) for rep in range(n_rep)],
        threads,
    )
    phi = np.array([o[0] for o in out]).reshape(n_rep, len(phi_ts))
    conv = np.array([o[1] for o in out]).reshape(n_rep, len(deriv_ts))
    constrained = _split_constrained_term(mixture_functions(spec), u_m, u_n)
    big = u_m.n + u_n.n
    derivs = [
        Lemma2Derivative(
            phi_prime=_estimate((constrained - conv[:, j]) / big, seed, f"dphi_split(t={t:g})"),
            constrained_term=constrained,
            convexity_term=_estimate(conv[:, j], seed, "convexity_term"),
        )
        for j, t in enumerate(deriv_ts)
    ]
    return phi, derivs


# ---------------------------------------------------------------------------
# Structure-comparison interpolation
# ---------------------------------------------------------------------------


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
    sampler: str = "tensor",
) -> _Lemma3State:
    """Weights on stream 0, fields on stream 1, disorder table on stream 2,
    matching the stream layout of the plain structure-functional estimator."""
    w = rost.weights.sample(rng_for(root, rep, stream=0), rost.m)
    fields = field_sampler.sample(rng_for(root, rep, stream=1), n)
    table = get_sampler(spec, n, sampler).sample(replica_seed(root, rep, 2))
    return _Lemma3State(w=w, z=fields.z, y=fields.y, table=table)


def _lemma3_element_tables(
    state: _Lemma3State, spec: MixtureSpec, n: int, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-element log-weight tables over configurations, shape (m, 2**n)."""
    require_finite_fields(n, spec.h1, spec.h2)
    s = spin_matrix(n)
    rt, rs = np.sqrt(t), np.sqrt(1.0 - t)
    g1 = rt * state.table.values[0][None, :] + (s @ (rs * state.z[:, 0, :] + spec.h1)).T
    g2 = rt * state.table.values[1][None, :] + (s @ (rs * state.z[:, 1, :] + spec.h2)).T
    return g1, g2


def lemma3_phi_replica(
    state: _Lemma3State, spec: MixtureSpec, n: int, c: OverlapConstraint, t: float
) -> float:
    spectrum = _count_spectrum(n, c.d)
    s1, s2, w1, _, conv2 = _class_weights(*_lemma3_element_tables(state, spec, n, t), spectrum)
    return _lemma3_phi(state, n, t, s1, s2, w1, conv2)


def _lemma3_phi(state: _Lemma3State, n: int, t: float, s1, s2, w1, conv2) -> float:
    """(1/n) log of the weighted element sum of each element's constrained
    pair sum times its compensator factor."""
    log_pairs = np.log(positive_sums(np.einsum("ac,ac->a", w1, conv2))) + s1 + s2
    y_part = np.sqrt(t * n) * (state.y[0] + state.y[1])
    return float(logsumexp(log_pairs + y_part, b=state.w)) / n


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


def _first_sum_terms(rost: RostSpec, funcs: MixtureFunctions, u_n: float) -> np.ndarray:
    """xi12(u_N) - u_N xi12'(q_aa) + theta12(q_aa) per structure element."""
    qd = np.diag(rost.q12)
    return funcs.xi(1, 2, u_n) - u_n * funcs.xi_prime(1, 2, qd) + funcs.theta(1, 2, qd)


def first_sum_bound(rost: RostSpec, funcs: MixtureFunctions, u_n: float) -> float:
    """max over elements of |xi12(u_N) - u_N xi12'(q_aa) + theta12(q_aa)|."""
    return float(np.max(np.abs(_first_sum_terms(rost, funcs, u_n))))


def lemma3_derivative_replica(
    state: _Lemma3State,
    rost: RostSpec,
    spec: MixtureSpec,
    n: int,
    c: OverlapConstraint,
    t: float,
) -> tuple[float, float, float]:
    """(path value, first sum, second line) for one replica by exact
    enumeration; the path value is lemma3_phi_replica's, from the same
    weights.

    Element marginals and the conditional single-copy laws are exact; each
    element pair's two-replica averages of the overlap are Walsh-domain
    pairings of the two copies' conditional-law spectra.
    """
    funcs = mixture_functions(spec)
    spectrum = _count_spectrum(n, c.d)
    s1, s2, w1, w2, conv2 = _class_weights(*_lemma3_element_tables(state, spec, n, t), spectrum)
    phi = _lemma3_phi(state, n, t, s1, s2, w1, conv2)
    z, spectra = _copy_spectra(w1, w2, conv2, spectrum)
    log_z = np.log(z) + s1 + s2
    with np.errstate(divide="ignore"):
        log_p = np.log(state.w)
    log_p = log_p + log_z + np.sqrt(t * n) * (state.y[0] + state.y[1])
    p_alpha = np.exp(log_p - logsumexp(log_p))
    first = float(p_alpha @ _first_sum_terms(rost, funcs, c.u))

    # the overlap and xi of it as spectra over XOR masks; the (2, 1) block is
    # the transpose of the (1, 2) one, so that pair counts twice
    r_vals = 1.0 - 2.0 * np.arange(n + 1) / n
    k, pop = _krawtchouk(n), popcounts(n)
    r_hat = (r_vals @ k)[pop]
    total_b = 0.0
    for (ell, ellp), mult in zip(COPY_PAIRS, (1.0, 2.0, 1.0)):
        q = rost.q(ell, ellp)
        f_l, f_lp = spectra[ell], spectra[ellp]
        e_xi = (f_l * (funcs.xi(ell, ellp, r_vals) @ k)[pop]) @ f_lp.T / 2**n
        e_r = (f_l * r_hat) @ f_lp.T / 2**n
        vals = e_xi - e_r * funcs.xi_prime(ell, ellp, q) + funcs.theta(ell, ellp, q)
        total_b += mult * float(p_alpha @ vals @ p_alpha)
    return phi, first, -0.5 * total_b


def _lemma3_worker(args) -> tuple[list[float], list[tuple[float, float]]]:
    rost, field_sampler, spec, n, c, phi_ts, deriv_ts, root, rep, sampler = args
    state = lemma3_state(rost, field_sampler, spec, n, root, rep, sampler)
    der = {t: lemma3_derivative_replica(state, rost, spec, n, c, t) for t in deriv_ts}
    phi = [der[t][0] if t in der else lemma3_phi_replica(state, spec, n, c, t)
           for t in phi_ts]
    return phi, [der[t][1:] for t in deriv_ts]


def _lemma3_pass(
    rost: RostSpec,
    spec: MixtureSpec,
    n: int,
    c: OverlapConstraint,
    phi_ts,
    deriv_ts,
    n_rep: int,
    seed: int,
    sampler: str = "tensor",
    threads: int = 1,
) -> tuple[np.ndarray, list[Lemma3Derivative]]:
    """One pass over the replicas of the structure-comparison path: each
    replica's state is built once and evaluated at every t, once per t, as in
    _lemma2_pass.  Returns the path values, shape (n_rep, len(phi_ts)), and
    the exact-Gibbs derivative at each of deriv_ts."""
    phi_ts, deriv_ts = _unit_points(phi_ts), _unit_points(deriv_ts)
    if deriv_ts:
        require_convex(spec, "the structure-comparison derivative decomposition")
    get_sampler(spec, n, sampler)  # before pmap, as in _lemma2_pass
    funcs = mixture_functions(spec)
    field_sampler = RostFieldSampler(rost, funcs)
    out = pmap(
        _lemma3_worker,
        [(rost, field_sampler, spec, n, c, phi_ts, deriv_ts, seed, rep, sampler)
         for rep in range(n_rep)],
        threads,
    )
    phi = np.array([o[0] for o in out]).reshape(n_rep, len(phi_ts))
    der = np.array([o[1] for o in out]).reshape(n_rep, len(deriv_ts), 2)
    bound = first_sum_bound(rost, funcs, c.u)
    if np.any(np.abs(der[..., 0]) > bound + 1e-9):
        raise RuntimeError("element average escaped its computable bound")
    derivs = [
        Lemma3Derivative(
            phi_prime=_estimate(first + second, seed, f"dphi_rost(t={t:g})"),
            first_sum=_estimate(first, seed, "first_sum"),
            second_line=_estimate(second, seed, "second_line"),
            first_sum_bound=bound,
        )
        for t, first, second in zip(deriv_ts, der[:, :, 0].T, der[:, :, 1].T)
    ]
    return phi, derivs


# ---------------------------------------------------------------------------
# Curve runners
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class InterpolationRun:
    t_grid: tuple[float, ...]
    phi: list[Estimate]
    dphi_fd: list[Estimate]
    gibbs: list  # the Lemma2Derivative or Lemma3Derivative at each t
    verdicts: dict = field(default_factory=dict)

    @property
    def dphi_gibbs(self) -> list[Estimate]:
        return [g.phi_prime for g in self.gibbs]


def _phi_points(t_grid) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(t_grid, the curve's phi points): the grid, then the finite-difference
    ends of each t.  The difference is central away from the endpoints and
    one-sided at t = 0 and t = 1, where the sqrt factors have infinite slope."""
    t_grid = tuple(t_grid)
    ends = tuple(x for t in t_grid for x in (max(0.0, t - FD_STEP), min(1.0, t + FD_STEP)))
    return t_grid, t_grid + ends


def _curve_run(
    phi: np.ndarray, phi_ts: tuple[float, ...], gibbs: list, seed: int, phi_label: str,
    fd_label: str, verdicts: dict,
) -> InterpolationRun:
    """The curve with path values and common-random-number finite
    differences at each grid t, from per-replica phi columns laid out by
    _phi_points; verdicts gains the finite-difference/Gibbs agreement."""
    k = len(phi_ts) // 3
    values, slopes = [], []
    for j, t in enumerate(phi_ts[:k]):
        lo, hi = k + 2 * j, k + 2 * j + 1
        values.append(_estimate(phi[:, j], seed, phi_label.format(t)))
        slope = (phi[:, hi] - phi[:, lo]) / (phi_ts[hi] - phi_ts[lo])
        slopes.append(_estimate(slope, seed, fd_label.format(t)))
    agree = _fd_gibbs_agreement(slopes, [g.phi_prime for g in gibbs])
    verdicts = {"fd_gibbs_max_sigmas": agree, "fd_gibbs_pass": agree <= 3.0, **verdicts}
    return InterpolationRun(phi_ts[:k], values, slopes, gibbs, verdicts)


def run_lemma2_curve(
    spec: MixtureSpec,
    m: int,
    n: int,
    u: float,
    t_grid,
    n_rep: int,
    seed: int,
    sampler: str = "tensor",
    threads: int = 1,
) -> InterpolationRun:
    u_m = nearest_admissible(m, u)
    u_n = nearest_admissible(n, u)
    t_grid, phi_ts = _phi_points(t_grid)
    phi, gibbs = _lemma2_pass(spec, u_m, u_n, phi_ts, t_grid, n_rep, seed, sampler, threads)
    nonpositive = all(g.convexity_term.mean <= 3.0 * g.convexity_term.stderr for g in gibbs)
    return _curve_run(phi, phi_ts, gibbs, seed, f"phi_split(m={m},n={n},t={{:g}})",
                      "dphi_split_fd(t={:g})", {"convexity_term_nonpositive": nonpositive})


def run_lemma3_curve(
    rost: RostSpec,
    spec: MixtureSpec,
    n: int,
    c: OverlapConstraint,
    t_grid,
    n_rep: int,
    seed: int,
    sampler: str = "tensor",
    threads: int = 1,
) -> InterpolationRun:
    t_grid, phi_ts = _phi_points(t_grid)
    phi, gibbs = _lemma3_pass(rost, spec, n, c, phi_ts, t_grid, n_rep, seed, sampler, threads)
    nonpositive = all(g.second_line.mean <= 3.0 * g.second_line.stderr for g in gibbs)
    bound = gibbs[0].first_sum_bound if gibbs else 0.0
    return _curve_run(phi, phi_ts, gibbs, seed, f"phi_rost(n={n},t={{:g}})",
                      "dphi_rost_fd(t={:g})",
                      {"second_line_nonpositive": nonpositive, "first_sum_bound": bound})


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
# Verdicts
# ---------------------------------------------------------------------------


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
    sampler: str = "tensor",
    threads: int = 1,
) -> dict:
    """F <= G + first_sum_bound within STRUCTURE_MARGIN_SIGMAS, and the
    second line of the structure-comparison derivative at most 3 sigma above
    zero at every t.  f_est and g_est are the F and G estimates at c."""
    t_grid = tuple(t_grid)
    if not t_grid:
        raise ValueError("the structure bound needs at least one t in [0, 1]")
    bound = first_sum_bound(rost, mixture_functions(spec), c.u)
    margin = STRUCTURE_MARGIN_SIGMAS * float(np.hypot(f_est.stderr, g_est.diff.stderr))
    _, gibbs = _lemma3_pass(rost, spec, c.n, c, (), t_grid, n_rep, seed, sampler, threads)
    worst = -np.inf
    for line in (g.second_line for g in gibbs):
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
