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

from dataclasses import dataclass
from functools import partial

import numpy as np

from .bits import (class_correlation, class_spectrum, fwht, krawtchouk, magnetizations,
                   popcounts, spin_matrix, split_class_spectrum, split_popcounts)
from .configurations import OverlapConstraint, nearest_admissible
from .disorder import HamiltonianTable, RostSpec, get_field_sampler, get_sampler
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
    structure_draws,
    window_values,
)
from .mixture import COPY_PAIRS, MixtureFunctions, MixtureSpec, mixture_functions, require_convex
from .parallel import map_blocks, replica_row, replica_seed
from .reference import zero_disorder_log_pair_count


# step of the common-random-number finite difference of phi
FD_STEP = 0.05


def _pass_points(spec: MixtureSpec, phi_ts, deriv_ts, decomposition: str):
    """Both grids as tuples of points in [0, 1], and the mixture checked
    convex when derivatives are asked: a pass's checks before its samplers."""
    grids = tuple(tuple(ts) for ts in (phi_ts, deriv_ts))
    for ts in grids:
        if not all(0.0 <= t <= 1.0 for t in ts):
            raise ValueError(f"interpolation points must lie in [0, 1], got {ts}")
    if grids[1]:
        require_convex(spec, decomposition)
    return grids


def _curve_worker(state_of, phi_at, deriv_at, phi_ts, deriv_ts, block) -> np.ndarray:
    """One replica block's columns: phi at phi_ts, then each derivative's
    columns after its first at deriv_ts.  The block's state is built once; a
    phi point that is also a derivative point takes the derivative's column 0."""
    state = state_of(block)
    der = {t: deriv_at(state, t) for t in deriv_ts}
    phi = [der[t][:, :1] if t in der else phi_at(state, t)[:, None] for t in phi_ts]
    return np.concatenate(phi + [der[t][:, 1:] for t in deriv_ts], axis=-1)


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis: one BLAS dot per row, as for the
    row alone, so a row's bits never depend on its block."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _class_weights(g1: np.ndarray, g2: np.ndarray, spectrum: np.ndarray):
    """(log_z, z, w1, w2, conv2) for rows of copy-1 and copy-2 log-weights g
    and a class spectrum: the weights w = exp(g - s) under per-row max shifts
    s, copy 2's class correlation conv2, each row's pair sum z = w1 . conv2
    over the class (taken and checked once per evaluation) and its log pair
    sum log z + s1 + s2.  Shifts stay per row: one shared across a block
    would push more of a row's classes below the doubles."""
    s1 = g1.max(axis=-1, keepdims=True)
    s2 = g2.max(axis=-1, keepdims=True)
    w1 = np.exp(g1 - s1)
    w2 = np.exp(g2 - s2)
    conv2 = class_correlation(w2, spectrum)
    z = positive_sums(_row_dot(w1, conv2))
    return np.log(z) + s1[..., 0] + s2[..., 0], z, w1, w2, conv2


def _copy_spectra(w1: np.ndarray, w2: np.ndarray, conv2: np.ndarray, z: np.ndarray,
                  spectrum: np.ndarray) -> dict:
    """The Walsh spectra of the two copies' conditional laws on the class,
    spectra[l] = fwht(nu_l), from _class_weights' output for rows of 2**n
    weights; both laws are normalised by the row's pair sum z.

    The XOR law of copies l and l', sum_s nu_l[a, s] nu_l'[b, s ^ x], has
    spectrum spectra[l][a] * spectra[l'][b]; by Parseval its sum against f(x)
    is (spectra[l][a] * spectra[l'][b]) @ fwht(f) / 2**n, so no law is built."""
    nu1, nu2 = w1 * conv2, w2 * class_correlation(w1, spectrum)
    nu1 /= z[..., None]
    nu2 /= z[..., None]
    return {1: fwht(nu1), 2: fwht(nu2)}


# ---------------------------------------------------------------------------
# Size-splitting interpolation
# ---------------------------------------------------------------------------


def _split_block(spec: MixtureSpec, m: int, n: int, root: int, block: range,
                 sampler: str = "tensor") -> tuple[HamiltonianTable, ...]:
    """Independent disorder tables for the M-, N-, and (M+N)-spin systems of
    each replica of block, on streams 0, 1 and 2: one block draw per system."""
    return tuple(get_sampler(spec, size, sampler).sample_block(
        [replica_seed(root, rep, stream) for rep in block])
        for stream, size in enumerate((m, n, m + n)))


def _split_energies(
    spec: MixtureSpec,
    tables: tuple[HamiltonianTable, HamiltonianTable, HamiltonianTable],
    t: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Both copies' interpolated log-weights over the (M+N)-spin masks, of one
    replica's tables, or of each replica of a block of them.

    Mask tau << M | rho splits into the N-spin configuration tau and the
    M-spin configuration rho, so the split sum sm[rho] + sn[tau] is the
    outer sum of the two tables' rows, flattened tau-major."""
    sm, sn, sbig = tables
    m, n = sm.n, sn.n
    require_finite_fields(m + n, spec.h1, spec.h2)
    mag = magnetizations(m + n)
    rt, rs = np.sqrt(t), np.sqrt(1.0 - t)

    def split(ell: int) -> np.ndarray:
        outer = sm.values[..., ell, None, :] + sn.values[..., ell, :, None]
        return outer.reshape(outer.shape[:-2] + (-1,))

    f1, f2 = (
        rt * sbig.values[..., ell, :] + rs * split(ell) + h * mag
        for ell, h in ((0, spec.h1), (1, spec.h2))
    )
    return f1, f2


def _split_weights(spec: MixtureSpec, u_m: OverlapConstraint, u_n: OverlapConstraint,
                   t: float, tables) -> tuple:
    """(spectrum, _class_weights' output) at t for the pinned-block class of
    u_m and u_n, whose sizes the tables' M- and N-spin blocks must have."""
    if (tables[0].n, tables[1].n) != (u_m.n, u_n.n):
        raise ValueError("the tables' block sizes differ from the constraints' sizes")
    spectrum = split_class_spectrum(u_m.n, u_n.n, u_m.d, u_n.d)
    return spectrum, _class_weights(*_split_energies(spec, tables, t), spectrum)


def lemma2_phi_block(
    spec: MixtureSpec,
    u_m: OverlapConstraint,
    u_n: OverlapConstraint,
    t: float,
    tables,
) -> np.ndarray:
    """Path value of each replica of a block of tables: (1/(M+N)) log of the
    pinned-block pair sum under the interpolated Hamiltonian."""
    return _split_weights(spec, u_m, u_n, t, tables)[1][0] / (u_m.n + u_n.n)


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


def _bracket_spectra(spec: MixtureSpec, m: int, n: int) -> tuple[np.ndarray, ...]:
    """The spectrum of each copy pair's convexity bracket
    (M+N) xi(R) - M xi(R_rho) - N xi(R_tau), laid over the masks by their
    block popcounts (the pinned-block spectra are Kronecker products), in
    COPY_PAIRS order; they involve no disorder, so a pass builds them once."""
    funcs = mixture_functions(spec)
    r_rho = 1.0 - 2.0 * np.arange(m + 1) / m
    r_tau = 1.0 - 2.0 * np.arange(n + 1) / n
    big = m + n
    r_sig = (m * r_rho[:, None] + n * r_tau[None, :]) / big
    lo, hi = split_popcounts(m, n)
    k_m, k_n = krawtchouk(m), krawtchouk(n)
    return tuple(
        (k_m.T @ (big * funcs.xi(ell, ellp, r_sig)
                  - m * funcs.xi(ell, ellp, r_rho)[:, None]
                  - n * funcs.xi(ell, ellp, r_tau)[None, :]) @ k_n)[lo, hi]
        for ell, ellp in COPY_PAIRS
    )


def lemma2_derivative_block(
    spec: MixtureSpec,
    u_m: OverlapConstraint,
    u_n: OverlapConstraint,
    t: float,
    tables,
    b_hats: tuple[np.ndarray, ...],
) -> np.ndarray:
    """(path value, convexity term) of each replica of a block of tables,
    shape (replica, 2), by exact two-replica enumeration: the block-overlap
    law's pairing with each convexity bracket (b_hats, from _bracket_spectra)
    is taken in the Walsh domain.  The path values are lemma2_phi_block's,
    from the same weights."""
    big = u_m.n + u_n.n
    spectrum, (log_z, z, w1, w2, conv2) = _split_weights(spec, u_m, u_n, t, tables)
    spectra = _copy_spectra(w1, w2, conv2, z, spectrum)
    # the (2, 1) law is the mirror of the (1, 2) one, so that pair counts twice
    total = 0.0
    for (ell, ellp), mult, b_hat in zip(COPY_PAIRS, (1.0, 2.0, 1.0), b_hats):
        total = total + mult * _row_dot(spectra[ell] * spectra[ellp], b_hat)
    return np.stack([log_z / big, 0.5 * total / 2**big], axis=-1)


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
    big = u_m.n + u_n.n
    if big > WHT_CAP:
        raise ValueError(f"pinned-block route capped at M + N = {WHT_CAP}")
    phi_ts, deriv_ts = _pass_points(spec, phi_ts, deriv_ts,
                                    "the size-splitting derivative decomposition")
    # built here, before pmap: a size check fails before any replica, and
    # the workers share one sampler per size
    for size in (u_m.n, u_n.n, big):
        get_sampler(spec, size, sampler)
    b_hats = _bracket_spectra(spec, u_m.n, u_n.n)
    args = (partial(_split_block, spec, u_m.n, u_n.n, seed, sampler=sampler),
            lambda tables, t: lemma2_phi_block(spec, u_m, u_n, t, tables),
            lambda tables, t: lemma2_derivative_block(spec, u_m, u_n, t, tables, b_hats),
            phi_ts, deriv_ts)
    # a block's largest stacked arrays are its (M+N)-spin tables, 2 * 2**(M+N)
    # doubles a replica
    out = map_blocks(_curve_worker, args, n_rep, 2 << big, threads)
    phi, conv = out[:, :len(phi_ts)], out[:, len(phi_ts):]
    constrained = _split_constrained_term(mixture_functions(spec), u_m, u_n)
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
    """One replica's random inputs: weights, structure fields, and table.  A
    block draw holds its replicas' states on a leading axis."""

    w: np.ndarray  # (m,)
    z: np.ndarray  # (n, 2, m)
    y: np.ndarray  # (2, m)
    table: HamiltonianTable


def lemma3_states(
    rost: RostSpec,
    spec: MixtureSpec,
    n: int,
    root: int,
    block: range,
    sampler: str = "tensor",
) -> _Lemma3State:
    """The stacked states of the replicas of block: weights and fields from
    structure_draws, as the plain structure-functional estimator draws them,
    and disorder tables on stream 2 (one block draw)."""
    w, fields = structure_draws(rost, spec, n, root, block)
    tables = get_sampler(spec, n, sampler).sample_block(
        [replica_seed(root, rep, 2) for rep in block])
    return _Lemma3State(w=w, z=fields.z, y=fields.y, table=tables)


def lemma3_state(
    rost: RostSpec,
    field_sampler,
    spec: MixtureSpec,
    n: int,
    root: int,
    rep: int,
    sampler: str = "tensor",
) -> _Lemma3State:
    """Replica rep's row of lemma3_states.  field_sampler is unused (the fields
    come from get_field_sampler); it stays while perfbench/oracle.py passes it."""
    return replica_row(lemma3_states(rost, spec, n, root, range(rep, rep + 1), sampler), 0)


def _lemma3_element_tables(
    states: _Lemma3State, spec: MixtureSpec, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-element log-weight tables over configurations of one replica's
    state, shape (m, 2**n), or of each replica of a block of them, shape
    (replica, m, 2**n), n the size of the states' tables."""
    require_finite_fields(states.table.n, spec.h1, spec.h2)
    s = spin_matrix(states.table.n)
    rt, rs = np.sqrt(t), np.sqrt(1.0 - t)
    g1, g2 = (
        rt * states.table.values[..., ell, None, :]
        + (s @ (rs * states.z[..., ell, :] + h)).swapaxes(-1, -2)
        for ell, h in ((0, spec.h1), (1, spec.h2))
    )
    return g1, g2


def lemma3_phi_block(
    states: _Lemma3State, spec: MixtureSpec, c: OverlapConstraint, t: float
) -> np.ndarray:
    """Path value of one replica's state, or of each replica of a block of
    states drawn at c's size: (1/n) log of the weighted element sum of each
    element's constrained pair sum times its compensator factor."""
    log_z = _class_weights(*_lemma3_element_tables(states, spec, t), class_spectrum(c.n, c.d))[0]
    return logsumexp(_element_logs(states, t, log_z), axis=-1) / c.n


def lemma3_phi_replica(
    state: _Lemma3State, spec: MixtureSpec, n: int, c: OverlapConstraint, t: float
) -> float:
    """Path value of one replica's state, as a float.  n is unused (c holds
    the size); it stays while perfbench/oracle.py passes it positionally."""
    return float(lemma3_phi_block(state, spec, c, t))


def _element_logs(states: _Lemma3State, t: float, log_z: np.ndarray) -> np.ndarray:
    """Each element's log weight plus its log constrained pair sum and its
    compensator exponent, of one state or per replica (-inf at weight 0)."""
    with np.errstate(divide="ignore"):
        log_w = np.log(states.w)
    return (log_w + log_z
            + np.sqrt(t * states.table.n) * (states.y[..., 0, :] + states.y[..., 1, :]))


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


def _lemma3_terms(rost: RostSpec, spec: MixtureSpec, c: OverlapConstraint):
    """The disorder-free inputs of the structure-comparison derivative at c,
    which a pass builds once: the first-sum terms per element, the overlap's
    spectrum over XOR masks, and per copy pair (in COPY_PAIRS order) the
    spectrum of xi of the overlap with xi'(q) and theta(q)."""
    funcs = mixture_functions(spec)
    r_vals = 1.0 - 2.0 * np.arange(c.n + 1) / c.n
    k, pop = krawtchouk(c.n), popcounts(c.n)
    pairs = tuple(
        ((funcs.xi(ell, ellp, r_vals) @ k)[pop], funcs.xi_prime(ell, ellp, rost.q(ell, ellp)),
         funcs.theta(ell, ellp, rost.q(ell, ellp)))
        for ell, ellp in COPY_PAIRS
    )
    return _first_sum_terms(rost, funcs, c.u), (r_vals @ k)[pop], pairs


def lemma3_derivative_block(
    states: _Lemma3State,
    terms: tuple,
    spec: MixtureSpec,
    c: OverlapConstraint,
    t: float,
) -> np.ndarray:
    """(path value, first sum, second line) of each replica of a block of
    states drawn at c's size by exact enumeration, shape (replica, 3), with
    terms from _lemma3_terms; the path values are lemma3_phi_block's, from
    the same weights.

    Element marginals and the conditional single-copy laws are exact; each
    element pair's two-replica averages of the overlap are Walsh-domain
    pairings of the two copies' conditional-law spectra.
    """
    spectrum = class_spectrum(c.n, c.d)
    log_z, z, w1, w2, conv2 = _class_weights(*_lemma3_element_tables(states, spec, t), spectrum)
    spectra = _copy_spectra(w1, w2, conv2, z, spectrum)
    log_p = _element_logs(states, t, log_z)
    log_norm = logsumexp(log_p, axis=-1)
    p_alpha = np.exp(log_p - log_norm[..., None])
    first_terms, r_hat, pairs = terms
    first = _row_dot(p_alpha, first_terms)

    # the (2, 1) block is the transpose of the (1, 2) one, so that pair
    # counts twice
    p_row, p_col = p_alpha[:, None, :], p_alpha[:, :, None]
    total_b = 0.0
    for (ell, ellp), mult, (xi_hat, xi_prime_q, theta_q) in zip(
            COPY_PAIRS, (1.0, 2.0, 1.0), pairs):
        f_l, f_lp = spectra[ell], spectra[ellp].swapaxes(-1, -2)
        e_xi = (f_l * xi_hat) @ f_lp / 2**c.n
        e_r = (f_l * r_hat) @ f_lp / 2**c.n
        vals = e_xi - e_r * xi_prime_q + theta_q
        total_b = total_b + mult * (p_row @ vals @ p_col)[:, 0, 0]
    return np.stack([log_norm / c.n, first, -0.5 * total_b], axis=-1)


def _lemma3_pass(
    rost: RostSpec,
    spec: MixtureSpec,
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
    phi_ts, deriv_ts = _pass_points(spec, phi_ts, deriv_ts,
                                    "the structure-comparison derivative decomposition")
    # before pmap, as in _lemma2_pass
    get_sampler(spec, c.n, sampler)
    get_field_sampler(rost, spec)
    terms = _lemma3_terms(rost, spec, c)
    args = (partial(lemma3_states, rost, spec, c.n, seed, sampler=sampler),
            lambda states, t: lemma3_phi_block(states, spec, c, t),
            lambda states, t: lemma3_derivative_block(states, terms, spec, c, t),
            phi_ts, deriv_ts)
    # a block's largest stacked arrays are its element tables, (m, 2**n) a
    # replica, or its disorder tables, (2, 2**n)
    out = map_blocks(_curve_worker, args, n_rep, max(rost.m, 2) << c.n, threads)
    phi = out[:, :len(phi_ts)]
    der = out[:, len(phi_ts):].reshape(n_rep, len(deriv_ts), 2)
    bound = first_sum_bound(rost, mixture_functions(spec), c.u)
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
    """A curve, its verdicts, and whether the asserted ones hold (passed)."""

    t_grid: tuple[float, ...]
    phi: list[Estimate]
    dphi_fd: list[Estimate]
    gibbs: list  # the Lemma2Derivative or Lemma3Derivative at each t
    verdicts: dict
    passed: bool

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
    fd_label: str, sign_key: str, nonpositive: bool, **extra,
) -> InterpolationRun:
    """The curve with path values and common-random-number finite
    differences at each grid t, from per-replica phi columns laid out by
    _phi_points.  It passes if they agree with the Gibbs derivatives and the
    term that must be nonpositive is (verdict sign_key); extra is reported."""
    k = len(phi_ts) // 3
    values, slopes = [], []
    for j, t in enumerate(phi_ts[:k]):
        lo, hi = k + 2 * j, k + 2 * j + 1
        values.append(_estimate(phi[:, j], seed, phi_label.format(t)))
        slope = (phi[:, hi] - phi[:, lo]) / (phi_ts[hi] - phi_ts[lo])
        slopes.append(_estimate(slope, seed, fd_label.format(t)))
    agree = _fd_gibbs_agreement(slopes, [g.phi_prime for g in gibbs])
    verdicts = {"fd_gibbs_max_sigmas": agree, "fd_gibbs_pass": agree <= 3.0,
                sign_key: nonpositive, **extra}
    return InterpolationRun(phi_ts[:k], values, slopes, gibbs, verdicts,
                            bool(agree <= 3.0 and nonpositive))


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
    nonpositive = all(sigmas_above_zero(g.convexity_term) <= ABOVE_ZERO_SIGMAS for g in gibbs)
    return _curve_run(phi, phi_ts, gibbs, seed, f"phi_split(m={m},n={n},t={{:g}})",
                      "dphi_split_fd(t={:g})", "convexity_term_nonpositive", nonpositive)


def run_lemma3_curve(
    rost: RostSpec,
    spec: MixtureSpec,
    c: OverlapConstraint,
    t_grid,
    n_rep: int,
    seed: int,
    sampler: str = "tensor",
    threads: int = 1,
) -> InterpolationRun:
    t_grid, phi_ts = _phi_points(t_grid)
    phi, gibbs = _lemma3_pass(rost, spec, c, phi_ts, t_grid, n_rep, seed, sampler, threads)
    nonpositive = all(sigmas_above_zero(g.second_line) <= ABOVE_ZERO_SIGMAS for g in gibbs)
    bound = gibbs[0].first_sum_bound if gibbs else 0.0
    return _curve_run(phi, phi_ts, gibbs, seed, f"phi_rost(n={c.n},t={{:g}})",
                      "dphi_rost_fd(t={:g})", "second_line_nonpositive", nonpositive,
                      first_sum_bound=bound)


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
# a derivative term that must be nonpositive may lie at most this many
# standard errors above zero
ABOVE_ZERO_SIGMAS = 3.0


def sigmas_above_zero(est: Estimate) -> float:
    """How many standard errors est's mean lies above zero, the one measure
    every nonpositivity verdict compares with ABOVE_ZERO_SIGMAS.  A zero
    stderr gives +-inf for a nonzero mean and 0 for a zero one."""
    if est.stderr > 0:
        return est.mean / est.stderr
    return float(np.copysign(np.inf, est.mean)) if est.mean else 0.0


def _zero_based(eps_grid) -> tuple[float, ...]:
    eps_grid = tuple(eps_grid)
    if eps_grid[0] != 0.0:
        raise ValueError("eps grid must start at 0 (the exact-constraint baseline)")
    return eps_grid


def window_gaps(log_z: np.ndarray, k: int, eps_grid) -> dict:
    """Per-eps window gaps relative to the exact constraint, from the log Z(d)
    rows of common tables.

    Returns means, stderrs, the per-replica minimum gap (must be >= 0), the
    fitted window constant max over eps > 0 of gap / sqrt(eps), and the
    excess constant, the same max of each mean gap less its counting gap:
    the gap at zero disorder, where log Z(d) = log(2**n C(n, d)).  The
    counting gap is exact, so it moves no stderr; it carries the lattice of
    admissible overlaps, which alone makes the raw constant rise and fall
    with n.
    """
    eps_grid = _zero_based(eps_grid)
    n_rep, n = log_z.shape[0], log_z.shape[1] - 1
    # row 0 is the zero-disorder one; window_values sums each row apart
    rows = np.vstack([[n * zero_disorder_log_pair_count(n, d) for d in range(n + 1)], log_z])
    values = np.stack([window_values(rows, OverlapConstraint(n=n, k=k, eps=e))
                       for e in eps_grid], axis=1)
    counting, gaps = np.split(values - values[:, :1], [1])
    means = gaps.mean(axis=0)
    ses = gaps.std(axis=0, ddof=1) / np.sqrt(n_rep)
    out = {"eps": eps_grid, "gap_mean": means, "gap_stderr": ses, "min_gap": float(gaps.min())}
    for key, gap in (("fitted_constant", means), ("excess_constant", means - counting[0])):
        ratios = gap[1:] / np.sqrt(eps_grid[1:])
        j = int(np.argmax(ratios))
        out[key] = float(ratios[j])
        out[f"{key}_stderr"] = float(ses[1 + j] / np.sqrt(eps_grid[1 + j]))
    return out


def window_gap_profile(
    spec: MixtureSpec,
    c: OverlapConstraint,
    eps_grid,
    n_rep: int,
    seed: int,
    sampler: str = "tensor",
    threads: int = 1,
) -> dict:
    """window_gaps about c's overlap of n_rep freshly drawn tables at c's size."""
    eps_grid = _zero_based(eps_grid)
    return window_gaps(overlap_logz_replicas(spec, c.n, n_rep, seed, sampler, threads), c.k,
                       eps_grid)


def size_trend(sizes, y: np.ndarray, se: np.ndarray) -> tuple[float, bool]:
    """(t, assessed): the one-sided t statistic of the weighted least-squares
    slope of y against sizes, whose standard errors are se, and whether a
    trend was assessed at all.  A slope through fewer than 3 distinct sizes
    has no residual freedom, so it is not assessed and t is 0."""
    if len(set(sizes)) < 3:
        return 0.0, False
    x = np.array(sizes, dtype=np.float64)
    w = 1.0 / np.maximum(se, 1e-15) ** 2
    xbar = (w * x).sum() / w.sum()
    sxx = (w * (x - xbar) ** 2).sum()
    slope, slope_se = float((w * (x - xbar) * y).sum() / sxx), float(np.sqrt(1.0 / sxx))
    return (slope / slope_se if slope_se > 0 else 0.0), True


# Unknown proof constants are never asserted numerically: every check below
# either uses a computable bound or fits a constant and monitors its trend
# across sizes with size_trend (t < 2).


def window_constant_check(n_list, profiles: dict[int, dict]) -> dict:
    """Window values dominate point values, and the window constant in
    excess of the counting gaps does not grow with n.  profiles maps each n
    to its window_gaps result."""
    excess = np.array([profiles[n]["excess_constant"] for n in n_list])
    excess_se = np.array([profiles[n]["excess_constant_stderr"] for n in n_list])
    tstat, assessed = size_trend(n_list, excess, excess_se)
    min_gap = min(profiles[n]["min_gap"] for n in n_list)
    return {
        "check": "window-constant",
        "sizes": list(n_list),
        "fitted_constant": [profiles[n]["fitted_constant"] for n in n_list],
        "excess_constant": excess.tolist(),
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
    -((m+n) F_{m+n} - m F_m - n F_n) / sqrt(m+n) does not grow with m+n,
    fitted once per unordered pair m <= n (a mirror pair repeats its deficit).
    F is estimated once per size, from root seed + 104729 n."""
    distinct = list(dict.fromkeys(n_list))
    pairs = [(m, n) for m in distinct for n in distinct if n / 2 <= m <= n and m + n <= WHT_CAP]
    sizes = [m + n for m, n in pairs]
    f_at = {s: estimate_F(spec, nearest_admissible(s, u), n_rep, seed + 104729 * s, sampler,
                          threads)
            for s in dict.fromkeys(s for m, n in pairs for s in (m, n, m + n))}
    normalized, norm_se = [], []
    for m, n in pairs:
        fm, fn, fb = f_at[m], f_at[n], f_at[m + n]
        deficit = (m + n) * fb.mean - m * fm.mean - n * fn.mean
        se = np.sqrt(((m + n) * fb.stderr) ** 2 + (m * fm.stderr) ** 2 + (n * fn.stderr) ** 2)
        normalized.append(-deficit / np.sqrt(m + n))
        norm_se.append(se / np.sqrt(m + n))
    normalized, norm_se = np.array(normalized), np.array(norm_se)
    fitted = float(np.clip(normalized, 0.0, None).max()) if pairs else 0.0
    tstat, assessed = size_trend(sizes, normalized, norm_se)
    # shift constant large enough to absorb the fitted defect on the
    # restricted range; reported, never asserted
    gap_coeff = np.sqrt(1.0 / 3.0) + np.sqrt(2.0 / 3.0) - 1.0
    return {
        "check": "superadditivity",
        "sizes": [list(p) for p in pairs],
        "fitted_constant": fitted,
        "pass": bool(tstat < 2.0),
        "slope_tstat": float(tstat),
        "trend_assessed": assessed,
        "normalized_deficits": normalized.tolist(),
        "normalized_deficit_stderrs": norm_se.tolist(),
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
    second line of the structure-comparison derivative at most
    ABOVE_ZERO_SIGMAS above zero at every t.  f_est and g_est are the F and
    G estimates at c."""
    t_grid = tuple(t_grid)
    if not t_grid:
        raise ValueError("the structure bound needs at least one t in [0, 1]")
    margin = STRUCTURE_MARGIN_SIGMAS * float(np.hypot(f_est.stderr, g_est.diff.stderr))
    _, gibbs = _lemma3_pass(rost, spec, c, (), t_grid, n_rep, seed, sampler, threads)
    bound = gibbs[0].first_sum_bound
    worst = max(sigmas_above_zero(g.second_line) for g in gibbs)
    return {
        "check": "structure-upper-bound",
        "sizes": [c.n, rost.m],
        "f": f_est.mean,
        "g": g_est.diff.mean,
        "computable_bound": bound,
        "margin": margin,
        "margin_sigmas": STRUCTURE_MARGIN_SIGMAS,
        "second_line_worst_sigmas": float(worst),
        "pass": bool(f_est.mean <= g_est.diff.mean + bound + margin
                     and worst <= ABOVE_ZERO_SIGMAS),
    }
