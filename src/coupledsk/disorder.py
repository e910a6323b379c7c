"""Gaussian disorder samplers for the coupled pair system.

Two independent routes produce whole-Hamiltonian tables over all 2**n
configurations and must agree statistically:

  * the tensor route draws one set of i.i.d. coupling tensors per
    interaction order; a tuple's product of spins is the Walsh function of
    the set of indices it holds an odd number of times, so each tensor is
    summed into its Walsh coefficients as it is drawn and one Walsh-Hadamard
    transform gives its table.  Both copies share the tensors and differ
    only through their coefficients, which produces the cross covariance;
  * the process route treats the pair of tables as one joint Gaussian
    vector whose covariance is n * xi_{l,l'}(overlap).  The overlap depends
    only on popcount(s ^ s'), so the covariance is a convolution on the
    group Z_2^n and the Walsh functions diagonalise it: each popcount class
    k of Walsh frequencies carries one 2x2 copy block, and a draw scales
    white noise by the factored blocks and applies one Walsh-Hadamard
    transform.

The module also samples the cavity fields of the explicit overlap structure
(finite-size and exact-covariance variants) and q-matrix-driven fields for
user-specified random overlap structures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import parallel
from .bits import fwht, krawtchouk, popcounts, tuple_masks
from .configurations import OverlapConstraint
from .mixture import MixtureFunctions, MixtureSpec, mixture_functions

TENSOR_BUDGET_BYTES = 1 << 28
EXPLICIT_CAP = 14  # M + n for the explicit-structure route
PSD_TOL_SCALE = 1e-10
GRAM_DIM = 8  # dimension of the unit vectors behind random_gram_rost


class ResourceError(RuntimeError):
    """A sampler would exceed its configured memory or size budget."""


class FactorizationError(RuntimeError):
    """A covariance matrix is indefinite beyond the tolerance budget."""


class RostInvalidError(ValueError):
    """A random overlap structure violates one of its invariants."""


class NumericalError(RuntimeError):
    """A quantity the numerics must keep was lost to rounding or overflow: a
    positive-by-construction sum, or an estimate's mean or standard error."""


def psd_factor(mat: np.ndarray) -> np.ndarray:
    """Factor F with F @ F.T = mat for a symmetric PSD matrix.

    Tries Cholesky first; on failure falls back to an eigendecomposition with
    eigenvalues within PSD_TOL_SCALE * trace / dim of zero, of either sign, set
    to zero, which keeps exact linear relations of rank-deficient covariances.
    """
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        pass
    w, v = np.linalg.eigh(mat)
    return v * _clipped_sqrt(w, np.trace(mat), mat.shape[0])


def _clipped_sqrt(w: np.ndarray, trace: float, dim: int) -> np.ndarray:
    """Square roots of a covariance's eigenvalues w, zero within the floor.

    Eigenvalues below -PSD_TOL_SCALE * max(trace, 1) / dim raise
    FactorizationError; those within that floor of zero, of either sign,
    count as rounding of an exact zero and get root 0.
    """
    floor = -PSD_TOL_SCALE * max(trace, 1.0) / dim
    if w.min() < floor:
        raise FactorizationError(
            f"covariance is indefinite: min eigenvalue {w.min():.3e} below {floor:.3e}"
        )
    return np.sqrt(np.where(w > -floor, w, 0.0))


def walsh_blocks(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of the Walsh blocks of a two-copy covariance on
    Z_2^n whose (l, l') block at (s, s') is f_{ll'}(popcount(s ^ s')).

    f has shape (3, n+1): f_11, f_12 and f_22 over the disagreement counts.
    The Walsh transform of f_{ll'} laid out over masks is, at a frequency of
    popcount k, (f_{ll'} @ krawtchouk(n))[k], so the matrix splits into n+1
    symmetric 2x2 blocks Lambda(k); returns their eigenvalues (n+1, 2) and
    eigenvectors (n+1, 2, 2).  These are the eigenvalues of the whole
    2**(n+1)-square matrix, frequency class k holding C(n, k) copies.
    """
    n = f.shape[-1] - 1
    spectrum = f @ krawtchouk(n)
    blocks = np.stack([spectrum[[0, 1]], spectrum[[1, 2]]]).transpose(2, 0, 1)
    return np.linalg.eigh(blocks)


# ---------------------------------------------------------------------------
# Whole-Hamiltonian tables
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class HamiltonianTable:
    """One disorder sample: both copies' energies for every configuration.
    A replica block stacks its samples' values on leading axes."""

    n: int
    values: np.ndarray  # shape (..., 2, 2**n); row l-1 holds copy l

    def __post_init__(self):
        if self.values.shape[-2:] != (2, 2**self.n):
            raise ValueError(f"values must have shape (..., 2, {2**self.n})")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("Hamiltonian table contains non-finite entries")


def _walsh_coefficients(rngs, size: int, keys: np.ndarray, bins: int) -> np.ndarray:
    """Each generator's next size normals summed into bins by keys, stacked;
    each draw is folded as soon as it is made, so no block stacks tensors."""
    return np.stack([np.bincount(keys, weights=rng.standard_normal(size), minlength=bins)
                     for rng in rngs])


class TensorSampler:
    """Tensor-route sampler.  A tuple's product of spins is the Walsh function
    of its mask (bits.tuple_masks), so each order's tables are the fwht of
    its tensors summed into 2**n Walsh coefficients by mask."""

    def __init__(self, spec: MixtureSpec, n: int):
        self.spec = spec
        self.n = n
        need = sum(8 * n**p for p in range(1, spec.p_max + 1))
        if need > TENSOR_BUDGET_BYTES:
            raise ResourceError(f"coupling tensors need {need} bytes > budget "
                                f"{TENSOR_BUDGET_BYTES}; use the process sampler at this size")
        self.masks = [tuple_masks(n, p) for p in range(1, spec.p_max + 1)]

    def sample(self, seed) -> HamiltonianTable:
        """The table drawn from seed: sample_block of that seed alone."""
        return parallel.replica_row(self.sample_block([seed]), 0)

    def sample_block(self, seeds) -> HamiltonianTable:
        """The tables drawn from each seed, stacked: shape (len(seeds), 2, 2**n).

        Each seed's generator draws its tensors in order of p, as when it is
        drawn alone, and each order is transformed once for the whole block."""
        rngs = [np.random.default_rng(seed) for seed in seeds]
        n, spec = self.n, self.spec
        h = np.zeros((len(rngs), 2, 2**n))
        for p, masks in enumerate(self.masks, start=1):
            walsh = _walsh_coefficients(rngs, n**p, masks, 2**n)
            coef = np.array([[spec.a1[p - 1]], [spec.a2[p - 1]]])  # (copy, 1)
            if coef.any():
                h += coef * n ** (0.5 - 0.5 * p) * fwht(walsh)[:, None]
        return HamiltonianTable(n=n, values=h)


class ProcessSampler:
    """Joint-Gaussian route, factored exactly in the Walsh basis.

    With f_{ll'}(x) = n * xi_{ll'}(1 - 2 popcount(x) / n), the covariance of
    copies l, l' at (s, s') is f_{ll'}(s ^ s') = 2**-n sum_w fwht(f_{ll'})[w]
    (-1)^popcount(w & s) (-1)^popcount(w & s').  fwht(f_{ll'})[w] depends only
    on popcount(w), so the n+1 symmetric 2x2 blocks Lambda(k) of
    walsh_blocks are factored once as Lambda(k) = L(k) L(k)^T; a draw scales
    the noise at frequency w by L(popcount(w)) and transforms back with
    fwht / sqrt(2**n).
    """

    def __init__(self, spec: MixtureSpec, n: int):
        self.n = n
        funcs = mixture_functions(spec)
        r = 1.0 - 2.0 * np.arange(n + 1) / n
        # f_11, f_12, f_22 over the disagreement counts
        f = np.stack([n * funcs.xi(1, 1, r), n * funcs.xi(1, 2, r), n * funcs.xi(2, 2, r)])
        w, v = walsh_blocks(f)
        root = _clipped_sqrt(w, 2**n * (f[0, 0] + f[2, 0]), 2 ** (n + 1))
        # L(popcount(w)) for every frequency w, indexed (i, j, w)
        self.factor = (v * root[:, None, :])[popcounts(n)].transpose(1, 2, 0)

    def sample(self, seed) -> HamiltonianTable:
        """The table drawn from seed: sample_block of that seed alone."""
        return parallel.replica_row(self.sample_block([seed]), 0)

    def sample_block(self, seeds) -> HamiltonianTable:
        """The tables drawn from each seed, stacked: shape (len(seeds), 2, 2**n)."""
        c = 2**self.n
        noise = np.stack([np.random.default_rng(seed).standard_normal(2 * c).reshape(2, c)
                          for seed in seeds])
        return HamiltonianTable(n=self.n, values=self.transform(noise))

    def transform(self, noise: np.ndarray) -> np.ndarray:
        """The tables for white noise of shape (..., 2, 2**n).  Each frequency's
        2x2 factor is applied as scaled sums, far faster than einsum on a block."""
        f = self.factor
        scaled = np.stack([f[i, 0] * noise[..., 0, :] + f[i, 1] * noise[..., 1, :]
                           for i in (0, 1)], axis=-2)
        return fwht(scaled) / np.sqrt(2**self.n)


@lru_cache(maxsize=16)
def get_sampler(spec: MixtureSpec, n: int, kind: str):
    if kind == "tensor":
        return TensorSampler(spec, n)
    if kind == "process":
        return ProcessSampler(spec, n)
    raise ValueError(f"unknown sampler kind {kind!r}")


# ---------------------------------------------------------------------------
# Random overlap structures and their Gaussian fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixedWeights:
    """Deterministic weight list, normalized at construction."""

    w: tuple[float, ...]

    def __post_init__(self):
        arr = np.asarray(self.w, dtype=np.float64)
        if np.any(arr < 0) or arr.sum() <= 0:
            raise RostInvalidError("fixed weights must be nonnegative with positive sum")
        object.__setattr__(self, "w", tuple(arr / arr.sum()))

    def sample(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return np.asarray(self.w)


@dataclass(frozen=True)
class DirichletWeights:
    """Symmetric Dirichlet weights with concentration gamma, one draw per replica."""

    gamma: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.gamma) and self.gamma > 0):
            raise RostInvalidError(f"Dirichlet gamma must be finite and positive, got {self.gamma}")

    def sample(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return rng.dirichlet(np.full(m, self.gamma))


@dataclass(eq=False)
class RostSpec:
    """Finite random overlap structure: q-matrices, weight law, tolerance.

    q11 and q22 are symmetric with unit diagonal; q12[a, b] is the overlap of
    copy 1 of element a with copy 2 of element b (its transpose serves as
    q21).  The diagonal of q12 must stay within delta of the target u.
    """

    q11: np.ndarray
    q12: np.ndarray
    q22: np.ndarray
    weights: FixedWeights | DirichletWeights | None  # None: no weight law of its own
    delta: float
    u: float

    def __post_init__(self):
        for name in ("q11", "q12", "q22"):
            q = np.asarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, q)
            if q.shape != (self.m, self.m):
                raise RostInvalidError(f"{name} must be square of size {self.m}")
            if np.any(np.abs(q) > 1 + 1e-12):
                raise RostInvalidError(f"{name} has entries outside [-1, 1]")
        for name in ("q11", "q22"):
            q = getattr(self, name)
            if not np.allclose(q, q.T, atol=1e-12):
                raise RostInvalidError(f"{name} must be symmetric")
            if not np.allclose(np.diag(q), 1.0, atol=1e-12):
                raise RostInvalidError(f"{name} must have unit diagonal")
        if np.any(np.abs(np.diag(self.q12) - self.u) > self.delta + 1e-12):
            raise RostInvalidError(
                f"diagonal of q12 strays more than delta={self.delta} from u={self.u}"
            )
        if isinstance(self.weights, FixedWeights) and len(self.weights.w) != self.m:
            raise RostInvalidError(
                f"fixed weights have length {len(self.weights.w)}, need {self.m}"
            )

    @property
    def m(self) -> int:
        return np.asarray(self.q11).shape[0]

    def q(self, ell: int, ellp: int) -> np.ndarray:
        if (ell, ellp) == (1, 1):
            return self.q11
        if (ell, ellp) == (2, 2):
            return self.q22
        if (ell, ellp) == (1, 2):
            return self.q12
        return self.q12.T

    def block_matrix(self, entry_fn) -> np.ndarray:
        """The 2m x 2m matrix entry_fn(l, l', q) of the copy blocks, copy-major;
        entry_fn acts entrywise on each q-matrix."""
        return np.block([[entry_fn(ell, ellp, self.q(ell, ellp)) for ellp in (1, 2)]
                         for ell in (1, 2)])

    @classmethod
    def from_dict(cls, data: dict) -> "RostSpec":
        wspec = data["weights"]
        if wspec["kind"] == "fixed":
            weights = FixedWeights(tuple(wspec["w"]))
        elif wspec["kind"] == "dirichlet":
            weights = DirichletWeights(float(wspec.get("gamma", 1.0)))
        else:
            raise RostInvalidError(f"unknown weight kind {wspec['kind']!r}")
        return cls(
            q11=np.asarray(data["q11"], dtype=np.float64),
            q12=np.asarray(data["q12"], dtype=np.float64),
            q22=np.asarray(data["q22"], dtype=np.float64),
            weights=weights,
            delta=float(data["delta"]),
            u=float(data["u"]),
        )


@dataclass(eq=False)
class CavityFieldSample:
    """Sampled fields indexed by structure element: z is (n, 2, m), y is
    (2, m), each with a leading replica axis in a block draw."""

    z: np.ndarray
    y: np.ndarray


class RostFieldSampler:
    """Draws the z and y field blocks of a structure via PSD factorization.

    The z-block covariance is xi'(q) and the y-block covariance theta(q),
    assembled copy-major over (l, alpha).  Fields are independent of the
    weights and of any Hamiltonian tables by construction.
    """

    def __init__(self, rost: RostSpec, funcs: MixtureFunctions):
        self.rost = rost
        self.m = rost.m
        factors = []
        for name, entry in (("xi_prime(q)", funcs.xi_prime), ("theta(q)", funcs.theta)):
            try:
                factors.append(psd_factor(rost.block_matrix(entry)))
            except FactorizationError as exc:
                raise RostInvalidError(
                    f"structure admits no Gaussian fields for this mixture: "
                    f"the {name} block is not positive semidefinite ({exc})"
                ) from exc
        self.factor_z, self.factor_y = factors

    def sample(self, rng: np.random.Generator, n: int) -> CavityFieldSample:
        """The fields drawn from rng: sample_block of that generator alone."""
        return parallel.replica_row(self.sample_block([rng], n), 0)

    def sample_block(self, rngs, n: int) -> CavityFieldSample:
        """The fields drawn from each generator, stacked: z (len(rngs), n, 2, m)
        and y (len(rngs), 2, m).  Each generator draws its z normals, then its
        y normals, as when drawn alone; each factor is one batched product, on
        (2m, 1) y columns, which keeps each row's bits (normals @ factor.T
        would not)."""
        m = self.m
        normals = [(rng.standard_normal((2 * m, n)), rng.standard_normal((2 * m, 1)))
                   for rng in rngs]
        z = self.factor_z @ np.stack([zs for zs, _ in normals])
        y = self.factor_y @ np.stack([ys for _, ys in normals])
        return CavityFieldSample(z=z.swapaxes(-1, -2).reshape(len(rngs), n, 2, m),
                                 y=y.reshape(len(rngs), 2, m))


@lru_cache(maxsize=8)
def get_field_sampler(rost: RostSpec, spec: MixtureSpec) -> RostFieldSampler:
    """rost's field sampler under spec's mixture, factored once per (structure,
    mixture); RostSpec compares by identity, so the key is the object itself."""
    return RostFieldSampler(rost, mixture_functions(spec))


def random_gram_rost(
    m: int,
    u: float,
    delta: float,
    rng: np.random.Generator,
    weights: FixedWeights | DirichletWeights | None = None,
) -> RostSpec:
    """A random structure whose q-matrices are Gram matrices of unit vectors.

    Gram structure makes xi'(q) and theta(q) automatically PSD for mixtures
    with nonnegative even coefficient products, so the result always admits
    Gaussian fields.  Requires |u| + delta <= 1.
    """
    if m < 1:
        raise RostInvalidError(f"a structure needs at least one element, got m={m}")
    if delta < 0:
        raise RostInvalidError(f"structure tolerance delta must be nonnegative, got {delta}")
    if abs(u) + delta > 1:
        raise RostInvalidError("need |u| + delta <= 1 for unit-vector construction")
    v1 = rng.standard_normal((m, GRAM_DIM))
    v1 /= np.linalg.norm(v1, axis=1, keepdims=True)
    v2 = np.empty_like(v1)
    for a in range(m):
        c = u + rng.uniform(-delta, delta) * 0.9
        w = rng.standard_normal(GRAM_DIM)
        w -= (w @ v1[a]) * v1[a]
        w /= np.linalg.norm(w)
        v2[a] = c * v1[a] + np.sqrt(1.0 - c * c) * w
    return RostSpec(
        q11=np.clip(v1 @ v1.T, -1.0, 1.0),
        q12=np.clip(v1 @ v2.T, -1.0, 1.0),
        q22=np.clip(v2 @ v2.T, -1.0, 1.0),
        weights=weights if weights is not None else DirichletWeights(1.0),
        delta=delta,
        u=u,
    )


# ---------------------------------------------------------------------------
# Explicit cavity decomposition of an (M + n)-spin system
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ExplicitDraw:
    """One disorder draw of the explicit split system, tabulated over all
    2**M base configurations.  A replica block stacks its draws' arrays on a
    leading axis.

    trunc[l-1, rho]   : base-only part of the big Hamiltonian (index tuples
                        confined to the first M coordinates);
    z / z_finite      : per-site single-new-coordinate fields, (n, 2, 2**M);
                        z carries the exact xi' covariance normalization,
                        z_finite the big-system normalization;
    y / y_finite      : compensator fields from fresh tensors, (2, 2**M);
                        y carries the exact theta covariance.
    """

    m: int
    n: int
    trunc: np.ndarray
    z: np.ndarray
    z_finite: np.ndarray
    y: np.ndarray
    y_finite: np.ndarray


def _split_tuple_keys(m: int, n: int, p: int) -> np.ndarray:
    """The bin of each ordered tuple in range(m + n)**p, C order, built one
    index at a time: its mask over the base indices (those below m) plus 2**m
    times 0 if every index is a base index, 1 + i if exactly one is new
    site m + i, and n + 2 if two or more are new sites."""
    site = np.maximum(np.arange(m + n) - m + 1, 0)  # 0 at a base index, 1 + i at site m + i
    new = np.zeros(1, dtype=np.intp)
    for _ in range(p):
        new = np.where(new[:, None] == 0, site,
                       np.where(site == 0, new[:, None], n + 2)).ravel()
    return (new << m) | (tuple_masks(m + n, p) & ((1 << m) - 1))


class ExplicitSystemSampler:
    """Samples the split (M + n)-spin system and its cavity fields.

    Both copies share every tensor; totals differ only via coefficients.
    Per order p, the big tensor over (M+n)^p and a fresh compensator tensor
    over M^p are folded into Walsh coefficients over the 2**M base masks:
    row 0 takes the tuples inside the base, row 1 + i those with one index at
    new site i, row n + 1 the compensator, and row n + 2 (dropped) the rest.
    """

    def __init__(self, spec: MixtureSpec, m: int, n: int):
        if m + n > EXPLICIT_CAP:
            raise ResourceError(f"explicit route capped at M + n = {EXPLICIT_CAP}, got {m + n}")
        need = sum(8 * ((m + n) ** p + m**p) for p in range(1, spec.p_max + 1))
        if need > TENSOR_BUDGET_BYTES:
            raise ResourceError(f"explicit coupling tensors need {need} bytes a replica > budget "
                                f"{TENSOR_BUDGET_BYTES}; reduce M + n or the mixture's order")
        self.spec = spec
        self.m = m
        self.n = n
        self.keys = [np.concatenate([_split_tuple_keys(m, n, p),
                                     tuple_masks(m, p) + ((n + 1) << m)])
                     for p in range(1, spec.p_max + 1)]

    def sample(self, seed) -> ExplicitDraw:
        """The draw from seed: sample_block of that seed alone."""
        return parallel.replica_row(self.sample_block([seed]), 0)

    def sample_block(self, seeds) -> ExplicitDraw:
        """The draws from each seed, stacked on a leading axis.

        Each seed's generator draws, per order p, its (M+n)^p tensor and then
        its M^p compensator tensor (one draw of both), as when it is drawn
        alone; each order is transformed once for the whole block."""
        rngs = [np.random.default_rng(seed) for seed in seeds]
        spec, m, n = self.spec, self.m, self.n
        b, big, c_base = len(rngs), m + n, 2**m
        trunc, y, y_fin = (np.zeros((b, 2, c_base)) for _ in range(3))
        z, z_fin = (np.zeros((b, n, 2, c_base)) for _ in range(2))
        for p, keys in enumerate(self.keys, start=1):
            walsh = _walsh_coefficients(rngs, big**p + m**p, keys, (n + 3) << m)
            coef = np.array([[spec.a1[p - 1]], [spec.a2[p - 1]]])  # (copy, 1)
            if not coef.any():
                continue
            contr = fwht(walsh.reshape(b, n + 3, c_base)[:, :n + 2])
            base_contr, site_contr, comp_contr = (
                contr[:, 0], contr[:, 1:n + 1, None], contr[:, n + 1, None])

            scale_big, scale_base = big ** (0.5 - 0.5 * p), m ** (0.5 - 0.5 * p)
            y_coef = np.sqrt(max(p - 1.0, 0.0)) * m ** (-0.5 * p)
            y_fin_coef = np.sqrt(max(m ** (1.0 - p) - big ** (1.0 - p), 0.0) / n)
            # a copy whose coefficient is 0 adds zeros, which leave every sum as it is
            trunc += coef * scale_big * base_contr[:, None]
            z += coef * scale_base * site_contr
            z_fin += coef * scale_big * site_contr
            y += coef * y_coef * comp_contr
            y_fin += coef * y_fin_coef * comp_contr
        return ExplicitDraw(m=m, n=n, trunc=trunc, z=z, z_finite=z_fin, y=y, y_finite=y_fin)


@lru_cache(maxsize=8)
def get_explicit_sampler(spec: MixtureSpec, m: int, n: int) -> ExplicitSystemSampler:
    return ExplicitSystemSampler(spec, m, n)


def explicit_fields_psd(funcs: MixtureFunctions, u_m: OverlapConstraint) -> bool:
    """Whether RostFieldSampler accepts reference.build_explicit_rost(u_m, ...)
    with funcs = mixture_functions(spec), from 2 (M+1) Walsh blocks (M =
    u_m.n) instead of two factorisations of side 2 |pairs|.

    An element's copy-l row of xi'(q) and theta(q) depends only on its base
    mask r_l, and each mask occurs C(M, d) times per copy, so each field
    covariance is P B P^T with P^T P = C(M, d) I, where B is the
    2**(M+1)-square matrix over base masks.  Its nonzero eigenvalues are
    C(M, d) times those of B's Walsh blocks, the rest are 0, and each is held
    to the floor psd_factor holds the whole matrix's eigenvalues to.
    """
    m = u_m.n
    mult = math.comb(m, u_m.d)
    pairs = mult << m
    q = (m - 2.0 * np.arange(m + 1)) / m  # as build_explicit_rost's q-matrices
    for entry in (funcs.xi_prime, funcs.theta):
        f = np.stack([entry(1, 1, q), entry(1, 2, q), entry(2, 2, q)])
        w, _ = walsh_blocks(f)
        try:
            _clipped_sqrt(mult * w, pairs * (f[0, 0] + f[2, 0]), 2 * pairs)
        except FactorizationError:
            return False
    return True


# ---------------------------------------------------------------------------
# Covariance validation harness
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class CovarianceReport:
    targets: np.ndarray
    estimates: np.ndarray
    stderrs: np.ndarray

    @property
    def max_sigmas(self) -> float:
        gap = np.abs(self.estimates - self.targets)
        with np.errstate(divide="ignore", invalid="ignore"):
            sig = np.where(self.stderrs > 0, gap / self.stderrs,
                           np.where(gap > 1e-12, np.inf, 0.0))
        return float(np.max(sig))


def empirical_covariance(
    spec: MixtureSpec,
    n: int,
    n_rep: int,
    probes: list[tuple[int, int, int, int]],
    seed: int,
    sampler: str = "tensor",
) -> CovarianceReport:
    """Estimate E[H^l(s) H^l'(s')] / n at probes (s, s', l, l') against
    xi_{l,l'}(overlap), from the tables of SeedSequence(seed, spawn_key=(rep,))."""
    eng = get_sampler(spec, n, sampler)
    mask1, mask2, ell, ellp = (np.array(col) for col in zip(*probes))

    def products(block: range) -> np.ndarray:
        h = eng.sample_block([np.random.SeedSequence(seed, spawn_key=(rep,))
                              for rep in block]).values
        with np.errstate(over="ignore"):
            return h[:, ell - 1, mask1] * h[:, ellp - 1, mask2] / n

    # a block's largest stacked array is its tables, 2 * 2**n doubles a replica;
    # the mean and stderr sum replicas in C order, as a per-replica fill does
    vals = np.ascontiguousarray(parallel.map_blocks(products, (), n_rep, 2 << n))
    with np.errstate(over="ignore", invalid="ignore"):
        estimates, stderrs = vals.mean(axis=0), vals.std(axis=0, ddof=1) / np.sqrt(n_rep)
    if not (np.isfinite(estimates).all() and np.isfinite(stderrs).all()):
        raise NumericalError("a covariance probe's mean or standard error overflows a double")
    funcs = mixture_functions(spec)
    overlaps = 1.0 - 2.0 * popcounts(n)[mask1 ^ mask2] / n
    targets = [funcs.xi(*pr[2:], r) for pr, r in zip(probes, overlaps)]
    return CovarianceReport(targets=np.array(targets), estimates=estimates, stderrs=stderrs)
