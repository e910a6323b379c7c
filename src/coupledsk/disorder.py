"""Gaussian disorder samplers for the coupled pair system.

Two independent routes produce whole-Hamiltonian tables over all 2**n
configurations and must agree statistically:

  * the tensor route draws one set of i.i.d. coupling tensors per
    interaction order and contracts them with every configuration; both
    copies share the tensors and differ only through their coefficients,
    which is what produces the cross covariance;
  * the process route treats the pair of tables as one joint Gaussian
    vector whose covariance is n * xi_{l,l'}(overlap) and samples it through
    a symmetric factorization.

The module also samples the cavity fields of the explicit overlap structure
(finite-size and exact-covariance variants) and q-matrix-driven fields for
user-specified random overlap structures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .bits import popcounts, spin_matrix
from .mixture import MixtureFunctions, MixtureSpec, mixture_functions

TENSOR_BUDGET_BYTES = 1 << 28
PROCESS_CAP = 10
EXPLICIT_CAP = 14  # M + n for the explicit-structure route
PSD_TOL_SCALE = 1e-10


class ResourceError(RuntimeError):
    """A sampler would exceed its configured memory or size budget."""


class FactorizationError(RuntimeError):
    """A covariance matrix is indefinite beyond the tolerance budget."""


class RostInvalidError(ValueError):
    """A random overlap structure violates one of its invariants."""


def _as_seed(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _rng(seed) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_as_seed(seed)))


def psd_factor(mat: np.ndarray, tol_scale: float = PSD_TOL_SCALE) -> np.ndarray:
    """Factor F with F @ F.T = mat for a symmetric PSD matrix.

    Tries Cholesky first; on failure falls back to an eigendecomposition with
    small negative eigenvalues (within tol_scale * trace / dim) clipped to
    zero, which keeps exact linear relations of rank-deficient covariances.
    """
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        pass
    w, v = np.linalg.eigh(mat)
    floor = -tol_scale * max(np.trace(mat), 1.0) / mat.shape[0]
    if w.min() < floor:
        raise FactorizationError(
            f"covariance is indefinite: min eigenvalue {w.min():.3e} below {floor:.3e}"
        )
    return v * np.sqrt(np.clip(w, 0.0, None))


# ---------------------------------------------------------------------------
# Whole-Hamiltonian tables
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class HamiltonianTable:
    """One disorder sample: both copies' energies for every configuration."""

    n: int
    values: np.ndarray  # shape (2, 2**n); row l-1 holds copy l
    provenance: str  # "tensor" | "process"
    seed: int
    p_max: int

    def __post_init__(self):
        if self.values.shape != (2, 2**self.n):
            raise ValueError(f"values must have shape (2, {2**self.n})")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("Hamiltonian table contains non-finite entries")


def _contract_all_configs(tensor: np.ndarray, s: np.ndarray) -> np.ndarray:
    """sum over ordered index tuples of tensor * prod of spins, per config."""
    v = np.tensordot(s, tensor, axes=(1, 0))
    for _ in range(tensor.ndim - 1):
        v = np.einsum("ci...,ci->c...", v, s)
    return v


class TensorSampler:
    """Tensor-route sampler; one instance caches the config matrix for n."""

    def __init__(self, spec: MixtureSpec, n: int, budget_bytes: int = TENSOR_BUDGET_BYTES):
        self.spec = spec
        self.n = n
        self.s = spin_matrix(n)
        need = sum(8 * n**p for p in range(1, spec.p_max + 1))
        if need > budget_bytes:
            raise ResourceError(
                f"coupling tensors need {need} bytes > budget {budget_bytes}; "
                f"use the process sampler at this size"
            )

    def sample(self, seed) -> HamiltonianTable:
        rng = _rng(seed)
        n, spec = self.n, self.spec
        h = np.zeros((2, 2**n))
        for p in range(1, spec.p_max + 1):
            a1, a2 = spec.a1[p - 1], spec.a2[p - 1]
            g = rng.standard_normal((n,) * p)
            if a1 == 0.0 and a2 == 0.0:
                continue
            m = _contract_all_configs(g, self.s)
            scale = n ** (0.5 - 0.5 * p)
            h[0] += a1 * scale * m
            h[1] += a2 * scale * m
        ent = _as_seed(seed).entropy
        return HamiltonianTable(
            n=n, values=h, provenance="tensor",
            seed=int(ent) if isinstance(ent, int) else 0, p_max=spec.p_max,
        )


class ProcessSampler:
    """Joint-Gaussian route with a cached covariance factorization."""

    def __init__(self, spec: MixtureSpec, n: int, cap: int = PROCESS_CAP):
        if n > cap:
            raise ResourceError(f"process sampler capped at n={cap}, got {n}")
        self.spec = spec
        self.n = n
        s = spin_matrix(n)
        r = (s @ s.T) / n
        funcs = mixture_functions(spec)
        c = 2**n
        cov = np.empty((2 * c, 2 * c))
        cov[:c, :c] = n * funcs.xi(1, 1, r)
        cov[:c, c:] = n * funcs.xi(1, 2, r)
        cov[c:, :c] = cov[:c, c:].T
        cov[c:, c:] = n * funcs.xi(2, 2, r)
        self.factor = psd_factor(cov)

    def sample(self, seed) -> HamiltonianTable:
        rng = _rng(seed)
        c = 2**self.n
        vals = (self.factor @ rng.standard_normal(2 * c)).reshape(2, c)
        ent = _as_seed(seed).entropy
        return HamiltonianTable(
            n=self.n, values=vals, provenance="process",
            seed=int(ent) if isinstance(ent, int) else 0, p_max=self.spec.p_max,
        )


@lru_cache(maxsize=16)
def _cached_tensor_sampler(spec: MixtureSpec, n: int) -> TensorSampler:
    return TensorSampler(spec, n)


@lru_cache(maxsize=8)
def _cached_process_sampler(spec: MixtureSpec, n: int) -> ProcessSampler:
    return ProcessSampler(spec, n)


def get_sampler(spec: MixtureSpec, n: int, kind: str):
    if kind == "tensor":
        return _cached_tensor_sampler(spec, n)
    if kind == "process":
        return _cached_process_sampler(spec, n)
    raise ValueError(f"unknown sampler kind {kind!r}")


def sample_tensor(spec: MixtureSpec, n: int, seed) -> HamiltonianTable:
    """One tensor-route disorder sample; deterministic given the seed."""
    return _cached_tensor_sampler(spec, n).sample(seed)


def sample_process(spec: MixtureSpec, n: int, seed) -> HamiltonianTable:
    """One process-route disorder sample; deterministic given the seed."""
    return _cached_process_sampler(spec, n).sample(seed)


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
        if len(self.w) != m:
            raise RostInvalidError(f"fixed weights have length {len(self.w)}, need {m}")
        return np.asarray(self.w)

    def to_dict(self) -> dict:
        return {"kind": "fixed", "w": list(self.w)}


@dataclass(frozen=True)
class DirichletWeights:
    """Symmetric Dirichlet weights with concentration gamma, one draw per replica."""

    gamma: float = 1.0

    def sample(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return rng.dirichlet(np.full(m, self.gamma))

    def to_dict(self) -> dict:
        return {"kind": "dirichlet", "gamma": self.gamma}


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
        """Assemble the 2m x 2m matrix entry_fn(l, l', q) blockwise, copy-major."""
        m = self.m
        out = np.empty((2 * m, 2 * m))
        for ell in (1, 2):
            for ellp in (1, 2):
                out[(ell - 1) * m:ell * m, (ellp - 1) * m:ellp * m] = entry_fn(
                    ell, ellp, self.q(ell, ellp)
                )
        return out

    def to_dict(self) -> dict:
        return {
            "q11": self.q11.tolist(),
            "q12": self.q12.tolist(),
            "q22": self.q22.tolist(),
            "weights": self.weights.to_dict(),
            "delta": self.delta,
            "u": self.u,
        }

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
    """Sampled fields indexed by structure element: z is (n, 2, m), y is (2, m)."""

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
        blocks = {
            "xi_prime(q)": lambda l, lp, q: funcs.xi_prime(l, lp, q),
            "theta(q)": lambda l, lp, q: funcs.theta(l, lp, q),
        }
        factors = {}
        for name, entry in blocks.items():
            try:
                factors[name] = psd_factor(rost.block_matrix(entry))
            except FactorizationError as exc:
                raise RostInvalidError(
                    f"structure admits no Gaussian fields for this mixture: "
                    f"the {name} block is not positive semidefinite ({exc})"
                ) from exc
        self.factor_z = factors["xi_prime(q)"]
        self.factor_y = factors["theta(q)"]

    def sample(self, rng: np.random.Generator, n: int) -> CavityFieldSample:
        m = self.m
        z = (self.factor_z @ rng.standard_normal((2 * m, n))).T.reshape(n, 2, m)
        y = (self.factor_y @ rng.standard_normal(2 * m)).reshape(2, m)
        return CavityFieldSample(z=z, y=y)


def sample_rost_fields(
    rost: RostSpec, funcs: MixtureFunctions, n: int, seed
) -> CavityFieldSample:
    """One draw of n i.i.d. site copies of the z-block plus one y-block."""
    return RostFieldSampler(rost, funcs).sample(_rng(seed), n)


def random_gram_rost(
    m: int,
    u: float,
    delta: float,
    rng: np.random.Generator,
    dim: int = 8,
    weights: FixedWeights | DirichletWeights | None = None,
) -> RostSpec:
    """A random structure whose q-matrices are Gram matrices of unit vectors.

    Gram structure makes xi'(q) and theta(q) automatically PSD for mixtures
    with nonnegative even coefficient products, so the result always admits
    Gaussian fields.  Requires |u| + delta <= 1.
    """
    if abs(u) + delta > 1:
        raise RostInvalidError("need |u| + delta <= 1 for unit-vector construction")
    v1 = rng.standard_normal((m, dim))
    v1 /= np.linalg.norm(v1, axis=1, keepdims=True)
    v2 = np.empty_like(v1)
    for a in range(m):
        c = u + rng.uniform(-delta, delta) * 0.9
        w = rng.standard_normal(dim)
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
    2**M base configurations (and all 2**(M+n) full ones).

    trunc[l-1, rho]   : base-only part of the big Hamiltonian (index tuples
                        confined to the first M coordinates);
    z / z_finite      : per-site single-new-coordinate fields, (n, 2, 2**M);
                        z carries the exact xi' covariance normalization,
                        z_finite the big-system normalization;
    y / y_finite      : compensator fields from fresh tensors, (2, 2**M);
                        y carries the exact theta covariance;
    tensors[p-1]      : the big coupling tensor of order p, over (M+n)^p;
    full[l-1, sigma]  : the whole (M+n)-spin Hamiltonian from the same
                        tensors, for decomposition and inequality checks;
                        contracted on first access.
    """

    m: int
    n: int
    trunc: np.ndarray
    z: np.ndarray
    z_finite: np.ndarray
    y: np.ndarray
    y_finite: np.ndarray
    spec: MixtureSpec
    tensors: tuple[np.ndarray, ...]

    @cached_property
    def full(self) -> np.ndarray:
        big = self.m + self.n
        s_full = spin_matrix(big)
        full = np.zeros((2, 2**big))
        a = {1: self.spec.a1, 2: self.spec.a2}
        for p, g in enumerate(self.tensors, start=1):
            if a[1][p - 1] == 0.0 and a[2][p - 1] == 0.0:
                continue
            full_contr = _contract_all_configs(g, s_full)
            scale_big = big ** (0.5 - 0.5 * p)
            for ell in (1, 2):
                ap = a[ell][p - 1]
                if ap != 0.0:
                    full[ell - 1] += ap * scale_big * full_contr
        return full


class ExplicitSystemSampler:
    """Samples the split (M + n)-spin system and its cavity fields.

    Both copies share every tensor; totals differ only via coefficients.
    Per order p, the big tensor over (M+n)^p is drawn once; the base part
    uses tuples inside the first M coordinates, the per-site fields aggregate
    the p tuples containing one new coordinate, and the compensator fields
    use fresh tensors confined to the base coordinates.
    """

    def __init__(self, spec: MixtureSpec, m: int, n: int, cap: int = EXPLICIT_CAP):
        if m + n > cap:
            raise ResourceError(f"explicit route capped at M + n = {cap}, got {m + n}")
        self.spec = spec
        self.m = m
        self.n = n
        self.s_base = spin_matrix(m)

    def _aggregate_new_coordinate(self, g: np.ndarray, p: int) -> np.ndarray:
        """Sum of the p tensor slices with one index fixed at a new coordinate.

        Returns shape (n,) + (M,)*(p-1), summing over the insertion position.
        """
        m, n = self.m, self.n
        base = (slice(0, m),) * (p - 1)
        out = np.zeros((n,) + (m,) * (p - 1))
        for pos in range(p):
            idx = base[:pos] + (slice(m, m + n),) + base[pos:]
            sub = np.asarray(g[idx])
            out += np.moveaxis(sub, pos, 0)
        return out

    def sample(self, seed) -> ExplicitDraw:
        rng = _rng(seed)
        spec, m, n = self.spec, self.m, self.n
        big = m + n
        c_base = 2**m
        trunc = np.zeros((2, c_base))
        z = np.zeros((n, 2, c_base))
        z_fin = np.zeros((n, 2, c_base))
        y = np.zeros((2, c_base))
        y_fin = np.zeros((2, c_base))
        a = {1: spec.a1, 2: spec.a2}
        tensors = []
        for p in range(1, spec.p_max + 1):
            g = rng.standard_normal((big,) * p)
            tensors.append(g)
            g_new = rng.standard_normal((m,) * p)  # fresh tensors, compensators only
            if a[1][p - 1] == 0.0 and a[2][p - 1] == 0.0:
                continue
            base_contr = _contract_all_configs(
                np.asarray(g[(slice(0, m),) * p]), self.s_base
            )
            agg = self._aggregate_new_coordinate(g, p)
            if p == 1:
                site_contr = np.repeat(agg[:, None], c_base, axis=1)
            else:
                v = np.tensordot(self.s_base, agg, axes=(1, 1))  # (c_base, n, M, ...)
                for _ in range(p - 2):
                    v = np.einsum("cni...,ci->cn...", v, self.s_base)
                site_contr = v.reshape(c_base, n).T
            comp_contr = _contract_all_configs(g_new, self.s_base)

            scale_big = big ** (0.5 - 0.5 * p)
            scale_base = m ** (0.5 - 0.5 * p)
            y_coef = np.sqrt(max(p - 1.0, 0.0)) * m ** (-0.5 * p)
            y_fin_coef = np.sqrt(
                max(m ** (1.0 - p) - big ** (1.0 - p), 0.0) / n
            )
            for ell in (1, 2):
                ap = a[ell][p - 1]
                if ap == 0.0:
                    continue
                trunc[ell - 1] += ap * scale_big * base_contr
                z[:, ell - 1, :] += ap * scale_base * site_contr
                z_fin[:, ell - 1, :] += ap * scale_big * site_contr
                y[ell - 1] += ap * y_coef * comp_contr
                y_fin[ell - 1] += ap * y_fin_coef * comp_contr
        return ExplicitDraw(
            m=m, n=n, trunc=trunc, z=z, z_finite=z_fin, y=y, y_finite=y_fin,
            spec=spec, tensors=tuple(tensors),
        )


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


# ---------------------------------------------------------------------------
# Covariance validation harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CovarianceProbe:
    mask1: int
    mask2: int
    ell: int
    ellp: int


@dataclass(eq=False)
class CovarianceReport:
    probes: list
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
    probes: list[CovarianceProbe],
    seed: int,
    sampler: str = "tensor",
) -> CovarianceReport:
    """Estimate E[H^l(s) H^l'(s')] / n at probe pairs against xi_{l,l'}(overlap)."""
    eng = get_sampler(spec, n, sampler)
    funcs = mixture_functions(spec)
    vals = np.empty((n_rep, len(probes)))
    for rep in range(n_rep):
        table = eng.sample(np.random.SeedSequence(seed, spawn_key=(rep,)))
        for j, pr in enumerate(probes):
            vals[rep, j] = (
                table.values[pr.ell - 1, pr.mask1] * table.values[pr.ellp - 1, pr.mask2] / n
            )
    targets = np.array(
        [
            funcs.xi(pr.ell, pr.ellp, 1.0 - 2.0 * popcounts(n)[pr.mask1 ^ pr.mask2] / n)
            for pr in probes
        ]
    )
    return CovarianceReport(
        probes=list(probes),
        targets=targets,
        estimates=vals.mean(axis=0),
        stderrs=vals.std(axis=0, ddof=1) / np.sqrt(n_rep),
    )
