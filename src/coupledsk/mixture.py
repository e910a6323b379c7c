"""Coefficient mixtures and the covariance functions they generate.

A mixture holds two coefficient sequences (a_p^1), (a_p^2) for p = 1..p_max
and two external field strengths.  It generates, for copy indices l, l' in
{1, 2}, the functions

    xi_{l,l'}(x)    = sum_p a_p^l a_p^l' x^p        on [-1, 1],
    theta_{l,l'}(x) = x * xi'_{l,l'}(x) - xi_{l,l'}(x),

which encode the disorder covariance of the two coupled Hamiltonians.  The
interpolation verdicts downstream are only theorems when every xi_{l,l'} is
convex on [-1, 1]; construction warns about non-convex mixtures but does not
reject them, and the convexity-dependent checks refuse to run instead.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

CONVEXITY_TOL = 1e-10
CONVEXITY_GRID = 1001
POSITIVITY_GRID = 201
POSITIVITY_TOL = 1e-10

COPY_PAIRS = ((1, 1), (1, 2), (2, 2))


class DomainError(ValueError):
    """Argument outside the domain of a mixture function."""


class NonConvexMixtureError(ValueError):
    """A convexity-dependent check was invoked on a non-convex mixture."""


class ConvexityWarning(UserWarning):
    """Emitted at construction when the numerical convexity scan fails."""


@dataclass(frozen=True)
class MixtureSpec:
    """Two coefficient sequences plus external fields.

    Sequences are padded to a common length; p_max is that length.  Entries
    must be finite, and so must every copy product a_p^l a_p^l' and every xi
    value and second difference of the convexity scan: beyond a double,
    numpy would turn them into inf and nan.  Hashable, immutable, safe to
    share across workers.
    """

    a1: tuple[float, ...]
    a2: tuple[float, ...]
    h1: float = 0.0
    h2: float = 0.0

    def __post_init__(self):
        a1 = tuple(float(v) for v in self.a1)
        a2 = tuple(float(v) for v in self.a2)
        p = max(len(a1), len(a2), 1)
        a1 = a1 + (0.0,) * (p - len(a1))
        a2 = a2 + (0.0,) * (p - len(a2))
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)
        object.__setattr__(self, "h1", float(self.h1))
        object.__setattr__(self, "h2", float(self.h2))
        if not all(math.isfinite(v) for v in a1 + a2 + (self.h1, self.h2)):
            raise ValueError("mixture entries must all be finite")
        if not all(math.isfinite(x * y) for x, y in zip(a1 + a1 + a2, a1 + a2 + a2)):
            raise ValueError("mixture coefficient products a_p^l a_p^l' overflow a double")
        report = check_convexity(self)
        if not report.convex:
            warnings.warn(
                f"mixture is not convex: worst second difference "
                f"{report.worst_second_difference:.3e} for pair {report.worst_pair} "
                f"near x = {report.worst_x:.4f}; convexity-dependent checks will refuse to run",
                ConvexityWarning,
                stacklevel=2,
            )

    @property
    def p_max(self) -> int:
        return len(self.a1)

    def coeffs(self, ell: int) -> tuple[float, ...]:
        if ell == 1:
            return self.a1
        if ell == 2:
            return self.a2
        raise ValueError(f"copy index must be 1 or 2, got {ell}")

    def to_json(self) -> str:
        return json.dumps(
            {"a1": list(self.a1), "a2": list(self.a2), "h1": self.h1, "h2": self.h2}
        )

    @classmethod
    def from_json(cls, text: str | dict) -> "MixtureSpec":
        data = json.loads(text) if isinstance(text, str) else text
        return cls(
            a1=tuple(data["a1"]),
            a2=tuple(data["a2"]),
            h1=data.get("h1", 0.0),
            h2=data.get("h2", 0.0),
        )


def _check_x(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if np.any(np.abs(x) > 1 + 1e-12):
        raise DomainError("mixture functions are defined on [-1, 1]")
    return x


class MixtureFunctions:
    """Evaluators for xi, xi', and theta derived from a MixtureSpec.

    Coefficient products c_p = a_p^l * a_p^l' are precomputed per copy pair;
    evaluation is a plain power-series sum, exact to rounding.
    """

    def __init__(self, spec: MixtureSpec):
        a = {1: np.array(spec.a1), 2: np.array(spec.a2)}
        self._c = {(l, lp): a[l] * a[lp] for l in (1, 2) for lp in (1, 2)}
        self._p = np.arange(1, spec.p_max + 1, dtype=np.float64)

    def xi(self, ell: int, ellp: int, x) -> np.ndarray | float:
        x = _check_x(x)
        c = self._c[(ell, ellp)]
        xp = np.power.outer(x, self._p)
        return xp @ c

    def xi_prime(self, ell: int, ellp: int, x) -> np.ndarray | float:
        x = _check_x(x)
        c = self._c[(ell, ellp)] * self._p
        xp = np.power.outer(x, self._p - 1.0)
        return xp @ c

    def theta(self, ell: int, ellp: int, x) -> np.ndarray | float:
        x = _check_x(x)
        return x * self.xi_prime(ell, ellp, x) - self.xi(ell, ellp, x)


def mixture_functions(spec: MixtureSpec) -> MixtureFunctions:
    return MixtureFunctions(spec)


@dataclass(frozen=True)
class ConvexityReport:
    convex: bool
    worst_second_difference: float
    worst_pair: tuple[int, int]
    worst_x: float
    structural: bool


def check_convexity(spec: MixtureSpec) -> ConvexityReport:
    """Scan discrete second differences of all three xi functions on a grid.

    Also reports whether the structural sufficient condition holds: all odd-p
    coefficients zero and, for each even p, a_p^1 * a_p^2 >= 0.  A scanned
    value or second difference beyond a double raises ValueError, which is
    how MixtureSpec refuses such a mixture.
    """
    a1 = np.array(spec.a1)
    a2 = np.array(spec.a2)
    p = np.arange(1, spec.p_max + 1)
    odd = p % 2 == 1
    even = ~odd
    structural = bool(
        np.all(a1[odd] == 0.0)
        and np.all(a2[odd] == 0.0)
        and np.all(a1[even] * a2[even] >= 0.0)
    )

    x = np.linspace(-1.0, 1.0, CONVEXITY_GRID)
    funcs = MixtureFunctions(spec)
    with np.errstate(over="ignore", invalid="ignore"):
        ys = [funcs.xi(*pair, x) for pair in COPY_PAIRS]
        d2s = [y[:-2] - 2.0 * y[1:-1] + y[2:] for y in ys]
    if not all(np.all(np.isfinite(v)) for v in ys + d2s):
        raise ValueError("mixture coefficients overflow a double: a scanned xi value or "
                         "second difference on [-1, 1] is not finite")
    # ties go to the first pair in COPY_PAIRS order, then the first grid point
    pair, i = np.unravel_index(np.argmin(d2s), (len(COPY_PAIRS), x.size - 2))
    worst = float(d2s[pair][i])
    return ConvexityReport(
        convex=worst >= -CONVEXITY_TOL,
        worst_second_difference=worst,
        worst_pair=COPY_PAIRS[pair],
        worst_x=float(x[i + 1]),
        structural=structural,
    )


@dataclass(frozen=True)
class PositivityReport:
    minima: dict
    passed: bool


def require_convex(spec: MixtureSpec, what: str) -> None:
    """NonConvexMixtureError naming what needs convexity, the worst pair and
    grid point, unless spec's mixture is convex."""
    rep = check_convexity(spec)
    if not rep.convex:
        raise NonConvexMixtureError(
            f"{what} is only a theorem for convex mixtures; pair {rep.worst_pair} "
            f"fails near x = {rep.worst_x:.4f}"
        )


def check_positivity(spec: MixtureSpec) -> PositivityReport:
    """Grid minimum of xi(x) - x*xi'(y) + theta(y) per copy pair.

    The quantity is nonnegative for convex mixtures; a non-convex spec is a
    precondition failure (require_convex).
    """
    require_convex(spec, "the positivity of xi(x) - x xi'(y) + theta(y)")
    funcs = MixtureFunctions(spec)
    grid = np.linspace(-1.0, 1.0, POSITIVITY_GRID)
    minima = {}
    for pair in COPY_PAIRS:
        xi_x = funcs.xi(*pair, grid)[:, None]
        xip_y = funcs.xi_prime(*pair, grid)[None, :]
        th_y = funcs.theta(*pair, grid)[None, :]
        minima[pair] = float((xi_x - grid[:, None] * xip_y + th_y).min())
    return PositivityReport(
        minima=minima,
        passed=all(v >= -POSITIVITY_TOL for v in minima.values()),
    )
