"""Overlap constraints and derived overlap sequences for the pair system.

Configurations are bitmasks (bit i set = spin i is -1).  A coupling target
u_N = k/N is representable only when k and N share parity, since the overlap
of two N-spin configurations is 1 - 2d/N for an integer disagreement count d.
OverlapConstraint makes that parity a hard invariant, so empty constraint
sets are unrepresentable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

# Float slack when converting a real window half-width into disagreement
# counts; covers 1/3-style widths that do not round-trip through floats.
_WINDOW_SLACK = 1e-9


class SearchExhaustedError(RuntimeError):
    """No recurring value found when scanning a derived overlap sequence."""


@dataclass(frozen=True)
class OverlapConstraint:
    """Target overlap u_N = k/n with optional window half-width eps.

    Invariants: |k| <= n and k == n (mod 2), so the constrained pair set is
    nonempty; the disagreement count is d = (n - k)/2.
    """

    n: int
    k: int
    eps: float = 0.0

    def __post_init__(self):
        # No size cap here: the constraint is pure arithmetic; enumeration
        # engines enforce their own caps.
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if abs(self.k) > self.n:
            raise ValueError(f"|k| must be <= n, got k={self.k}, n={self.n}")
        if (self.k - self.n) % 2 != 0:
            raise ValueError(
                f"k={self.k} and n={self.n} must share parity; "
                f"the set {{overlap = {self.k}/{self.n}}} is empty otherwise"
            )
        if self.eps < 0:
            raise ValueError("window half-width must be nonnegative")

    @property
    def d(self) -> int:
        return (self.n - self.k) // 2

    @property
    def u(self) -> float:
        return self.k / self.n

    def window_disagreement_range(self) -> tuple[int, int]:
        """Inclusive [d_lo, d_hi] of disagreement counts inside the window."""
        half = self.n * self.eps / 2.0
        d_lo = max(0, math.ceil(self.d - half - _WINDOW_SLACK))
        d_hi = min(self.n, math.floor(self.d + half + _WINDOW_SLACK))
        return d_lo, d_hi


def nearest_admissible(n: int, u: float) -> OverlapConstraint:
    """The parity-admissible k/n closest to u; guarantees |k/n - u| <= 1/n.

    Ties break toward smaller |k|, then positive k.
    """
    if abs(u) > 1:
        raise ValueError(f"|u| must be <= 1, got {u}")
    best = None
    for k in range(-n, n + 1, 2):
        key = (abs(k - u * n), abs(k), 0 if k > 0 else 1)
        if best is None or key < best[0]:
            best = (key, k)
    c = OverlapConstraint(n=n, k=best[1])
    assert abs(c.u - u) <= 1.0 / n + 1e-12
    return c


@dataclass(frozen=True)
class DerivedOverlap:
    """Result of the split-consistency scan over base-system sizes.

    value is the derived target for the n-site increment; recurrence lists
    every scanned M at which the split identity produced this value.
    """

    constraint: OverlapConstraint
    value: Fraction
    recurrence: tuple[int, ...] = field(default=())


def construct_u_prime(
    n: int,
    base_sequence: Callable[[int], Fraction],
    m_max: int,
    u: float,
) -> DerivedOverlap:
    """Derive the increment overlap u'_n from a near-optimal base sequence.

    For each M <= m_max, solve n*u'_n(M) = (M+n)*u_{M+n} - M*u_M exactly and
    return the most frequent value (ties broken by earliest occurrence) with
    its recurrence set.  The base sequence must satisfy |u_M - u| <= 1/M for
    all M <= m_max + n; the result satisfies |u'_n - u| <= 2/n.
    """
    if m_max < 2:
        raise ValueError("m_max must be at least 2")
    seq: dict[int, Fraction] = {}
    for m in range(1, m_max + n + 1):
        v = Fraction(base_sequence(m))
        if abs(float(v) - u) > 1.0 / m + 1e-9:
            raise ValueError(f"base sequence violates |u_M - u| <= 1/M at M={m}")
        seq[m] = v

    hits: dict[int, list[int]] = {}  # in order of first occurrence
    for m in range(1, m_max + 1):
        num = (m + n) * seq[m + n] - m * seq[m]
        if num.denominator != 1:
            raise ValueError(f"split identity gave a non-integer count at M={m}")
        hits.setdefault(int(num), []).append(m)

    best = max(hits, key=lambda k: len(hits[k]))  # the first of equal counts
    if len(hits[best]) < 2:
        raise SearchExhaustedError(
            f"no recurring derived overlap within M <= {m_max}; widen the scan"
        )
    value = Fraction(best, n)
    if abs(float(value) - u) > 2.0 / n + 1e-9:
        raise ValueError(f"derived overlap {value} is farther than 2/{n} from u={u}")
    return DerivedOverlap(
        constraint=OverlapConstraint(n=n, k=best),
        value=value,
        recurrence=tuple(hits[best]),
    )


def admissible_sequence(u: float) -> Callable[[int], Fraction]:
    """The sanctioned base sequence M -> nearest admissible k/M (exact)."""

    def seq(m: int) -> Fraction:
        c = nearest_admissible(m, u)
        return Fraction(c.k, c.n)

    return seq
