import numpy as np
import pytest

from coupledsk.mixture import MixtureSpec


@pytest.fixture
def pure_p2() -> MixtureSpec:
    """Quadratic mixture with moderate amplitude, both copies equal."""
    return MixtureSpec(a1=(0.0, 0.5), a2=(0.0, 0.5))


@pytest.fixture
def zero_mixture() -> MixtureSpec:
    return MixtureSpec(a1=(0.0,), a2=(0.0,))


@pytest.fixture
def mixed_even() -> MixtureSpec:
    """Asymmetric even mixture with fields; convex and structural."""
    return MixtureSpec(a1=(0.0, 0.6, 0.0, 0.2), a2=(0.0, 0.4, 0.0, 0.3), h1=0.2, h2=-0.1)


def orders_up_to(p: int) -> MixtureSpec:
    """A convex mixture with every order up to p, unequal in the two copies."""
    return MixtureSpec(a1=(0.3, 0.7, 0.2, 0.15)[:p], a2=(0.2, 0.6, 0.15, 0.1)[:p])


def random_even_spec(rng: np.random.Generator, p_max: int = 4, with_fields: bool = True):
    """A random convex-by-structure mixture for property tests."""
    a1 = np.zeros(p_max)
    a2 = np.zeros(p_max)
    for p in range(2, p_max + 1, 2):
        a1[p - 1] = rng.uniform(0.0, 0.7)
        a2[p - 1] = rng.uniform(0.0, 0.7)
    h1 = rng.uniform(-0.3, 0.3) if with_fields else 0.0
    h2 = rng.uniform(-0.3, 0.3) if with_fields else 0.0
    return MixtureSpec(a1=tuple(a1), a2=tuple(a2), h1=h1, h2=h2)
