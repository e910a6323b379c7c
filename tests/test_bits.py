"""The Walsh-Hadamard kernel against the Hadamard matrix and the stacked butterfly."""

import numpy as np
import pytest
from scipy.linalg import hadamard

from coupledsk.bits import fwht


def stacked_fwht(a: np.ndarray) -> np.ndarray:
    """The butterfly that builds each stage's output with np.stack: the same
    additions in the same order as fwht, in a new array per stage."""
    a = np.array(a, dtype=np.float64, copy=True)
    m = a.shape[-1]
    h = 1
    while h < m:
        v = a.reshape(a.shape[:-1] + (m // (2 * h), 2, h))
        lo = v[..., 0, :] + v[..., 1, :]
        hi = v[..., 0, :] - v[..., 1, :]
        a = np.stack((lo, hi), axis=-2).reshape(a.shape)
        h *= 2
    return a


# the shapes the interpolation paths, the WHT engine and the process route use
ENGINE_SHAPES = [(2**n,) for n in range(1, 13)] + [
    (1, 4096), (2, 256), (2, 4096), (3, 256), (3, 1024), (6, 256), (6, 6, 256), (32, 1024),
    (8, 4096), (42, 6, 256), (32, 2, 1024), (2, 2**16),
]


@pytest.mark.parametrize("n", range(0, 9))
def test_equals_hadamard_matrix_on_integers(n):
    rng = np.random.default_rng(n)
    x = rng.integers(-50, 51, size=(3, 2**n)).astype(np.float64)
    h = hadamard(2**n).astype(np.float64)
    assert np.array_equal(fwht(x), x @ h)
    assert np.array_equal(fwht(x[0]), h @ x[0])


@pytest.mark.parametrize("shape", ENGINE_SHAPES)
def test_equals_stacked_butterfly(shape):
    x = np.random.default_rng(len(shape) * 100 + shape[-1]).standard_normal(shape)
    assert np.array_equal(fwht(x), stacked_fwht(x))


def test_strided_view_equals_its_contiguous_copy():
    x = np.random.default_rng(3).standard_normal((6, 512))
    view = x[:, ::2]
    assert np.array_equal(fwht(view), stacked_fwht(np.ascontiguousarray(view)))


def test_read_only_input_is_left_unchanged():
    x = np.random.default_rng(1).standard_normal((4, 64))
    kept = x.copy()
    x.flags.writeable = False
    out = fwht(x)
    assert np.array_equal(x, kept)
    assert out.flags.writeable
    assert np.array_equal(out, stacked_fwht(kept))


def test_writable_input_is_not_written():
    x = np.random.default_rng(2).standard_normal(128)
    kept = x.copy()
    fwht(x)
    assert np.array_equal(x, kept)


def test_self_inverse_up_to_length():
    x = np.random.default_rng(4).standard_normal((2, 512))
    np.testing.assert_allclose(fwht(fwht(x)) / 512, x, rtol=0, atol=1e-13)


def test_rejects_non_power_of_two():
    for shape in [(12,), (0,), (3, 0)]:
        with pytest.raises(ValueError, match="power of two"):
            fwht(np.ones(shape))
