"""The Walsh-Hadamard kernel against the Hadamard matrix and a long-double
butterfly, and the overlap classes' spectra and correlations built on it."""

import numpy as np
import pytest
from scipy.linalg import hadamard

from coupledsk.bits import (
    class_correlation,
    class_spectrum,
    fwht,
    krawtchouk,
    popcounts,
    split_class_spectrum,
    split_popcounts,
    xor_correlation,
)

U = np.finfo(np.float64).eps / 2  # unit roundoff


def longdouble_fwht(a: np.ndarray) -> np.ndarray:
    """The in-place butterfly in np.longdouble, a reference whose own rounding
    is far below a double's."""
    a = np.array(a, dtype=np.longdouble, copy=True)
    m = a.shape[-1]
    h = 1
    while h < m:
        v = a.reshape(a.shape[:-1] + (m // (2 * h), 2, h))
        lo = v[..., 0, :] + v[..., 1, :]
        hi = v[..., 0, :] - v[..., 1, :]
        a = np.stack((lo, hi), axis=-2).reshape(a.shape)
        h *= 2
    return a


def hadamard_product(x: np.ndarray) -> np.ndarray:
    """x @ hadamard(L), with H(L) taken as the Kronecker product of H(L / lo)
    and H(lo), lo = min(L, 256), so that no L-square matrix is built."""
    m = x.shape[-1]
    lo = min(m, 256)
    blocks = x.reshape(x.shape[:-1] + (m // lo, lo))
    return (hadamard(m // lo).T @ blocks @ hadamard(lo)).reshape(x.shape)


def level_constant(m: int) -> int:
    """Sum over fwht's levels of (radix - 1): radix 8 for each three bits of
    log2(m), then radix 2 or 4 for the one or two bits left."""
    bits = m.bit_length() - 1
    return 7 * (bits // 3) + (1 << bits % 3) - 1


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
def test_integers_equal_the_hadamard_product(shape):
    # integer sums below 2**53 are exact in any order of additions
    x = np.random.default_rng(len(shape) * 100 + shape[-1]).integers(-50, 51, size=shape)
    assert np.array_equal(fwht(x.astype(np.float64)), hadamard_product(x).astype(np.float64))


@pytest.mark.parametrize("shape", ENGINE_SHAPES)
def test_floats_within_the_level_bound(shape):
    # each level adds at most radix - 1 roundings to an output's path
    rng = np.random.default_rng(len(shape) * 100 + shape[-1])
    x = rng.standard_normal(shape) * np.exp(4 * rng.standard_normal(shape))
    err = np.abs(fwht(x) - longdouble_fwht(x))
    bound = level_constant(shape[-1]) * U * np.abs(x).sum(axis=-1, keepdims=True)
    assert np.all(err <= bound)


def test_strided_view_equals_its_contiguous_copy():
    x = np.random.default_rng(3).standard_normal((6, 512))
    view = x[:, ::2]
    assert np.array_equal(fwht(view), fwht(np.ascontiguousarray(view)))


def test_read_only_input_is_left_unchanged():
    x = np.random.default_rng(1).standard_normal((4, 64))
    kept = x.copy()
    x.flags.writeable = False
    out = fwht(x)
    assert np.array_equal(x, kept)
    assert out.flags.writeable
    assert np.array_equal(out, fwht(kept))


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


@pytest.mark.parametrize("n", [1, 4, 8, 12])
def test_krawtchouk_table_gives_popcount_spectra(n):
    f = np.random.default_rng(n).standard_normal(n + 1)
    pop = popcounts(n)
    np.testing.assert_allclose((f @ krawtchouk(n))[pop], fwht(f[pop]),
                               rtol=0, atol=1e-12 * 2**n)


@pytest.mark.parametrize("n", [1, 3, 6])
def test_class_spectra_are_the_indicators_transforms(n):
    # integer sums, so exact
    for d in range(n + 1):
        assert np.array_equal(class_spectrum(n, d), fwht((popcounts(n) == d) * 1.0))
    lo, hi = split_popcounts(2, n)
    for d_m in range(3):
        for d_n in range(n + 1):
            indicator = ((lo == d_m) & (hi == d_n)) * 1.0
            assert np.array_equal(split_class_spectrum(2, n, d_m, d_n), fwht(indicator))


def test_correlations_against_the_direct_sum():
    rng = np.random.default_rng(5)
    w1, w2 = rng.random((2, 3, 32))
    masks = np.arange(32)
    direct = np.stack([(w1 * w2[:, masks ^ m]).sum(axis=-1) for m in masks], axis=-1)
    np.testing.assert_allclose(xor_correlation(w1, w2), direct, rtol=1e-13)
    # one operation in one order: the XOR correlation is the class correlation
    # with the second table's spectrum, bit for bit
    assert np.array_equal(xor_correlation(w1, w2), class_correlation(w1, fwht(w2)))
    in_class = (popcounts(5) == 2) * 1.0
    np.testing.assert_allclose(class_correlation(w1, class_spectrum(5, 2)),
                               xor_correlation(w1, np.broadcast_to(in_class, w1.shape)),
                               rtol=1e-13)
