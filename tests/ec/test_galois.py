"""Unit and property tests for GF(2^8) arithmetic."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ec.field import GF256
from repro.exceptions import GaloisFieldError


def add(field, a, b):
    """Field addition as the data plane does it: a sum of two words
    with coefficient 1 each."""
    return int(field.linear_combination([1, 1], [[a], [b]])[0])

elements = st.integers(min_value=0, max_value=255)
nonzero = st.integers(min_value=1, max_value=255)


class TestScalarArithmetic:
    def test_add_is_xor(self):
        assert add(GF256, 0b1010, 0b0110) == 0b1100

    def test_add_self_is_zero(self):
        for a in (0, 1, 17, 255):
            assert add(GF256, a, a) == 0

    def test_mul_by_zero(self):
        assert GF256.mul(0, 123) == 0
        assert GF256.mul(123, 0) == 0

    def test_mul_by_one(self):
        for a in range(256):
            assert GF256.mul(1, a) == a

    def test_known_product(self):
        # 2 * 128 = 256 -> reduced by 0x11D -> 0x11D ^ 0x100 = 0x1D.
        assert GF256.mul(2, 128) == 0x1D

    def test_inverse_of_zero_raises(self):
        with pytest.raises(GaloisFieldError):
            GF256.inv(0)

    def test_pow_identities(self):
        assert GF256.pow(0, 0) == 1
        assert GF256.pow(0, 5) == 0
        assert GF256.pow(7, 0) == 1
        assert GF256.pow(7, 1) == 7

    def test_pow_matches_repeated_mul(self):
        acc = 1
        for exponent in range(10):
            assert GF256.pow(3, exponent) == acc
            acc = GF256.mul(acc, 3)

    def test_pow_rejects_out_of_range(self):
        with pytest.raises(GaloisFieldError):
            GF256.pow(256, 2)

    def test_pow_zero_negative_raises(self):
        with pytest.raises(GaloisFieldError):
            GF256.pow(0, -1)


class TestFieldAxioms:
    @given(elements, elements)
    def test_mul_commutative(self, a, b):
        assert GF256.mul(a, b) == GF256.mul(b, a)

    @given(elements, elements, elements)
    def test_mul_associative(self, a, b, c):
        left = GF256.mul(GF256.mul(a, b), c)
        right = GF256.mul(a, GF256.mul(b, c))
        assert left == right

    @given(elements, elements, elements)
    def test_distributive(self, a, b, c):
        left = GF256.mul(a, add(GF256, b, c))
        right = add(GF256, GF256.mul(a, b), GF256.mul(a, c))
        assert left == right

    @given(nonzero)
    def test_inverse_round_trip(self, a):
        assert GF256.mul(a, GF256.inv(a)) == 1


class TestVectorised:
    def test_mul_slice_matches_scalar(self):
        rng = np.random.default_rng(7)
        data = rng.integers(0, 256, size=500, dtype=np.uint8)
        for coeff in (0, 1, 2, 37, 255):
            expected = np.array(
                [GF256.mul(coeff, int(x)) for x in data], dtype=np.uint8
            )
            np.testing.assert_array_equal(
                GF256.mul_slice(coeff, data), expected
            )

    def test_mul_slice_rejects_bad_coefficient(self):
        with pytest.raises(GaloisFieldError):
            GF256.mul_slice(256, np.zeros(4, dtype=np.uint8))

    def test_mul_slice_zero_coefficient(self):
        data = np.arange(16, dtype=np.uint8)
        np.testing.assert_array_equal(
            GF256.mul_slice(0, data), np.zeros(16, dtype=np.uint8)
        )

    def test_mul_slice_does_not_alias_input(self):
        data = np.arange(16, dtype=np.uint8)
        out = GF256.mul_slice(1, data)
        out[0] = 99
        assert data[0] == 0

    def test_array_mul_matches_scalar(self):
        rng = np.random.default_rng(11)
        a = rng.integers(0, 256, size=200, dtype=np.uint8)
        b = rng.integers(0, 256, size=200, dtype=np.uint8)
        expected = np.array(
            [GF256.mul(int(x), int(y)) for x, y in zip(a, b)],
            dtype=np.uint8,
        )
        np.testing.assert_array_equal(GF256.mul(a, b), expected)

    def test_array_inverse(self):
        values = np.arange(1, 256, dtype=np.uint8)
        inverses = GF256.inv(values)
        products = GF256.mul(values, inverses)
        np.testing.assert_array_equal(products, np.ones(255, dtype=np.uint8))
