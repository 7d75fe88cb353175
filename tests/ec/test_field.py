"""Tests for the generic GF(2^w) field implementation, including the
wide-stripe GF(2^16) field."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec.field import GF256, GF65536, GaloisField
from repro.ec.reed_solomon import RSCode
from repro.exceptions import GaloisFieldError
from tests.ec.repair_equation import repair


def add(field, a, b):
    """Field addition as the data plane does it: a sum of two words
    with coefficient 1 each."""
    return int(field.linear_combination([1, 1], [[a], [b]])[0])


class TestConstruction:
    def test_unsupported_width_rejected(self):
        with pytest.raises(GaloisFieldError):
            GaloisField(12)

    def test_defaults(self):
        assert GF256.order == 256
        assert GF256.dtype == np.uint8
        assert GF65536.order == 65536
        assert GF65536.dtype == np.uint16

    def test_equality_and_hash(self):
        assert GaloisField(8) == GF256
        assert GaloisField(16) == GF65536
        assert GF256 != GF65536
        assert hash(GaloisField(8)) == hash(GF256)

    def test_repr(self):
        assert "2^8" in repr(GF256)
        assert "2^16" in repr(GF65536)


@pytest.mark.parametrize("field", [GF256, GF65536], ids=["gf256", "gf65536"])
class TestAxioms:
    def test_add_is_xor(self, field):
        assert add(field, 0b1010, 0b0110) == 0b1100

    def test_one_is_multiplicative_identity(self, field):
        for a in (1, 2, 77, field.order - 1):
            assert field.mul(1, a) == a

    def test_zero_annihilates(self, field):
        assert field.mul(0, field.order - 1) == 0

    def test_inverse_round_trip(self, field):
        rng = np.random.default_rng(1)
        for a in rng.integers(1, field.order, size=50):
            assert field.mul(int(a), field.inv(int(a))) == 1

    def test_distributivity_sampled(self, field):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b, c = (int(x) for x in rng.integers(0, field.order, size=3))
            left = field.mul(a, add(field, b, c))
            right = add(field, field.mul(a, b), field.mul(a, c))
            assert left == right

    def test_pow_matches_repeated_mul(self, field):
        acc = 1
        for exponent in range(8):
            assert field.pow(3, exponent) == acc
            acc = field.mul(acc, 3)

    def test_inv_zero_rejected(self, field):
        with pytest.raises(GaloisFieldError):
            field.inv(0)

    def test_mul_slice_matches_elementwise(self, field):
        rng = np.random.default_rng(3)
        data = rng.integers(0, field.order, size=200).astype(field.dtype)
        coeff = int(rng.integers(2, field.order))
        expected = field.mul(np.full_like(data, coeff), data)
        np.testing.assert_array_equal(field.mul_slice(coeff, data), expected)

    def test_mul_slice_bad_coefficient_rejected(self, field):
        with pytest.raises(GaloisFieldError):
            field.mul_slice(field.order, np.zeros(4, dtype=field.dtype))


@pytest.mark.parametrize("field", [GF256, GF65536], ids=["gf256", "gf65536"])
class TestOutOfFieldWords:
    """A wider input holding a value outside the field raises; the casts
    used to wrap it (256 -> 0) silently."""

    def test_mul_slice_rejects_wide_word(self, field):
        data = np.array([field.order, field.order + 1, 1])
        with pytest.raises(GaloisFieldError):
            field.mul_slice(3, data)

    def test_mul_slice_rejects_negative_word(self, field):
        with pytest.raises(GaloisFieldError):
            field.mul_slice(3, np.array([1, -1]))

    def test_mul_rejects_wide_operand(self, field):
        with pytest.raises(GaloisFieldError):
            field.mul(field.order, 1)
        with pytest.raises(GaloisFieldError):
            field.mul(np.array([1, 2]), np.array([3, field.order]))

    def test_addmul_and_inv_reject_wide_words(self, field):
        acc = np.zeros(2, dtype=field.dtype)
        with pytest.raises(GaloisFieldError):
            field.addmul(acc, 3, np.array([field.order, 1]))
        with pytest.raises(GaloisFieldError):
            field.inv(field.order + 1)

    def test_float_words_rejected(self, field):
        with pytest.raises(GaloisFieldError):
            field.mul_slice(3, np.array([1.5, 2.0]))

    def test_in_range_wide_dtype_accepted(self, field):
        data = np.array([0, 1, field.order - 1], dtype=np.int64)
        out = field.mul_slice(3, data)
        assert out.dtype == field.dtype
        np.testing.assert_array_equal(
            out, field.mul_slice(3, data.astype(field.dtype))
        )

    def test_encode_rejects_wide_word(self, field):
        code = RSCode(6, 4, field=field)
        chunks = [np.array([1, 2, field.order])] * 4
        with pytest.raises(GaloisFieldError):
            code.encode(chunks)


class TestExhaustiveGF256Parity:
    def test_field_class_matches_module_tables(self):
        # Verify the GF256 multiplication table against a slow reference
        # for a sample.
        def slow_mul(a, b):
            result = 0
            while b:
                if b & 1:
                    result ^= a
                b >>= 1
                a <<= 1
                if a & 0x100:
                    a ^= 0x11D
            return result

        rng = np.random.default_rng(4)
        for _ in range(300):
            a, b = (int(x) for x in rng.integers(0, 256, size=2))
            assert GF256.mul(a, b) == slow_mul(a, b)


class TestWideStripes:
    """GF(2^16) lifts the n <= 255 stripe-width ceiling."""

    def test_code_wider_than_gf256_allows(self):
        code = RSCode(300, 256, field=GF65536)
        assert code.n == 300
        assert code.field is GF65536

    def test_wide_stripe_repair_round_trip(self):
        code = RSCode(40, 32, field=GF65536)
        rng = np.random.default_rng(5)
        data = [
            rng.integers(0, 65536, size=16, dtype=np.uint16)
            for _ in range(32)
        ]
        stripe = code.encode(data)
        lost = 7
        helpers = [i for i in range(40) if i != lost][:32]
        rebuilt = repair(code, lost, {i: stripe[i] for i in helpers})
        np.testing.assert_array_equal(rebuilt, stripe[lost])

    def test_gf256_still_rejects_wide(self):
        from repro.exceptions import CodingError

        with pytest.raises(CodingError):
            RSCode(300, 256)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_wide_decode_property(self, seed):
        rng = np.random.default_rng(seed)
        code = RSCode(12, 8, field=GF65536)
        data = [
            rng.integers(0, 65536, size=8, dtype=np.uint16)
            for _ in range(8)
        ]
        stripe = code.encode(data)
        chosen = rng.choice(12, size=8, replace=False)
        decoded = code.decode({int(i): stripe[int(i)] for i in chosen})
        for original, rebuilt in zip(data, decoded):
            np.testing.assert_array_equal(original, rebuilt)
