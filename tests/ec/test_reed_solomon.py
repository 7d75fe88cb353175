"""Tests for systematic Reed-Solomon encode/decode/repair."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec.field import GF256
from repro.ec.reed_solomon import RSCode
from repro.exceptions import CodingError, InsufficientChunksError
from tests.ec.repair_equation import repair

PAPER_PARAMS = [(6, 4), (9, 6), (12, 8), (14, 10)]


def make_stripe(code, size=64, seed=0):
    rng = np.random.default_rng(seed)
    data = [rng.integers(0, 256, size=size, dtype=np.uint8) for _ in range(code.k)]
    return data, code.encode(data)


class TestConstruction:
    def test_rejects_bad_parameters(self):
        with pytest.raises(CodingError):
            RSCode(4, 4)
        with pytest.raises(CodingError):
            RSCode(3, 0)
        with pytest.raises(CodingError):
            RSCode(300, 4)

    def test_systematic_prefix_is_identity(self):
        code = RSCode(6, 4)
        np.testing.assert_array_equal(
            code._generator[:4], np.eye(4, dtype=np.uint8)
        )

    def test_equality_and_hash(self):
        assert RSCode(6, 4) == RSCode(6, 4)
        assert RSCode(6, 4) != RSCode(9, 6)
        assert hash(RSCode(6, 4)) == hash(RSCode(6, 4))

    def test_repr(self):
        assert repr(RSCode(6, 4)) == "RSCode(n=6, k=4, GF(2^8))"


class TestEncode:
    def test_systematic_data_preserved(self):
        code = RSCode(6, 4)
        data, stripe = make_stripe(code)
        for original, coded in zip(data, stripe[:4]):
            np.testing.assert_array_equal(original, coded)

    def test_encode_wrong_count_raises(self):
        code = RSCode(6, 4)
        with pytest.raises(CodingError):
            code.encode([np.zeros(8, dtype=np.uint8)] * 3)

    def test_encode_mismatched_sizes_raises(self):
        code = RSCode(6, 4)
        chunks = [np.zeros(8, dtype=np.uint8)] * 3 + [np.zeros(9, dtype=np.uint8)]
        with pytest.raises(CodingError):
            code.encode(chunks)

    def test_zero_data_gives_zero_parity(self):
        code = RSCode(9, 6)
        stripe = code.encode([np.zeros(16, dtype=np.uint8)] * 6)
        for chunk in stripe:
            assert not chunk.any()


class TestDecode:
    @pytest.mark.parametrize("n,k", PAPER_PARAMS)
    def test_any_k_chunks_decode(self, n, k):
        code = RSCode(n, k)
        data, stripe = make_stripe(code, seed=n * 100 + k)
        rng = np.random.default_rng(1)
        for _ in range(5):
            chosen = rng.choice(n, size=k, replace=False)
            available = {int(i): stripe[int(i)] for i in chosen}
            decoded = code.decode(available)
            for original, rebuilt in zip(data, decoded):
                np.testing.assert_array_equal(original, rebuilt)

    def test_too_few_chunks_raises(self):
        code = RSCode(6, 4)
        _, stripe = make_stripe(code)
        with pytest.raises(InsufficientChunksError):
            code.decode({0: stripe[0], 1: stripe[1]})

    def test_out_of_range_index_raises(self):
        code = RSCode(6, 4)
        _, stripe = make_stripe(code)
        available = {0: stripe[0], 1: stripe[1], 2: stripe[2], 9: stripe[3]}
        with pytest.raises(CodingError):
            code.decode(available)


class TestRepair:
    @pytest.mark.parametrize("n,k", PAPER_PARAMS)
    def test_repair_every_chunk(self, n, k):
        code = RSCode(n, k)
        _, stripe = make_stripe(code, seed=13)
        for lost in range(n):
            helpers = [i for i in range(n) if i != lost][:k]
            rebuilt = repair(
                code, lost, {i: stripe[i] for i in helpers}
            )
            np.testing.assert_array_equal(rebuilt, stripe[lost])

    def test_repair_with_parity_helpers(self):
        code = RSCode(6, 4)
        _, stripe = make_stripe(code, seed=2)
        helpers = [1, 3, 4, 5]  # includes both parity chunks
        rebuilt = repair(code, 0, {i: stripe[i] for i in helpers})
        np.testing.assert_array_equal(rebuilt, stripe[0])

    def test_repair_coefficients_linearity(self):
        """XOR of coefficient-scaled helper chunks equals the lost chunk.

        This is exactly the aggregation a pipelined repair tree performs
        (Section II-B properties 1 and 2).
        """
        code = RSCode(9, 6)
        _, stripe = make_stripe(code, seed=5)
        lost = 2
        helpers = [0, 1, 3, 4, 6, 8]
        coeffs = code.repair_coefficients(lost, helpers)
        acc = np.zeros_like(stripe[0])
        for index, coeff in coeffs.items():
            acc ^= GF256.mul_slice(coeff, stripe[index])
        np.testing.assert_array_equal(acc, stripe[lost])

    def test_repair_coefficients_order_independent(self):
        code = RSCode(6, 4)
        coeffs_a = code.repair_coefficients(0, [1, 2, 3, 4])
        coeffs_b = code.repair_coefficients(0, [4, 3, 2, 1])
        assert coeffs_a == coeffs_b

    def test_wrong_helper_count_raises(self):
        code = RSCode(6, 4)
        with pytest.raises(CodingError):
            code.repair_coefficients(0, [1, 2, 3])

    def test_duplicate_helpers_raise(self):
        code = RSCode(6, 4)
        with pytest.raises(CodingError):
            code.repair_coefficients(0, [1, 1, 2, 3])

    def test_lost_chunk_as_helper_raises(self):
        code = RSCode(6, 4)
        with pytest.raises(CodingError):
            code.repair_coefficients(0, [0, 1, 2, 3])


class TestPropertyBased:
    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(PAPER_PARAMS),
        st.integers(min_value=1, max_value=256),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_encode_decode_round_trip(self, params, size, seed):
        n, k = params
        code = RSCode(n, k)
        rng = np.random.default_rng(seed)
        data = [
            rng.integers(0, 256, size=size, dtype=np.uint8) for _ in range(k)
        ]
        stripe = code.encode(data)
        chosen = rng.choice(n, size=k, replace=False)
        decoded = code.decode({int(i): stripe[int(i)] for i in chosen})
        for original, rebuilt in zip(data, decoded):
            np.testing.assert_array_equal(original, rebuilt)

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(PAPER_PARAMS),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_repair_matches_original(self, params, seed):
        n, k = params
        code = RSCode(n, k)
        rng = np.random.default_rng(seed)
        data = [
            rng.integers(0, 256, size=32, dtype=np.uint8) for _ in range(k)
        ]
        stripe = code.encode(data)
        lost = int(rng.integers(0, n))
        survivors = [i for i in range(n) if i != lost]
        helpers = rng.choice(survivors, size=k, replace=False)
        rebuilt = repair(
            code, lost, {int(i): stripe[int(i)] for i in helpers}
        )
        np.testing.assert_array_equal(rebuilt, stripe[lost])
