"""Tests for chunk/slice utilities and stripe placement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec.chunk import (
    ChunkId,
    join_slices,
    random_chunk,
    slice_count,
    split_slices,
)
from repro.ec.reed_solomon import RSCode
from repro.ec.stripe import Stripe, place_stripes
from repro.exceptions import CodingError


class TestSlices:
    def test_slice_count_exact(self):
        assert slice_count(64, 16) == 4

    def test_slice_count_rounds_up(self):
        assert slice_count(65, 16) == 5

    def test_slice_count_rejects_bad_args(self):
        with pytest.raises(CodingError):
            slice_count(0, 16)
        with pytest.raises(CodingError):
            slice_count(64, 0)

    def test_split_join_round_trip(self):
        rng = np.random.default_rng(0)
        chunk = random_chunk(1000, rng)
        slices = split_slices(chunk, 64)
        assert len(slices) == slice_count(1000, 64)
        assert len(slices[-1]) == 1000 % 64
        np.testing.assert_array_equal(join_slices(slices), chunk)

    def test_split_rejects_bad_slice_size(self):
        with pytest.raises(CodingError):
            split_slices(np.zeros(8, dtype=np.uint8), 0)

    def test_join_empty(self):
        assert len(join_slices([])) == 0

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5000),
        st.integers(min_value=1, max_value=512),
    )
    def test_split_join_property(self, size, slice_size):
        rng = np.random.default_rng(size * 1000 + slice_size)
        chunk = random_chunk(size, rng)
        pieces = split_slices(chunk, slice_size)
        assert all(len(p) <= slice_size for p in pieces)
        np.testing.assert_array_equal(join_slices(pieces), chunk)

    def test_random_chunk_rejects_negative(self):
        with pytest.raises(CodingError):
            random_chunk(-1, np.random.default_rng(0))


class TestChunkId:
    def test_str(self):
        assert str(ChunkId(3, 1)) == "stripe3/chunk1"

    def test_hashable(self):
        assert ChunkId(1, 2) in {ChunkId(1, 2)}


class TestStripe:
    def test_placement_width_must_match(self):
        with pytest.raises(CodingError):
            Stripe(0, RSCode(6, 4), [0, 1, 2])

    def test_duplicate_placement_rejected(self):
        with pytest.raises(CodingError):
            Stripe(0, RSCode(6, 4), [0, 1, 2, 3, 4, 4])

    def test_chunk_on_node(self):
        stripe = Stripe(0, RSCode(6, 4), [10, 11, 12, 13, 14, 15])
        assert stripe.chunk_on_node(12) == 2
        assert stripe.chunk_on_node(99) is None

    def test_surviving_nodes(self):
        stripe = Stripe(0, RSCode(6, 4), [0, 1, 2, 3, 4, 5])
        assert stripe.surviving_nodes(3) == [0, 1, 2, 4, 5]

    def test_chunk_id(self):
        stripe = Stripe(7, RSCode(6, 4), [0, 1, 2, 3, 4, 5])
        assert stripe.chunk_id(2) == ChunkId(7, 2)


class TestPlacement:
    def test_places_requested_count(self):
        stripes = place_stripes(10, RSCode(6, 4), 16, np.random.default_rng(1))
        assert len(stripes) == 10
        assert [s.stripe_id for s in stripes] == list(range(10))

    def test_each_stripe_on_distinct_nodes(self):
        stripes = place_stripes(20, RSCode(9, 6), 16, np.random.default_rng(2))
        for stripe in stripes:
            assert len(set(stripe.placement)) == 9
            assert all(0 <= node < 16 for node in stripe.placement)

    def test_start_id_offset(self):
        stripes = place_stripes(
            3, RSCode(6, 4), 16, np.random.default_rng(3), start_id=100
        )
        assert [s.stripe_id for s in stripes] == [100, 101, 102]

    def test_too_few_nodes_rejected(self):
        with pytest.raises(CodingError):
            place_stripes(1, RSCode(6, 4), 5, np.random.default_rng(0))

    def test_deterministic_given_seed(self):
        a = place_stripes(5, RSCode(6, 4), 16, np.random.default_rng(42))
        b = place_stripes(5, RSCode(6, 4), 16, np.random.default_rng(42))
        assert [s.placement for s in a] == [s.placement for s in b]
