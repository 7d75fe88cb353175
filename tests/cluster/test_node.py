"""Tests for DataNode storage and repair-time computation."""

import numpy as np
import pytest

from repro.cluster.node import DataNode
from repro.ec.chunk import ChunkId
from repro.ec.field import GF256, GF65536
from repro.exceptions import ClusterError


def payload(seed, size=32):
    return np.random.default_rng(seed).integers(0, 256, size, dtype=np.uint8)


class TestStorage:
    def test_store_read(self):
        node = DataNode(3)
        cid = ChunkId(0, 1)
        node.store(cid, payload(1))
        np.testing.assert_array_equal(node.read(cid), payload(1))
        assert node.has(cid)
        assert node.chunk_ids() == [cid]

    def test_read_missing_raises(self):
        with pytest.raises(ClusterError):
            DataNode(0).read(ChunkId(0, 0))

    def test_chunk_ids_sorted(self):
        node = DataNode(0)
        node.store(ChunkId(1, 0), payload(1))
        node.store(ChunkId(0, 2), payload(2))
        node.store(ChunkId(0, 1), payload(3))
        assert node.chunk_ids() == [ChunkId(0, 1), ChunkId(0, 2), ChunkId(1, 0)]

    def test_repr(self):
        assert "up" in repr(DataNode(0))


class TestWordDtype:
    def test_gf65536_node_keeps_sixteen_bit_words(self):
        node = DataNode(0, GF65536)
        cid = ChunkId(0, 0)
        data = np.array([0, 255, 256, 65535], dtype=np.uint16)
        node.store(cid, data)
        assert node.read(cid).dtype == np.uint16
        np.testing.assert_array_equal(node.read(cid), data)

    def test_payload_outside_the_field_rejected(self):
        # A GF(2^8) node used to keep the low byte of each word.
        with pytest.raises(ClusterError):
            DataNode(0).store(
                ChunkId(0, 0), np.array([1, 256], dtype=np.uint16)
            )

    def test_in_range_payload_cast_to_word_dtype(self):
        node = DataNode(0)
        node.store(ChunkId(0, 0), [1, 2, 255])
        assert node.read(ChunkId(0, 0)).dtype == np.uint8


class TestFailure:
    def test_fail_drops_data_and_blocks_access(self):
        node = DataNode(0)
        cid = ChunkId(0, 0)
        node.store(cid, payload(1))
        node.fail()
        assert not node.alive
        assert not node.has(cid)
        with pytest.raises(ClusterError):
            node.read(cid)
        with pytest.raises(ClusterError):
            node.store(cid, payload(1))


class TestPartialResult:
    def test_scales_own_chunk(self):
        node = DataNode(0)
        cid = ChunkId(0, 0)
        data = payload(5)
        node.store(cid, data)
        out = node.partial_result(cid, 3, [])
        np.testing.assert_array_equal(out, GF256.mul_slice(3, data))

    def test_xors_child_results(self):
        node = DataNode(0)
        cid = ChunkId(0, 0)
        data = payload(5)
        node.store(cid, data)
        child_a, child_b = payload(6), payload(7)
        out = node.partial_result(cid, 1, [child_a, child_b])
        np.testing.assert_array_equal(out, data ^ child_a ^ child_b)

    def test_size_mismatch_rejected(self):
        node = DataNode(0)
        cid = ChunkId(0, 0)
        node.store(cid, payload(5, size=32))
        with pytest.raises(ClusterError):
            node.partial_result(cid, 1, [payload(6, size=16)])

    @pytest.mark.parametrize("coefficient", [0, 1, 2, 255])
    @pytest.mark.parametrize("size", [32, 1 << 17])
    def test_stored_chunk_never_written(self, coefficient, size):
        # The children are XORed into the product in place; with
        # coefficient 1 the product must therefore be a copy.
        node = DataNode(0)
        cid = ChunkId(0, 0)
        data = payload(5, size=size)
        children = [payload(6, size=size), payload(7, size=size)]
        saved = [child.copy() for child in children]
        node.store(cid, data.copy())
        out = node.partial_result(cid, coefficient, children)
        np.testing.assert_array_equal(node.read(cid), data)
        assert not np.shares_memory(out, node.read(cid))
        for child, before in zip(children, saved):
            np.testing.assert_array_equal(child, before)
            assert not np.shares_memory(out, child)
        np.testing.assert_array_equal(
            out,
            GF256.mul_slice(coefficient, data) ^ saved[0] ^ saved[1],
        )

    @pytest.mark.parametrize("byte_range", [(1, 9), (3, 1 << 17), (7, 10**9)])
    def test_byte_range_matches_slice_of_full_result(self, byte_range):
        node = DataNode(0)
        cid = ChunkId(0, 0)
        size = (1 << 17) + 5
        data = payload(5, size=size)
        node.store(cid, data)
        lo, hi = byte_range
        child = payload(6, size=size)
        full = node.partial_result(cid, 29, [child])
        part = node.partial_result(
            cid, 29, [child[lo:hi]], byte_range=byte_range
        )
        np.testing.assert_array_equal(part, full[lo:hi])
        np.testing.assert_array_equal(node.read(cid), data)
