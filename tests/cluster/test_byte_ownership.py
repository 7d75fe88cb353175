"""Who owns a chunk's bytes: stored chunks are shared, frozen, never copied.

A systematic stripe's first k chunks are the data, so a written buffer is
stored as it is given (frozen in place) and every chunk the cluster stores
or hands out is read-only.  Each check is an exact count or a raised
error, never a timing.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.cluster import Cluster, DataNode
from repro.core import BandwidthSnapshot, PivotRepairPlanner
from repro.ec import RSCode
from repro.ec.chunk import ChunkId

MiB = 1 << 20
NODES = 10


def snapshot():
    rng = np.random.default_rng(3)
    return BandwidthSnapshot(
        up={i: float(rng.integers(10, 1000)) for i in range(NODES)},
        down={i: float(rng.integers(10, 1000)) for i in range(NODES)},
    )


def data_chunks(code, size, seed=0):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, 256, size=size, dtype=np.uint8)
        for _ in range(code.k)
    ]


def written(size=4096):
    """A cluster holding one stripe, the caller's buffers and copies."""
    cluster = Cluster(NODES, RSCode(6, 4))
    data = data_chunks(cluster.code, size)
    originals = [chunk.copy() for chunk in data]
    stripe = cluster.write_stripe(data, np.random.default_rng(1))
    return cluster, stripe, data, originals


def spare_node(cluster, stripe):
    return next(
        node for node in cluster.alive_nodes()
        if node not in stripe.placement
    )


def stored(cluster, stripe, index):
    node = cluster.nodes[stripe.placement[index]]
    return node.read(stripe.chunk_id(index))


class TestNoDataChunkCopy:
    def test_encode_returns_the_callers_data_buffers(self):
        code = RSCode(6, 4)
        data = data_chunks(code, 64)
        stripe = code.encode(data)
        assert all(chunk is buffer for chunk, buffer in zip(stripe, data))
        assert not any(
            np.shares_memory(parity, buffer)
            for parity in stripe[code.k:] for buffer in data
        )

    def test_write_stripe_allocates_parity_and_one_scratch_buffer(self):
        # RS(6,4) over 1 MiB chunks: the two parity chunks stay, one
        # scratch buffer lives while a parity row accumulates, and the
        # slack covers a gather block's widened indices (256 KiB) and a
        # coefficient table built on first use (128 KiB).  A copy of even
        # one data chunk would add a whole MiB.
        cluster = Cluster(NODES, RSCode(6, 4))
        code = cluster.code
        data = data_chunks(code, MiB)
        rng = np.random.default_rng(1)
        tracemalloc.start()
        try:
            cluster.write_stripe(data, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= (code.n - code.k) * MiB + MiB + MiB // 2
        stripe = cluster.stripes[0]
        for index, buffer in enumerate(data):
            assert stored(cluster, stripe, index) is buffer


class TestReadOnly:
    def test_writing_the_callers_buffer_raises(self):
        _, _, data, _ = written()
        with pytest.raises(ValueError):
            data[0][0] ^= 1

    def test_writing_a_read_chunk_raises(self):
        cluster, stripe, _, originals = written()
        for index in range(cluster.code.n):
            chunk = stored(cluster, stripe, index)
            with pytest.raises(ValueError):
                chunk[0] ^= 1
        np.testing.assert_array_equal(stored(cluster, stripe, 0), originals[0])

    def test_writing_a_repaired_payload_raises(self):
        cluster, stripe, _, originals = written()
        cluster.fail_node(stripe.placement[1])
        _, payload = cluster.repair_chunk(
            PivotRepairPlanner(), snapshot(), stripe, 1,
            spare_node(cluster, stripe),
        )
        with pytest.raises(ValueError):
            payload[0] ^= 1
        np.testing.assert_array_equal(stored(cluster, stripe, 1), originals[1])

    def test_degraded_reads_are_read_only_on_both_paths(self):
        cluster, stripe, _, _ = written()
        client = spare_node(cluster, stripe)
        live = cluster.degraded_read(
            PivotRepairPlanner(), snapshot(), stripe, 0, client
        )
        cluster.fail_node(stripe.placement[2])
        rebuilt = cluster.degraded_read(
            PivotRepairPlanner(), snapshot(), stripe, 2, client
        )
        for payload in (live, rebuilt):
            with pytest.raises(ValueError):
                payload[0] ^= 1


class TestCopiedOnce:
    def test_a_view_of_a_writeable_buffer_is_copied(self):
        node = DataNode(0)
        base = np.arange(64, dtype=np.uint8)
        node.store(ChunkId(0, 0), base[8:40])
        base[8:40] = 0
        np.testing.assert_array_equal(
            node.read(ChunkId(0, 0)), np.arange(8, 40, dtype=np.uint8)
        )
        assert base.flags.writeable

    def test_a_strided_buffer_is_copied_contiguous(self):
        node = DataNode(0)
        base = np.arange(64, dtype=np.uint8)
        node.store(ChunkId(0, 0), base[::2])
        chunk = node.read(ChunkId(0, 0))
        assert chunk.flags.c_contiguous and not chunk.flags.writeable
        assert not np.shares_memory(chunk, base)

    def test_a_cast_buffer_is_stored_read_only(self):
        node = DataNode(0)
        node.store(ChunkId(0, 0), [1, 2, 255])
        assert not node.read(ChunkId(0, 0)).flags.writeable


class TestSharedChunksStillDecode:
    def test_decode_repair_and_degraded_read_match_the_originals(self):
        cluster, stripe, _, originals = written(size=150_001)
        code = cluster.code
        parity = {
            index: stored(cluster, stripe, index)
            for index in range(code.k, code.n)
        }
        survivors = {i: stored(cluster, stripe, i) for i in (0, 3)}
        decoded = code.decode({**survivors, **parity})
        for chunk, original in zip(decoded, originals):
            np.testing.assert_array_equal(chunk, original)
        client = spare_node(cluster, stripe)
        cluster.fail_node(stripe.placement[2])
        np.testing.assert_array_equal(
            cluster.degraded_read(
                PivotRepairPlanner(), snapshot(), stripe, 2, client
            ),
            originals[2],
        )
        _, payload = cluster.repair_chunk(
            PivotRepairPlanner(), snapshot(), stripe, 2, client
        )
        np.testing.assert_array_equal(payload, originals[2])


def test_a_dropped_cluster_is_freed_without_the_cyclic_collector():
    # A recursive closure inside a repair would hold its own cell: a
    # cycle that pins the cluster and all its chunks until the collector
    # runs.  With the collector off, reference counts alone must free it.
    gc.disable()
    try:
        cluster, stripe, _, _ = written()
        victim = stripe.placement[1]
        cluster.fail_node(victim)
        requestor = spare_node(cluster, stripe)
        plan, _ = cluster.repair_chunk(
            PivotRepairPlanner(), snapshot(), stripe, 1, requestor
        )
        cluster.rebuild_slice_range(stripe, 1, plan, 0, 2, 1024)
        ref = weakref.ref(cluster)
        del cluster
        assert ref() is None
    finally:
        gc.enable()
