"""A GF(2^16) cluster stores 16-bit words and repairs them byte-exactly.

``DataNode.store`` used to cast every payload to uint8, so a cluster over
``GF65536`` silently kept the low byte of each word.
"""

import numpy as np
import pytest

from repro.baselines import ConventionalPlanner
from repro.cluster import Cluster
from repro.core import BandwidthSnapshot, PivotRepairPlanner
from repro.ec import RSCode
from repro.ec.field import GF65536

NODE_COUNT = 10
WORDS = 5000  # above the field's short-buffer threshold


@pytest.fixture
def written():
    cluster = Cluster(NODE_COUNT, RSCode(6, 4, field=GF65536))
    rng = np.random.default_rng(21)
    data = [
        rng.integers(0, 65536, size=WORDS).astype(np.uint16) for _ in range(4)
    ]
    stripe = cluster.write_stripe(data, rng)
    return cluster, stripe, data


def snapshot():
    rng = np.random.default_rng(2)
    return BandwidthSnapshot(
        up={i: float(rng.integers(10, 1000)) for i in range(NODE_COUNT)},
        down={i: float(rng.integers(10, 1000)) for i in range(NODE_COUNT)},
    )


def test_written_chunks_read_back_as_written(written):
    cluster, stripe, data = written
    for index, chunk in enumerate(data):
        stored = cluster.nodes[stripe.placement[index]].read(
            stripe.chunk_id(index)
        )
        assert stored.dtype == np.uint16
        np.testing.assert_array_equal(stored, chunk)


@pytest.mark.parametrize(
    "planner_factory", [PivotRepairPlanner, ConventionalPlanner],
    ids=["pivot", "conventional"],
)
@pytest.mark.parametrize("lost_index", [0, 5], ids=["data", "parity"])
def test_write_fail_repair_compare(written, planner_factory, lost_index):
    cluster, stripe, _ = written
    victim = stripe.placement[lost_index]
    original = cluster.nodes[victim].read(stripe.chunk_id(lost_index)).copy()
    cluster.fail_node(victim)
    requestor = next(
        n for n in range(NODE_COUNT) if n not in stripe.placement
    )
    _, rebuilt = cluster.repair_chunk(
        planner_factory(), snapshot(), stripe, lost_index, requestor
    )
    assert rebuilt.dtype == np.uint16
    np.testing.assert_array_equal(rebuilt, original)
    np.testing.assert_array_equal(
        cluster.nodes[requestor].read(stripe.chunk_id(lost_index)), original
    )


def test_double_loss_repair(written):
    cluster, stripe, _ = written
    lost = [1, 4]
    originals = {
        i: cluster.nodes[stripe.placement[i]].read(stripe.chunk_id(i)).copy()
        for i in lost
    }
    for i in lost:
        cluster.fail_node(stripe.placement[i])
    spares = [n for n in range(NODE_COUNT) if n not in stripe.placement][:2]
    rebuilt = cluster.repair_stripe(
        PivotRepairPlanner(), snapshot(), stripe, lost, dict(zip(lost, spares))
    )
    for i in lost:
        np.testing.assert_array_equal(rebuilt[i], originals[i])
