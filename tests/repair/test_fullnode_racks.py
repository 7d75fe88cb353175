"""Integration: full-node repair over the rack topology.

The orchestrators never reference StarNetwork specifics, so a RackNetwork
must drop in — and the oversubscribed core must actually constrain the
makespan.
"""

import numpy as np
import pytest

from repro.core import PivotRepairPlanner
from repro.ec import RSCode, place_stripes
from repro.repair import ExecutionConfig, repair_full_node
from repro.repair.fullnode import repair_full_node_adaptive
from tests.network.links import uniform_racks

NODE_COUNT = 12  # 3 racks x 4 nodes
CODE = RSCode(6, 4)


def rack_network(rack_capacity):
    return uniform_racks(3, 4, 1000.0, rack_capacity)


def make_stripes(failed_node, count=6, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    start_id = 0
    while len(out) < count:
        batch = place_stripes(16, CODE, NODE_COUNT, rng, start_id=start_id)
        start_id += 16
        out.extend(
            s for s in batch if s.chunk_on_node(failed_node) is not None
        )
    return out[:count]


def small_config():
    return ExecutionConfig(
        chunk_size=20_000, slice_size=1000, per_slice_overhead=0.0
    )


class TestFullNodeOnRacks:
    def test_repairs_complete_on_rack_topology(self):
        stripes = make_stripes(0)
        result = repair_full_node(
            PivotRepairPlanner(), rack_network(4000.0), stripes, 0,
            concurrency=2, config=small_config(),
        )
        assert result.chunks_repaired == 6
        assert result.total_seconds > 0

    def test_adaptive_works_on_rack_topology(self):
        stripes = make_stripes(0, seed=1)
        result = repair_full_node_adaptive(
            PivotRepairPlanner(), rack_network(4000.0), stripes, 0,
            config=small_config(),
        )
        assert result.chunks_repaired == 6

    def test_oversubscribed_core_slows_repair(self):
        stripes = make_stripes(5, count=8, seed=2)
        fat = repair_full_node(
            PivotRepairPlanner(), rack_network(8000.0), stripes, 5,
            concurrency=4, config=small_config(),
        )
        thin = repair_full_node(
            PivotRepairPlanner(), rack_network(200.0), stripes, 5,
            concurrency=4, config=small_config(),
        )
        assert thin.total_seconds > fat.total_seconds

    def test_residual_snapshot_covers_rack_nodes(self):
        # A residual snapshot must enumerate RackNetwork nodes correctly.
        from repro.network.simulator import FluidSimulator
        from repro.repair.jobmaster import ResidualView

        net = rack_network(4000.0)
        sim = FluidSimulator(net)
        sim.submit_bulk([(0, 4, 1e6)])  # cross-rack background
        view = ResidualView(net, sim).snapshot()
        assert set(view.up) == set(range(NODE_COUNT))
        assert view.up_of(0) < 1000.0  # uplink usage subtracted
        assert view.down_of(4) < 1000.0
