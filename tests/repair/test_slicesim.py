"""Tests for the slice-level discrete simulator and its agreement with the
fluid pipeline model."""

import numpy as np
import pytest

from repro.core import PivotRepairPlanner
from repro.core.bandwidth_view import BandwidthSnapshot
from repro.core.tree import RepairTree
from repro.exceptions import SimulationError
from repro.repair.pipeline import ExecutionConfig
from repro.repair.slicesim import edge_rate, fluid_estimate, simulate_slices


def snapshot(up, down):
    return BandwidthSnapshot(up=up, down=down)


def uniform(count, value=100.0):
    return snapshot(
        {i: value for i in range(count)}, {i: value for i in range(count)}
    )


def config(chunk=1000, slice_size=10, overhead=0.0):
    return ExecutionConfig(
        chunk_size=chunk, slice_size=slice_size, per_slice_overhead=overhead
    )


class TestEdgeRate:
    def test_single_child_gets_full_downlink(self):
        tree = RepairTree.chain(0, [1])
        assert edge_rate(uniform(2), tree, 1) == 100

    def test_fanin_splits_downlink(self):
        tree = RepairTree(0, {1: 0, 2: 0})
        view = snapshot({0: 1000, 1: 1000, 2: 1000}, {0: 100, 1: 1, 2: 1})
        assert edge_rate(view, tree, 1) == 50

    def test_uplink_can_bind(self):
        tree = RepairTree.chain(0, [1])
        view = snapshot({0: 100, 1: 30}, {0: 100, 1: 100})
        assert edge_rate(view, tree, 1) == 30

    def test_root_has_no_edge(self):
        tree = RepairTree.chain(0, [1])
        with pytest.raises(SimulationError):
            edge_rate(uniform(2), tree, 0)


class TestSliceSimulation:
    def test_single_edge_matches_serial_transfer(self):
        tree = RepairTree.chain(0, [1])
        total = simulate_slices(tree, uniform(2), config())
        assert total == pytest.approx(10.0)  # 1000 bytes at 100 B/s

    def test_chain_pipeline_fill(self):
        # Depth-3 chain: (S + d - 1) slice times.
        tree = RepairTree.chain(0, [1, 2, 3])
        cfg = config(chunk=1000, slice_size=10)  # 100 slices
        total = simulate_slices(tree, uniform(4), cfg)
        assert total == pytest.approx((100 + 2) * 0.1)

    def test_zero_bandwidth_edge_rejected(self):
        tree = RepairTree.chain(0, [1])
        view = snapshot({0: 100, 1: 0}, {0: 100, 1: 100})
        with pytest.raises(SimulationError):
            simulate_slices(tree, view, config())

    def test_slowest_stage_dominates(self):
        tree = RepairTree.chain(0, [1, 2])
        view = snapshot(
            {0: 1000, 1: 1000, 2: 10}, {0: 1000, 1: 1000, 2: 1000}
        )
        total = simulate_slices(tree, view, config())
        # 1000 bytes through the 10 B/s stage dominates: ~100 s.
        assert total == pytest.approx(100.0, rel=0.02)

    def test_overhead_accumulates_per_slice(self):
        tree = RepairTree.chain(0, [1])
        cfg = config(chunk=1000, slice_size=10, overhead=0.01)
        plain = simulate_slices(tree, uniform(2), config())
        with_overhead = simulate_slices(tree, uniform(2), cfg)
        assert with_overhead - plain == pytest.approx(1.0)  # 100 x 0.01


class TestAgreementWithFluidModel:
    """The fluid abstraction must track the slice-level ground truth."""

    def test_uniform_chain_agreement(self):
        tree = RepairTree.chain(0, [1, 2, 3])
        cfg = config(chunk=100_000, slice_size=100)
        discrete = simulate_slices(tree, uniform(4), cfg)
        fluid = fluid_estimate(tree, uniform(4), cfg)
        assert discrete == pytest.approx(fluid, rel=0.01)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_pivot_trees_agree_within_tolerance(self, seed):
        rng = np.random.default_rng(seed)
        count = 10
        view = snapshot(
            {i: float(rng.integers(50, 1000)) for i in range(count)},
            {i: float(rng.integers(50, 1000)) for i in range(count)},
        )
        plan = PivotRepairPlanner().plan(view, 0, list(range(1, count)), 6)
        cfg = config(chunk=1_000_000, slice_size=1000)
        discrete = simulate_slices(plan.tree, view, cfg)
        fluid = fluid_estimate(plan.tree, view, cfg)
        # The fluid model is a lower bound (it assumes perfect overlap);
        # the discrete pipeline should stay within ~15% of it.
        assert discrete >= fluid * 0.99
        assert discrete <= fluid * 1.15

    def test_small_slices_converge_to_fluid(self):
        tree = RepairTree(0, {1: 0, 2: 1, 3: 1})
        view = snapshot(
            {0: 900, 1: 500, 2: 300, 3: 700},
            {0: 800, 1: 600, 2: 400, 3: 500},
        )
        cfg_fine = config(chunk=100_000, slice_size=50)
        cfg_coarse = config(chunk=100_000, slice_size=10_000)
        fluid = fluid_estimate(tree, view, cfg_fine)
        fine = simulate_slices(tree, view, cfg_fine)
        coarse = simulate_slices(tree, view, cfg_coarse)
        assert abs(fine - fluid) <= abs(coarse - fluid) + 1e-9


class TestSliceCriticalPath:
    def tree_and_snapshot(self, seed=7, n=8):
        rng = np.random.default_rng(seed)
        parents = {i: int(rng.integers(0, i)) for i in range(1, n)}
        tree = RepairTree(root=0, parents=parents)
        snap = snapshot(
            {i: float(rng.uniform(50.0, 500.0)) for i in range(n)},
            {i: float(rng.uniform(50.0, 500.0)) for i in range(n)},
        )
        return tree, snap

    def test_segments_tile_the_makespan_exactly(self):
        from repro.repair.slicesim import slice_critical_path

        for seed in range(12):
            tree, snap = self.tree_and_snapshot(seed=seed)
            cfg = config(chunk=1000, slice_size=50, overhead=1e-4)
            makespan = simulate_slices(tree, snap, cfg)
            segments = slice_critical_path(tree, snap, cfg)
            assert sum(s.end - s.start for s in segments) == pytest.approx(
                makespan, abs=1e-9
            )
            assert segments[0].start == pytest.approx(0.0, abs=1e-12)
            assert segments[-1].end == pytest.approx(makespan, abs=1e-12)
            for a, b in zip(segments, segments[1:]):
                assert a.end == pytest.approx(b.start, abs=1e-12)

    def test_resumed_repair_paths_tile_too(self):
        from repro.repair.slicesim import slice_critical_path

        tree, snap = self.tree_and_snapshot()
        cfg = config(chunk=1000, slice_size=50)
        for start_slice in (0, 5, 19):
            makespan = simulate_slices(
                tree, snap, cfg, start_slice=start_slice
            )
            segments = slice_critical_path(
                tree, snap, cfg, start_slice=start_slice
            )
            assert sum(s.end - s.start for s in segments) == pytest.approx(
                makespan, abs=1e-9
            )
            # Slice indices are absolute, not relative to the resume.
            assert min(s.slice_index for s in segments) >= start_slice

    def test_serial_bottleneck_stays_on_one_edge(self):
        from repro.repair.slicesim import slice_critical_path

        # Chain 2 -> 1 -> 0 where edge 1->0 is 10x slower: after the
        # first slice arrives, the critical path is pure serialization
        # on the slow edge.
        tree = RepairTree(0, {1: 0, 2: 1})
        snap = snapshot(
            {0: 1000.0, 1: 10.0, 2: 1000.0},
            {0: 10.0, 1: 1000.0, 2: 1000.0},
        )
        segments = slice_critical_path(
            tree, snap, config(chunk=1000, slice_size=100)
        )
        serial = [s for s in segments if s.kind == "serial"]
        assert len(serial) == 9  # slices 1..9 gated by slice i-1
        assert all(s.node == 1 for s in serial)

    def test_tracer_emission_chains_spans(self):
        from repro.obs import Tracer
        from repro.repair.slicesim import slice_critical_path

        tree, snap = self.tree_and_snapshot()
        tracer = Tracer()
        parent = tracer.begin("repair.task", t=0.0, track="repair:0")
        segments = slice_critical_path(
            tree, snap, config(chunk=1000, slice_size=100),
            tracer=tracer, parent_id=parent,
        )
        spans = [e for e in tracer.events if e.name == "slice.xfer"]
        begins = [e for e in spans if e.kind == "begin"]
        assert len(begins) == len(segments)
        assert all(e.parent_id == parent for e in begins)
        # Consecutive spans follow from their predecessor.
        assert all(e.links for e in begins[1:])
        for previous, event in zip(begins, begins[1:]):
            assert event.links == (previous.span_id,)
