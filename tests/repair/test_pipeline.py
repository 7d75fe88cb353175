"""Tests for the pipelined execution model."""

import pytest

from repro.exceptions import PlanningError
from repro.repair.pipeline import (
    ExecutionConfig,
    ideal_transfer_seconds,
    pipeline_bytes_per_edge,
    pipeline_overhead_seconds,
    verified_watermark,
)
from repro.units import kib, mib


class TestExecutionConfig:
    def test_defaults_match_paper(self):
        config = ExecutionConfig()
        assert config.chunk_size == mib(64)
        assert config.slice_size == kib(32)

    def test_slice_count(self):
        config = ExecutionConfig(chunk_size=mib(64), slice_size=kib(32))
        assert config.slices == 2048

    def test_slice_larger_than_chunk_is_clamped(self):
        config = ExecutionConfig(chunk_size=100, slice_size=1000)
        assert config.slice_size == 100
        assert config.slices == 1

    def test_bad_values_rejected(self):
        with pytest.raises(PlanningError):
            ExecutionConfig(chunk_size=0)
        with pytest.raises(PlanningError):
            ExecutionConfig(slice_size=0)
        with pytest.raises(PlanningError):
            ExecutionConfig(per_slice_overhead=-1)


class TestPipelineModel:
    def test_fill_grows_with_depth(self):
        config = ExecutionConfig(chunk_size=1000, slice_size=10)
        assert pipeline_bytes_per_edge(config, 1) == 1000
        assert pipeline_bytes_per_edge(config, 3) == 1020

    def test_depth_must_be_positive(self):
        with pytest.raises(PlanningError):
            pipeline_bytes_per_edge(ExecutionConfig(), 0)

    def test_overhead_scales_with_slice_count(self):
        config = ExecutionConfig(
            chunk_size=1000, slice_size=10, per_slice_overhead=0.001
        )
        assert pipeline_overhead_seconds(config) == pytest.approx(0.1)

    def test_ideal_transfer_time(self):
        config = ExecutionConfig(
            chunk_size=1000, slice_size=10, per_slice_overhead=0.0
        )
        assert ideal_transfer_seconds(config, 1, 100.0) == pytest.approx(10.0)
        # Depth 3 adds 2 slices of fill.
        assert ideal_transfer_seconds(config, 3, 100.0) == pytest.approx(10.2)

    def test_ideal_transfer_rejects_zero_bandwidth(self):
        with pytest.raises(PlanningError):
            ideal_transfer_seconds(ExecutionConfig(), 1, 0.0)

    def test_fill_negligible_at_paper_scale(self):
        # 64 MiB chunk, 32 KiB slices, depth 10: fill < 0.5 % of the chunk.
        config = ExecutionConfig()
        fill = pipeline_bytes_per_edge(config, 10) - config.chunk_size
        assert fill / config.chunk_size < 0.005


class TestVerifiedWatermark:
    """The slice an interrupted flight has verifiably delivered: a
    fraction ``f`` of a flight from slice ``s`` of ``S`` carried
    ``f * (S - s)`` slices, the last ``depth - 1`` of which may still sit
    inside the pipeline and are not trusted."""

    CONFIG = ExecutionConfig(chunk_size=64, slice_size=1)  # S = 64

    def test_zero_progress_returns_the_start(self):
        for start in (0, 1, 17, 63):
            for depth in (1, 2, 5):
                assert verified_watermark(self.CONFIG, depth, start, 0.0) == (
                    start
                )

    def test_never_more_than_the_pipeline_allows(self):
        slices = self.CONFIG.slices
        for start in (0, 10, 40):
            for depth in (1, 2, 4):
                for step in range(101):
                    fraction = step / 100
                    got = verified_watermark(
                        self.CONFIG, depth, start, fraction
                    )
                    bound = start + fraction * (slices - start) - (depth - 1)
                    assert start <= got <= max(start, bound)

    def test_undercounts_by_up_to_depth_minus_one(self):
        # Half of 64 slices from slice 0 through a depth-3 tree: 32
        # carried, the 2 still in the pipeline not counted.  Conservative
        # on purpose: a resume re-fetches them rather than trusting them.
        assert verified_watermark(self.CONFIG, 3, 0, 0.5) == 30
        assert verified_watermark(self.CONFIG, 1, 0, 0.5) == 32
        # From slice 16: 24 of 48 carried, 2 in flight.
        assert verified_watermark(self.CONFIG, 3, 16, 0.5) == 38

    def test_clamped_to_the_last_slice(self):
        # A finished flight still leaves one slice to fetch on resume.
        assert verified_watermark(self.CONFIG, 1, 0, 1.0) == 63
        assert verified_watermark(self.CONFIG, 1, 63, 1.0) == 63

    def test_depth_beyond_the_slice_count_verifies_nothing(self):
        config = ExecutionConfig(chunk_size=4, slice_size=1)
        for fraction in (0.0, 0.5, 1.0):
            assert verified_watermark(config, 6, 0, fraction) == 0
            assert verified_watermark(config, 6, 2, fraction) == 2
        # At depth == slices, a whole flight's worth minus the fill.
        assert verified_watermark(config, 4, 0, 1.0) == 1
