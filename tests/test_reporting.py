"""Tests for the plain-text reporting helpers."""

import pytest

from repro import reporting
from repro.obs import Tracer
from repro.reporting import (
    bar_chart,
    format_mbps,
    format_seconds,
    format_table,
    render_timeline,
    sparkline,
)


class TestFormatSeconds:
    def test_scales(self):
        assert format_seconds(250) == "250 s"
        assert format_seconds(2.5) == "2.50 s"
        assert format_seconds(0.0025) == "2.50 ms"
        assert format_seconds(2.5e-6) == "2.5 us"

    def test_negative(self):
        assert format_seconds(-2.5) == "-2.50 s"


class TestFormatMbps:
    def test_conversion(self):
        assert format_mbps(125_000) == "1 Mb/s"
        assert format_mbps(125_000_000) == "1000 Mb/s"


class TestFormatTable:
    def test_alignment(self):
        table = format_table(["a", "bbb"], [[1, 2], [333, 4]])
        lines = table.splitlines()
        assert lines[0] == "  a  bbb"
        assert lines[1] == "---  ---"
        assert lines[2] == "  1    2"
        assert lines[3] == "333    4"

    def test_empty_headers_rejected(self):
        with pytest.raises(ValueError):
            format_table([], [])

    def test_ragged_row_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])


class TestBarChart:
    def test_scaled_to_peak(self):
        chart = bar_chart(["x", "yy"], [1.0, 2.0], width=10)
        lines = chart.splitlines()
        assert lines[0] == " x |##### 1"
        assert lines[1] == "yy |########## 2"

    def test_zero_values(self):
        chart = bar_chart(["a"], [0.0], width=10)
        assert chart == "a | 0"

    def test_unit_suffix(self):
        chart = bar_chart(["a"], [3.0], width=3, unit=" s")
        assert chart.endswith("3 s")

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0, 2.0])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [-1.0])

    def test_empty(self):
        assert bar_chart([], []) == ""


class TestSparkline:
    def test_levels(self):
        line = sparkline([0, 1, 2, 3])
        assert len(line) == 4
        assert line[0] == "▁"
        assert line[-1] == "█"

    def test_constant_series(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_empty(self):
        assert sparkline([]) == ""


class TestRenderTimeline:
    def traced(self):
        tracer = Tracer()
        span = tracer.begin("flow", t=0.0, track="node:2")
        tracer.instant("planner.plan", t=0.0, track="planner")
        tracer.end("flow", t=4.0, span_id=span, track="node:2")
        return tracer

    def test_rows_per_track_and_active_series(self):
        out = render_timeline(self.traced().events)
        assert "timeline" in out
        assert "node:2" in out
        assert "planner" in out
        assert "█" in out  # span bar
        assert "·" in out  # instant mark
        assert "active" in out

    def test_empty_events(self):
        assert render_timeline([]) == "(no events)"

    def test_width_respected(self, monkeypatch):
        monkeypatch.setattr(reporting, "TIMELINE_WIDTH", 20)
        out = render_timeline(self.traced().events)
        # Every track row fits the bar width plus label gutter and frame.
        for line in out.splitlines()[1:]:
            label, bars = line.split("|", 1)
            assert len(bars.split("|")[0]) == 20
