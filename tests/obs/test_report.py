"""HTML report tests: self-contained output, sections, determinism."""

import re

import numpy as np

from repro.core import PivotRepairPlanner, pin_planning
from repro.ec import RSCode, place_stripes
from repro.network.topology import StarNetwork
from repro.obs import (
    FlightRecorder,
    RunDiagnosis,
    Tracer,
    diagnose,
    render_html_report,
)
from repro.repair import repair_full_node
from repro.repair.pipeline import ExecutionConfig


def diagnosed_run():
    code = RSCode(6, 4)
    stripes = place_stripes(6, code, 10, np.random.default_rng(3))
    network = StarNetwork.constant([500.0] * 10, [800.0] * 10)

    tracer = Tracer()
    sampler = FlightRecorder(interval=0.5, capacity=65536)
    repair_full_node(
        pin_planning(PivotRepairPlanner(), 0.0), network, stripes,
        stripes[0].placement[0],
        config=ExecutionConfig(
            chunk_size=10_000, slice_size=1000, per_slice_overhead=0.0
        ),
        tracer=tracer, sampler=sampler,
    )
    samples = list(sampler.samples)
    return diagnose(tracer.events, network=network), samples


class TestHtmlReport:
    def test_self_contained_document_with_sections(self):
        diagnosis, samples = diagnosed_run()
        html = render_html_report(diagnosis, samples=samples, title="t")
        assert html.startswith("<!doctype html>")
        assert "</html>" in html
        # Single-file: no external scripts, stylesheets, or images.
        assert "http://" not in html and "https://" not in html
        assert "src=" not in html
        for section in ("waterfall", "utilization", "invariants"):
            assert section in html.lower()
        assert "<svg" in html

    def test_empty_run_renders_without_samples(self):
        empty = RunDiagnosis(
            repairs=[], totals={}, bottleneck_seconds={},
            achieved_over_oracle=None, achieved_over_claimed=None,
        )
        html = render_html_report(empty)
        assert "</html>" in html

    def test_output_is_deterministic(self):
        first_diag, first_samples = diagnosed_run()
        second_diag, second_samples = diagnosed_run()
        assert render_html_report(
            first_diag, samples=first_samples
        ) == render_html_report(second_diag, samples=second_samples)

    def test_title_is_escaped(self):
        empty = RunDiagnosis(
            repairs=[], totals={}, bottleneck_seconds={},
            achieved_over_oracle=None, achieved_over_claimed=None,
        )
        html = render_html_report(empty, title="<script>alert(1)</script>")
        assert "<script>" not in html
