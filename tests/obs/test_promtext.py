"""Prometheus exposition rendering and the test-side lint's tests."""

from repro.obs import MetricsRegistry, TimeSeriesDB, render_exposition
from repro.obs.promtext import (
    render_registry,
    render_tsdb,
    sanitize_metric_name,
)
from tests.obs.promtext_lint import lint as prometheus_lint


def registry_fixture():
    registry = MetricsRegistry()
    registry.counter("fg_requests", tenant="tenant-0").inc(10)
    registry.counter("fg_requests", tenant="tenant-1").inc(4)
    registry.gauge("bottleneck_utilization").set(0.8)
    registry.histogram("fg_read_latency", tenant="tenant-0").observe(0.002)
    registry.counter("bytes_up/3").inc(100)
    return registry


def tsdb_fixture():
    db = TimeSeriesDB()
    db.record("link_utilization", 0.5, 0.7, node=3, direction="up")
    db.record("link_utilization", 1.5, 0.9, node=3, direction="up")
    db.inc("fg_bytes_total", 1.0, 4096.0, tenant="tenant-0")
    return db


class TestRenderRegistry:
    def test_counters_and_labels(self):
        lines = render_registry(registry_fixture())
        text = "\n".join(lines) + "\n"
        assert "# TYPE fg_requests counter" in lines
        assert 'fg_requests{tenant="tenant-0"} 10.0' in lines
        assert 'fg_requests{tenant="tenant-1"} 4.0' in lines
        assert prometheus_lint(text) == []

    def test_histograms_render_as_summaries(self):
        lines = render_registry(registry_fixture())
        assert "# TYPE fg_read_latency summary" in lines
        quantiles = [
            line for line in lines
            if line.startswith("fg_read_latency{") and "quantile" in line
        ]
        assert len(quantiles) == 4
        assert any(line.startswith("fg_read_latency_sum") for line in lines)
        assert any(
            line.startswith("fg_read_latency_count") for line in lines
        )

    def test_slash_names_fold_into_key_label(self):
        lines = render_registry(registry_fixture())
        assert 'bytes_up{key="3"} 100.0' in lines
        assert all("/" not in line.split(" ")[0] for line in lines)


class TestRenderTsdb:
    def test_latest_point_with_millisecond_timestamp(self):
        lines = render_tsdb(tsdb_fixture())
        assert "# TYPE link_utilization gauge" in lines
        assert (
            'link_utilization{direction="up",node="3"} 0.9 1500' in lines
        )
        assert "# TYPE fg_bytes_total counter" in lines

    def test_empty_series_are_skipped(self):
        assert render_tsdb(TimeSeriesDB()) == []


class TestRenderExposition:
    def test_combined_document_lints_clean(self):
        text = render_exposition(
            registry=registry_fixture(), tsdb=tsdb_fixture()
        )
        assert text.endswith("\n")
        assert prometheus_lint(text) == []

    def test_registry_wins_duplicate_families(self):
        registry = MetricsRegistry()
        registry.counter("fg_bytes_total", tenant="tenant-0").inc(9999)
        text = render_exposition(registry=registry, tsdb=tsdb_fixture())
        assert text.count("# TYPE fg_bytes_total counter") == 1
        assert 'fg_bytes_total{tenant="tenant-0"} 9999.0' in text
        # The TSDB's copy of the family is dropped, not merged.
        assert "4096" not in text
        assert prometheus_lint(text) == []

    def test_empty_inputs_render_empty_document(self):
        assert render_exposition() == ""
        assert render_exposition(registry=MetricsRegistry()) == ""


class TestSanitize:
    def test_passthrough_and_cleanup(self):
        assert sanitize_metric_name("fg_requests") == "fg_requests"
        assert sanitize_metric_name("rate by-kind") == "rate_by_kind"
        assert sanitize_metric_name("9lives") == "_9lives"


class TestLint:
    def test_clean_document(self):
        doc = (
            "# TYPE x counter\n"
            'x{tenant="a"} 1.0\n'
            'x{tenant="b"} 2.0 1500\n'
        )
        assert prometheus_lint(doc) == []

    def test_missing_trailing_newline(self):
        errors = prometheus_lint("# TYPE x counter\nx 1.0")
        assert any("newline" in error for error in errors)

    def test_bad_metric_name(self):
        errors = prometheus_lint("# TYPE 9bad counter\n")
        assert any("bad metric name" in error for error in errors)

    def test_unknown_type(self):
        errors = prometheus_lint("# TYPE x exotic\n")
        assert any("unknown metric type" in error for error in errors)

    def test_duplicate_type(self):
        doc = "# TYPE x counter\nx 1.0\n# TYPE x counter\nx 2.0\n"
        errors = prometheus_lint(doc)
        assert any("duplicate TYPE" in error for error in errors)

    def test_non_contiguous_family(self):
        doc = (
            "# TYPE x counter\n"
            "x 1.0\n"
            "# TYPE y counter\n"
            "y 1.0\n"
            "x 2.0\n"
        )
        errors = prometheus_lint(doc)
        assert any("not contiguous" in error for error in errors)

    def test_malformed_label_pair(self):
        errors = prometheus_lint("x{tenant=a} 1.0\n")
        assert any("malformed" in error for error in errors)

    def test_repeated_label_name(self):
        errors = prometheus_lint('x{a="1",a="2"} 1.0\n')
        assert any("repeated label name" in error for error in errors)

    def test_unparsable_value(self):
        errors = prometheus_lint("x banana\n")
        assert any("unparsable sample value" in error for error in errors)

    def test_special_values_allowed(self):
        assert prometheus_lint("x NaN\ny +Inf\nz -Inf\n") == []

    def test_duplicate_series(self):
        doc = 'x{a="1"} 1.0\nx{a="1"} 2.0\n'
        errors = prometheus_lint(doc)
        assert any("duplicate series" in error for error in errors)

    def test_free_form_comments_and_blank_lines_allowed(self):
        doc = "# just a note\n\n# HELP x whatever\n# TYPE x gauge\nx 1.0\n"
        assert prometheus_lint(doc) == []
