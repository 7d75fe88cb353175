"""Prometheus text-exposition rendering, dependency-free.

* :func:`render_registry` / :func:`render_tsdb` /
  :func:`render_exposition` serialise a
  :class:`~repro.obs.metrics.MetricsRegistry` and/or a
  :class:`~repro.obs.timeseries.TimeSeriesDB` in the Prometheus text
  exposition format (version 0.0.4): ``# TYPE`` headers, one sample per
  line, label values escaped, histograms rendered as summaries with
  ``quantile`` labels plus ``_sum``/``_count``.  The repo's ``name/key``
  per-node convention folds into a ``key`` label so every exported name
  is a legal Prometheus identifier.

``tests/obs/promtext_lint.py`` is the strict format checker the tests
hold every rendering to.
"""

from __future__ import annotations

import math
import re

__all__ = [
    "render_exposition",
    "render_registry",
    "render_tsdb",
    "sanitize_metric_name",
]

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Histogram quantiles exported in summary form.
_QUANTILES = ((50, "0.5"), (90, "0.9"), (95, "0.95"), (99, "0.99"))


def sanitize_metric_name(name: str) -> str:
    """Coerce a repo metric name into the Prometheus grammar."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not cleaned or not _METRIC_NAME.match(cleaned):
        cleaned = "_" + cleaned
    return cleaned


def _escape(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r"\"")
    )


def _format_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def _sample(name: str, labels: dict, value: float, ts_ms: int | None) -> str:
    rendered = ""
    if labels:
        body = ",".join(
            f'{key}="{_escape(str(val))}"' for key, val in sorted(labels.items())
        )
        rendered = "{" + body + "}"
    line = f"{name}{rendered} {_format_value(value)}"
    if ts_ms is not None:
        line += f" {ts_ms}"
    return line


def _split_slash(name: str) -> tuple[str, dict]:
    """Fold the ``name/key`` per-node convention into a ``key`` label."""
    if "/" in name:
        base, key = name.split("/", 1)
        return base, {"key": key}
    return name, {}


def render_registry(registry) -> list[str]:
    """Exposition lines for a metrics registry (no trailing newline)."""
    families: dict[str, tuple[str, list[str]]] = {}

    def bucket(name: str, prom_type: str) -> list[str]:
        entry = families.get(name)
        if entry is None:
            entry = families[name] = (prom_type, [])
        return entry[1]

    for family_name, family_type in registry.families().items():
        for metric in registry.series(family_name):
            base, extra = _split_slash(family_name)
            prom_name = sanitize_metric_name(base)
            labels = {**extra, **metric.labels}
            if family_type == "histogram":
                # Prometheus summary convention: quantile samples plus
                # ``_sum``/``_count`` under one TYPE header.
                lines = bucket(prom_name, "summary")
                for q, quantile in _QUANTILES:
                    lines.append(
                        _sample(
                            prom_name,
                            {**labels, "quantile": quantile},
                            metric.percentile(q) if metric.count else math.nan,
                            None,
                        )
                    )
                lines.append(
                    _sample(prom_name + "_sum", labels, metric.total, None)
                )
                lines.append(
                    _sample(prom_name + "_count", labels, metric.count, None)
                )
            else:
                lines = bucket(prom_name, family_type)
                lines.append(_sample(prom_name, labels, metric.value, None))
    out: list[str] = []
    for name in sorted(families):
        prom_type, lines = families[name]
        out.append(f"# TYPE {name} {prom_type}")
        out.extend(lines)
    return out


def render_tsdb(tsdb) -> list[str]:
    """Exposition lines for a TSDB: the latest point of every series."""
    families: dict[str, tuple[str, list[str]]] = {}
    for series in tsdb.all_series():
        latest = series.latest()
        if latest is None:
            continue
        t, value = latest
        prom_name = sanitize_metric_name(series.name)
        entry = families.get(prom_name)
        if entry is None:
            entry = families[prom_name] = (series.kind, [])
        entry[1].append(
            _sample(prom_name, series.labels, value, int(round(t * 1000)))
        )
    out: list[str] = []
    for name in sorted(families):
        prom_type, lines = families[name]
        out.append(f"# TYPE {name} {prom_type}")
        out.extend(lines)
    return out


def render_exposition(registry=None, tsdb=None) -> str:
    """Full exposition document (trailing newline included).

    Registry families come first, TSDB series after; a family name
    exported by both keeps only the registry's (cumulative, run-total)
    samples so the document never carries duplicate series.
    """
    lines: list[str] = []
    seen: set[str] = set()
    if registry is not None:
        for line in render_registry(registry):
            if line.startswith("# TYPE "):
                seen.add(line.split()[2])
            lines.append(line)
    if tsdb is not None:
        keep = True
        for line in render_tsdb(tsdb):
            if line.startswith("# TYPE "):
                keep = line.split()[2] not in seen
            if keep:
                lines.append(line)
    return "\n".join(lines) + ("\n" if lines else "")

