"""Prometheus text-exposition rendering and a pure-python format lint.

Two halves, both dependency-free:

* :func:`render_registry` / :func:`render_tsdb` /
  :func:`render_exposition` — serialise a
  :class:`~repro.obs.metrics.MetricsRegistry` and/or a
  :class:`~repro.obs.timeseries.TimeSeriesDB` in the Prometheus text
  exposition format (version 0.0.4): ``# TYPE`` headers, one sample per
  line, label values escaped, histograms rendered as summaries with
  ``quantile`` labels plus ``_sum``/``_count``.  The repo's ``name/key``
  per-node convention folds into a ``key`` label so every exported name
  is a legal Prometheus identifier.
* :func:`lint` — a strict checker for that format, used by the
  tests: metric/label name grammar,
  quoting and escape sequences, float parsing, one ``TYPE`` per family,
  family contiguity, and duplicate-series detection.  Returns a list of
  error strings (empty = clean).
"""

from __future__ import annotations

import math
import re

__all__ = [
    "render_exposition",
    "render_registry",
    "render_tsdb",
    "sanitize_metric_name",
    "lint",
]

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>\S+)"
    r"(?: (?P<timestamp>-?\d+))?$"
)
_LABEL_PAIR = re.compile(
    r'^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\["\\n])*)"$'
)
_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")

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


# ----------------------------------------------------------------------
# Lint
# ----------------------------------------------------------------------
def _parse_labels(raw: str, line_no: int, errors: list[str]) -> tuple | None:
    """Canonical label tuple for duplicate detection (None on error)."""
    if raw == "":
        return ()
    pairs = []
    # Split on commas outside quotes.
    parts: list[str] = []
    depth_quote = False
    current = ""
    index = 0
    while index < len(raw):
        char = raw[index]
        if char == "\\" and depth_quote:
            current += raw[index:index + 2]
            index += 2
            continue
        if char == '"':
            depth_quote = not depth_quote
        if char == "," and not depth_quote:
            parts.append(current)
            current = ""
        else:
            current += char
        index += 1
    if depth_quote:
        errors.append(f"line {line_no}: unterminated label value quote")
        return None
    parts.append(current)
    for part in parts:
        if part == "":
            errors.append(f"line {line_no}: empty label pair")
            return None
        match = _LABEL_PAIR.match(part)
        if match is None:
            errors.append(f"line {line_no}: malformed label pair {part!r}")
            return None
        pairs.append((match.group("name"), match.group("value")))
    names = [name for name, _ in pairs]
    if len(set(names)) != len(names):
        errors.append(f"line {line_no}: repeated label name")
        return None
    return tuple(sorted(pairs))


def _family_of(name: str) -> str:
    """Family a sample belongs to (summary suffixes stripped)."""
    for suffix in ("_sum", "_count", "_bucket"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def lint(text: str) -> list[str]:
    """Check a Prometheus text-exposition document; [] means clean."""
    errors: list[str] = []
    if text and not text.endswith("\n"):
        errors.append("document must end with a newline")
    typed: dict[str, str] = {}
    closed: set[str] = set()
    current_family: str | None = None
    seen_series: set[tuple[str, tuple]] = set()
    for line_no, line in enumerate(text.splitlines(), start=1):
        if line == "":
            continue
        if line.startswith("#"):
            fields = line.split(None, 3)
            if len(fields) < 2 or fields[1] not in ("TYPE", "HELP"):
                continue  # free-form comment, allowed
            if fields[1] == "HELP":
                continue
            if len(fields) != 4:
                errors.append(f"line {line_no}: malformed TYPE line")
                continue
            _, _, name, prom_type = fields
            if not _METRIC_NAME.match(name):
                errors.append(f"line {line_no}: bad metric name {name!r}")
                continue
            if prom_type not in _TYPES:
                errors.append(
                    f"line {line_no}: unknown metric type {prom_type!r}"
                )
                continue
            if name in typed:
                errors.append(f"line {line_no}: duplicate TYPE for {name!r}")
                continue
            if current_family is not None:
                closed.add(current_family)
            typed[name] = prom_type
            current_family = name
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            errors.append(f"line {line_no}: malformed sample line {line!r}")
            continue
        name = match.group("name")
        if name in typed:
            base = name
        else:
            family = _family_of(name)
            base = family if family in typed else name
        if base in closed and base != current_family:
            errors.append(
                f"line {line_no}: samples of {base!r} are not contiguous "
                "with their family"
            )
        labels = _parse_labels(
            match.group("labels") or "", line_no, errors
        )
        value = match.group("value")
        if value not in ("+Inf", "-Inf", "NaN"):
            try:
                float(value)
            except ValueError:
                errors.append(
                    f"line {line_no}: unparsable sample value {value!r}"
                )
        if labels is not None:
            series = (name, labels)
            if series in seen_series:
                errors.append(
                    f"line {line_no}: duplicate series {name}{dict(labels)}"
                )
            seen_series.add(series)
    return errors
