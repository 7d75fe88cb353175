"""Test-side checker of the Prometheus text exposition format (0.0.4).

:func:`lint` is strict: metric and label name grammar, quoting and
escape sequences, float parsing, one ``TYPE`` per family, family
contiguity, and duplicate-series detection.  It returns a list of error
strings, empty when the document is clean.  ``repro.obs.promtext``
renders the format; nothing in the package checks it.
"""

from __future__ import annotations

import re

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
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
