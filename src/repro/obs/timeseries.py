"""Ring-buffered simulated-time TSDB for live run telemetry.

The flight recorder (:mod:`repro.obs.sampler`) produces aligned samples;
this module stores them — and any other instrumented feed (the loadgen
engine's per-tenant latencies, the QoS governor's cap decisions, the
resilience health monitor's progress ratios, the orchestrators' repair
progress) — as **labeled time series** addressable by name + label set::

    tsdb.record("link_utilization", t=12.5, value=0.83, node=7,
                direction="up")
    tsdb.rate("fg_bytes_total", t0=10.0, t1=20.0, tenant="tenant-0")

Design points:

* **Simulated time only.**  Timestamps are simulator seconds, so a seeded
  run produces a byte-identical database; there is no wall-clock anywhere.
* **Bounded memory.**  Every series is a ring (``deque(maxlen=capacity)``);
  the oldest points fall off first and ``dropped`` counts evictions, the
  same contract as the flight recorder's sample ring.
* **Two series kinds.**  ``gauge`` points are instantaneous values;
  ``counter`` points are cumulative totals (fed conveniently through
  :meth:`TimeSeriesDB.inc`) so windowed :meth:`~TimeSeriesDB.rate`
  queries are one subtraction per series.
* **Windowed queries.**  ``rate`` / ``avg`` / ``max`` / ``percentile``
  over ``[t0, t1]``, pooling every series that matches a label subset.
* **Export.**  JSONL (one series per line, deterministic) and the
  Prometheus text exposition format via :mod:`repro.obs.promtext`.
"""

from __future__ import annotations

import json
import math
from collections import deque

from repro.exceptions import ReproError
from repro.obs.metrics import call_shape, label_items

__all__ = ["TimeSeriesError", "Series", "TimeSeriesDB"]

#: Default per-series ring capacity (points kept).
DEFAULT_CAPACITY = 4096

_KINDS = ("gauge", "counter")


class TimeSeriesError(ReproError):
    """Invalid time-series operation or query."""


class Series:
    """One named, labeled time series backed by a bounded ring."""

    __slots__ = ("name", "labels", "kind", "points", "dropped", "_total")

    def __init__(self, name: str, labels: dict, kind: str, capacity: int):
        self.name = name
        self.labels: dict[str, str] = dict(label_items(labels))
        self.kind = kind
        self.points: deque[tuple[float, float]] = deque(maxlen=capacity)
        self.dropped = 0
        #: Running cumulative value (counter series fed through ``inc``).
        self._total = 0.0

    def __len__(self) -> int:
        return len(self.points)

    def append(self, t: float, value: float) -> None:
        if len(self.points) == self.points.maxlen:
            self.dropped += 1
        self.points.append((float(t), float(value)))

    def latest(self) -> tuple[float, float] | None:
        """Most recent ``(t, value)`` point (None when empty)."""
        if not self.points:
            return None
        return self.points[-1]

    def window(self, t0: float, t1: float) -> list[tuple[float, float]]:
        """Points with ``t0 <= t <= t1``, in insertion order."""
        return [(t, v) for t, v in self.points if t0 <= t <= t1]

    def matches(self, labels: dict) -> bool:
        """True when ``labels`` is a subset of this series' label set."""
        for key, value in labels.items():
            if self.labels.get(key) != str(value):
                return False
        return True

    def to_dict(self) -> dict:
        """Deterministic plain-dict form (one JSONL line payload)."""
        payload: dict = {"name": self.name, "kind": self.kind}
        if self.labels:
            payload["labels"] = dict(sorted(self.labels.items()))
        payload["points"] = [[t, v] for t, v in self.points]
        if self.dropped:
            payload["dropped"] = self.dropped
        return payload


class TimeSeriesDB:
    """Labeled time-series store with windowed queries.

    Args:
        capacity: per-series ring size (points kept before eviction).
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise TimeSeriesError("series capacity must be >= 1")
        self.capacity = int(capacity)
        self._series: dict[tuple, Series] = {}
        #: A look-up's :func:`~repro.obs.metrics.call_shape` -> the
        #: series :meth:`_resolve` found for it.  A look-up under another
        #: kind than the series' misses, and raises in ``_resolve``.
        self._memo: dict[tuple, Series] = {}

    def __len__(self) -> int:
        """Number of distinct series."""
        return len(self._series)

    @property
    def total_points(self) -> int:
        return sum(len(series) for series in self._series.values())

    @property
    def dropped(self) -> int:
        """Total points evicted across every ring."""
        return sum(series.dropped for series in self._series.values())

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def _get(self, name: str, labels: dict, kind: str) -> Series:
        shape = call_shape(kind, name, labels)
        series = self._memo.get(shape)
        if series is None:
            series = self._memo[shape] = self._resolve(name, labels, kind)
        return series

    def _resolve(self, name: str, labels: dict, kind: str) -> Series:
        """The canonical look-up: sort the label set, then find or
        create the series (one kind per series)."""
        key = (name, label_items(labels))
        series = self._series.get(key)
        if series is None:
            if kind not in _KINDS:
                raise TimeSeriesError(f"unknown series kind {kind!r}")
            series = self._series[key] = Series(
                name, labels, kind, self.capacity
            )
        elif series.kind != kind:
            raise TimeSeriesError(
                f"series {name!r} is a {series.kind}, not a {kind}"
            )
        return series

    def record(
        self, name: str, t: float, value: float, kind: str = "gauge",
        /,
        **labels,
    ) -> None:
        """Append one point to the ``(name, labels)`` series.

        ``kind`` is positional-only so a *label* named ``kind`` (as the
        flight recorder's per-class series use) stays expressible.
        """
        self._get(name, labels, kind).append(t, value)

    def inc(self, name: str, t: float, amount: float = 1.0, **labels) -> None:
        """Add to a cumulative counter series and record the new total."""
        if amount < 0:
            raise TimeSeriesError(f"counter {name!r} cannot decrease")
        series = self._get(name, labels, "counter")
        series._total += amount
        series.append(t, series._total)

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def all_series(self) -> list[Series]:
        """Every series, ordered by (name, labels) for determinism."""
        return [
            self._series[key] for key in sorted(self._series)
        ]

    def series(self, name: str, **labels) -> list[Series]:
        """Series of a family whose labels contain ``labels`` as a subset."""
        return [
            s for s in self.all_series()
            if s.name == name and s.matches(labels)
        ]

    def latest(self, name: str, **labels) -> float | None:
        """Value of the most recent point across matching series."""
        best: tuple[float, float] | None = None
        for series in self.series(name, **labels):
            point = series.latest()
            if point is not None and (best is None or point[0] >= best[0]):
                best = point
        return None if best is None else best[1]

    # ------------------------------------------------------------------
    # Windowed queries
    # ------------------------------------------------------------------
    def window(
        self, name: str, t0: float, t1: float, **labels
    ) -> list[tuple[float, float]]:
        """Pooled ``(t, value)`` points of matching series, time-sorted."""
        if t1 < t0:
            raise TimeSeriesError(f"bad window [{t0}, {t1}]")
        out: list[tuple[float, float]] = []
        for series in self.series(name, **labels):
            out.extend(series.window(t0, t1))
        out.sort(key=lambda point: point[0])
        return out

    def rate(self, name: str, t0: float, t1: float, **labels) -> float:
        """Per-second increase of counter series over ``[t0, t1]``.

        Sums the first-to-last delta of every matching counter series in
        the window, divided by the window span.  ``nan`` when no series
        has two points in the window.
        """
        if t1 <= t0:
            raise TimeSeriesError(f"bad rate window [{t0}, {t1}]")
        delta = 0.0
        seen = False
        for series in self.series(name, **labels):
            if series.kind != "counter":
                raise TimeSeriesError(
                    f"rate() needs a counter series; {name!r} is a "
                    f"{series.kind}"
                )
            points = series.window(t0, t1)
            if len(points) < 2:
                continue
            seen = True
            delta += points[-1][1] - points[0][1]
        if not seen:
            return math.nan
        return delta / (t1 - t0)

    def _values(self, name: str, t0: float, t1: float, labels: dict):
        return [value for _, value in self.window(name, t0, t1, **labels)]

    def avg(self, name: str, t0: float, t1: float, **labels) -> float:
        """Mean of pooled gauge points in the window (nan when empty)."""
        values = self._values(name, t0, t1, labels)
        if not values:
            return math.nan
        return sum(values) / len(values)

    def percentile(
        self, name: str, q: float, t0: float, t1: float, **labels
    ) -> float:
        """Nearest-rank pXX of pooled points in the window."""
        if not 0 <= q <= 100:
            raise TimeSeriesError(f"percentile {q} out of [0, 100]")
        values = sorted(self._values(name, t0, t1, labels))
        if not values:
            return math.nan
        position = math.ceil(q / 100 * len(values))
        return values[position - 1 if position else 0]

    def fraction_over(
        self, name: str, threshold: float, t0: float, t1: float, **labels
    ) -> float:
        """Fraction of pooled points strictly above ``threshold``.

        The bad-event ratio SLO burn rates build on; ``nan`` when the
        window holds no points (no evidence — callers must not treat
        that as healthy).
        """
        values = self._values(name, t0, t1, labels)
        if not values:
            return math.nan
        bad = sum(1 for value in values if value > threshold)
        return bad / len(values)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """One JSON object per series, key-sorted and deterministic."""
        lines = [
            json.dumps(series.to_dict(), separators=(",", ":"))
            for series in self.all_series()
        ]
        return "\n".join(lines) + ("\n" if lines else "")
