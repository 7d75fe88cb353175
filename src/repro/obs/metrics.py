"""Metrics registry: counters, gauges, histograms with percentiles.

A :class:`MetricsRegistry` is filled during a repair run and snapshotted
into the ``telemetry`` field of the result records.  Metric names are
plain strings; per-node series use a ``name/node`` convention (e.g.
``bytes_up/3``) which :meth:`MetricsRegistry.snapshot` also folds into
nested ``per_node_*`` maps for convenient consumption.

Metrics may also carry **label sets** (Prometheus-style families)::

    registry.counter("repair_bytes", node=7, kind="foreground").inc(n)

Each distinct label set of a family is its own child metric.  The
unlabeled API is the degenerate case (empty label set), so existing call
sites and the :meth:`MetricsRegistry.snapshot` schema are unchanged:
labeled children appear in the same flat sections under their canonical
rendered name (``repair_bytes{kind="foreground",node="7"}``, keys
sorted) and additionally under a ``families`` map that keeps the labels
structured.

A labeled look-up canonicalises its label set (stringify, sort, render)
once per call shape: the registry remembers which child each shape
resolved to, so a repeated look-up costs one dict probe.
"""

from __future__ import annotations

import math
import random
import zlib

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "render_labels",
]


def label_items(labels: dict) -> tuple[tuple[str, str], ...]:
    """Canonical (sorted, stringified) form of a label set."""
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def call_shape(kind: str, name: str, labels: dict) -> tuple:
    """What a look-up of ``name`` with ``labels`` is remembered by: the
    kind, the name, the label keys in the order the call passed them and
    each value's ``str``, which is all :func:`label_items` keeps of it.
    One shape names one child or series (``node=1`` and ``node="1"``
    share one; ``True``, ``1`` and ``1.0`` do not), and a look-up under
    another kind than the first has a shape of its own."""
    return (kind, name, *labels, *map(str, labels.values()))


def render_labels(labels: dict) -> str:
    """Render a label set as ``{k="v",...}`` (empty string when none)."""
    items = label_items(labels)
    if not items:
        return ""
    body = ",".join(f'{key}="{value}"' for key, value in items)
    return "{" + body + "}"


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("name", "value", "labels")

    def __init__(self, name: str, labels: dict | None = None):
        self.name = name
        self.value = 0.0
        # The unlabeled case canonicalises nothing: an object, a dict.
        self.labels: dict[str, str] = (
            dict(label_items(labels)) if labels else {}
        )

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


class Gauge:
    """Last-write-wins value."""

    __slots__ = ("name", "value", "labels")

    def __init__(self, name: str, labels: dict | None = None):
        self.name = name
        self.value = 0.0
        self.labels: dict[str, str] = (
            dict(label_items(labels)) if labels else {}
        )

    def set(self, value: float) -> None:
        self.value = float(value)


#: Observations kept verbatim before a histogram switches to reservoir
#: sampling.  Repair runs stay far below this; loadgen latency streams
#: (millions of client requests) cross it and get bounded memory instead
#: of an unbounded raw list.
DEFAULT_RESERVOIR_SIZE = 8192


def _nearest_rank(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` of an already sorted, non-empty list."""
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


class Histogram:
    """Bounded-memory observations; count/min/max/mean/percentiles.

    Below ``reservoir_size`` observations every sample is kept and
    percentiles are exact (nearest-rank over the raw list — the original
    semantics).  Past the threshold the sample list becomes a uniform
    reservoir (Vitter's Algorithm R) with a deterministic, name-seeded
    RNG, so percentiles turn into unbiased estimates while ``count``,
    ``min``, ``max``, and ``mean`` stay exact at any volume.
    """

    __slots__ = ("name", "samples", "count", "_min", "_max", "_sum",
                 "_reservoir_size", "_rng", "labels")

    def __init__(
        self,
        name: str,
        reservoir_size: int = DEFAULT_RESERVOIR_SIZE,
        labels: dict | None = None,
    ):
        if reservoir_size < 1:
            raise ValueError("reservoir size must be >= 1")
        self.name = name
        self.labels: dict[str, str] = (
            dict(label_items(labels)) if labels else {}
        )
        self.samples: list[float] = []
        self.count = 0
        self._min = math.inf
        self._max = -math.inf
        self._sum = 0.0
        self._reservoir_size = reservoir_size
        # Lazily created on first eviction: deterministic per name, so
        # seeded runs stay reproducible without a global RNG.
        self._rng: random.Random | None = None

    @property
    def total(self) -> float:
        """Sum of every observation (exact at any volume)."""
        return self._sum

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if len(self.samples) < self._reservoir_size:
            self.samples.append(value)
            return
        if self._rng is None:
            seed_key = self.name + render_labels(self.labels)
            self._rng = random.Random(zlib.crc32(seed_key.encode()))
        slot = self._rng.randrange(self.count)
        if slot < self._reservoir_size:
            self.samples[slot] = value

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile, ``q`` in [0, 100].

        Exact while in exact mode; a reservoir estimate afterwards.
        """
        if not self.samples:
            return math.nan
        if not 0 <= q <= 100:
            raise ValueError(f"percentile {q} out of [0, 100]")
        return _nearest_rank(sorted(self.samples), q)

    def summary(self) -> dict[str, float]:
        if not self.count:
            return {"count": 0}
        ordered = sorted(self.samples)
        return {
            "count": self.count,
            "min": self._min,
            "max": self._max,
            "mean": self._sum / self.count,
            "p50": _nearest_rank(ordered, 50),
            "p90": _nearest_rank(ordered, 90),
            "p95": _nearest_rank(ordered, 95),
            "p99": _nearest_rank(ordered, 99),
            "p99.9": _nearest_rank(ordered, 99.9),
        }


#: Family type -> the class of its children.
_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Named counters, gauges, and histograms for one run.

    A metric is addressed by ``(name, label set)``; the empty label set
    is the classic unlabeled metric.  A *family* (one name, any number of
    label sets) has a single type — registering ``x`` as a counter and
    ``x{k="v"}`` as a gauge raises, exactly like the unlabeled collision
    check always did.
    """

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        #: family name -> metric type ("counter" | "gauge" | "histogram").
        self._types: dict[str, str] = {}
        #: Does a labeled child exist?  Until one does, ``snapshot`` has
        #: no ``families`` section to look for.
        self._labeled = False
        self._stores = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
        }
        #: A labeled look-up's :func:`call_shape` -> the child
        #: :meth:`_resolve` found for it.  A look-up under another type
        #: than the family's misses, and raises in ``_resolve``.
        self._memo: dict[tuple, Counter | Gauge | Histogram] = {}

    def _resolve(self, metric_type: str, name: str, labels: dict):
        """The canonical look-up: render the key, then find or create
        the child (one type per family)."""
        store = self._stores[metric_type]
        key = name + render_labels(labels) if labels else name
        metric = store.get(key)
        if metric is None:
            if self._types.setdefault(name, metric_type) != metric_type:
                raise ValueError(
                    f"metric {name!r} already registered with another type"
                )
            if labels:
                self._labeled = True
            metric = store[key] = _TYPES[metric_type](name, labels=labels)
        return metric

    def _memoized(self, metric_type: str, name: str, labels: dict):
        """A labeled look-up: one probe of ``_memo`` once its call shape
        has been resolved."""
        shape = call_shape(metric_type, name, labels)
        metric = self._memo.get(shape)
        if metric is None:
            metric = self._memo[shape] = self._resolve(
                metric_type, name, labels
            )
        return metric

    def counter(self, name: str, **labels) -> Counter:
        if labels:
            return self._memoized("counter", name, labels)
        metric = self._counters.get(name)
        if metric is None:
            metric = self._resolve("counter", name, labels)
        return metric

    def gauge(self, name: str, **labels) -> Gauge:
        if labels:
            return self._memoized("gauge", name, labels)
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._resolve("gauge", name, labels)
        return metric

    def histogram(self, name: str, **labels) -> Histogram:
        if labels:
            return self._memoized("histogram", name, labels)
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._resolve("histogram", name, labels)
        return metric

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def series(self, name: str) -> list:
        """Every child metric of a family, label sets key-sorted."""
        store = self._stores.get(self._types.get(name, ""), {})
        return [
            metric
            for key, metric in sorted(store.items())
            if metric.name == name
        ]

    def families(self) -> dict[str, str]:
        """Family name -> type for every registered family, name-sorted."""
        return dict(sorted(self._types.items()))

    def snapshot(self, counters: dict[str, float] | None = None) -> dict:
        """Plain-dict view of every metric, JSON-serialisable.

        ``counters`` (name -> amount, unlabeled) are merged in as if each
        had been ``inc``-ed once before the call, without registering
        anything: a name already counted adds, a name held by a gauge or
        histogram family raises ``ValueError``.

        ``name/key`` counters and gauges are additionally folded into
        nested ``per_<name>`` maps, so ``bytes_up/3`` shows up both as a
        flat counter and under ``per_bytes_up[3]``.  Labeled children
        keep their rendered key in the flat sections and are folded with
        structured labels into ``families`` (present only when at least
        one labeled metric exists, so unlabeled snapshots are unchanged).
        """
        registered = {
            key: metric.value for key, metric in self._counters.items()
        }
        merged = {**registered, **counters} if counters else registered
        for name in counters.keys() & self._types.keys() if counters else ():
            if name in registered:
                merged[name] = registered[name] + counters[name]
            elif self._types[name] != "counter":
                raise ValueError(
                    f"metric {name!r} already registered with another type"
                )
        # ``0.0 +`` is what ``inc`` adds to: a float, whatever came in.
        flat = {key: 0.0 + merged[key] for key in sorted(merged)}
        gauges = {
            key: metric.value for key, metric in sorted(self._gauges.items())
        }
        out: dict = {
            "counters": flat,
            "gauges": gauges,
            "histograms": {
                key: metric.summary()
                for key, metric in sorted(self._histograms.items())
            },
        }
        for family in (flat, gauges):
            # Sorted, so one ``name/`` prefix is one run of keys.
            base = fold = None
            for name, value in family.items():
                if "/" not in name or "{" in name:
                    continue
                prefix, _, key = name.partition("/")
                if prefix != base:
                    base, fold = prefix, out.setdefault(f"per_{prefix}", {})
                fold[key] = value
        if not self._labeled:
            return out
        families: dict[str, list] = {}
        for store in (self._counters, self._gauges, self._histograms):
            for key, metric in sorted(store.items()):
                if not metric.labels:
                    continue
                entry: dict = {"labels": dict(metric.labels)}
                if isinstance(metric, Histogram):
                    entry["summary"] = metric.summary()
                else:
                    entry["value"] = metric.value
                families.setdefault(metric.name, []).append(entry)
        out["families"] = families
        return out
