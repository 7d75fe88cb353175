"""Outside-in span recording: wrap public callables, restore them after.

The traced run records where host time goes *from the benchmark's own
files*: :class:`Recorder` replaces public callables of ``repro`` with
timing wrappers at run time and puts the originals back afterwards.
Nothing under ``src/`` knows it is being watched.

A span is ``(name, start, end, parent)``; its **self time** is its
duration minus the interval its child spans cover, so the self times of
a pass's spans — the root's included — sum to the pass time exactly.
Callables entered tens of thousands of times per pass are registered
``hot``: they keep one aggregated ``(calls, total, child-covered)``
record per parent span instead of a span per call, which bounds memory
and tracing overhead.  One thread only: spans nest, siblings never
overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from collections.abc import Callable, Iterable, Sequence
from contextlib import contextmanager


class Span:
    """One timed call; ``parent`` indexes :attr:`Recorder.spans` (-1 = root)."""

    __slots__ = ("name", "start", "end", "parent", "self_s")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.self_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: Sequence) -> list[float]:
    """Self time per span: duration minus what its direct children cover.

    ``spans`` are objects with ``start``, ``end`` and ``parent`` (index
    into the same sequence, -1 for none).  Children are clipped to their
    parent, so a malformed overlap can never produce negative self time.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            parent = spans[span.parent]
            children.setdefault(span.parent, []).append(
                (max(span.start, parent.start), min(span.end, parent.end))
            )
    return [
        (span.end - span.start) - covered(children.get(index, ()))
        for index, span in enumerate(spans)
    ]


class Totals(dict):
    """``name -> [calls, total_s, self_s]`` over a set of spans."""

    def add(self, name: str, calls: int, total: float, own: float) -> None:
        row = self.get(name)
        if row is None:
            self[name] = [calls, total, own]
        else:
            row[0] += calls
            row[1] += total
            row[2] += own

    def calls(self, *names: str) -> int:
        return sum(self[n][0] for n in names if n in self)

    def total_s(self, *names: str) -> float:
        return sum(self[n][1] for n in names if n in self)

    def self_s(self, *names: str) -> float:
        return sum(self[n][2] for n in names if n in self)


class Recorder:
    """Records spans for wrapped callables while a root span is open."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        #: (parent span index, name) -> [calls, total_s, child_covered_s]
        self.aggregates: dict[tuple[int, str], list] = {}
        #: Open frames, innermost last: [nearest recorded span, child_s].
        self._frames: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @contextmanager
    def root(self, name: str):
        """Open a root span (one per set-up or pass); yields its index."""
        if self._frames:
            raise RuntimeError("root spans do not nest")
        span = Span(name, -1)
        index = len(self.spans)
        self.spans.append(span)
        frame = [index, 0.0]
        self._frames.append(frame)
        span.start = self.clock()
        try:
            yield index
        finally:
            span.end = self.clock()
            self._frames.pop()
            span.self_s = span.duration - frame[1]

    def truncate(self, length: int) -> None:
        """Forget every span from index ``length`` on (e.g. a warm-up)."""
        if self._frames:
            raise RuntimeError("cannot truncate inside an open span")
        del self.spans[length:]
        for key in [key for key in self.aggregates if key[0] >= length]:
            del self.aggregates[key]

    def _spanning(self, fn, name):
        spans, frames, clock = self.spans, self._frames, self.clock
        naming = name if callable(name) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not frames:
                return fn(*args, **kwargs)
            span = Span(naming(args[0]) if naming else name, frames[-1][0])
            frame = [len(spans), 0.0]
            spans.append(span)
            frames.append(frame)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = end = clock()
                frames.pop()
                elapsed = end - span.start
                span.self_s = elapsed - frame[1]
                frames[-1][1] += elapsed

        return wrapper

    def _aggregating(self, fn, name):
        aggregates, frames, clock = self.aggregates, self._frames, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not frames:
                return fn(*args, **kwargs)
            parent = frames[-1][0]
            frame = [parent, 0.0]
            frames.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                frames.pop()
                frames[-1][1] += elapsed
                row = aggregates.get((parent, name))
                if row is None:
                    aggregates[(parent, name)] = [1, elapsed, frame[1]]
                else:
                    row[0] += 1
                    row[1] += elapsed
                    row[2] += frame[1]

        return wrapper

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name, hot: bool = False) -> None:
        """Replace ``owner.attr`` (class or module attribute) by a wrapper.

        ``name`` is the span name, or ``fn(self) -> name`` to choose it
        per receiver (one base-class method serving several layers).
        """
        raw = vars(owner)[attr]
        make = self._aggregating if hot else self._spanning
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(make(raw.__func__, name))
        else:
            wrapped = make(raw, name)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def wrap_function(
        self, module, attr: str, name: str, hot: bool = False
    ) -> None:
        """Wrap a module-level function everywhere it was imported by name.

        ``from x import f`` copies the reference, so patching ``x.f``
        alone would miss callers inside the package; every loaded module
        of ``module``'s top-level package whose globals hold the same
        object is patched.
        """
        prefix = module.__name__.partition(".")[0]
        original = getattr(module, attr)
        make = self._aggregating if hot else self._spanning
        wrapped = make(original, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod is module
                or mod_name == prefix
                or mod_name.startswith(prefix + ".")
            ):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def restore(self) -> None:
        """Put every original back (idempotent)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> Recorder:
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def totals(self, within: int | str) -> Totals:
        """Per-name totals over the descendants of some spans.

        ``within`` is a span index (that span included) or a span name
        (every span so named, each with its subtree).
        """
        inside = [False] * len(self.spans)
        out = Totals()
        for index, span in enumerate(self.spans):
            if span.parent >= 0 and inside[span.parent]:
                inside[index] = True
            elif index == within or span.name == within:
                inside[index] = True
            if inside[index]:
                out.add(span.name, 1, span.duration, span.self_s)
        for (parent, name), (calls, total, child) in self.aggregates.items():
            if inside[parent]:
                out.add(name, calls, total, total - child)
        return out

    def to_json(self, workload: str, roots: dict[int, int]) -> dict:
        """Compact trace document; ``roots`` maps root index -> pass."""
        names: dict[str, int] = {}

        def name_id(name: str) -> int:
            return names.setdefault(name, len(names))

        pass_of: list[int] = []
        rows = []
        for index, span in enumerate(self.spans):
            pass_of.append(
                roots.get(index, -1) if span.parent < 0
                else pass_of[span.parent]
            )
            rows.append([
                name_id(span.name), span.start, span.end, span.parent,
                pass_of[index], span.self_s,
            ])
        aggregates = [
            [name_id(name), parent, pass_of[parent], calls, total, child]
            for (parent, name), (calls, total, child)
            in self.aggregates.items()
        ]
        return {
            "version": 1,
            "workload": workload,
            "clock": "time.perf_counter seconds",
            "names": list(names),
            "span_columns": [
                "name", "start", "end", "parent", "pass", "self_s",
            ],
            "spans": rows,
            "aggregate_columns": [
                "name", "parent", "pass", "calls", "total_s",
                "child_covered_s",
            ],
            "aggregates": aggregates,
        }
