"""Slice-level pipelined execution model.

A pipelined repair moves a chunk of ``C`` bytes as ``S = ceil(C / s)`` slices
of size ``s`` through a tree of depth ``d``.  In steady state every edge
streams at the task rate ``r``; the pipeline additionally pays

* a **fill cost** — the first slice crosses ``d`` hops before results start
  arriving at the requestor, adding roughly ``(d - 1) * s`` extra bytes of
  serialised transfer per edge, and
* a **per-slice overhead** — each slice costs a small fixed handling time
  (RPC dispatch, GF(2^8) multiply-XOR that is not perfectly overlapped).

With 64 MiB chunks and 32 KiB slices both corrections are tiny relative to
``C / r``, which is why the paper's Experiment 4 finds repair time flat in
the slice size; they matter at the extremes of the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ec.chunk import DEFAULT_CHUNK_SIZE, DEFAULT_SLICE_SIZE, slice_count
from repro.exceptions import PlanningError


@dataclass(frozen=True)
class ExecutionConfig:
    """Parameters of a repair execution."""

    chunk_size: int = DEFAULT_CHUNK_SIZE
    slice_size: int = DEFAULT_SLICE_SIZE
    #: Fixed cost per slice (seconds) not hidden by pipelining.
    per_slice_overhead: float = 2e-6

    def __post_init__(self) -> None:
        if self.chunk_size <= 0:
            raise PlanningError("chunk size must be positive")
        if self.slice_size <= 0:
            raise PlanningError("slice size must be positive")
        if self.slice_size > self.chunk_size:
            object.__setattr__(self, "slice_size", self.chunk_size)
        if self.per_slice_overhead < 0:
            raise PlanningError("per-slice overhead cannot be negative")

    @property
    def slices(self) -> int:
        return slice_count(self.chunk_size, self.slice_size)


def pipeline_bytes_per_edge(config: ExecutionConfig, depth: int) -> float:
    """Bytes each tree edge effectively carries, including pipeline fill."""
    if depth < 1:
        raise PlanningError(f"tree depth must be >= 1, got {depth}")
    return config.chunk_size + (depth - 1) * config.slice_size


def remaining_bytes_per_edge(
    config: ExecutionConfig, depth: int, start_slice: int
) -> float:
    """Bytes each edge carries when resuming from a slice watermark.

    A repair resuming at ``start_slice`` (the first slice not yet verified
    at the requestor) only streams the remaining ``S - start_slice``
    slices, but the new tree still pays its own pipeline fill of
    ``(depth - 1)`` slices.  ``start_slice == 0`` is exactly
    :func:`pipeline_bytes_per_edge`.
    """
    if depth < 1:
        raise PlanningError(f"tree depth must be >= 1, got {depth}")
    if not 0 <= start_slice < config.slices:
        raise PlanningError(
            f"start_slice must be in [0, {config.slices}), got {start_slice}"
        )
    remaining = config.chunk_size - start_slice * config.slice_size
    return remaining + (depth - 1) * config.slice_size


def verified_watermark(
    config: ExecutionConfig, depth: int, start_slice: int, progress: float
) -> int:
    """Slice watermark an interrupted transfer has verifiably reached.

    ``progress`` is the fraction (0..1) the transfer that started at
    ``start_slice`` has delivered.  Slices still inside the pipeline —
    one per tree level below the requestor — have not arrived and are
    not trusted, so ``depth - 1`` of them are subtracted; the result is
    clamped to the last slice so a resume always has something to fetch.
    Equal to ``start_slice`` when nothing new was verified.
    """
    verified = max(
        0, int(progress * (config.slices - start_slice)) - (depth - 1)
    )
    return min(start_slice + verified, config.slices - 1)


def pipeline_overhead_seconds(config: ExecutionConfig) -> float:
    """Serial per-slice handling cost over the whole chunk."""
    return config.slices * config.per_slice_overhead


def ideal_transfer_seconds(
    config: ExecutionConfig, depth: int, bmin: float
) -> float:
    """Closed-form transfer time when bandwidth is constant.

    Useful for sanity checks against the fluid simulation.
    """
    if bmin <= 0:
        raise PlanningError("bottleneck bandwidth must be positive")
    return (
        pipeline_bytes_per_edge(config, depth) / bmin
        + pipeline_overhead_seconds(config)
    )


def trace_fill(
    sim,
    config: ExecutionConfig,
    finish: float,
    task_span: int | None,
    task_track: str,
    flow_span: int | None,
) -> None:
    """Span for the analytic pipeline fill/overhead tail of a repair.

    The fluid flow models the steady stream; the first-slice fill and
    per-slice handling are charged after it as
    :func:`pipeline_overhead_seconds`.  Making that tail an explicit
    span (following from the flow) lets the critical path attribute it
    as *pipeline dependency* time rather than an anonymous gap.
    """
    overhead = pipeline_overhead_seconds(config)
    if task_span is None or not sim.tracer.enabled or overhead <= 0:
        return
    links = (flow_span,) if flow_span is not None else ()
    span = sim.tracer.begin(
        "repair.fill", t=finish, track=task_track, parent_id=task_span,
        links=links, overhead=overhead,
    )
    sim.tracer.end(
        "repair.fill", t=finish + overhead, span_id=span, track=task_track
    )
