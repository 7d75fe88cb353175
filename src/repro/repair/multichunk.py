"""Multi-chunk repair (Section IV-F, "Multi-chunk repair").

PivotRepair pipelines single-chunk repairs — the overwhelmingly common case
(over 98 % of repairs [42]).  When one stripe loses two or more chunks, the
partial sums of different lost chunks use different coefficient sets, so a
single pipelined tree cannot aggregate them; the paper's fallback is
conventional repair: one requestor downloads k surviving chunks, decodes,
and re-encodes every lost chunk, pushing rebuilt chunks to replacement
nodes.

This module plans and times that fallback on the fluid simulator; the
byte-accurate path lives in :meth:`repro.cluster.Cluster.repair_stripe`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.bandwidth_view import BandwidthSnapshot, best_uplinks
from repro.exceptions import PlanningError
from repro.network.simulator import FluidSimulator
from repro.obs.tracer import NULL_TRACER
from repro.repair.metrics import RepairResult
from repro.repair.pipeline import ExecutionConfig


@dataclass
class MultiChunkPlan:
    """Conventional repair of several chunks of one stripe.

    The requestor downloads ``k`` chunks from the helpers, then uploads
    each rebuilt chunk to its replacement node (the requestor itself may
    host one rebuilt chunk without an upload).
    """

    requestor: int
    helpers: list[int]
    #: lost chunk index -> node that will host the rebuilt chunk.
    placements: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.helpers:
            raise PlanningError("multi-chunk repair needs helpers")
        if len(set(self.helpers)) != len(self.helpers):
            raise PlanningError("duplicate helpers")
        if self.requestor in self.helpers:
            raise PlanningError("the requestor cannot be a helper")
        if not self.placements:
            raise PlanningError("no lost chunks to repair")

    @property
    def download_edges(self) -> list[tuple[int, int]]:
        return [(helper, self.requestor) for helper in self.helpers]

    @property
    def upload_edges(self) -> list[tuple[int, int]]:
        return [
            (self.requestor, node)
            for node in self.placements.values()
            if node != self.requestor
        ]


def plan_multi_chunk(
    snapshot: BandwidthSnapshot,
    requestor: int,
    candidates: Sequence[int],
    k: int,
    lost_to_replacement: dict[int, int],
) -> MultiChunkPlan:
    """Choose the k best-uplink helpers for a conventional multi-chunk
    repair (downloads are the dominant phase, so uplinks matter most)."""
    candidates = list(candidates)
    if len(candidates) < k:
        raise PlanningError(
            f"need {k} helpers for multi-chunk repair, got {len(candidates)}"
        )
    return MultiChunkPlan(
        requestor=requestor,
        helpers=best_uplinks(snapshot, candidates, k),
        placements=dict(lost_to_replacement),
    )


def execute_multi_chunk(
    plan: MultiChunkPlan,
    network,
    start_time: float = 0.0,
    config: ExecutionConfig | None = None,
    decode_rate: float = 1e9,
    tracer=NULL_TRACER,
) -> RepairResult:
    """Time the conventional repair: download k chunks, decode, upload.

    With a live ``tracer`` the three phases form a causal chain under
    one ``repair.task`` span — download flow → ``repair.decode`` span →
    upload flow, each following from its predecessor — so the critical
    path of a multi-chunk repair tiles its makespan exactly.

    Args:
        decode_rate: bytes/second of the requestor's decode throughput
            (conventional repair cannot hide computation in a pipeline).
    """
    config = config or ExecutionConfig()
    if decode_rate <= 0:
        raise PlanningError("decode rate must be positive")
    sim = FluidSimulator(network, start_time=start_time, tracer=tracer)
    task_span = None
    task_track = f"repair:{plan.requestor}"
    if tracer.enabled:
        task_span = tracer.begin(
            "repair.task", t=start_time, track=task_track,
            scheme="Conventional-multi", requestor=plan.requestor,
            chunks=len(plan.placements),
        )
    download = sim.submit_bulk(
        [(src, dst, float(config.chunk_size)) for src, dst in plan.download_edges],
        label="multichunk-download",
        parent_id=task_span,
    )
    download_span = sim.task_span(download)
    sim.run()
    if not download.done:
        raise PlanningError("multi-chunk download never completed")
    # Decode happens at the requestor after the last chunk arrives.
    rebuilt = len(plan.placements)
    decode_seconds = rebuilt * config.chunk_size / decode_rate
    decode_span = None
    if tracer.enabled and decode_seconds > 0:
        decode_span = tracer.begin(
            "repair.decode", t=sim.now, track=task_track,
            parent_id=task_span,
            links=(download_span,) if download_span is not None else (),
            chunks=rebuilt,
        )
    sim.advance_to(sim.now + decode_seconds)
    if decode_span is not None:
        tracer.end(
            "repair.decode", t=sim.now, span_id=decode_span, track=task_track
        )
    if plan.upload_edges:
        upload = sim.submit_bulk(
            [
                (src, dst, float(config.chunk_size))
                for src, dst in plan.upload_edges
            ],
            label="multichunk-upload",
            parent_id=task_span,
            links=(decode_span,) if decode_span is not None else (),
        )
        sim.run()
        if not upload.done:
            raise PlanningError("multi-chunk upload never completed")
    if tracer.enabled:
        tracer.end(
            "repair.task", t=sim.now, span_id=task_span, track=task_track,
            transfer_seconds=sim.now - start_time,
        )
    return RepairResult(
        scheme="Conventional-multi",
        planning_seconds=0.0,
        transfer_seconds=sim.now - start_time,
        bmin=0.0,
        plan=None,
    )
