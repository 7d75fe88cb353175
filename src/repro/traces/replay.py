"""Foreground traffic as live flows (competition model).

The main experiments model foreground load by *reserving* bandwidth: the
network's available capacity is the edge capacity minus the trace's used
bandwidth (``WorkloadTrace.to_network``).  Real clusters are messier —
repair and application flows *compete* for the same links, and the repair
job's throughput depends on the transport's sharing behaviour.

This module provides the competition model: each sample of a workload
trace is replayed as rate-capped background flows inside the fluid
simulator, with the cap equal to the recorded per-node usage.  Repair
tasks then share links with the foreground under max-min fairness.  The
two models bracket reality: reservation is pessimistic for repair (the
foreground always wins), competition is optimistic (fair sharing), and
the ablation bench quantifies the gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import TraceError
from repro.network.simulator import FluidSimulator
from repro.network.topology import StarNetwork
from repro.traces.workload import WorkloadTrace

#: Seconds of trace :func:`repair_under_competition` replays.
COMPETITION_HORIZON = 120.0


@dataclass(frozen=True)
class ForegroundFlow:
    """One synthesised application flow."""

    start: float
    end: float
    src: int
    dst: int
    rate: float  # bytes/second the application drives through the flow

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise TraceError("flow must have positive duration")
        if self.rate <= 0:
            raise TraceError("flow rate must be positive")
        if self.src == self.dst:
            raise TraceError("flow endpoints must differ")

    @property
    def size(self) -> float:
        return self.rate * (self.end - self.start)


def synthesize_flows(
    trace: WorkloadTrace, seed: int = 0
) -> list[ForegroundFlow]:
    """Turn a trace's per-node usage marginals into concrete flows.

    Each sample interval pairs uploaders with downloaders greedily (largest
    residual first), emitting one flow per pair whose rate is the smaller
    residual and which lasts the whole interval.  The resulting flow set
    reproduces the trace's per-node up/down usage up to the truncation of
    unmatched residual (a node uploading to a client outside the cluster
    has no in-cluster partner).
    """
    rng = np.random.default_rng(seed)
    flows: list[ForegroundFlow] = []
    for sample in range(trace.sample_count):
        up_residual = trace.used_up[:, sample].astype(float).copy()
        down_residual = trace.used_down[:, sample].astype(float).copy()
        while True:
            src = int(np.argmax(up_residual))
            if up_residual[src] <= trace.capacity * 1e-3:
                break
            down_choices = down_residual.copy()
            down_choices[src] = 0.0
            dst = int(np.argmax(down_choices))
            if down_choices[dst] <= trace.capacity * 1e-3:
                break
            rate = min(up_residual[src], down_residual[dst])
            # Jitter pairing order so the same heavy nodes do not always
            # pair with each other across seconds.
            if rng.random() < 0.1:
                alternatives = np.flatnonzero(
                    down_choices > rate * 0.5
                )
                if len(alternatives) > 1:
                    dst = int(rng.choice(alternatives))
                    rate = min(up_residual[src], down_residual[dst])
            start = sample * trace.interval
            flows.append(
                ForegroundFlow(
                    start=start,
                    end=start + trace.interval,
                    src=src,
                    dst=dst,
                    rate=float(rate),
                )
            )
            up_residual[src] -= rate
            down_residual[dst] -= rate
    return flows


class ForegroundReplay:
    """Drives synthesised foreground flows through a fluid simulator.

    Usage::

        sim = FluidSimulator(StarNetwork.uniform(16, capacity))
        replay = ForegroundReplay(flows)
        replay.pump(sim)          # submit flows starting <= sim.now
        ... submit repair task ...
        while not done:
            sim.run_until_completion(...)
            replay.pump(sim)      # keep the background current
    """

    def __init__(self, flows: list[ForegroundFlow]):
        self._flows = sorted(flows, key=lambda f: f.start)
        self._cursor = 0

    def next_start(self) -> float | None:
        if self._cursor >= len(self._flows):
            return None
        return self._flows[self._cursor].start

    def pump(self, sim: FluidSimulator) -> int:
        """Submit every flow whose start time has been reached."""
        submitted = 0
        while self._cursor < len(self._flows):
            flow = self._flows[self._cursor]
            if flow.start > sim.now + 1e-9:
                break
            sim.submit_bulk(
                [(flow.src, flow.dst, flow.size)],
                label=f"fg-{self._cursor}",
                max_rate=flow.rate,
                kind="foreground",
            )
            self._cursor += 1
            submitted += 1
        return submitted


def competition_network(trace: WorkloadTrace) -> StarNetwork:
    """The raw full-capacity network the competition model runs on."""
    return StarNetwork.uniform(trace.node_count, trace.capacity)


def repair_under_competition(
    trace: WorkloadTrace,
    tree_edges: list[tuple[int, int]],
    bytes_per_edge: float,
    start_time: float,
    seed: int = 0,
) -> float:
    """Transfer time of one pipelined repair competing with foreground.

    Replays ``COMPETITION_HORIZON`` seconds of the trace, from the
    sample that holds ``start_time``, as rate-capped flows from
    ``start_time`` on a full-capacity network, submits the repair tree,
    and returns its duration.
    """
    window = trace.window(
        int(start_time // trace.interval),
        int(np.ceil(COMPETITION_HORIZON / trace.interval)),
    )
    flows = [
        ForegroundFlow(
            start=f.start + start_time,
            end=f.end + start_time,
            src=f.src,
            dst=f.dst,
            rate=f.rate,
        )
        for f in synthesize_flows(window, seed=seed)
    ]
    sim = FluidSimulator(competition_network(trace), start_time=start_time)
    replay = ForegroundReplay(flows)
    replay.pump(sim)
    repair = sim.submit_pipelined(tree_edges, bytes_per_edge, label="repair")
    while not repair.done:
        next_start = replay.next_start()
        if next_start is None:
            sim.run()
            break
        sim.run(max_time=next_start)
        if sim.now < next_start:
            # Everything currently active finished early; jump to the
            # next foreground arrival.
            sim.advance_to(next_start)
        replay.pump(sim)
    if not repair.done:
        sim.run()
    return repair.duration
