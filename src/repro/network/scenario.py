"""Deterministic scenario scripts for the engine differential harness.

A :class:`Scenario` is a seeded, replayable script of simulator operations
— task arrivals (pipelined trees and bulk flow sets), cancellations and
rate-cap changes across the repair / foreground / hedge traffic classes,
interleaved with time advances over a network whose link capacities move
through random piecewise-constant traces.  :func:`replay` runs a scenario
through a :class:`~repro.network.simulator.FluidSimulator` with a chosen
allocation engine and reduces the run to a :func:`digest` of everything
observable: task finish times and progress, per-class and per-node byte
accounting, event-loop step count, and (optionally) the flight recorder's
sampled link rates.

The differential tests replay the same scenario under ``engine="reference"``
and ``engine="fast"`` and assert the digests are **equal** — not close;
``==`` on nested dicts of floats is bit-identity.  ``rate_recomputations``
is deliberately absent from the digest: the incremental engine solves less
often by design, and that counter is the only observable allowed to differ.

Operations that target "a live task" (cancel, re-cap) carry only an RNG
draw; the victim is resolved against the live-task list *at replay time*.
Both engines reach each operation with identical simulator state, so they
resolve identical victims — and the scenario stays a pure value that can
be generated once and replayed under any engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.network.bandwidth import BandwidthTrace, NodeBandwidth
from repro.network.hierarchical import RackNetwork
from repro.network.simulator import FluidSimulator
from repro.network.topology import StarNetwork

KINDS = ("repair", "foreground", "hedge")
#: Helpers per repair chain of a :func:`storm_scenario`.
STORM_FANIN = 6


@dataclass(frozen=True)
class Op:
    """One scripted simulator operation at an absolute time."""

    time: float
    action: str  # "pipelined" | "bulk" | "cancel" | "cap"
    #: Action payload: edges/bytes for submissions, an RNG draw for
    #: victim selection, the new cap (or None) for re-caps.
    edges: tuple[tuple[int, int], ...] = ()
    bytes_per_edge: float = 0.0
    sizes: tuple[float, ...] = ()
    max_rate: float | None = None
    kind: str = "repair"
    pick: int = 0


@dataclass(frozen=True)
class Scenario:
    """A replayable script: a seeded network plus a timed operation list."""

    seed: int
    node_count: int
    racked: bool
    ops: tuple[Op, ...]
    #: Drain horizon after the last op (the replay runs to completion or
    #: this much past the final op, whichever first).
    drain: float = 10_000.0
    rack_count: int = 0
    #: Maximum capacity breakpoints per trace (0 = static capacities —
    #: the scale suites use this so the measurement is recompute-bound
    #: on arrivals/finishes, not breakpoint churn).
    breakpoints: int = 4

    def build_network(self):
        """The scenario's network — rebuilt identically on every call."""
        rng = random.Random(self.seed * 7919 + 17)
        nodes = [
            _random_link(rng, breakpoints=self.breakpoints)
            for _ in range(self.node_count)
        ]
        if not self.racked:
            return StarNetwork(nodes)
        racks = [
            _random_link(rng, scale=4.0, breakpoints=self.breakpoints)
            for _ in range(self.rack_count)
        ]
        node_racks = [n % self.rack_count for n in range(self.node_count)]
        return RackNetwork(node_racks, nodes, racks)


def _random_link(
    rng: random.Random, scale: float = 1.0, breakpoints: int = 4
) -> NodeBandwidth:
    """A node/rack link with a few random capacity breakpoints."""

    def trace() -> BandwidthTrace:
        times = [0.0]
        values = [rng.uniform(40.0, 120.0) * scale]
        t = 0.0
        for _ in range(rng.randint(0, breakpoints) if breakpoints else 0):
            t += rng.uniform(0.5, 4.0)
            times.append(t)
            values.append(rng.uniform(20.0, 120.0) * scale)
        return BandwidthTrace(times, values)

    return NodeBandwidth(trace(), trace())


def random_scenario(
    seed: int,
    node_count: int = 12,
    steps: int = 50,
    racked: bool = False,
) -> Scenario:
    """A seeded churn script: arrivals, finishes (implicit), cancels and
    re-caps across all three traffic classes.

    Roughly half the steps submit work (pipelined trees or bulk flow
    sets), the rest cancel or re-cap a live task.  Same-instant bursts
    happen naturally (a step may advance time by zero).
    """
    rng = random.Random(seed)
    ops: list[Op] = []
    t = 0.0
    rack_count = max(2, node_count // 4)
    for _ in range(steps):
        if rng.random() < 0.2:
            pass  # same-instant burst: no time advance
        else:
            t += rng.uniform(0.0, 1.5)
        roll = rng.random()
        if roll < 0.55:
            span = rng.randint(2, min(5, node_count))
            nodes = rng.sample(range(node_count), span)
            edges = tuple(zip(nodes, nodes[1:]))
            kind = rng.choice(KINDS)
            if rng.random() < 0.55:
                ops.append(Op(
                    time=t, action="pipelined", edges=edges,
                    bytes_per_edge=rng.uniform(10.0, 300.0),
                    max_rate=(
                        None if rng.random() < 0.6
                        else rng.uniform(5.0, 80.0)
                    ),
                    kind=kind,
                ))
            else:
                ops.append(Op(
                    time=t, action="bulk", edges=edges,
                    sizes=tuple(
                        rng.uniform(10.0, 200.0) for _ in edges
                    ),
                    max_rate=(
                        None if rng.random() < 0.7
                        else rng.uniform(5.0, 80.0)
                    ),
                    kind=kind,
                ))
        elif roll < 0.75:
            ops.append(Op(time=t, action="cancel", pick=rng.randrange(1 << 30)))
        else:
            ops.append(Op(
                time=t, action="cap", pick=rng.randrange(1 << 30),
                max_rate=(
                    None if rng.random() < 0.3
                    else rng.uniform(3.0, 90.0)
                ),
            ))
    return Scenario(
        seed=seed, node_count=node_count, racked=racked,
        rack_count=rack_count, ops=tuple(ops),
    )


def storm_scenario(
    seed: int,
    node_count: int = 1024,
    repairs: int = 200,
    foreground_flows: int = 600,
    horizon: float = 240.0,
    burst: bool = False,
) -> Scenario:
    """A full-node repair storm under sustained foreground load.

    ``repairs`` pipelined repair trees (each a :data:`STORM_FANIN`-helper
    chain into a requestor — the failed node's stripes re-rooted across
    the cluster) run against ``foreground_flows`` short client flows with
    Poisson arrivals, over static capacities so the run's cost is pure
    recompute (arrivals/finishes), not breakpoint churn.

    By default repair arrivals are staggered over ``horizon`` — the
    bounded-in-flight shape a concurrency-capped full-node scheduler
    produces (a handful of repair trees live at once) — so the
    constraint graph stays in the sparse regime where most events
    perturb a component of a few flows.  This is exactly the shape the
    incremental engine exists for: the reference allocator re-reads
    every link capacity and re-rates every live task on every event
    regardless of cluster size.  ``burst=True`` submits every repair at
    t=0 instead (one same-instant allocation, then one densely-coupled
    component), which stresses event batching and the component solve
    rather than incrementality.
    """
    rng = random.Random(seed)
    ops: list[Op] = []
    for _ in range(repairs):
        arrival = 0.0 if burst else rng.uniform(0.0, horizon)
        nodes = rng.sample(range(node_count), STORM_FANIN + 1)
        edges = tuple(zip(nodes, nodes[1:]))
        ops.append(Op(
            time=arrival, action="pipelined", edges=edges,
            bytes_per_edge=rng.uniform(200.0, 400.0),
            kind="repair",
        ))
    t = 0.0
    for _ in range(foreground_flows):
        t += rng.expovariate(foreground_flows / horizon)
        src, dst = rng.sample(range(node_count), 2)
        ops.append(Op(
            time=t, action="bulk", edges=((src, dst),),
            sizes=(rng.uniform(5.0, 60.0),),
            kind="foreground",
        ))
    ops.sort(key=lambda op: op.time)
    return Scenario(
        seed=seed, node_count=node_count, racked=False, ops=tuple(ops),
        breakpoints=0,
    )


def replay(
    scenario: Scenario,
    engine: str,
    sample_interval: float | None = None,
    network=None,
) -> dict:
    """Run a scenario under ``engine`` and reduce it to a digest.

    Two replays of the same scenario are digest-equal iff the engines
    are observationally identical — every float compared with ``==``.
    """
    if network is None:
        network = scenario.build_network()
    sampler = None
    if sample_interval is not None:
        from repro.obs.sampler import FlightRecorder

        sampler = FlightRecorder(
            interval=sample_interval, capacity=100_000
        )
    sim = FluidSimulator(network, engine=engine, sampler=sampler)
    handles = []
    for op in scenario.ops:
        sim.advance_to(op.time)
        if op.action == "pipelined":
            handles.append(sim.submit_pipelined(
                op.edges, op.bytes_per_edge,
                max_rate=op.max_rate, kind=op.kind,
            ))
        elif op.action == "bulk":
            handles.append(sim.submit_bulk(
                [
                    (src, dst, size)
                    for (src, dst), size in zip(op.edges, op.sizes)
                ],
                max_rate=op.max_rate, kind=op.kind,
            ))
        elif op.action == "cancel":
            live = [
                h for h in handles if not h.done and not h.cancelled
            ]
            if live:
                sim.cancel_task(live[op.pick % len(live)])
        elif op.action == "cap":
            live = [
                h for h in handles if not h.done and not h.cancelled
            ]
            if live:
                sim.set_task_max_rate(
                    live[op.pick % len(live)], op.max_rate
                )
        else:  # pragma: no cover - scenario construction bug
            raise ValueError(f"unknown scenario action {op.action!r}")
    last = scenario.ops[-1].time if scenario.ops else 0.0
    sim.run(max_time=last + scenario.drain)
    return digest(sim, handles, sampler=sampler)


def digest(sim: FluidSimulator, handles, sampler=None) -> dict:
    """Everything observable about a finished run, ready for ``==``.

    ``rate_recomputations`` is intentionally excluded — it is the one
    counter the engines are allowed to disagree on.
    """
    stats, bytes_up, bytes_down = sim.read_ledger()
    payload = {
        "tasks": [
            {
                "task_id": h.task_id,
                "kind": h.kind,
                "submit_time": h.submit_time,
                "finish_time": h.finish_time,
                "cancelled": h.cancelled,
                "progress": h.progress,
                "bytes": sim.task_bytes_carried(h),
            }
            for h in handles
        ],
        "steps": stats.steps,
        "tasks_submitted": stats.tasks_submitted,
        "tasks_completed": stats.tasks_completed,
        "tasks_cancelled": stats.tasks_cancelled,
        "bytes_by_kind": dict(sorted(stats.bytes_by_kind.items())),
        "bytes_transferred": stats.bytes_transferred,
        "bytes_up": dict(sorted(bytes_up.items())),
        "bytes_down": dict(sorted(bytes_down.items())),
        "end_time": sim.now,
    }
    if sampler is not None:
        payload["samples"] = [s.to_dict() for s in sampler.samples]
        payload["samples_dropped"] = sampler.dropped
    return payload
