#!/usr/bin/env python3
"""Single-chunk repair under hot-storage congestion, end to end.

Demonstrates the full stack on one scenario:

1. generate a synthetic TPC-H-like congestion trace for a 16-node cluster;
2. write a (9, 6) stripe of real data into a byte-accurate cluster;
3. fail a node, pick a congested instant, and repair the lost chunk with
   PivotRepair, RP, PPT, PPR, and conventional repair;
4. verify the rebuilt bytes match the original and compare repair times.

Run:  python examples/single_chunk_repair.py
"""

import numpy as np

from repro import (
    BandwidthSnapshot,
    Cluster,
    ConventionalPlanner,
    PPRPlanner,
    PPTPlanner,
    PivotRepairPlanner,
    RPPlanner,
    RSCode,
)
from repro.repair import ExecutionConfig, execute_plan
from repro.traces import TPC_H, generate_trace
from repro.units import mib, kib, to_mbps


def main() -> None:
    rng = np.random.default_rng(2022)
    trace = generate_trace(TPC_H, node_count=16, duration=600, seed=11)
    network = trace.to_network(floor=1e6)  # keep >= 8 Mb/s for repair

    # A real cluster with real bytes (small chunks keep the example quick;
    # the simulated transfer below uses the paper's 64 MiB).
    cluster = Cluster(16, RSCode(9, 6))
    stripe = cluster.write_random_stripes(1, 4096, rng)[0]

    lost_index = 2
    failed_node = stripe.placement[lost_index]
    original = cluster.nodes[failed_node].read(
        stripe.chunk_id(lost_index)
    ).copy()
    cluster.fail_node(failed_node)
    print(f"Node {failed_node} failed; chunk {lost_index} of stripe 0 lost.")

    # Pick an instant where the stripe's own helpers are congested, so the
    # schemes actually differ.
    # (a few saturated helpers plus uncongested pivots — Observation 2).
    survivors = stripe.surviving_nodes(failed_node)
    rates = trace.used_node_bandwidth()[survivors] / trace.capacity
    congested_helpers = (rates >= 0.9).sum(axis=0)
    moderate = np.flatnonzero(congested_helpers == 3)
    instant = float(
        moderate[0] if len(moderate) else np.argmax(congested_helpers)
    )
    snapshot = BandwidthSnapshot.from_network(network, instant)
    requestor = max(
        (
            n
            for n in range(16)
            if n != failed_node
            and n not in stripe.surviving_nodes(failed_node)
        ),
        key=snapshot.down_of,
    )
    print(
        f"Repairing at t={instant:.0f}s (congested); "
        f"requestor N{requestor} "
        f"(downlink {to_mbps(snapshot.down_of(requestor)):.0f} Mb/s)\n"
    )

    config = ExecutionConfig(chunk_size=mib(64), slice_size=kib(32))
    planners = [
        PivotRepairPlanner(),
        PPTPlanner(),
        RPPlanner(),
        PPRPlanner(),
        ConventionalPlanner(),
    ]
    print(
        f"{'scheme':>14} {'B_min (Mb/s)':>13} {'plan (model)':>12} "
        f"{'transfer (s)':>13} {'total (s)':>11}"
    )
    for planner in planners:
        plan, rebuilt = cluster.repair_chunk(
            planner, snapshot, stripe, lost_index, requestor
        )
        assert np.array_equal(rebuilt, original), "repair corrupted data!"
        timing = execute_plan(plan, network, start_time=instant, config=config)
        plan_label = (
            f"{plan.planning_seconds * 1e3:.2f} ms"
            if plan.planning_seconds < 1
            else f"{plan.planning_seconds:.0f} s"
        )
        print(
            f"{planner.name:>14} {to_mbps(plan.bmin):>13.0f} "
            f"{plan_label:>12} {timing.transfer_seconds:>13.2f} "
            f"{timing.total_seconds:>11.2f}"
        )
    print("\nAll five schemes rebuilt byte-identical data.")


if __name__ == "__main__":
    main()
