#!/usr/bin/env python3
"""Quickstart: repair one lost chunk with PivotRepair.

Recreates the paper's motivating example (Figures 3 and 4): a (6, 4)
Reed-Solomon stripe loses the chunk on node N1 while the cluster is
congested, and PivotRepair builds a pipelined repair tree that relays
traffic through the uncongested pivot N6 — beating RP's congestion-
oblivious chain by more than 3x.

Run:  python examples/quickstart.py
"""

from repro import (
    BandwidthSnapshot,
    PivotRepairPlanner,
    RPPlanner,
    StarNetwork,
    repair_single_chunk,
)
from repro.repair import ExecutionConfig
from repro.units import mbps, mib, kib, to_mbps


def main() -> None:
    # Figure 4's bandwidth table (Mb/s).  Node 0 is the requestor R;
    # node 1 is the failed node; nodes 2..6 are the helpers N2..N6.
    up = [980, 0, 750, 500, 150, 500, 500]
    down = [980, 0, 100, 130, 1000, 200, 900]
    network = StarNetwork.constant([mbps(x) for x in up], [mbps(x) for x in down])
    candidates = [2, 3, 4, 5, 6]
    config = ExecutionConfig(chunk_size=mib(64), slice_size=kib(32))

    print("Cluster bandwidths (Mb/s):")
    print(f"  {'node':>6} {'uplink':>8} {'downlink':>9}")
    for node in range(7):
        label = {0: " (requestor)", 1: " (failed)"}.get(node, "")
        print(f"  N{node:<5} {up[node]:>8} {down[node]:>9}{label}")
    print()

    snapshot = BandwidthSnapshot.from_network(network, 0.0)
    plan = PivotRepairPlanner().plan(snapshot, 0, candidates, k=4)
    print("PivotRepair tree (Algorithm 1):")
    print(plan.tree.render())
    print(f"  B_min = {to_mbps(plan.bmin):.0f} Mb/s")
    print(
        f"  planning charge = {plan.planning_seconds * 1e6:.1f} us "
        f"(modelled, {len(candidates)} candidates)"
    )
    print()

    for planner in (PivotRepairPlanner(), RPPlanner()):
        cands = candidates if planner.name == "PivotRepair" else [3, 4, 5, 6]
        result = repair_single_chunk(
            planner, network, 0, cands, k=4, config=config
        )
        print(
            f"{planner.name:>12}: repaired 64 MiB in "
            f"{result.total_seconds:6.2f} s "
            f"(bottleneck {to_mbps(result.bmin):.0f} Mb/s)"
        )


if __name__ == "__main__":
    main()
