#!/usr/bin/env python3
"""Multi-failure recovery and degraded reads (Section IV-F).

Walks a (14, 10) cluster — Facebook's production code — through an
escalating failure scenario:

1. one node fails: its chunk is rebuilt through a PivotRepair tree;
2. a client reads a chunk on another failed node: served as a degraded
   read, reconstructed on the fly, nothing persisted;
3. a second and third node of the same stripe fail: each lost chunk is
   rebuilt through its own PivotRepair tree over the surviving chunks,
   and placement metadata tracks the rebuilt chunks' new homes;
4. five simultaneous failures exceed n - k = 4: correctly reported as
   unrecoverable.

Every rebuilt payload is verified byte-for-byte against the original.

Run:  python examples/multi_failure_recovery.py
"""

import numpy as np

from repro import BandwidthSnapshot, Cluster, PivotRepairPlanner, RSCode
from repro.exceptions import ClusterError

NODE_COUNT = 18
CHUNK = 2048


def snapshot(seed=1):
    rng = np.random.default_rng(seed)
    return BandwidthSnapshot(
        up={i: float(rng.integers(100, 1000)) for i in range(NODE_COUNT)},
        down={i: float(rng.integers(100, 1000)) for i in range(NODE_COUNT)},
    )


def spares(cluster, stripe, count):
    holders = set(stripe.placement)
    return [
        n
        for n in range(cluster.node_count)
        if n not in holders and cluster.nodes[n].alive
    ][:count]


def main() -> None:
    rng = np.random.default_rng(2024)
    cluster = Cluster(NODE_COUNT, RSCode(14, 10))
    stripe = cluster.write_random_stripes(1, CHUNK, rng)[0]
    planner = PivotRepairPlanner()
    originals = {
        i: cluster.nodes[stripe.placement[i]].read(stripe.chunk_id(i)).copy()
        for i in range(14)
    }
    print(f"(14,10) stripe placed on nodes {stripe.placement}\n")

    # 1. Single failure: pipelined tree repair.
    cluster.fail_node(stripe.placement[3])
    spare = spares(cluster, stripe, 1)[0]
    rebuilt = cluster.repair_stripe(
        planner, snapshot(1), stripe, [3], {3: spare}
    )
    assert np.array_equal(rebuilt[3], originals[3])
    print(f"1. chunk 3 rebuilt on N{spare} via pipelined tree "
          "(byte-verified)")

    # 2. Degraded read of a transiently failed chunk.
    cluster.fail_node(stripe.placement[7])
    client = spares(cluster, stripe, 2)[1]
    payload = cluster.degraded_read(planner, snapshot(2), stripe, 7, client)
    assert np.array_equal(payload, originals[7])
    assert not cluster.nodes[client].has(stripe.chunk_id(7))
    print(f"2. chunk 7 served to client N{client} as a degraded read "
          "(nothing persisted)")

    # 3. Two simultaneous losses: one pivot tree per lost chunk.
    cluster.fail_node(stripe.placement[11])
    replacement_nodes = spares(cluster, stripe, 3)[1:3]
    rebuilt = cluster.repair_stripe(
        planner, snapshot(3), stripe, [7, 11],
        {7: replacement_nodes[0], 11: replacement_nodes[1]},
    )
    assert np.array_equal(rebuilt[7], originals[7])
    assert np.array_equal(rebuilt[11], originals[11])
    print("3. chunks 7 and 11 rebuilt, each through its own pivot tree "
          "(byte-verified)")

    # 4. Beyond n - k failures: unrecoverable, loudly.
    doomed = [0, 1, 2, 5, 6]
    for index in doomed:
        cluster.fail_node(stripe.placement[index])
    try:
        cluster.repair_stripe(
            planner, snapshot(4), stripe, doomed,
            {index: 0 for index in doomed},
        )
    except ClusterError as error:
        print(f"4. five failures on one (14,10) stripe: {error}")

    print("\nAll recoverable scenarios rebuilt byte-identical data.")


if __name__ == "__main__":
    main()
