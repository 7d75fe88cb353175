"""RepairBoost-style full-node repair: balanced traffic scheduling.

RepairBoost [Lin et al., ATC'21, cited as [32]] improves *full-node* repair
by balancing upload and download traffic across the cluster rather than by
optimising any single repair's pipeline.  This baseline captures that idea
for comparison against PivotRepair's adaptive scheduling:

* each lost chunk becomes one single-chunk repair task whose requestor is
  chosen to level per-node *download* load across the batch;
* each task's k helpers are chosen to level per-node *upload* load;
* tasks run as plain chains over their balanced helper sets (RepairBoost
  pipelines transfers but does not shape congestion-aware trees).

The contrast with PivotRepair is deliberate: RepairBoost balances a static
traffic matrix up front, PivotRepair reacts to instantaneous bandwidth.
Under stable bandwidth the balanced matrix is strong; under rapidly
changing congestion it cannot adapt.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.tree import RepairTree
from repro.ec.stripe import Stripe
from repro.exceptions import PlanningError


@dataclass
class BalancedAssignment:
    """The balanced traffic plan for one full-node repair batch."""

    #: stripe id -> requestor node.
    requestors: dict[int, int] = field(default_factory=dict)
    #: stripe id -> ordered helper list (chain order).
    helpers: dict[int, list[int]] = field(default_factory=dict)
    #: resulting per-node traffic counts, in chunk units.
    download_load: dict[int, int] = field(default_factory=dict)
    upload_load: dict[int, int] = field(default_factory=dict)

    def tree_for(self, stripe: Stripe) -> RepairTree:
        return RepairTree.chain(
            self.requestors[stripe.stripe_id],
            self.helpers[stripe.stripe_id],
        )


def balance_assignments(
    stripes: Sequence[Stripe],
    failed_node: int,
    node_count: int,
) -> BalancedAssignment:
    """Greedy traffic balancing over a batch of single-chunk repairs.

    Stripes are processed in order; each picks the least-downloading
    eligible node as requestor and the k least-uploading survivors as
    helpers.  Greedy levelling is how RepairBoost approximates its
    flow-based balancing in practice.
    """
    assignment = BalancedAssignment(
        download_load={n: 0 for n in range(node_count)},
        upload_load={n: 0 for n in range(node_count)},
    )
    for stripe in stripes:
        lost_index = stripe.chunk_on_node(failed_node)
        if lost_index is None:
            raise PlanningError(
                f"stripe {stripe.stripe_id} lost nothing on node "
                f"{failed_node}"
            )
        holders = set(stripe.surviving_nodes(failed_node))
        eligible = [
            node
            for node in range(node_count)
            if node != failed_node and node not in holders
        ]
        if not eligible:
            raise PlanningError(
                f"stripe {stripe.stripe_id}: no requestor candidate"
            )
        requestor = min(
            eligible,
            key=lambda node: (assignment.download_load[node], node),
        )
        survivors = sorted(holders)
        k = stripe.code.k
        chosen = sorted(
            survivors,
            key=lambda node: (assignment.upload_load[node], node),
        )[:k]
        assignment.requestors[stripe.stripe_id] = requestor
        assignment.helpers[stripe.stripe_id] = chosen
        assignment.download_load[requestor] += 1
        for node in chosen:
            assignment.upload_load[node] += 1
        # Relaying along the chain also downloads at every interior node.
        for node in chosen[:-1]:
            assignment.download_load[node] += 1
    return assignment


def repair_full_node_balanced(
    network,
    stripes: Sequence[Stripe],
    failed_node: int,
    concurrency: int = 4,
    config=None,
):
    """Run a full-node repair with RepairBoost-style balanced chains."""
    from repro.network.simulator import FluidSimulator
    from repro.repair.metrics import FullNodeResult, RepairResult
    from repro.repair.pipeline import ExecutionConfig, pipeline_bytes_per_edge

    if concurrency < 1:
        raise PlanningError("concurrency must be >= 1")
    config = config or ExecutionConfig()
    affected = [
        s for s in stripes if s.chunk_on_node(failed_node) is not None
    ]
    if not affected:
        raise PlanningError(f"node {failed_node} stores no chunk to repair")
    assignment = balance_assignments(affected, failed_node, len(network))
    sim = FluidSimulator(network)
    pending = list(affected)
    in_flight: dict[int, Stripe] = {}
    results: list[RepairResult] = []

    def submit(stripe: Stripe):
        tree = assignment.tree_for(stripe)
        handle = sim.submit_pipelined(
            tree.edges(),
            pipeline_bytes_per_edge(config, tree.depth()),
            label=f"RepairBoost-s{stripe.stripe_id}",
        )
        in_flight[handle.task_id] = stripe

    while pending or in_flight:
        while pending and len(in_flight) < concurrency:
            submit(pending.pop(0))
        for handle in sim.run_until_completion():
            in_flight.pop(handle.task_id)
            results.append(
                RepairResult(
                    scheme="RepairBoost",
                    planning_seconds=0.0,
                    transfer_seconds=handle.duration,
                    bmin=0.0,
                )
            )
    return FullNodeResult(
        scheme="RepairBoost",
        failed_node=failed_node,
        total_seconds=sim.now,
        task_results=results,
    )
