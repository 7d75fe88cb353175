"""The byte plane executes what the timing plane decided.

The *timing* half — the one attempt machine retrying, re-planning and
resuming on the fluid simulator — settles which trees carried which
slices; the byte-accurate :class:`~repro.cluster.master.Cluster`
executes them (:func:`rebuilt_payload`) and stores the chunk where the
last plan put it (:func:`adopt_result`, one chunk;
:func:`adopt_full_node`, every task of a full-node run).  The cluster
decides nothing on the way.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.master import Cluster
from repro.ec.stripe import Stripe
from repro.repair.jobmaster import slice_ranges
from repro.repair.metrics import FullNodeResult, RepairResult
from repro.repair.pipeline import ExecutionConfig

__all__ = ["adopt_full_node", "adopt_result", "rebuilt_payload"]


def rebuilt_payload(
    cluster: Cluster,
    stripe: Stripe,
    lost_index: int,
    result: RepairResult,
    config: ExecutionConfig,
) -> np.ndarray:
    """The bytes a finished repair's tree(s) deliver at the requestor.

    A master's result (single-chunk or one task of a full-node run)
    records ``(plan, start_slice)`` segments; each of
    :func:`~repro.repair.jobmaster.slice_ranges` is rebuilt through its
    own tree, so the stitched payload reproduces byte-for-byte what each
    tree delivered.  Ranges that do not tile the chunk raise
    :class:`ClusterError`.  An ``execute_plan`` result has no segments.
    Like every rebuilt chunk, the payload is read-only.
    """
    if not result.segments:
        return cluster.rebuild_from_plan(stripe, lost_index, result.plan)
    payload = np.concatenate([
        cluster.rebuild_slice_range(
            stripe, lost_index, plan, first, end, config.slice_size
        )
        for plan, first, end in slice_ranges(
            result.segments, config.slices, stripe.stripe_id
        )
    ])
    payload.flags.writeable = False
    return payload


def adopt_result(
    cluster: Cluster,
    stripe: Stripe,
    lost_index: int,
    result: RepairResult,
    config: ExecutionConfig,
) -> np.ndarray:
    """Rebuild a finished repair's chunk through its segments and store
    it where its last plan delivered it; returns the payload."""
    payload = rebuilt_payload(cluster, stripe, lost_index, result, config)
    cluster.adopt_repair(
        stripe, lost_index, result.plan.requestor, payload,
        at=result.transfer_seconds, scheme=result.scheme,
        helpers=result.plan.helpers,
    )
    return payload


def adopt_full_node(
    cluster: Cluster, result: FullNodeResult, config: ExecutionConfig
) -> list[int]:
    """Move the bytes of a full-node run: every task of ``result`` is
    rebuilt and adopted at its requestor; returns their stripe ids.

    The timing plane decided everything (which stripes, in what order,
    through which trees — ``repair_full_node(..., journal=J)``, or
    ``scenario.resume(J)`` over the stripes ``J.done_stripes()`` lacks);
    a stripe whose chunk has already left the failed node is skipped, so
    adopting the same result twice moves nothing.
    """
    adopted = []
    for task in result.task_results:
        stripe = cluster.stripes[task.plan.notes["stripe_id"]]
        lost_index = stripe.chunk_on_node(result.failed_node)
        if lost_index is not None:
            adopt_result(cluster, stripe, lost_index, task, config)
            adopted.append(stripe.stripe_id)
    return adopted
