"""Cluster master: placement, failure handling, end-to-end repair.

The :class:`Cluster` ties every substrate together the way the paper's
prototype does (Section V-A): a Master organises k helpers per repair, the
Data-Nodes store chunks and compute partial sums, and the repair plan comes
from a pluggable :class:`~repro.core.plan.RepairPlanner`.

Repairs here are *byte-accurate*: the lost chunk is actually recomputed by
propagating coefficient-scaled partial results up the repair tree, so tests
can assert the rebuilt payload equals the original.  Timing questions live
in :mod:`repro.repair`; this module answers correctness questions.

Every chunk the cluster stores or hands out is read-only (the ownership
rule of :mod:`repro.cluster.node`).  A written data buffer is shared with
storage, not copied, and frozen; reads, rebuilt payloads and degraded
reads are read-only arrays.  Copy one to modify it.

Under faults the cluster executes and never decides: retries, backoff,
resume points and the order of a full-node repair belong to the one
attempt machine (:class:`repro.repair.StripeRepairMaster`), and the bytes
follow through the plans and ``(plan, start_slice)`` segments its results
carry (:func:`repro.faults.runner.adopt_full_node`).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.bandwidth_view import BandwidthSnapshot
from repro.core.plan import RepairPlan, RepairPlanner
from repro.core.tree import RepairTree
from repro.ec.chunk import ChunkId
from repro.ec.reed_solomon import RSCode
from repro.ec.stripe import Stripe, place_stripes
from repro.exceptions import ClusterError
from repro.cluster.node import DataNode
from repro.obs.tracer import NULL_TRACER


class Cluster:
    """An erasure-coded storage cluster with a single Master.

    A live ``tracer`` records Master-side decisions (stripe placement,
    failures, which helpers a repair used) on the ``master`` track.
    """

    def __init__(self, node_count: int, code: RSCode, tracer=NULL_TRACER):
        if node_count < code.n:
            raise ClusterError(
                f"cluster of {node_count} nodes cannot host (n={code.n}) stripes"
            )
        self.code = code
        self.nodes = [DataNode(i, code.field) for i in range(node_count)]
        self.stripes: dict[int, Stripe] = {}
        self.tracer = tracer

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def alive_nodes(self) -> list[int]:
        return [node.node_id for node in self.nodes if node.alive]

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def write_stripe(
        self,
        data_chunks: Sequence[np.ndarray],
        rng: np.random.Generator,
    ) -> Stripe:
        """Encode k data chunks and place the stripe on random nodes.

        The code is systematic, so each data chunk is stored as the
        caller's own buffer, frozen in place: a later write through the
        caller's handle raises ``ValueError``.  :mod:`repro.cluster.node`
        says which buffers are copied once instead.
        """
        stripe_id = len(self.stripes)
        [stripe] = place_stripes(
            1, self.code, self.node_count, rng, start_id=stripe_id
        )
        coded = self.code.encode(list(data_chunks))
        for chunk_index, node_id in enumerate(stripe.placement):
            self.nodes[node_id].store(
                stripe.chunk_id(chunk_index), coded[chunk_index]
            )
        self.stripes[stripe_id] = stripe
        if self.tracer.enabled:
            self.tracer.instant(
                "master.write_stripe", t=0.0, track="master",
                stripe=stripe_id, placement=list(stripe.placement),
            )
        return stripe

    def write_random_stripes(
        self, count: int, chunk_size: int, rng: np.random.Generator
    ) -> list[Stripe]:
        """Write ``count`` stripes of random data (Experiment 6 setup)."""
        stripes = []
        for _ in range(count):
            data = [
                rng.integers(0, 256, size=chunk_size, dtype=np.uint8)
                for _ in range(self.code.k)
            ]
            stripes.append(self.write_stripe(data, rng))
        return stripes

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def fail_node(self, node_id: int) -> list[ChunkId]:
        """Crash a node; returns the chunk ids that became unavailable.

        The trace event is stamped at time 0.0: the byte plane has no
        clock of its own.
        """
        node = self._node(node_id)
        if not node.alive:
            raise ClusterError(f"node {node_id} is already down")
        lost = node.chunk_ids()
        node.fail()
        if self.tracer.enabled:
            self.tracer.instant(
                "master.fail_node", t=0.0, track="master",
                node=node_id, lost_chunks=len(lost),
            )
        return lost

    def lost_chunks(self, failed_node: int) -> list[tuple[Stripe, int]]:
        """(stripe, chunk_index) pairs lost when ``failed_node`` crashed."""
        lost = []
        for stripe in self.stripes.values():
            index = stripe.chunk_on_node(failed_node)
            if index is not None:
                lost.append((stripe, index))
        return lost

    # ------------------------------------------------------------------
    # Repair path (byte-accurate)
    # ------------------------------------------------------------------
    def repair_chunk(
        self,
        planner: RepairPlanner,
        snapshot: BandwidthSnapshot,
        stripe: Stripe,
        lost_index: int,
        requestor: int,
    ) -> tuple[RepairPlan, np.ndarray]:
        """Plan and execute one single-chunk repair through the tree.

        Returns the plan and the rebuilt payload, which is also stored on
        the requestor node: it is the stored, read-only array.
        """
        failed_node = stripe.placement[lost_index]
        candidates = [
            node
            for node in stripe.surviving_nodes(failed_node)
            if self._node(node).alive and node != requestor
        ]
        with planner.traced(self.tracer):
            plan = planner.plan(snapshot, requestor, candidates, self.code.k)
        payload = self.rebuild_from_plan(stripe, lost_index, plan)
        self.adopt_repair(
            stripe, lost_index, requestor, payload, at=snapshot.time,
            scheme=plan.scheme, helpers=plan.helpers,
        )
        return plan, payload

    def rebuild_from_plan(
        self, stripe: Stripe, lost_index: int, plan: RepairPlan
    ) -> np.ndarray:
        """Execute an existing plan's data path and return the payload.

        Decouples the byte-accurate reconstruction from planning so
        fault-aware callers (which may re-plan mid-repair against a
        different helper set) can verify any tree they ended up with.
        Nothing is stored or relocated — see :meth:`adopt_repair`.  The
        payload is a fresh array, returned read-only like every chunk.
        """
        by_node = self._coefficients_by_node(stripe, lost_index, plan)
        if plan.is_pipelined:
            payload = self._aggregate_tree(plan, stripe, by_node)
        else:
            payload = self._aggregate_staged(plan, stripe, by_node)
        payload.flags.writeable = False
        return payload

    def rebuild_slice_range(
        self,
        stripe: Stripe,
        lost_index: int,
        plan: RepairPlan,
        start_slice: int,
        end_slice: int,
        slice_size: int,
    ) -> np.ndarray:
        """Rebuild only slices ``[start_slice, end_slice)`` of a lost chunk.

        The stitching half of checkpoint/resume: a repair that crashed and
        resumed from a slice watermark delivered each slice range through a
        *different* tree, so the byte-accurate verification must rebuild
        each range through the plan that actually carried it and
        concatenate.  Aggregation is identical to
        :meth:`rebuild_from_plan` restricted to the byte range — linearity
        of the GF(2^8) code makes the restriction exact.  The final range
        may extend past the chunk end (pipeline fill); it is clamped.
        """
        if not plan.is_pipelined:
            raise ClusterError(
                "slice-range rebuild requires a pipelined plan"
            )
        if start_slice < 0 or end_slice <= start_slice:
            raise ClusterError(
                f"invalid slice range [{start_slice}, {end_slice})"
            )
        if slice_size <= 0:
            raise ClusterError("slice_size must be positive")
        by_node = self._coefficients_by_node(stripe, lost_index, plan)
        byte_range = (start_slice * slice_size, end_slice * slice_size)
        payload = self._aggregate_tree(
            plan, stripe, by_node, byte_range=byte_range
        )
        payload.flags.writeable = False
        return payload

    def adopt_repair(
        self,
        stripe: Stripe,
        lost_index: int,
        requestor: int,
        payload: np.ndarray,
        at: float = 0.0,
        scheme: str | None = None,
        helpers: Sequence[int] | None = None,
    ) -> None:
        """Store a rebuilt chunk on the requestor and update placement.

        ``payload`` is stored as given and frozen, like a written chunk.
        """
        self._node(requestor).store(stripe.chunk_id(lost_index), payload)
        stripe.relocate(lost_index, requestor)
        if self.tracer.enabled:
            self.tracer.instant(
                "master.repair_chunk", t=at, track="master",
                stripe=stripe.stripe_id, lost_index=lost_index,
                requestor=requestor, scheme=scheme,
                helpers=sorted(helpers) if helpers is not None else None,
            )

    def repair_stripe(
        self,
        planner: RepairPlanner,
        snapshot: BandwidthSnapshot,
        stripe: Stripe,
        lost_indices: Sequence[int],
        replacements: Mapping[int, int],
    ) -> dict[int, np.ndarray]:
        """Repair one or more lost chunks of a stripe, each through its
        own pipelined tree.

        Every lost chunk is planned at its replacement node over the
        stripe's surviving chunks only (no lost index's node helps, not
        even once its chunk is rebuilt), executed and stored there.

        Args:
            lost_indices: chunk indices that became unavailable.
            replacements: lost chunk index -> node to host the rebuilt
                chunk.  Every lost index must be covered.

        Returns:
            Mapping from lost chunk index to the rebuilt payload.
        """
        lost = sorted(set(lost_indices))
        if not lost:
            raise ClusterError("no lost chunks given")
        missing = [i for i in lost if i not in replacements]
        if missing:
            raise ClusterError(f"no replacement node for chunks {missing}")
        survivors = [
            node
            for index, node in enumerate(stripe.placement)
            if index not in lost and self._node(node).alive
        ]
        if len(survivors) < self.code.k:
            raise ClusterError(
                f"stripe {stripe.stripe_id}: only {len(survivors)} "
                f"chunks survive, need {self.code.k}"
            )
        rebuilt: dict[int, np.ndarray] = {}
        for index in lost:
            requestor = replacements[index]
            candidates = [node for node in survivors if node != requestor]
            with planner.traced(self.tracer):
                plan = planner.plan(
                    snapshot, requestor, candidates, self.code.k
                )
            payload = self.rebuild_from_plan(stripe, index, plan)
            self.adopt_repair(
                stripe, index, requestor, payload, at=snapshot.time,
                scheme=plan.scheme, helpers=plan.helpers,
            )
            rebuilt[index] = payload
        return rebuilt

    def degraded_read(
        self,
        planner: RepairPlanner,
        snapshot: BandwidthSnapshot,
        stripe: Stripe,
        chunk_index: int,
        client: int,
    ) -> np.ndarray:
        """Serve a read of an unavailable chunk without storing it.

        The hot-storage motivation: a client read hits a transiently failed
        node and the chunk is reconstructed on the fly at the client, via
        the same pipelined repair tree (the client plays the requestor).
        Either way the payload is read-only: a live holder's stored chunk
        or a rebuilt one.
        """
        holder = stripe.placement[chunk_index]
        if self._node(holder).alive and self._node(holder).has(
            stripe.chunk_id(chunk_index)
        ):
            return self._node(holder).read(stripe.chunk_id(chunk_index))
        candidates = [
            node
            for node in stripe.surviving_nodes(holder)
            if self._node(node).alive and node != client
        ]
        with planner.traced(self.tracer):
            plan = planner.plan(snapshot, client, candidates, self.code.k)
        return self.rebuild_from_plan(stripe, chunk_index, plan)

    def _coefficients_by_node(
        self, stripe: Stripe, lost_index: int, plan: RepairPlan
    ) -> dict[int, int]:
        """Decoding coefficient each helper node of ``plan`` applies."""
        coefficients = self.code.repair_coefficients(
            lost_index,
            [stripe.chunk_on_node(node) for node in sorted(plan.helpers)],
        )
        return {
            node: coefficients[stripe.chunk_on_node(node)]
            for node in plan.helpers
        }

    def _aggregate_tree(
        self,
        plan: RepairPlan,
        stripe: Stripe,
        coefficients: dict[int, int],
        byte_range: tuple[int, int] | None = None,
    ) -> np.ndarray:
        """Bottom-up aggregation along the repair tree (Property 2)."""
        tree = plan.tree
        partials = [
            self._aggregate_subtree(
                tree, child, stripe, coefficients, byte_range
            )
            for child in tree.children(tree.root)
        ]
        result = partials[0]
        for partial in partials[1:]:
            result ^= partial
        return result

    def _aggregate_subtree(
        self,
        tree: RepairTree,
        node: int,
        stripe: Stripe,
        coefficients: dict[int, int],
        byte_range: tuple[int, int] | None,
    ) -> np.ndarray:
        """The partial result ``node`` forwards to its parent.

        A method rather than a nested closure: a closure that calls itself
        holds its own cell, a reference cycle that would keep the cluster
        and every stored chunk alive until the cyclic collector ran.
        """
        child_results = [
            self._aggregate_subtree(
                tree, child, stripe, coefficients, byte_range
            )
            for child in tree.children(node)
        ]
        if node not in coefficients:
            # A forwarder (e.g. SMFRepair's idle relays): it stores no
            # chunk of the stripe and only XOR-merges its children's
            # partial results before passing them on.
            if not child_results:
                raise ClusterError(
                    f"node {node} has no chunk and nothing to forward"
                )
            if not self._node(node).alive:
                raise ClusterError(f"forwarder {node} is down")
            # Every partial result is a fresh array this call owns, so
            # children are merged in place, never copied.
            merged = child_results[0]
            for extra in child_results[1:]:
                merged ^= extra
            return merged
        chunk_index = stripe.chunk_on_node(node)
        return self._node(node).partial_result(
            stripe.chunk_id(chunk_index),
            coefficients[node],
            child_results,
            byte_range=byte_range,
        )

    def _aggregate_staged(
        self, plan: RepairPlan, stripe: Stripe, coefficients: dict[int, int]
    ) -> np.ndarray:
        """Round-based aggregation for PPR/conventional plans."""
        held: dict[int, np.ndarray] = {}
        for helper, coeff in coefficients.items():
            chunk_index = stripe.chunk_on_node(helper)
            held[helper] = self._node(helper).partial_result(
                stripe.chunk_id(chunk_index), coeff, []
            )
        requestor_acc: np.ndarray | None = None
        assert plan.stages is not None
        for stage in plan.stages:
            for src, dst in stage:
                payload = held.pop(src)
                if dst == plan.requestor:
                    if requestor_acc is None:
                        requestor_acc = payload
                    else:
                        requestor_acc ^= payload
                else:
                    held[dst] ^= payload
        if requestor_acc is None:
            raise ClusterError("staged plan never delivered to the requestor")
        return requestor_acc

    def _node(self, node_id: int) -> DataNode:
        if not 0 <= node_id < self.node_count:
            raise ClusterError(f"unknown node {node_id}")
        return self.nodes[node_id]
