"""Stripe abstraction: one coded group of n chunks placed on n nodes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ec.chunk import ChunkId
from repro.ec.reed_solomon import RSCode
from repro.exceptions import CodingError


@dataclass
class Stripe:
    """One (n, k) stripe: which node stores which chunk index.

    Attributes:
        stripe_id: unique id within a cluster.
        code: the RS code the stripe is encoded with.
        placement: ``placement[i]`` is the node storing chunk index ``i``.
    """

    stripe_id: int
    code: RSCode
    placement: list[int]

    def __post_init__(self) -> None:
        if len(self.placement) != self.code.n:
            raise CodingError(
                f"stripe {self.stripe_id}: placement lists "
                f"{len(self.placement)} nodes but code width is {self.code.n}"
            )
        if len(set(self.placement)) != len(self.placement):
            raise CodingError(
                f"stripe {self.stripe_id}: a node stores two chunks of the "
                "same stripe, which breaks single-node fault tolerance"
            )

    def chunk_on_node(self, node: int) -> int | None:
        """Chunk index stored on ``node``, or None if the node has none."""
        try:
            return self.placement.index(node)
        except ValueError:
            return None

    def surviving_nodes(self, failed_node: int) -> list[int]:
        """Nodes of this stripe other than the failed one."""
        return [node for node in self.placement if node != failed_node]

    def chunk_id(self, chunk_index: int) -> ChunkId:
        return ChunkId(self.stripe_id, chunk_index)

    def relocate(self, chunk_index: int, node: int) -> None:
        """Record that a chunk now lives on ``node`` (after a repair).

        Keeps the one-chunk-per-node invariant: moving a chunk onto a node
        that already holds another chunk of this stripe is rejected.
        """
        if not 0 <= chunk_index < self.code.n:
            raise CodingError(
                f"chunk index {chunk_index} outside stripe of width "
                f"{self.code.n}"
            )
        current = self.chunk_on_node(node)
        if current is not None and current != chunk_index:
            raise CodingError(
                f"node {node} already holds chunk {current} of stripe "
                f"{self.stripe_id}"
            )
        self.placement[chunk_index] = node


def place_stripes(
    count: int,
    code: RSCode,
    node_count: int,
    rng: np.random.Generator,
    start_id: int = 0,
) -> list[Stripe]:
    """Place ``count`` stripes uniformly at random across ``node_count`` nodes.

    Mirrors the paper's Experiment 6 setup ("write a number of stripes of
    chunks randomly across all 15 nodes").
    """
    if node_count < code.n:
        raise CodingError(
            f"cannot place an (n={code.n}) stripe on {node_count} nodes"
        )
    stripes = []
    for i in range(count):
        nodes = rng.choice(node_count, size=code.n, replace=False)
        stripes.append(Stripe(start_id + i, code, [int(x) for x in nodes]))
    return stripes
