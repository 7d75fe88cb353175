"""Data node: stores chunk payloads and performs repair-time computation.

A :class:`DataNode` mirrors the paper's prototype Data-Node role: it holds
coded chunks and, during a pipelined repair, multiplies its chunk by its
decoding coefficient and XOR-aggregates the partial results received from
its children before forwarding upstream (Section II-B).
"""

from __future__ import annotations

import numpy as np

from repro.ec.chunk import ChunkId
from repro.ec.field import GF256, GaloisField
from repro.exceptions import ClusterError, GaloisFieldError


class DataNode:
    """One storage node's state; chunks are words of ``field``."""

    def __init__(self, node_id: int, field: GaloisField = GF256):
        self.node_id = node_id
        self.field = field
        self._chunks: dict[ChunkId, np.ndarray] = {}
        self.alive = True

    def __repr__(self) -> str:
        status = "up" if self.alive else "down"
        return f"DataNode(id={self.node_id}, chunks={len(self._chunks)}, {status})"

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------
    def store(self, chunk_id: ChunkId, payload: np.ndarray) -> None:
        self._require_alive()
        try:
            self._chunks[chunk_id] = self.field.as_words(payload)
        except GaloisFieldError as exc:
            raise ClusterError(f"cannot store {chunk_id}: {exc}") from None

    def read(self, chunk_id: ChunkId) -> np.ndarray:
        self._require_alive()
        try:
            return self._chunks[chunk_id]
        except KeyError:
            raise ClusterError(
                f"node {self.node_id} does not store {chunk_id}"
            ) from None

    def has(self, chunk_id: ChunkId) -> bool:
        return self.alive and chunk_id in self._chunks

    def chunk_ids(self) -> list[ChunkId]:
        return sorted(
            self._chunks, key=lambda c: (c.stripe_id, c.chunk_index)
        )

    # ------------------------------------------------------------------
    # Failure
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Crash the node: its data becomes unavailable (and is dropped)."""
        self.alive = False
        self._chunks.clear()

    def _require_alive(self) -> None:
        if not self.alive:
            raise ClusterError(f"node {self.node_id} is down")

    # ------------------------------------------------------------------
    # Repair-time computation (Section II-B linearity)
    # ------------------------------------------------------------------
    def partial_result(
        self,
        chunk_id: ChunkId,
        coefficient: int,
        child_results: list[np.ndarray],
        byte_range: tuple[int, int] | None = None,
    ) -> np.ndarray:
        """coefficient * own_chunk XOR (partial results from children).

        ``byte_range`` restricts the computation to ``[lo, hi)`` of the
        chunk — the slice-range path of a resumed repair.  Linearity makes
        the restriction exact; a ``hi`` past the chunk end is clamped.
        """
        self._require_alive()
        payload = self.read(chunk_id)
        if byte_range is not None:
            lo, hi = byte_range
            if lo < 0 or hi <= lo:
                raise ClusterError(f"invalid byte range [{lo}, {hi})")
            payload = payload[lo:hi]
            if payload.size == 0:
                raise ClusterError(
                    f"byte range [{lo}, {hi}) is outside the chunk"
                )
        for child in child_results:
            if np.shape(child) != payload.shape:
                raise ClusterError(
                    "partial result size mismatch — Property 1 violated"
                )
        # Children enter the sum with coefficient 1; the result is a
        # fresh array, so the stored chunk is never written.
        return self.field.linear_combination(
            [coefficient] + [1] * len(child_results),
            [payload, *child_results],
        )
