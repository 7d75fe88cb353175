"""Chunk and slice abstractions.

A *chunk* is the fixed-size coding unit (64 MiB by default, Section II-A).
Slice-level repair (Section IV-D) splits a chunk into equal *slices* so the
repair tree pipelines many small transfers instead of one monolithic one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import CodingError

#: Default chunk size used throughout the paper's evaluation.
DEFAULT_CHUNK_SIZE = 64 * 1024 * 1024

#: Default slice size (Experiment 5 fixes slices at 32 KiB).
DEFAULT_SLICE_SIZE = 32 * 1024


@dataclass(frozen=True)
class ChunkId:
    """Identifies one coded chunk: (stripe, index-within-stripe)."""

    stripe_id: int
    chunk_index: int

    def __str__(self) -> str:
        return f"stripe{self.stripe_id}/chunk{self.chunk_index}"


def slice_count(chunk_size: int, slice_size: int) -> int:
    """Number of slices in a chunk (the last slice may be short)."""
    if chunk_size <= 0:
        raise CodingError(f"chunk size must be positive, got {chunk_size}")
    if slice_size <= 0:
        raise CodingError(f"slice size must be positive, got {slice_size}")
    return -(-chunk_size // slice_size)  # ceiling division


def split_slices(chunk: np.ndarray, slice_size: int) -> list[np.ndarray]:
    """Split a chunk payload into slice views of at most ``slice_size`` words.

    The payload keeps its word dtype (uint8, or uint16 for GF(2^16)).
    """
    chunk = np.asarray(chunk)
    if slice_size <= 0:
        raise CodingError(f"slice size must be positive, got {slice_size}")
    return [
        chunk[offset : offset + slice_size]
        for offset in range(0, len(chunk), slice_size)
    ]


def join_slices(slices: list[np.ndarray]) -> np.ndarray:
    """Concatenate slices back into a chunk payload."""
    if not slices:
        return np.zeros(0, dtype=np.uint8)
    return np.concatenate(slices)


def random_chunk(size: int, rng: np.random.Generator) -> np.ndarray:
    """Generate a random chunk payload for tests and examples."""
    if size < 0:
        raise CodingError(f"chunk size must be non-negative, got {size}")
    return rng.integers(0, 256, size=size, dtype=np.uint8)
