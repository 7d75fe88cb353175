"""Erasure-coding substrate: GF(2^8), Reed-Solomon, chunks, stripes."""

from repro.ec.chunk import (
    DEFAULT_CHUNK_SIZE,
    DEFAULT_SLICE_SIZE,
    ChunkId,
    join_slices,
    random_chunk,
    slice_count,
    split_slices,
)
from repro.ec.reed_solomon import RSCode
from repro.ec.stripe import Stripe, place_stripes

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_SLICE_SIZE",
    "ChunkId",
    "RSCode",
    "Stripe",
    "join_slices",
    "place_stripes",
    "random_chunk",
    "slice_count",
    "split_slices",
]
