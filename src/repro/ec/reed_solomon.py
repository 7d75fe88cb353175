"""Systematic (n, k) Reed-Solomon codes over GF(2^w).

The generator matrix is derived from an ``n x k`` Vandermonde matrix ``V`` as
``G = V @ inv(V[:k])``.  Because every ``k x k`` row-submatrix of a
Vandermonde matrix with distinct evaluation points is invertible, and column
operations preserve that property, any ``k`` rows of ``G`` are invertible:
the code is MDS and any ``k`` of the ``n`` chunks rebuild the stripe.

Repair of a single chunk follows the linearity described in Section II-B of
the paper: the lost chunk is a GF-linear combination of any ``k`` surviving
chunks, ``lost = sum_i coeff_i * chunk_i``, and the per-helper coefficients
returned by :meth:`RSCode.repair_coefficients` are what a pipelined repair
tree aggregates (Property 1 keeps sizes fixed, Property 2 lets the additions
happen in any tree order).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.ec.field import GF256, GaloisField
from repro.ec.matrix import gf_inverse, gf_matmul, vandermonde
from repro.exceptions import CodingError, InsufficientChunksError


class RSCode:
    """A systematic (n, k) Reed-Solomon code.

    Chunk indices 0..k-1 are data chunks; k..n-1 are parity chunks.
    """

    def __init__(self, n: int, k: int, field: GaloisField = GF256):
        if k <= 0:
            raise CodingError(f"k must be positive, got {k}")
        if n <= k:
            raise CodingError(f"n must exceed k, got (n, k) = ({n}, {k})")
        if n >= field.order:
            raise CodingError(f"n = {n} too large for GF(2^{field.w})")
        self.n = n
        self.k = k
        self.field = field
        v = vandermonde(n, k, field)
        self._generator = gf_matmul(v, gf_inverse(v[:k], field), field)

    def __repr__(self) -> str:
        return f"RSCode(n={self.n}, k={self.k}, GF(2^{self.field.w}))"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RSCode):
            return NotImplemented
        return (self.n, self.k, self.field) == (
            other.n, other.k, other.field,
        )

    def __hash__(self) -> int:
        return hash((RSCode, self.n, self.k, self.field))

    # ------------------------------------------------------------------
    # Encode / decode
    # ------------------------------------------------------------------
    def encode(self, data_chunks: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Encode ``k`` equal-size data buffers into ``n`` coded chunks.

        Returns the full stripe: the k data chunks followed by the n - k
        parity chunks.  The code is systematic, so the data chunks are the
        buffers themselves as :meth:`GaloisField.as_words` gives them: one
        that already has the field's dtype is returned uncopied.  Only the
        parity chunks are fresh arrays.
        """
        if len(data_chunks) != self.k:
            raise CodingError(
                f"expected {self.k} data chunks, got {len(data_chunks)}"
            )
        chunks = [self.field.as_words(c) for c in data_chunks]
        sizes = {c.shape for c in chunks}
        if len(sizes) != 1:
            raise CodingError(f"data chunks differ in shape: {sorted(sizes)}")
        stripe = list(chunks)
        for parity_row in self._generator[self.k :]:
            stripe.append(self.field.linear_combination(parity_row, chunks))
        return stripe

    def decode(self, available: Mapping[int, np.ndarray]) -> list[np.ndarray]:
        """Rebuild the ``k`` data chunks from any ``k`` available chunks.

        Args:
            available: mapping from chunk index (0..n-1) to its payload.
        """
        if len(available) < self.k:
            raise InsufficientChunksError(
                f"need {self.k} chunks to decode, got {len(available)}"
            )
        indices = sorted(available)[: self.k]
        self._check_indices(indices)
        sub = self._generator[indices]
        inverse = gf_inverse(sub, self.field)
        sources = [self.field.as_words(available[i]) for i in indices]
        return [
            self.field.linear_combination(row, sources) for row in inverse
        ]

    # ------------------------------------------------------------------
    # Single-chunk repair (the operation PivotRepair pipelines)
    # ------------------------------------------------------------------
    def repair_coefficients(
        self, lost_index: int, helper_indices: Sequence[int]
    ) -> dict[int, int]:
        """Coefficients expressing a lost chunk over ``k`` helper chunks.

        Returns a dict mapping each helper chunk index to the field
        coefficient it must multiply its chunk by, such that the XOR of all
        the products equals the lost chunk.
        """
        helpers = list(helper_indices)
        if len(helpers) != self.k:
            raise CodingError(
                f"single-chunk repair needs exactly k={self.k} helpers, "
                f"got {len(helpers)}"
            )
        if len(set(helpers)) != self.k:
            raise CodingError(f"duplicate helper indices: {helpers}")
        self._check_indices(helpers + [lost_index])
        if lost_index in helpers:
            raise CodingError(f"lost chunk {lost_index} cannot be a helper")
        sub = self._generator[helpers]
        inverse = gf_inverse(sub, self.field)
        # Row of the decode matrix re-encoded to the lost chunk's row:
        # lost = G[lost] @ data = G[lost] @ inv(G[helpers]) @ helper_chunks.
        coeff_row = gf_matmul(
            self._generator[lost_index].reshape(1, -1), inverse, self.field
        )[0]
        return {h: int(c) for h, c in zip(helpers, coeff_row)}

    def _check_indices(self, indices: Sequence[int]) -> None:
        for index in indices:
            if not 0 <= index < self.n:
                raise CodingError(
                    f"chunk index {index} outside stripe of width {self.n}"
                )
