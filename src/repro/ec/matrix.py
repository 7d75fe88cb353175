"""Matrix algebra over GF(2^w).

Provides the matrix operations Reed-Solomon coding needs: multiplication,
Gauss-Jordan inversion, and Vandermonde construction.  Matrices are plain
``numpy.ndarray`` of the field's word dtype; every function takes the
:class:`~repro.ec.field.GaloisField` to operate in (GF(2^8) by default).
"""

from __future__ import annotations

import numpy as np

from repro.ec.field import GF256, GaloisField
from repro.exceptions import SingularMatrixError


def gf_matmul(
    a: np.ndarray, b: np.ndarray, field: GaloisField = GF256
) -> np.ndarray:
    """Multiply two GF(2^w) matrices (or matrix x vector)."""
    a = np.atleast_2d(field.as_words(a))
    b_in = field.as_words(b)
    b2 = b_in.reshape(-1, 1) if b_in.ndim == 1 else b_in
    if a.shape[1] != b2.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} x {b2.shape}")
    out = np.zeros((a.shape[0], b2.shape[1]), dtype=field.dtype)
    # XOR-accumulate one rank-1 product per inner index; vectorised per row.
    for i in range(a.shape[1]):
        out ^= field.mul(a[:, i : i + 1], b2[i : i + 1, :])
    if b_in.ndim == 1:
        return out[:, 0]
    return out


def gf_identity(size: int, field: GaloisField = GF256) -> np.ndarray:
    """Identity matrix over GF(2^w)."""
    return np.eye(size, dtype=field.dtype)


def gf_inverse(
    matrix: np.ndarray, field: GaloisField = GF256
) -> np.ndarray:
    """Invert a square GF(2^w) matrix by Gauss-Jordan elimination.

    Raises:
        SingularMatrixError: if the matrix is not invertible.
    """
    matrix = field.as_words(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    size = matrix.shape[0]
    work = matrix.copy()
    inverse = gf_identity(size, field)
    for col in range(size):
        # Find a pivot row at or below the diagonal.
        pivot_rows = np.nonzero(work[col:, col])[0]
        if pivot_rows.size == 0:
            raise SingularMatrixError(f"matrix is singular at column {col}")
        pivot = col + int(pivot_rows[0])
        if pivot != col:
            work[[col, pivot]] = work[[pivot, col]]
            inverse[[col, pivot]] = inverse[[pivot, col]]
        # Normalise the pivot row.
        inv_pivot = field.inv(int(work[col, col]))
        work[col] = field.mul_slice(inv_pivot, work[col])
        inverse[col] = field.mul_slice(inv_pivot, inverse[col])
        # Eliminate the column from every other row.
        for row in range(size):
            if row == col or work[row, col] == 0:
                continue
            factor = int(work[row, col])
            field.addmul(work[row], factor, work[col])
            field.addmul(inverse[row], factor, inverse[col])
    return inverse


def vandermonde(
    rows: int, cols: int, field: GaloisField = GF256
) -> np.ndarray:
    """Vandermonde matrix V[i, j] = alpha_i^j with distinct alpha_i.

    The paper constructs RS encoding coefficients from the Vandermonde
    matrix (Section II-A); we use evaluation points 1..rows so every k x k
    row-submatrix is invertible (distinct evaluation points).
    """
    if rows <= 0 or cols <= 0:
        raise ValueError("vandermonde dimensions must be positive")
    if rows >= field.order:
        raise ValueError(
            f"too many rows for GF(2^{field.w}) evaluation points"
        )
    out = np.zeros((rows, cols), dtype=field.dtype)
    for i in range(rows):
        for j in range(cols):
            out[i, j] = field.pow(i + 1, j)
    return out
