"""Test-only oracle: the log/exp bulk multiply the table kernel replaced.

``exp[log[data] + log[c]]`` with a masked store for zeros — the routine
``GaloisField.mul_slice`` ran before the 16-bit table gather, kept
verbatim as the independent reference (it builds its own tables from the
field's polynomial and shares no code with ``repro.ec.field``).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def _tables(w: int, poly: int) -> tuple[np.ndarray, np.ndarray]:
    size = 1 << w
    dtype = np.uint8 if w == 8 else np.uint16
    exp = np.zeros(2 * size, dtype=dtype)
    log = np.zeros(size, dtype=np.int64)
    x = 1
    for i in range(size - 1):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & size:
            x ^= poly
    exp[size - 1 : 2 * (size - 1)] = exp[: size - 1]
    return exp, log


def logexp_mul_slice(field, coefficient: int, data: np.ndarray) -> np.ndarray:
    """``coefficient * data`` over ``field`` by discrete logarithms."""
    assert data.dtype == field.dtype
    if coefficient == 0:
        return np.zeros_like(data)
    exp, log = _tables(field.w, field.poly)
    out = exp[log[data] + int(log[coefficient])]
    out[data == 0] = 0
    return out


def logexp_linear_combination(field, coefficients, buffers) -> np.ndarray:
    """``XOR_i coefficients[i] * buffers[i]`` by the oracle multiply."""
    acc = np.zeros_like(buffers[0])
    for coefficient, data in zip(coefficients, buffers):
        acc ^= logexp_mul_slice(field, int(coefficient), data)
    return acc
