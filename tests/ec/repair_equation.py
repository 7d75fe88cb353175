"""The single-chunk repair equation in one call, for the codec's tests.

The library rebuilds a lost chunk only through a repair plan: each
helper scales its chunk by ``RSCode.repair_coefficients`` and the tree
XORs the partial results.  These tests apply the same coefficients to
whole chunks at once.
"""

from __future__ import annotations


def repair(code, lost_index, helper_chunks):
    """The lost chunk from exactly ``k`` helper chunks (index -> payload)."""
    coefficients = code.repair_coefficients(lost_index, sorted(helper_chunks))
    return code.field.linear_combination(
        coefficients.values(),
        [helper_chunks[index] for index in coefficients],
    )
