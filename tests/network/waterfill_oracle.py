"""Test-only oracle: the numpy waterfill kernel the engine dropped.

``waterfill`` (water-level progressive filling over a CSR usage matrix)
and its dict-facing wrapper ``vectorized_max_min_allocate``, as they
stood in ``repro.network.engine`` while ``IncrementalEngine._solve`` had
a third, numpy tier for components above 256 entries — kept verbatim as
an independent formulation of the allocator.  The kernel was never
wrong, it lost: bit-identical rates, slower than the column-indexed
Python tier on every component the tree builds
(``docs/fluid_engine.md``, "What was removed and what would bring it
back").  The engine is therefore checked three ways with ``==``: the
reference loop (``fairness.max_min_allocate``), this formulation, and
``_solve_small`` through the real engine.  It shares only
``SimulationError`` with the package; a benchmark row that wants numpy
back in the engine re-measures against this file first.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

import numpy as np

from repro.exceptions import SimulationError


def waterfill(
    indptr: np.ndarray,
    indices: np.ndarray,
    coeffs: np.ndarray,
    capacity: np.ndarray,
    caps: np.ndarray,
) -> np.ndarray:
    """Water-level progressive filling over a CSR usage matrix.

    Task ``i`` consumes columns ``indices[indptr[i]:indptr[i+1]]`` with
    coefficients ``coeffs[indptr[i]:indptr[i+1]]`` per unit of rate.
    ``capacity`` holds one capacity per column; ``caps`` one rate ceiling
    per task (``inf`` = uncapped).  Returns one rate per task.

    Bit-identical to :func:`repro.network.fairness.max_min_allocate` on
    the same instance: every round computes the same saturation levels
    with the same operations, freezes the same exact-equality tie group,
    and advances the same per-column accumulators.
    """
    n = len(indptr) - 1
    m = len(capacity)
    rates = np.zeros(n)
    if n == 0:
        return rates
    entry_rows = np.repeat(np.arange(n), np.diff(indptr))
    positive = coeffs > 0
    has_usage = np.bincount(
        entry_rows, weights=positive, minlength=n
    ) > 0
    active = has_usage & (caps > 0)
    live = active[entry_rows] & positive
    e_rows = entry_rows[live]
    e_cols = indices[live]
    e_coeffs = coeffs[live]
    # Exact: coefficients are integer-valued edge counts, so these sums
    # (and every later freeze_sum) are order-independent and match the
    # reference loop's sequential Python sums bit for bit.
    active_coeff = np.bincount(e_cols, weights=e_coeffs, minlength=m)
    frozen_used = np.zeros(m)
    rounds = 0
    while active.any():
        rounds += 1
        if rounds > n + 1:
            raise SimulationError("progressive filling failed to converge")
        col_live = active_coeff > 0
        levels = np.full(m, np.inf)
        np.divide(
            capacity - frozen_used, active_coeff,
            out=levels, where=col_live,
        )
        level = levels[col_live].min() if col_live.any() else np.inf
        active_caps = caps[active]
        if active_caps.size:
            cap_min = active_caps.min()
            if cap_min < level:
                level = cap_min
        level = float(level)
        if not math.isfinite(level):
            raise SimulationError("unconstrained task in max-min allocation")
        # Freeze the exact-equality tie group: tasks whose cap is the
        # level, plus every active user of a saturated column.
        newly = active & (caps == level)
        col_sat = col_live & (levels == level)
        if col_sat.any():
            hit = np.bincount(
                e_rows[col_sat[e_cols]], minlength=n
            ) > 0
            newly |= active & hit
        if not newly.any():
            raise SimulationError("progressive filling failed to converge")
        assigned = level if level > 0.0 else 0.0
        rates[newly] = assigned
        frozen_entries = newly[e_rows]
        freeze_sum = np.bincount(
            e_cols[frozen_entries],
            weights=e_coeffs[frozen_entries],
            minlength=m,
        )
        frozen_used += freeze_sum * assigned
        active_coeff -= freeze_sum
        active &= ~newly
    return rates


def vectorized_max_min_allocate(
    usages: Sequence[Mapping[object, float]],
    capacities: Mapping[object, float],
    rate_caps: Sequence[float | None] | None = None,
) -> list[float]:
    """Drop-in vectorized equivalent of ``fairness.max_min_allocate``.

    Same signature, same validation errors, bit-identical rates.  Used by
    the property/differential tests and the allocator micro-benchmark;
    the simulator goes through :class:`IncrementalEngine` instead, which
    amortizes the array construction across events.
    """
    for usage in usages:
        for resource, coeff in usage.items():
            if coeff < 0:
                raise SimulationError(
                    f"negative usage coefficient on {resource}"
                )
    if rate_caps is None:
        rate_caps = [None] * len(usages)
    if len(rate_caps) != len(usages):
        raise SimulationError("rate_caps length must match usages")
    for cap in rate_caps:
        if cap is not None and cap < 0:
            raise SimulationError("rate caps cannot be negative")
    col_of: dict = {}
    indptr = [0]
    indices: list[int] = []
    coeffs: list[float] = []
    for usage in usages:
        for resource, coeff in usage.items():
            col = col_of.setdefault(resource, len(col_of))
            indices.append(col)
            coeffs.append(float(coeff))
        indptr.append(len(indices))
    capacity = np.empty(len(col_of))
    for resource, col in col_of.items():
        capacity[col] = capacities.get(resource, 0.0)
    caps = np.array(
        [math.inf if cap is None else float(cap) for cap in rate_caps]
    )
    rates = waterfill(
        np.asarray(indptr),
        np.asarray(indices, dtype=np.intp),
        np.asarray(coeffs),
        capacity,
        caps,
    )
    return [float(rate) for rate in rates]
