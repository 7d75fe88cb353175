"""Test-only oracle: a trace-driven network that steps every sample.

A trace keeps only the instants where its value changes, so a network
built by ``WorkloadTrace.to_network`` stops the event loop only where
some link's capacity moves.  :class:`GridStepNetwork` is the network
that construction replaced: every trace holds the whole raw sample grid
and every raw sample, so the merged breakpoints are the grid and
``next_change_after`` bisects every sample instant.  A run on it must
give the same bits as on ``to_network``, in as many steps or more.
"""

from __future__ import annotations

import numpy as np

from repro.network.bandwidth import BandwidthTrace, NodeBandwidth, sample_grid
from repro.network.topology import StarNetwork
from repro.traces.workload import WorkloadTrace


class GridStepNetwork(StarNetwork):
    """``trace.to_network(floor)`` as it was: one epoch per raw sample."""

    def __init__(self, trace: WorkloadTrace, floor: float = 0.0):
        grid = list(sample_grid(trace.sample_count, trace.interval))

        def rows(available):
            # The raw samples, repeats and all, bypassing the trace
            # constructor that would drop them.
            return [
                BandwidthTrace._checked(grid, row)
                for row in np.clip(available, floor, None).tolist()
            ]

        super().__init__([
            NodeBandwidth(up, down)
            for up, down in zip(
                rows(trace.available_up()), rows(trace.available_down())
            )
        ])
        assert self._breakpoints == grid
