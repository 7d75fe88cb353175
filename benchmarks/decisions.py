"""What the ``bench_decision_*.py`` files share (ROADMAP item 23).

A decision bench compares two arms of one scenario over seeds and reads
its rule off the per-seed paired change of one metric: its median and
its worst seed.  The storm decisions also share a second placement
next to ``place_stripes``: the rack-capped sampler of ROADMAP item
18(a)'s prototype.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from statistics import median

from repro.controlplane.storm import StormConfig
from repro.ec.stripe import Stripe


def rack_capped(count, code, node_count, rng, start_id=0):
    """``place_stripes``' uniform draw, redrawn until no rack of the
    storm's topology holds more than ``n - k`` chunks of the stripe."""
    per_rack = StormConfig.nodes_per_rack
    stripes = []
    for i in range(count):
        while True:
            nodes = [
                int(x) for x in rng.choice(node_count, size=code.n,
                                           replace=False)
            ]
            racks = Counter(node // per_rack for node in nodes)
            if max(racks.values()) <= code.n - code.k:
                break
        stripes.append(Stripe(start_id + i, code, nodes))
    return stripes


@dataclass(frozen=True)
class Paired:
    """Per-seed relative change of one metric, ``arm / base - 1``."""

    changes: tuple[float, ...]

    @property
    def median(self) -> float:
        return median(self.changes)

    @property
    def worst(self) -> float:
        return max(self.changes)

    def holds(self, gain: float, worst: float) -> bool:
        """The rule: a median change at or below ``gain`` with no seed
        worse than ``worst``."""
        return self.median <= gain and self.worst <= worst


def paired(base: Sequence[float], arm: Sequence[float]) -> Paired:
    """Pair two arms' per-seed values of one metric."""
    return Paired(tuple(a / b - 1.0 for b, a in zip(base, arm)))
