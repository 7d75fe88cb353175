"""Test-only oracle: the full trace scan ``FluidSimulator`` replaced.

``FullRescanSimulator._trace_rate_changes`` is the scan the simulator
ran while the reference allocator was a second solve loop inside it:
after every solve it revisits every live task, in submission order, and
emits ``flow.rate_change`` for each one whose aggregate rate moved by
more than 1e-9 (or that has none recorded yet).  It runs on the
reference engine, so a traced run through it is the event stream of
that simulator.  The package's scan visits only the tasks of the
entities a solve moved (plus those that lost a bulk sibling) and must
emit the same bytes.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import repro.repair.executor as executor
import repro.repair.fullnode as fullnode
from repro.network.simulator import _RATE_TRACE_EXCLUDE, FluidSimulator


class FullRescanSimulator(FluidSimulator):
    """The reference engine with a scan that revisits every live task."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, engine="reference", **kwargs)

    def _trace_rate_changes(self, moved) -> None:
        self._trace_dirty_tasks.clear()
        entities = self._entities
        task_rates = self._task_rates
        handles = self._handles
        for task_id, entity_ids in self._task_entities.items():
            if not entity_ids:
                continue
            if handles[task_id].kind in _RATE_TRACE_EXCLUDE:
                continue
            rate = 0.0
            for entity_id in entity_ids:
                rate += entities[entity_id].rate
            previous = task_rates.get(task_id)
            if previous is not None and abs(rate - previous) <= 1e-9:
                continue
            task_rates[task_id] = rate
            self.tracer.instant(
                "flow.rate_change",
                t=self.now,
                track=self._task_tracks.get(task_id, "sim"),
                parent_id=self._task_spans.get(task_id),
                label=handles[task_id].label,
                task=task_id,
                rate=rate,
            )


@contextmanager
def full_rescan():
    """Build the repair drivers' simulators as :class:`FullRescanSimulator`."""
    with mock.patch.object(
        executor, "FluidSimulator", FullRescanSimulator
    ), mock.patch.object(fullnode, "FluidSimulator", FullRescanSimulator):
        yield
