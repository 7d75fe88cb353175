"""A stripe's slice ledger against a slice-by-slice model.

``_Ledger`` (``repro.repair.jobmaster``) is the one place that knows
which slices of a stripe are verified, on which requestor, and from
which flight.  The state machine below drives it through random
launches, progress, failures, pauses and requestor changes, and keeps a brute-force model beside it: a map from
each slice to the ``(requestor, flight)`` that last verified it, plus a
counter of how often the verified slices changed holder.  Four rules
are checked against that model:

* the ranges a finished repair hands out tile ``[0, slices)``, all on
  the final requestor, each slice named after the flight that verified
  it;
* a resume never starts past the contiguous prefix of slices its
  requestor holds;
* a slice its requestor already holds is sent to it again only after
  the verified slices changed holder since;
* a flight that delivers nothing (or a launch, or a read error) changes
  no provenance.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.exceptions import ClusterError
from repro.repair.jobmaster import _Ledger, slice_ranges
from repro.repair.pipeline import ExecutionConfig, verified_watermark

REQUESTORS = (0, 1, 2)
DEPTHS = st.integers(min_value=1, max_value=4)
#: How much further a flight got since it was last looked at.
STEPS = st.floats(min_value=0.0, max_value=1.0)


@dataclass(frozen=True)
class Tree:
    levels: int

    def depth(self) -> int:
        return self.levels


@dataclass(eq=False)
class Plan:
    """What the ledger reads of a plan; compared by identity."""

    requestor: int
    tree: Tree
    planning_seconds: float = 0.0


@dataclass(eq=False)
class Flight:
    """What the ledger reads of a flight, plus how far it has come."""

    plan: Plan
    start_slice: int
    fraction: float = 0.0


def provenance(ledger: _Ledger) -> tuple:
    return ledger.watermark, ledger.holder, list(ledger.segments)


class LedgerModel(RuleBasedStateMachine):
    @initialize(slices=st.integers(min_value=1, max_value=12))
    def start(self, slices):
        self.slices = slices
        self.config = ExecutionConfig(chunk_size=slices, slice_size=1)
        self.new_stripe()

    def new_stripe(self):
        self.ledger = _Ledger()
        #: slice -> (requestor, flight, epoch) of its last verification.
        self.owner: dict[int, tuple[int, Flight, int]] = {}
        #: Requestor of the last verified slices; ``epoch`` counts its
        #: changes.
        self.holder = None
        self.epoch = 0
        self.pinned = None
        self.flight: Flight | None = None

    def verify(self, flight: Flight, first: int, end: int) -> None:
        requestor = flight.plan.requestor
        if requestor != self.holder:
            self.holder, self.epoch = requestor, self.epoch + 1
        for index in range(first, end):
            self.owner[index] = (requestor, flight, self.epoch)

    def reached(self, flight: Flight) -> int:
        return verified_watermark(
            self.config, flight.plan.tree.depth(), flight.start_slice,
            flight.fraction,
        )

    # -- Rules ---------------------------------------------------------
    @precondition(lambda self: self.flight is None and not self.owner)
    @rule(requestor=st.sampled_from(REQUESTORS))
    def pin(self, requestor):
        self.ledger.pin(requestor)
        self.pinned = requestor

    @precondition(lambda self: self.flight is None)
    @rule(requestor=st.sampled_from(REQUESTORS), depth=DEPTHS)
    def launch(self, requestor, depth):
        start = self.ledger.resume_slice(requestor)
        flight = Flight(Plan(requestor, Tree(depth)), start)
        before = provenance(self.ledger)
        self.ledger.launch(flight.plan, self.config)
        assert provenance(self.ledger) == before
        self.flight = flight

    @precondition(lambda self: self.flight is not None)
    @rule(how=st.sampled_from(["pause", "fail", "readerr"]), step=STEPS)
    def stop(self, how, step):
        """A pause or failure checkpoints the flight and cancels it; a
        read error trusts nothing it delivered."""
        flight, self.flight = self.flight, None
        flight.fraction = min(1.0, flight.fraction + step)
        before = provenance(self.ledger)
        if how != "readerr":
            verified = self.reached(flight)
            got = self.ledger.progress(flight, flight.fraction)
            if verified > flight.start_slice:
                assert got == verified
                self.verify(flight, flight.start_slice, verified)
            else:
                assert got is None
                assert provenance(self.ledger) == before
        if how != "pause":
            after = provenance(self.ledger)
            self.ledger.fail()
            assert provenance(self.ledger) == after
        if how == "readerr":
            assert provenance(self.ledger) == before

    @precondition(lambda self: self.flight is not None)
    @rule()
    def finish(self):
        flight = self.flight
        self.verify(flight, flight.start_slice, self.slices)
        ranges = slice_ranges(self.ledger.finish(flight), self.slices, 0)
        for plan, first, end in ranges:
            assert plan.requestor == flight.plan.requestor
            for index in range(first, end):
                assert self.owner[index][1].plan is plan
        self.new_stripe()

    # -- Invariants ----------------------------------------------------
    @invariant()
    def resumes_match_the_model(self):
        for requestor in REQUESTORS:
            resume = self.ledger.resume_slice(requestor)
            # Never past the requestor's contiguous verified prefix ...
            assert all(
                self.owner.get(index, (None,))[0] == requestor
                for index in range(resume)
            )
            # ... and nothing it holds is sent again unless the holder
            # changed since the slice was verified.
            for index in range(resume, self.slices):
                held, _, epoch = self.owner.get(index, (None, None, 0))
                if held == requestor:
                    assert epoch < self.epoch

    @invariant()
    def requestor_follows_pin_then_holder(self):
        ledger, nobody = self.ledger, set()
        if self.pinned is not None:
            assert ledger.requestor_for(nobody, nobody) == self.pinned
            with pytest.raises(ClusterError):
                ledger.requestor_for({self.pinned}, nobody)
            return
        assert ledger.requestor_for(nobody, nobody) == self.holder
        if self.holder is not None:
            assert ledger.requestor_for({self.holder}, nobody) is None
            assert ledger.requestor_for(nobody, {self.holder}) is None


def test_ledger_matches_model():
    run_state_machine_as_test(LedgerModel, settings=settings(deadline=None))


@pytest.mark.slow
def test_ledger_matches_model_deep():
    run_state_machine_as_test(
        LedgerModel, settings=settings(max_examples=2000, deadline=None)
    )
