"""``IncrementalEngine`` with every certificate checked against a solve.

After each certified arrival or departure, :class:`CheckedEngine` copies
the engine's state, gathers the perturbed component with ``_closure``
and runs ``_solve_small`` over it on the copy, and asserts that every
rate in the component is ``==`` the certified one.  The copy's solve is
also held to the round-monotonicity premise (``certifying`` stays true
on it).  :data:`COUNTS` sums what was checked over every engine built,
so a test can assert that both certificate kinds fired.

``tests/network/test_engine_certificates.py`` drives it; install it
into a simulator with ``monkeypatch.setitem(simulator._ENGINES,
"fast", CheckedEngine)``.
"""

import copy
from collections import Counter
from types import SimpleNamespace

from repro.network.engine import IncrementalEngine

#: Certificates checked, by kind, over every :class:`CheckedEngine`.
COUNTS: Counter = Counter()


class CheckedEngine(IncrementalEngine):
    """Runs the full solve behind every certificate and compares."""

    def _solve_copy(self, dirty) -> dict[int, float]:
        """Rates a closure + ``_solve_small`` from ``dirty`` assigns, on
        a copy: this engine's entities and state are left as they
        were."""
        clone = copy.copy(self)
        clone._entities = {
            entity_id: SimpleNamespace(
                usage=entity.usage, max_rate=entity.max_rate,
                rate=entity.rate,
            )
            for entity_id, entity in self._entities.items()
        }
        clone._dirty = set(dirty)
        clone.last_changed = []
        component = sorted(clone._closure())
        clone._solve_small(component)
        assert clone.certifying, "a round level did not rise"
        return {
            entity_id: clone._entities[entity_id].rate
            for entity_id in component
        }

    def _arrival_rate(self, entity_id):
        rate = super()._arrival_rate(entity_id)
        if rate is not None:
            solved = self._solve_copy({entity_id})
            assert solved.pop(entity_id) == rate
            assert solved == {
                other: self._entities[other].rate for other in solved
            }
            COUNTS["arrival"] += 1
        return rate

    def _departure_is_quiet(self, rate, usage):
        quiet = super()._departure_is_quiet(rate, usage)
        if quiet:
            neighbours = set().union(*(self._users[col] for col in usage))
            solved = self._solve_copy(neighbours)
            assert solved == {
                other: self._entities[other].rate for other in solved
            }
            COUNTS["departure"] += 1
        return quiet
