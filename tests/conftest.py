"""Fixtures shared across the test packages."""

from contextlib import contextmanager

import pytest

import repro.network.simulator as simulator


@pytest.fixture
def reference_engine(monkeypatch):
    """``with reference_engine():`` runs every simulator built inside
    the block without ``engine=`` on the reference allocator.

    It patches ``DEFAULT_ENGINE`` where ``FluidSimulator`` reads it,
    ``repro.network.simulator``; the ``repro.network`` re-export is a
    copy the simulator never looks at.  A differential that uses it
    should also assert that the reference really ran (its solve count
    differs from the fast engine's), or a patch that misses compares
    fast with fast.
    """

    @contextmanager
    def reference():
        with monkeypatch.context() as patch:
            patch.setattr(simulator, "DEFAULT_ENGINE", "reference")
            yield

    return reference
