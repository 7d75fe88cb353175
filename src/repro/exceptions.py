"""Exception hierarchy for the repro library.

All library errors derive from :class:`ReproError` so callers can catch a
single base class at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class GaloisFieldError(ReproError):
    """Invalid operation in GF(2^w) arithmetic (e.g., division by zero)."""


class SingularMatrixError(ReproError):
    """A matrix required to be invertible over GF(2^w) is singular."""


class CodingError(ReproError):
    """Erasure-coding parameter or decode failure."""


class InsufficientChunksError(CodingError):
    """Fewer than ``k`` available chunks were supplied for a decode."""


class PlanningError(ReproError):
    """A repair planner could not produce a valid plan."""


class SimulationError(ReproError):
    """The network simulator was driven into an invalid state."""


class TraceError(ReproError):
    """A bandwidth trace, or a saved event or sample trace, is malformed
    or out of range."""


class ClusterError(ReproError):
    """Invalid cluster operation (placement, failure injection, repair)."""


class FaultError(ReproError):
    """A fault-injection plan or spec is malformed or inconsistent."""


class LoadGenError(ReproError):
    """A foreground load profile or engine was misconfigured."""


class LifetimeError(ReproError):
    """A cluster-lifetime simulation was misconfigured."""
