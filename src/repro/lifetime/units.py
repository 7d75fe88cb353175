"""Disk / Machine / Rack unit hierarchy for lifetime simulation.

The repair machinery addresses *machines* (the ``node`` ids of
:class:`~repro.ec.stripe.Stripe` placements and the fluid network).  A
lifetime simulation needs two more layers:

* **disks** — the unit that actually loses data.  A disk failure destroys
  every chunk it holds; the machine stays up and its other disks keep
  serving.
* **racks** — the unit that fails *together*.  A rack outage (power,
  top-of-rack switch) takes every machine in the rack offline at once:
  the chunks are intact but unavailable, repairs reading from them stall,
  and the exposure window of concurrent failures stretches — the
  correlated-failure mode that dominates real durability budgets.

:class:`ClusterLayout` is pure topology: machines are assigned to racks
round-robin (matching how the rack-aware planner's
:class:`~repro.core.rack_aware.RackSnapshot` thinks about placement), and
each machine hosts ``disks_per_machine`` disks with globally unique ids.
Chunks land on a disk via a deterministic hash of their stripe and chunk
index, so a placement maps to disks identically in every run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import LifetimeError

__all__ = ["ClusterLayout", "UnitRef"]

#: Unit layers, outermost blast radius first.
KINDS = ("rack", "machine", "disk")


@dataclass(frozen=True, order=True)
class UnitRef:
    """One failable unit: ``kind`` ∈ {"rack", "machine", "disk"} + index."""

    kind: str
    index: int

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise LifetimeError(f"unknown unit kind {self.kind!r}")
        if self.index < 0:
            raise LifetimeError(f"negative unit index {self.index}")

    def __str__(self) -> str:  # "disk:12"
        return f"{self.kind}:{self.index}"


@dataclass(frozen=True)
class ClusterLayout:
    """Static rack → machine → disk topology of a simulated cluster."""

    machines: int
    racks: int = 1
    disks_per_machine: int = 2

    def __post_init__(self) -> None:
        if self.machines < 1:
            raise LifetimeError("need at least one machine")
        if not 1 <= self.racks <= self.machines:
            raise LifetimeError(
                f"rack count {self.racks} must be in [1, {self.machines}]"
            )
        if self.disks_per_machine < 1:
            raise LifetimeError("need at least one disk per machine")

    # ------------------------------------------------------------------
    # Containment
    # ------------------------------------------------------------------
    @property
    def disks(self) -> int:
        return self.machines * self.disks_per_machine

    def machines_in_rack(self, rack: int) -> list[int]:
        if not 0 <= rack < self.racks:
            raise LifetimeError(f"rack {rack} outside [0, {self.racks})")
        return [m for m in range(self.machines) if m % self.racks == rack]

    def machine_of_disk(self, disk: int) -> int:
        if not 0 <= disk < self.disks:
            raise LifetimeError(f"disk {disk} outside [0, {self.disks})")
        return disk // self.disks_per_machine

    def disks_of_machine(self, machine: int) -> list[int]:
        self._check_machine(machine)
        first = machine * self.disks_per_machine
        return list(range(first, first + self.disks_per_machine))

    def disks_under(self, unit: UnitRef) -> list[int]:
        """Every disk an outage of ``unit`` takes offline, index-ordered."""
        if unit.kind == "disk":
            self.machine_of_disk(unit.index)  # the bounds check
            return [unit.index]
        if unit.kind == "machine":
            return self.disks_of_machine(unit.index)
        return [
            disk
            for machine in self.machines_in_rack(unit.index)
            for disk in self.disks_of_machine(machine)
        ]

    def disk_for_chunk(
        self, stripe_id: int, chunk_index: int, machine: int
    ) -> int:
        """Deterministic disk hosting one chunk on ``machine``.

        A multiplicative hash spreads a machine's chunks evenly over its
        disks without any RNG, so the disk placement is a pure function
        of the stripe placement.
        """
        self._check_machine(machine)
        slot = (stripe_id * 2654435761 + chunk_index * 40503) % (
            self.disks_per_machine
        )
        return machine * self.disks_per_machine + slot

    def units(self, kind: str) -> list[UnitRef]:
        """Every unit of one kind, index-ordered."""
        counts = {
            "rack": self.racks,
            "machine": self.machines,
            "disk": self.disks,
        }
        if kind not in counts:
            raise LifetimeError(f"unknown unit kind {kind!r}")
        return [UnitRef(kind, index) for index in range(counts[kind])]

    def _check_machine(self, machine: int) -> None:
        if not 0 <= machine < self.machines:
            raise LifetimeError(
                f"machine {machine} outside [0, {self.machines})"
            )
