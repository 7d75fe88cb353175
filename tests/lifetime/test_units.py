"""Tests for the rack / machine / disk unit hierarchy."""

import pytest

from repro.exceptions import LifetimeError
from repro.lifetime.units import ClusterLayout, UnitRef


class TestUnitRef:
    def test_str(self):
        assert str(UnitRef("disk", 12)) == "disk:12"

    def test_rejects_unknown_kind(self):
        with pytest.raises(LifetimeError):
            UnitRef("chassis", 0)

    def test_rejects_negative_index(self):
        with pytest.raises(LifetimeError):
            UnitRef("disk", -1)

    def test_orderable(self):
        assert UnitRef("disk", 1) < UnitRef("disk", 2)
        assert UnitRef("disk", 1) < UnitRef("machine", 0)


class TestClusterLayout:
    def test_containment_round_trips(self):
        layout = ClusterLayout(machines=8, racks=3, disks_per_machine=2)
        assert layout.disks == 16
        for machine in range(layout.machines):
            rack = machine % layout.racks
            assert machine in layout.machines_in_rack(rack)
            for disk in layout.disks_of_machine(machine):
                assert layout.machine_of_disk(disk) == machine

    def test_racks_partition_machines(self):
        layout = ClusterLayout(machines=10, racks=4)
        seen = sorted(
            machine
            for rack in range(layout.racks)
            for machine in layout.machines_in_rack(rack)
        )
        assert seen == list(range(10))

    def test_disk_for_chunk_deterministic_and_local(self):
        layout = ClusterLayout(machines=6, racks=2, disks_per_machine=4)
        disk = layout.disk_for_chunk(17, 3, machine=5)
        assert disk == layout.disk_for_chunk(17, 3, machine=5)
        assert layout.machine_of_disk(disk) == 5

    def test_disk_for_chunk_spreads_over_disks(self):
        layout = ClusterLayout(machines=1, racks=1, disks_per_machine=4)
        used = {
            layout.disk_for_chunk(stripe, chunk, machine=0)
            for stripe in range(32)
            for chunk in range(6)
        }
        assert used == set(range(4))

    def test_disks_under_each_kind_of_unit(self):
        # machines 1 and 3 sit in rack 1 of 2 (round-robin)
        layout = ClusterLayout(machines=4, racks=2, disks_per_machine=2)
        assert layout.disks_under(UnitRef("disk", 5)) == [5]
        assert layout.disks_under(UnitRef("machine", 2)) == [4, 5]
        assert layout.disks_under(UnitRef("rack", 1)) == [2, 3, 6, 7]

    def test_units_enumeration(self):
        layout = ClusterLayout(machines=4, racks=2, disks_per_machine=3)
        assert len(layout.units("rack")) == 2
        assert len(layout.units("machine")) == 4
        assert len(layout.units("disk")) == 12
        with pytest.raises(LifetimeError):
            layout.units("chassis")

    def test_rejects_more_racks_than_machines(self):
        with pytest.raises(LifetimeError):
            ClusterLayout(machines=2, racks=3)
