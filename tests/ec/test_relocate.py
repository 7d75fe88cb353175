"""Tests for stripe placement relocation after repair."""

import pytest

from repro.ec.reed_solomon import RSCode
from repro.ec.stripe import Stripe
from repro.exceptions import CodingError


def stripe():
    return Stripe(0, RSCode(6, 4), [0, 1, 2, 3, 4, 5])


class TestRelocate:
    def test_moves_chunk_to_new_node(self):
        s = stripe()
        s.relocate(2, 9)
        assert s.placement[2] == 9
        assert s.chunk_on_node(9) == 2
        assert s.chunk_on_node(2) is None

    def test_relocate_to_current_holder_is_noop(self):
        s = stripe()
        s.relocate(2, 2)
        assert s.placement[2] == 2

    def test_duplicate_holder_rejected(self):
        s = stripe()
        with pytest.raises(CodingError):
            s.relocate(2, 3)  # node 3 already holds chunk 3

    def test_bad_index_rejected(self):
        with pytest.raises(CodingError):
            stripe().relocate(9, 10)

    def test_surviving_nodes_reflect_relocation(self):
        s = stripe()
        s.relocate(0, 7)
        assert 7 in s.placement
        assert 0 not in s.placement
