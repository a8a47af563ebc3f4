"""Exact planar predicates."""

import pytest

from flipcells.geometry import winding_number

SQUARE = [(0, 0), (4, 0), (4, 4), (0, 4)]


class TestWindingNumber:
    def test_inside_outside_and_orientation(self):
        # SQUARE runs counterclockwise
        assert winding_number(SQUARE, (1, 1)) == -1
        assert winding_number(SQUARE[::-1], (1, 1)) == 1
        assert winding_number(SQUARE, (5, 1)) == 0
        assert winding_number(SQUARE, (1, 5)) == 0

    def test_twice_around(self):
        assert winding_number(SQUARE[::-1] * 2, (2, 2)) == 2

    @pytest.mark.parametrize("z", [(0, 0), (4, 4), (2, 0), (4, 1), (0, 3), (2, 4)])
    def test_point_on_the_walk_is_rejected(self, z):
        with pytest.raises(ValueError):
            winding_number(SQUARE, z)

    def test_stalled_step_and_back_and_forth_walk(self):
        # a repeated vertex adds nothing; a walk that retraces itself
        # encloses nothing, yet its segments are still on the walk
        walk = [(0, 0), (4, 0), (4, 0), (4, 4), (0, 4)]
        assert winding_number(walk, (1, 1)) == -1
        assert winding_number([(0, 0), (3, 6), (0, 0)], (9, 1)) == 0
        with pytest.raises(ValueError):
            winding_number([(0, 0), (3, 6), (0, 0)], (1, 2))
