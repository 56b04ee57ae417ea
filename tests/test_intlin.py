"""The echelon kernel: every new pivot is size-reduced, so entries stay small."""

import pytest

from helpers import pinned_families
from tilegb.homology import box_presentation
from tilegb.intlin import Combinations, echelon_insert
from tilegb.oracle import placement_system


def tri_region(m):
    return frozenset((i, j) for i in range(m) for j in range(m - i))


def box_rows():
    return box_presentation(pinned_families()[15], 16), None


def placement_columns():
    # The oracle's columns in its insertion order (sparsest-leading first),
    # logged as the oracle logs them.
    system = placement_system(tri_region(3), pinned_families()[9], 2)
    columns = [{} for _ in system.placements]
    for i, row in enumerate(system.matrix):
        for c, v in row.items():
            columns[c][i] = v
    columns.sort(key=min)
    return columns, Combinations()


@pytest.mark.parametrize("vectors", [box_rows, placement_columns],
                         ids=["box-family-15-D16", "placements-family-9-T3"])
def test_pivot_entries_stay_bounded(vectors):
    # Without size reduction the largest entries reach 7,656 bits on the box
    # rows and 444,613 bits on the placement columns.
    rows, combos = vectors()
    pivots = {}
    for c, vec in enumerate(rows):
        echelon_insert(pivots, dict(vec), combos, None if combos is None else [(1, ~c)])
    assert max(abs(v).bit_length() for row in pivots.values() for v in row.values()) < 64
