"""The echelon kernel: every new pivot is size-reduced, so entries stay small."""

import pytest

from helpers import pinned_families
from tilegb.homology import box_presentation
from tilegb.intlin import Combinations, echelon_insert
from tilegb.oracle import _box_columns


def tri_region(m):
    return frozenset((i, j) for i in range(m) for j in range(m - i))


def box_rows():
    return box_presentation(pinned_families()[15], 16), None


def family_9_columns():
    # The columns oracle_decide solves on for family 9 on T(3) at margin 2,
    # sparsest-leading first: the stable order of their first rows.
    _, translates, firsts, _ = _box_columns(tri_region(3), pinned_families()[9], 2)
    return [translates[c][2] for c in sorted(range(len(firsts)), key=firsts.__getitem__)]


def placement_columns():
    # In the oracle's logged insertion order, logged as the oracle logs them.
    return family_9_columns(), Combinations()


def far_end_columns():
    # In the order of the oracle's membership pass, from the far end
    # (descending first row, then descending column index), with no log.
    return family_9_columns()[::-1], None


@pytest.mark.parametrize("vectors", [box_rows, placement_columns, far_end_columns],
                         ids=["box-family-15-D16", "placements-family-9-T3",
                              "far-end-placements-family-9-T3"])
def test_pivot_entries_stay_bounded(vectors):
    # Without size reduction the largest entries reach 7,656 bits on the box
    # rows and 444,613 bits on the placement columns.
    rows, combos = vectors()
    pivots = {}
    for c, vec in enumerate(rows):
        echelon_insert(pivots, dict(vec), combos, None if combos is None else [(1, ~c)])
    assert max(abs(v).bit_length() for row in pivots.values() for v in row.values()) < 64
