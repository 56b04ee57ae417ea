"""Brute-force signed-tiling decisions on bounded boxes.

Independent of the Groebner route: a signed tiling restricted to a box is an
integer solution of A z = t for the region indicator t.  The columns of A,
the indicators of the prototile translates inside the box, are built once per
box and solved on by Hermite-style elimination: membership in the requested
box, then z in the smallest box padded by 0, 1, 2, 4, ... that solves.  Only
the nonzero entries of z become placements.  ``placement_system`` is the row
view of the same columns; ``hnf_solve`` turns its dense rows into columns
once.  A failure only rules out tilings confined to the box, so it is
``no_solution_in_box``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intlin import Combinations, echelon_insert, lattice_express
from .tiling import Certificate, Placement, Region, tile_generators, verified_certificate


@dataclass
class PlacementSystem:
    """The linear system of one box: ``matrix`` has one sparse row per box
    cell, ``{placement index: 1}`` for the placements covering it;
    ``target`` is the region indicator."""

    box: tuple[int, int, int, int]  # x0, x1, y0, y1 with half-open ranges
    placements: list[Placement]
    matrix: list[dict[int, int]]
    target: list[int]


@dataclass
class OracleDecision:
    """Outcome of the box search; a yes carries the solution vector and its
    independently verified certificate, one weighted placement per nonzero
    entry."""

    solvable: bool
    solution: list[int] | None = None
    certificate: Certificate | None = None

    @property
    def status(self) -> str:
        return "yes" if self.solvable else "no_solution_in_box"


def _in_lattice(columns: list[dict[int, int]], firsts: list[int],
                target: dict[int, int]) -> bool:
    """Whether ``target`` is an integer combination of the columns, where
    ``firsts[c]`` is the first row of column c: tested with no log on copies
    inserted from the far end (descending first row, then index), whose
    Euclid chains are far shorter."""
    pivots: dict[int, dict[int, int]] = {}
    for c in reversed(sorted(range(len(columns)), key=firsts.__getitem__)):
        echelon_insert(pivots, dict(columns[c]))
    return lattice_express(pivots, None, target) is not None


def _witness(columns: list[dict[int, int]], firsts: list[int],
             target: dict[int, int]) -> list[int] | None:
    """Some integer z with sum_c z[c] * columns[c] = target, or None.  The
    columns go in sparsest-leading first, which keeps z small, with their
    combinations logged; that consumes them."""
    pivots: dict[int, dict[int, int]] = {}
    combos = Combinations()
    for c in sorted(range(len(columns)), key=firsts.__getitem__):
        echelon_insert(pivots, columns[c], combos, [(1, ~c)])
    combo = lattice_express(pivots, combos, target)
    return None if combo is None else [combo.get(c, 0) for c in range(len(columns))]


def hnf_solve(A: list[list[int]], t: list[int]) -> list[int] | None:
    """Some integer solution of the dense system A z = t, or None if none exists."""
    m = len(A)
    if len(t) != m:
        raise ValueError(f"dimension mismatch: {m} rows vs {len(t)} targets")
    k = len(A[0]) if m else 0
    if any(len(row) != k for row in A):
        raise ValueError("ragged matrix")
    columns = [{i: row[c] for i, row in enumerate(A) if row[c]} for c in range(k)]
    firsts = [min(col, default=m) for col in columns]
    target = {i: v for i, v in enumerate(t) if v}
    return _witness(columns, firsts, target) if _in_lattice(columns, firsts, target) else None


def _translates(prototiles: list[Region], box: tuple[int, int, int, int]):
    """Every prototile translate fully inside the half-open box (x0, x1, y0,
    y1), tile by tile and row by row of shifts, as ``(tile, shift, column)``;
    the column is ``{cell: 1}`` over the sorted indices (j - y0) * width +
    (i - x0) of its cells (i, j).  Also the list of each one's first cell."""
    x0, x1, y0, y1 = box
    width = x1 - x0
    translates, firsts = [], []
    for tidx, tile in enumerate(prototiles):
        base = sorted((j - y0) * width + (i - x0) for i, j in tile)
        tis = [i for i, _ in tile]
        tjs = [j for _, j in tile]
        for b in range(y0 - min(tjs), y1 - max(tjs)):
            for a in range(x0 - min(tis), x1 - max(tis)):
                s = b * width + a
                translates.append((tidx, (a, b), dict.fromkeys(map(s.__add__, base), 1)))
                firsts.append(base[0] + s)
    return translates, firsts


def _validate(prototiles: list[Region], margin: int) -> None:
    tile_generators(prototiles)  # validates; the shifts use raw tile coordinates
    if margin < 0:
        raise ValueError("negative margin")


def _box_columns(region: Region, prototiles: list[Region], margin: int):
    """The box (the region's bounding box padded by ``margin``), its
    ``_translates`` and the target ``{cell: 1}`` over the region's cells."""
    box = (0, 1, 0, 1)
    if region:
        xs = [i for i, _ in region]
        ys = [j for _, j in region]
        box = (min(xs) - margin, max(xs) + margin + 1, min(ys) - margin, max(ys) + margin + 1)
    x0, x1, y0, _ = box
    target = {(j - y0) * (x1 - x0) + (i - x0): 1 for i, j in region}
    return box, *_translates(prototiles, box), target


def placement_system(region: Region, prototiles: list[Region], margin: int) -> PlacementSystem:
    """Box = bounding box of the region padded by ``margin``; placements are
    all prototile translates fully inside the box, and the matrix is the row
    view of the columns the oracle solves on."""
    _validate(prototiles, margin)
    box, translates, _, target = _box_columns(region, prototiles, margin)
    ncells = (box[1] - box[0]) * (box[3] - box[2])
    matrix: list[dict[int, int]] = [{} for _ in range(ncells)]
    for c, (_, _, column) in enumerate(translates):
        for i in column:
            matrix[i][c] = 1
    return PlacementSystem(box, [Placement(tidx, shift, 1) for tidx, shift, _ in translates],
                           matrix, [int(i in target) for i in range(ncells)])


def oracle_decide(region: Region, prototiles: list[Region], margin: int) -> OracleDecision:
    """Search for a signed tiling confined to the padded bounding box.

    A yes is sound (the certificate is verified cell by cell); a
    ``no_solution_in_box`` is inconclusive evidence, since placements outside
    the box might still make a tiling possible.
    """
    _validate(prototiles, margin)
    _, translates, firsts, target = _box_columns(region, prototiles, margin)
    columns = [column for _, _, column in translates]
    if not _in_lattice(columns, firsts, target):
        return OracleDecision(False)
    # A tiling inside a smaller padded box is one inside this box too, and
    # the logged pass is far cheaper there.
    pad = 0
    while pad < margin:
        _, small, small_firsts, small_target = _box_columns(region, prototiles, pad)
        z = _witness([column for _, _, column in small], small_firsts, small_target)
        if z is not None:
            break
        pad = max(1, 2 * pad)
    else:
        small, z = translates, _witness(columns, firsts, target)
    # Shifts are absolute, so z moves onto this box's columns by (tile, shift).
    weights = {(tidx, shift): v for (tidx, shift, _), v in zip(small, z) if v}
    cert = verified_certificate(prototiles, region, ((t, s, v) for (t, s), v in weights.items()))
    return OracleDecision(True, [weights.get((t, s), 0) for t, s, _ in translates], cert)
