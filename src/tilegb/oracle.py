"""Brute-force signed-tiling decisions on bounded boxes.

Independent of the Groebner route: a signed tiling restricted to a box is an
integer solution of A z = t, where columns of A are indicators of prototile
placements inside the box and t is the region indicator.  Solved exactly by
Hermite-style column elimination; the column combinations are logged as
steps and back-substituted into z only when a solution exists.  A failure
only rules out tilings confined to the box, so it is reported as
``no_solution_in_box`` rather than a definitive no.
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


def _solve_rows(rows: list[dict[int, int]], ncols: int, t: list[int]) -> list[int] | None:
    """Some integer solution z (length ``ncols``) of the sparse-row system
    rows z = t, or None when none exists.

    Columns are inserted into an echelon lattice with their combinations
    logged as steps; t is then expressed over the lattice, and z is built
    from the log only when it is.
    """
    columns: list[dict[int, int]] = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for c, v in row.items():
            columns[c][i] = v
    # Insert sparsest-leading first: distinct leading rows insert without work.
    order = sorted(range(ncols), key=lambda c: (min(columns[c], default=len(rows)), c))
    pivots: dict[int, dict[int, int]] = {}
    combos = Combinations()
    for c in order:
        echelon_insert(pivots, columns[c], combos, [(1, ~c)])
    combo = lattice_express(pivots, combos, {i: v for i, v in enumerate(t) if v})
    if combo is None:
        return None
    z = [0] * ncols
    for c, v in combo.items():
        z[c] = v
    return z


def hnf_solve(A: list[list[int]], t: list[int]) -> list[int] | None:
    """Some integer solution of the dense system A z = t, or None when none
    exists."""
    m = len(A)
    if len(t) != m:
        raise ValueError(f"dimension mismatch: {m} rows vs {len(t)} targets")
    k = len(A[0]) if m else 0
    if any(len(row) != k for row in A):
        raise ValueError("ragged matrix")
    return _solve_rows([{j: v for j, v in enumerate(row) if v} for row in A], k, t)


def placement_system(region: Region, prototiles: list[Region], margin: int) -> PlacementSystem:
    """Box = bounding box of the region padded by ``margin``; placements are
    all prototile translates fully inside the box."""
    tile_generators(prototiles)  # validates; the shifts use raw tile coordinates
    if margin < 0:
        raise ValueError("negative margin")
    if region:
        xs = [i for i, _ in region]
        ys = [j for _, j in region]
        x0, x1 = min(xs) - margin, max(xs) + margin + 1
        y0, y1 = min(ys) - margin, max(ys) + margin + 1
    else:
        x0 = y0 = 0
        x1 = y1 = 1
    width = x1 - x0
    cell_index = {}
    for j in range(y0, y1):
        for i in range(x0, x1):
            cell_index[(i, j)] = (j - y0) * width + (i - x0)
    ncells = width * (y1 - y0)
    matrix: list[dict[int, int]] = [{} for _ in range(ncells)]
    placements = []
    for tidx, tile in enumerate(prototiles):
        tis = [i for i, _ in tile]
        tjs = [j for _, j in tile]
        for b in range(y0 - min(tjs), y1 - max(tjs)):
            for a in range(x0 - min(tis), x1 - max(tis)):
                for i, j in tile:
                    matrix[cell_index[(i + a, j + b)]][len(placements)] = 1
                placements.append(Placement(tidx, (a, b), 1))
    target = [0] * ncells
    for cell in region:
        target[cell_index[cell]] = 1
    return PlacementSystem((x0, x1, y0, y1), placements, matrix, target)


def oracle_decide(region: Region, prototiles: list[Region], margin: int) -> OracleDecision:
    """Search for a signed tiling confined to the padded bounding box.

    A yes is sound (the certificate is verified cell by cell); a
    ``no_solution_in_box`` is inconclusive evidence, since placements outside
    the box might still make a tiling possible.
    """
    system = placement_system(region, prototiles, margin)
    z = _solve_rows(system.matrix, len(system.placements), system.target)
    if z is None:
        return OracleDecision(False)
    cert = verified_certificate(prototiles, region, ((pl.tile, pl.shift, mult)
                                                     for mult, pl in zip(z, system.placements)))
    return OracleDecision(True, z, cert)
