"""Tile homology groups: abelian-group presentations on finite boxes reduced
by Smith normal form, with a stabilization scan and the n-bone closed form.

The group of a prototile set is the cokernel of all tile translates fully
supported in a box [0, D)^2, i.e. the box approximation of the direct limit
of Z[x, y]/I under multiplication maps.

The Smith form runs on sparse rows with the echelon kernel of ``intlin``:
row and column Hermite eliminations alternate (the second on the transposed
core) until the core is diagonal, so no dense matrix is built.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .intlin import axpy, echelon_insert
from .tiling import Region, newton_polynomial, normalize_region


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group: free rank plus invariant factors
    d1 | d2 | ... (each at least 2)."""

    free_rank: int
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        prev = None
        for d in self.invariant_factors:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
            if prev is not None and d % prev != 0:
                raise ValueError("invariant factors must form a divisibility chain")
            prev = d

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " + ".join(parts) if parts else "0"


def _echelon_core(rows) -> tuple[int, list[dict[int, int]]]:
    """Rank and non-unit core of sparse rows: echelonize, peel off unit
    pivots and reduce the remaining core rows against the later pivots.
    The core rows come in ascending pivot order, each with a positive pivot
    and no entry in a unit pivot column."""
    pivots: dict[int, dict[int, int]] = {}
    for vec in rows:
        echelon_insert(pivots, dict(vec))
    cols = sorted(pivots)
    for j in cols:
        if pivots[j][j] < 0:
            pivots[j] = {k: -v for k, v in pivots[j].items()}
    # Reduce each core row's entries in later pivot columns, walking the
    # row's own entries in ascending column order.  A reducing row has a
    # later pivot, so this pass has not changed it yet; a step adds entries
    # only past the column it reduces, and they join the walk.  Unit pivot
    # rows are peeled off as they stand.
    core_rows = []
    for j2 in cols:
        row = pivots[j2]
        if row[j2] == 1:
            continue
        todo = [c for c in row if c > j2]
        heapq.heapify(todo)
        while todo:
            j = heapq.heappop(todo)
            piv = pivots.get(j)
            if piv is None or j not in row:
                continue
            q = row[j] // piv[j]
            if q:
                for c in piv:
                    if c not in row:
                        heapq.heappush(todo, c)
                axpy(row, -q, piv)
        core_rows.append(row)
    return len(pivots), core_rows


def _sparse_invariants(rows) -> tuple[list[int], int]:
    """Invariant factors (including trivial 1s) and rank from sparse relation
    rows: take the echelon core, then run the same pass on the transposed
    core until each core row is its pivot alone, and chain that diagonal."""
    rank, core = _echelon_core(rows)
    # Ends: each round's first pivot is the gcd of the previous first core
    # row, so it divides the previous first pivot.  When they are equal, that
    # row and column are cleared (the pivot's own column, inserted first,
    # holds it alone) and stay so; the rounds go on with the rest, and peeled
    # units only shrink the core.
    while any(len(row) > 1 for row in core):
        cols = sorted({c for row in core for c in row})
        _, core = _echelon_core([{i: row[c] for i, row in enumerate(core) if c in row}
                                 for c in cols])
    diag = [row[j] for row in core for j in row]
    for i in range(len(diag)):
        for k in range(i + 1, len(diag)):
            diag[i], diag[k] = math.gcd(diag[i], diag[k]), math.lcm(diag[i], diag[k])
    return [1] * (rank - len(diag)) + diag, rank


def snf(M: list[list[int]]) -> tuple[list[int], int]:
    """Smith normal form invariants of an integer matrix: the positive
    diagonal d1 | d2 | ... | dr and the rank r over the rationals."""
    rows = []
    for row in M:
        vec = {j: v for j, v in enumerate(row) if v}
        if vec:
            rows.append(vec)
    return _sparse_invariants(rows)


def box_presentation(prototiles: list[Region], box_side: int) -> list[dict[int, int]]:
    """All translates of each prototile fully supported in [0, D)^2, as sparse
    relation rows over the D^2 cell generators (cell (p, q) -> p*D + q)."""
    if not prototiles:
        raise ValueError("empty prototile list")
    if any(not t for t in prototiles):
        raise ValueError("empty prototile")
    d = box_side
    relations: list[dict[int, int]] = []
    for tile in prototiles:
        norm, _ = normalize_region(tile)
        poly = newton_polynomial(norm)
        w = poly.max_exponent(0)
        h = poly.max_exponent(1)
        if w >= d or h >= d:
            raise ValueError(f"box side {d} too small for a prototile of extent {max(w, h) + 1}")
        base = sorted(poly.terms.items())
        for a in range(d - w):
            for b in range(d - h):
                relations.append({(p + a) * d + (q + b): c for (p, q), c in base})
    return relations


def box_group(prototiles: list[Region], box_side: int) -> AbelianGroup:
    """Cokernel of the box presentation: free rank = generators - rank and the
    invariant factors exceeding 1."""
    factors, rank = _sparse_invariants(box_presentation(prototiles, box_side))
    return AbelianGroup(box_side * box_side - rank,
                        tuple(f for f in factors if f != 1))


def stabilized_group(prototiles: list[Region], d_start: int,
                     d_max: int) -> tuple[AbelianGroup, bool]:
    """Scan box sides d_start..d_max; stabilized when three consecutive box
    groups agree, in which case the stable group is returned.  Fewer than
    three sides, or no agreeing window, reports stabilized=False with the
    last group computed."""
    if d_start > d_max:
        raise ValueError("d_start exceeds d_max")
    groups = [box_group(prototiles, d) for d in range(d_start, d_max + 1)]
    for k in range(len(groups) - 2):
        if groups[k] == groups[k + 1] == groups[k + 2]:
            return groups[k + 2], True
    return groups[-1], False


def nbone_homology(n: int) -> AbelianGroup:
    """Closed form for the n-bone tile homology group:
    free rank (n-1)(n-2) plus one Z/n torsion class."""
    if n < 2:
        raise ValueError(f"bone length must be >= 2, got {n}")
    return AbelianGroup((n - 1) * (n - 2), (n,))
