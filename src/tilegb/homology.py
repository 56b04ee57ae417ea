"""Tile homology groups: H = Z[x, 1/x, y, 1/y]/I for the ideal I of the
prototiles' Newton polynomials, as abelian groups reduced by Smith normal form.

For a tame prototile set (x^a and y^b are 1 modulo I for some a, b >= 1),
``basis_group`` reads H off a strong Groebner basis of I.  Otherwise H is
approximated by box groups: the cokernel of all tile translates fully
supported in a box [0, D)^2, with a stabilization scan over D.  Box groups
can differ from H (a finite box can add boundary classes), so they are a
fallback.  ``nbone_homology`` is the n-bone closed form.

The Smith form runs on sparse rows with the echelon kernel of ``intlin``:
row and column Hermite eliminations alternate (the second on the transposed
core) until the core is diagonal, so no dense matrix is built.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .groebner import buchberger, remainder
from .intlin import axpy, echelon_insert
from .polyring import Polynomial, mono_div, mono_divides
from .tiling import Region, tile_generators


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


def _cokernel(rows, ngens: int) -> AbelianGroup:
    """Z^ngens modulo the span of the sparse relation rows."""
    factors, rank = _sparse_invariants(rows)
    return AbelianGroup(ngens - rank, tuple(f for f in factors if f != 1))


def basis_group(prototiles: list[Region]) -> AbelianGroup | None:
    """Tile homology group of a tame prototile set from a strong basis G of I,
    or None when some variable has no period modulo I.

    With periods a and b, x and y are units modulo I, so H is Z[x, y]/I, and
    every monomial outside [0, a) x [0, b) is divisible by a monic leading
    monomial.  The generators are the monomials M that no monic leading
    monomial divides.  Each m in M that some leading monomial divides gets
    the relation c*m + NF((m / LM g) * tail g), for the element g of least
    leading coefficient c among those (c is their gcd, as G is strong).  The
    relations are triangular, and every element of I written over M reduces
    to zero by them, since its leading term is strongly reducible; so their
    cokernel is H.
    """
    G = buchberger(tile_generators(prototiles))
    a, b = G.periods
    if a is None or b is None:
        return None
    lts = G.leading_terms()
    units = [m for m, c in lts if c == 1]
    # Columns in descending term order, so each relation's pivot is its m.
    gens = sorted(((i, j) for i in range(a) for j in range(b)
                   if not any(mono_divides(u, (i, j)) for u in units)),
                  key=G.order.key, reverse=True)
    col = {m: k for k, m in enumerate(gens)}
    rows = []
    for m in gens:
        divisors = [(c, g, lm) for g, (lm, c) in zip(G.elements, lts) if mono_divides(lm, m)]
        if not divisors:
            continue
        c, g, lm = min(divisors, key=lambda t: t[0])
        tail = (g - Polynomial({lm: c})).mul_term(1, mono_div(m, lm))
        row = {col[t]: v for t, v in remainder(tail, G).terms.items()}
        row[col[m]] = c
        rows.append(row)
    return _cokernel(rows, len(gens))


def box_presentation(prototiles: list[Region], box_side: int) -> list[dict[int, int]]:
    """All translates of each prototile fully supported in [0, D)^2, as sparse
    relation rows over the D^2 cell generators (cell (p, q) -> p*D + q)."""
    d = box_side
    relations: list[dict[int, int]] = []
    for poly in tile_generators(prototiles):
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
    return _cokernel(box_presentation(prototiles, box_side), box_side * box_side)


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
