"""Tile homology groups H = Z[x, 1/x, y, 1/y]/I for the ideal I of the
prototiles' Newton polynomials, reduced by Smith normal form: ``basis_group``
reads H off a strong Groebner basis for every tile set, or finds that H is not
finitely generated; ``box_group`` is the group of one box [0, D)^2, which can
differ from H, and ``nbone_homology`` the n-bone closed form.

The Smith form runs on sparse rows with the echelon kernel of ``intlin``:
row and column Hermite eliminations alternate (the second on the transposed
core) until the core is diagonal, so no dense matrix is built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .groebner import GroebnerBasis, buchberger, remainder
from .intlin import echelon_insert, size_reduce
from .oracle import _translates
from .polyring import Polynomial, TermOrder, mono_div, mono_divides
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
        for d, prev in zip(self.invariant_factors, (1, *self.invariant_factors)):
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
            if d % prev != 0:
                raise ValueError("invariant factors must form a divisibility chain")

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
    pivots and size-reduce the remaining core rows against the later pivots.
    The core rows come in ascending pivot order, each with a positive pivot
    and no entry in a unit pivot column (a residue modulo a unit is 0)."""
    pivots: dict[int, dict[int, int]] = {}
    for vec in rows:
        echelon_insert(pivots, dict(vec))
    core_rows = []
    for j in sorted(pivots):
        row = pivots[j]
        if abs(row[j]) != 1:
            size_reduce(pivots, row, j)
            core_rows.append(row if row[j] > 0 else {k: -v for k, v in row.items()})
    return len(pivots), core_rows


def _sparse_invariants(rows) -> tuple[list[int], int]:
    """Invariant factors (including trivial 1s) and rank from sparse relation
    rows: take the echelon core, then run the same pass on the transposed
    core until each core row is its pivot alone, and chain that diagonal."""
    # The relation rows go in from the far end, in descending order of their
    # last column: most then meet no pivot at their first column and install
    # at once, where the ascending order runs long Euclid chains (box_group
    # on 3-bones at D = 128 took 5.9 s that way, and 0.23 s this way).
    rank, core = _echelon_core(sorted(rows, key=lambda row: max(row, default=-1),
                                      reverse=True))
    # Ends: each round's first pivot is the gcd of the previous first core
    # row, so it divides the previous first pivot.  When they are equal, that
    # row and column are cleared (the pivot's own column, inserted first,
    # holds it alone) and stay so; the rounds go on with the rest, and peeled
    # units only shrink the core.  That is why the transposed rows keep
    # ascending column order.
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
    return _sparse_invariants([{j: v for j, v in enumerate(row) if v} for row in M])


def _cokernel(rows, ngens: int) -> AbelianGroup:
    """Z^ngens modulo the span of the sparse relation rows."""
    factors, rank = _sparse_invariants(rows)
    return AbelianGroup(ngens - rank, tuple(f for f in factors if f != 1))


def basis_group(prototiles: list[Region]) -> AbelianGroup | None:
    """H, or None when H is not finitely generated, read off a strong basis of
    I when x and y have periods modulo I (they are then units), and otherwise
    of I + (txy - 1) in Z[x, y, t], as Z[x, y, t]/(txy - 1) is the Laurent
    ring (Cox, Little and O'Shea, ch. 4)."""
    gens = tile_generators(prototiles)
    G = buchberger(gens)
    if None in G.periods:
        lifted = [Polynomial({(i, j, 0): c for (i, j), c in g.terms.items()}, 3) for g in gens]
        txy_minus_1 = Polynomial({(1, 1, 1): 1, (0, 0, 0): -1}, 3)
        G = buchberger(lifted + [txy_minus_1], TermOrder((2, 0, 1)))
    return _read_group(G)


def _read_group(G: GroebnerBasis) -> AbelianGroup | None:
    """R/J for a strong basis G of an ideal J of R = Z[x, y] or Z[x, y, t], or
    None when R/J is not finitely generated.  It is generated by the monomials
    M that no monic leading monomial divides, below each variable's smallest
    monic pure power, with the relation c*m + NF((m / LM g) * tail g) for each
    m in M that some LM g divides, g of least leading coefficient c (their
    gcd, as G is strong).  These are triangular and reduce each element of J
    over M to zero, as its leading term is strongly reducible.  Without a
    monic pure power of a variable v, no f over 1, v, ..., v^k has
    v^(k+1) - f in J, as no leading term of G divides 1*v^(k+1): their classes
    span a strictly ascending chain of subgroups, which a finitely generated
    abelian group cannot hold (Adams and Loustaunau, ch. 4)."""
    lts = G.leading_terms()
    units = [m for m, c in lts if c == 1]
    bounds = [min((u[v] for u in units if u[v] == sum(u)), default=None)
              for v in range(G.nvars)]
    if None in bounds:
        return None
    # Columns in descending term order, so each relation's pivot is its m.
    gens = sorted((m for m in itertools.product(*map(range, bounds))
                   if not any(mono_divides(u, m) for u in units)),
                  key=G.order.key, reverse=True)
    col = {m: k for k, m in enumerate(gens)}
    rows = []
    for m in gens:
        divisors = [(c, g, lm) for g, (lm, c) in zip(G.elements, lts) if mono_divides(lm, m)]
        if not divisors:
            continue
        c, g, lm = min(divisors, key=lambda t: t[0])
        tail = (g - Polynomial({lm: c}, G.nvars)).mul_term(1, mono_div(m, lm))
        row = {col[t]: v for t, v in remainder(tail, G).terms.items()}
        row[col[m]] = c
        rows.append(row)
    return _cokernel(rows, len(gens))


def box_presentation(prototiles: list[Region], box_side: int) -> list[dict[int, int]]:
    """All translates of each prototile fully supported in [0, D)^2, as sparse
    relation rows over the D^2 cell generators (cell (p, q) -> p*D + q)."""
    d = box_side
    for poly in tile_generators(prototiles):
        extent = 1 + max(poly.max_exponent(0), poly.max_exponent(1))
        if extent > d:
            raise ValueError(f"box side {d} too small for a prototile of extent {extent}")
    # p*D + q is the oracle's index of the transposed cell (q, p), and its
    # shifts then run over p outside and q inside, the order of the rows.
    translates, _ = _translates([frozenset((q, p) for p, q in tile) for tile in prototiles],
                                (0, d, 0, d))
    return [column for _, _, column in translates]


def box_group(prototiles: list[Region], box_side: int) -> AbelianGroup:
    """Cokernel of the box presentation: free rank = generators - rank and the
    invariant factors exceeding 1."""
    return _cokernel(box_presentation(prototiles, box_side), box_side * box_side)


def stabilized_group(prototiles: list[Region], d_start: int,
                     d_max: int) -> tuple[AbelianGroup, bool]:
    """Scan box sides d_start..d_max: (the stable group, True) when three
    consecutive box groups agree, and otherwise, as with fewer than three
    sides, (the last group computed, False)."""
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
