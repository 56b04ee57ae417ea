"""Internal sparse integer linear algebra: echelon lattices over Z.

Vectors are dicts mapping column index to nonzero value.  An echelon set maps
each pivot column to a vector whose smallest column is that pivot.  Every new
pivot is size-reduced first by one routine, ``size_reduce``, which the Smith
form's core pass also uses, so entries stay small (Kannan & Bachem, 1979).

A caller that needs to know how each pivot was combined from the inserted
vectors keeps a Combinations log beside the echelon set.  The vectors hold
real columns only, and each elimination step is logged instead.  A node is
a list of (coef, child) steps, where the child is an earlier node id or ~c
for original vector c, and each pivot carries the id of its node.  A vector
that reduces to zero drops its steps.  lattice_express evaluates the nodes
only when the target lies in the lattice, once, in reverse creation order
(back-substitution, as with the transform of a Hermite form).  Completion
logs its basis elements the same way, and ``evaluate`` serves both.  Without
a log, lattice_express only tests membership.
"""

from __future__ import annotations

import heapq

from .polyring import coeff_divmod


class Combinations:
    """How each pivot of one echelon set was combined from the original
    vectors: ``nodes[k]`` holds the (coef, child) steps of node k, and
    ``node_of[j]`` is the node of pivot column j."""

    def __init__(self) -> None:
        self.nodes: list[list[tuple[int, int]]] = []
        self.node_of: dict[int, int] = {}

    def add(self, steps: list[tuple[int, int]]) -> int:
        self.nodes.append(steps)
        return len(self.nodes) - 1

    def evaluate(self, weight: list) -> dict[int, object]:
        """``{original c: coefficient}`` of the combination with ``weight[k]``
        on node k, by one back-substitution in reverse creation order, which
        uses up ``weight``.  Weights and coefficients are ints or polynomials;
        a coefficient may also be a callable that makes one, which is called
        only when its node has weight."""
        z: dict[int, object] = {}
        for k in range(len(weight) - 1, -1, -1):
            w = weight[k]
            if w:
                for coef, child in self.nodes[k]:
                    if callable(coef):
                        coef = coef()
                    if child >= 0:
                        weight[child] += w * coef
                    else:
                        z[~child] = z.get(~child, 0) + w * coef
        return z


def axpy(dst: dict[int, int], c: int, src: dict[int, int]) -> None:
    """dst += c * src, dropping entries that cancel."""
    if not c:
        return
    for k, v in src.items():
        w = dst.get(k, 0) + c * v
        if w:
            dst[k] = w
        else:
            del dst[k]


def size_reduce(pivots: dict[int, dict[int, int]], vec: dict[int, int], lead: int,
                combos: Combinations | None = None,
                steps: list[tuple[int, int]] | None = None) -> None:
    """Reduce each entry of ``vec`` past column ``lead`` to the balanced
    residue of the pivot in its column, in ascending column order.

    A step adds entries only past the column it reduces, and they join the
    walk.  With ``combos``, each step appends ``(-q, node)`` to ``steps``.
    """
    todo = [c for c in vec if c > lead and c in pivots]
    heapq.heapify(todo)
    while todo:
        c = heapq.heappop(todo)
        piv = pivots[c]
        q = coeff_divmod(vec.get(c, 0), piv[c], "minabs")[0]
        if q:
            for k in piv:
                if k not in vec and k in pivots:
                    heapq.heappush(todo, k)
            axpy(vec, -q, piv)
            if combos is not None:
                steps.append((-q, combos.node_of[c]))


def echelon_insert(pivots: dict[int, dict[int, int]], vec: dict[int, int],
                   combos: Combinations | None = None,
                   steps: list[tuple[int, int]] | None = None) -> int | None:
    """Insert a vector into the echelon set, returning its pivot column, or
    None when it reduces to a dependence.

    With ``combos``, ``steps`` says how ``vec`` is made (``[(1, ~c)]`` for
    original vector c); every operation is appended to it, and a vector that
    becomes a pivot turns its steps into a node.
    """
    while vec:
        j = min(vec)
        piv = pivots.get(j)
        if piv is not None:
            # Exact when the pivot divides (the common, cheap case); otherwise
            # to the balanced residue, which then replaces the pivot.
            q, r = divmod(vec[j], piv[j])
            if r:
                q, r = coeff_divmod(vec[j], piv[j], "minabs")
            if q:
                axpy(vec, -q, piv)
                if combos is not None:
                    steps.append((-q, combos.node_of[j]))
            if not r:
                continue
        # The one place a vector becomes a pivot: size-reduced, then logged.
        size_reduce(pivots, vec, j, combos, steps)
        pivots[j] = vec
        if combos is not None:
            old = combos.node_of.get(j)
            combos.node_of[j] = combos.add(steps)
        if piv is None:
            return j
        # A remainder replaced the pivot, and the old pivot goes on against
        # it: one step of Euclid's algorithm on column j.
        vec, steps = piv, None if combos is None else [(1, old)]
    return None


def lattice_express(pivots: dict[int, dict[int, int]], combos: Combinations | None,
                    target: dict[int, int]) -> dict[int, int] | None:
    """Some integer combination ``{original vector: coef}`` of the inserted
    vectors that equals ``target``, or None when the target is not in their
    lattice.  With ``combos`` None it only tests membership: ``{}`` for a
    member, None otherwise."""
    vec = dict(target)
    weight = [0] * len(combos.nodes) if combos is not None else None
    while vec:
        j = min(vec)
        piv = pivots.get(j)
        if piv is None or vec[j] % piv[j] != 0:
            return None
        q = vec[j] // piv[j]
        axpy(vec, -q, piv)
        if weight is not None:
            weight[combos.node_of[j]] = q
    if combos is None:
        return {}
    return {c: v for c, v in combos.evaluate(weight).items() if v}
