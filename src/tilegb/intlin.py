"""Internal sparse integer linear algebra: echelon lattices over Z.

Vectors are dicts mapping column index to nonzero value.  An echelon set maps
each pivot column to a vector whose smallest column is that pivot.

A caller that needs to know how each pivot was combined from the inserted
vectors keeps a Combinations log beside the echelon set.  The vectors hold
real columns only, and each elimination step is logged instead.  A node is
a list of (coef, child) steps, where the child is an earlier node id or ~c
for original vector c, and each pivot carries the id of its node.  A vector
that reduces to zero drops its steps.  lattice_express evaluates the nodes
only when the target lies in the lattice, once, in reverse creation order
(back-substitution, as with the transform of a Hermite form).
"""

from __future__ import annotations

from .groebner import xgcd


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
        if piv is None:
            pivots[j] = vec
            if combos is not None:
                combos.node_of[j] = combos.add(steps)
            return j
        a, b = piv[j], vec[j]
        if b % a == 0:
            q = b // a
            axpy(vec, -q, piv)
            if combos is not None:
                steps.append((-q, combos.node_of[j]))
        elif a % b == 0:
            q = a // b
            pivots[j] = vec
            piv, vec = vec, piv
            axpy(vec, -q, piv)
            if combos is not None:
                old = combos.node_of[j]
                combos.node_of[j] = new = combos.add(steps)
                steps = [(1, old), (-q, new)]
        else:
            g, u, v = xgcd(a, b)
            new_piv: dict[int, int] = {}
            axpy(new_piv, u, piv)
            axpy(new_piv, v, vec)
            new_vec: dict[int, int] = {}
            axpy(new_vec, -(b // g), piv)
            axpy(new_vec, a // g, vec)
            pivots[j] = new_piv
            vec = new_vec
            if combos is not None:
                old, cur = combos.node_of[j], combos.add(steps)
                combos.node_of[j] = combos.add([(u, old), (v, cur)])
                steps = [(-(b // g), old), (a // g, cur)]
    return None


def lattice_express(pivots: dict[int, dict[int, int]], combos: Combinations,
                    target: dict[int, int]) -> dict[int, int] | None:
    """Some integer combination ``{original vector: coef}`` of the inserted
    vectors that equals ``target``, or None when the target is not in their
    lattice."""
    vec = dict(target)
    weight = [0] * len(combos.nodes)
    while vec:
        j = min(vec)
        piv = pivots.get(j)
        if piv is None or vec[j] % piv[j] != 0:
            return None
        q = vec[j] // piv[j]
        axpy(vec, -q, piv)
        weight[combos.node_of[j]] = q
    z: dict[int, int] = {}
    for k in range(len(weight) - 1, -1, -1):
        w = weight[k]
        if w:
            for coef, child in combos.nodes[k]:
                if child >= 0:
                    weight[child] += w * coef
                else:
                    z[~child] = z.get(~child, 0) + w * coef
    return {c: v for c, v in z.items() if v}
