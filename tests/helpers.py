"""Shared test utilities."""

import itertools
import math
import random

from tilegb.homology import AbelianGroup, snf
from tilegb.polyring import Polynomial


def random_poly(rng: random.Random, max_degree: int = 8, max_terms: int = 8,
                coeff_bound: int = 50) -> Polynomial:
    terms = {}
    for _ in range(rng.randrange(0, max_terms + 1)):
        i = rng.randrange(0, max_degree + 1)
        j = rng.randrange(0, max_degree + 1 - i)
        c = rng.randint(-coeff_bound, coeff_bound)
        if c:
            terms[(i, j)] = terms.get((i, j), 0) + c
    return Polynomial({m: c for m, c in terms.items() if c})


def random_univariate(rng: random.Random, max_degree: int, coeff_bound: int = 30) -> Polynomial:
    terms = {}
    for m in range(max_degree + 1):
        if rng.random() < 0.4:
            c = rng.randint(-coeff_bound, coeff_bound)
            if c:
                terms[(m, 0)] = c
    return Polynomial(terms)


def brute_minor_gcd(M, k):
    """gcd of all k x k minors, determinants by cofactor expansion."""

    def det(rows, cols):
        if len(rows) == 1:
            return M[rows[0]][cols[0]]
        total = 0
        for idx, c in enumerate(cols):
            sub = det(rows[1:], cols[:idx] + cols[idx + 1:])
            total += (-1) ** idx * M[rows[0]][c] * sub
        return total

    g = 0
    m, n = len(M), len(M[0])
    for rows in itertools.combinations(range(m), k):
        for cols in itertools.combinations(range(n), k):
            g = math.gcd(g, det(list(rows), list(cols)))
    return g


def torus_group(tiles, a, b):
    """Z[Z_a x Z_b]/I as an abelian group: the Smith form of all translates of
    each tile on the a x b torus, cell (i, j) -> column (i mod a) * b + j mod b.
    It is the tile homology group when x^a and y^b are 1 modulo I."""
    rows = []
    for tile in tiles:
        for s in range(a):
            for t in range(b):
                row = [0] * (a * b)
                for i, j in tile:
                    row[(i + s) % a * b + (j + t) % b] += 1
                rows.append(row)
    factors, rank = snf(rows)
    return AbelianGroup(a * b - rank, tuple(f for f in factors if f != 1))
