"""Shared test utilities."""

import itertools
import json
import math
import random
from pathlib import Path

from tilegb.bones import bone_system, nbone_prototiles, triangle
from tilegb.groebner import buchberger, reduce
from tilegb.homology import AbelianGroup, snf
from tilegb.polyring import Polynomial
from tilegb.tiling import (TilingDecision, _lifted_weights, newton_polynomial,
                           normalize_region, tile_generators, tile_reach,
                           verified_certificate)

PINNED = Path(__file__).resolve().parent.parent / "perfbench" / "pinned.json"


def pinned_families():
    """The 21 rotation-closed 3- and 4-cell polyhex tile sets of the benchmark."""
    return [[frozenset(map(tuple, tile)) for tile in family["tiles"]]
            for family in json.loads(PINNED.read_text())["families"]]


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


def poly_with_terms(rng: random.Random, count: int, nvars: int = 2,
                    coeff_bound: int = 3) -> Polynomial:
    """A random polynomial of exactly ``count`` terms.  Each exponent is
    below about (3 * count) ** (1 / nvars), so products of two such
    polynomials share many monomials and cancel."""
    spread = max(2, math.ceil((3 * count) ** (1 / nvars)))
    terms = {}
    while len(terms) < count:
        mono = tuple(rng.randrange(spread) for _ in range(nvars))
        terms[mono] = rng.choice([c for c in range(-coeff_bound, coeff_bound + 1) if c])
    return Polynomial(terms, nvars)


def schoolbook_product(f: Polynomial, g: Polynomial | int) -> Polynomial:
    """f * g by the plain double loop, one exponent tuple per pair of terms:
    the reference for the packed product."""
    if isinstance(g, int):
        g = Polynomial.constant(g, f.nvars)
    data = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            c = data.get(m, 0) + c1 * c2
            if c:
                data[m] = c
            else:
                del data[m]
    return Polynomial(data, f.nvars)


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


def periods_by_definition(G):
    """Each variable's period by definition: the smallest a in 1..2*maxdeg+2
    with x^a - 1 reducing to zero modulo G, or None; one division per a."""
    bound = 2 * max(g.degree() for g in G.elements) + 2
    found = []
    for var in range(G.nvars):
        for a in range(1, bound + 1):
            power = tuple(a if i == var else 0 for i in range(G.nvars))
            if reduce(Polynomial({power: 1, (0,) * G.nvars: -1}), G).remainder.is_zero():
                found.append(a)
                break
        else:
            found.append(None)
    return tuple(found)


def lifted_rows(G):
    """Row i writes element i of a completed basis over its generators: the
    lift of the i-th unit vector."""
    k = len(G.elements)
    return [G.lift([Polynomial.constant(int(s == i), G.nvars) for s in range(k)])
            for i in range(k)]


def decide_by_full_division(region, prototiles, max_rounds=8):
    """The signed-tiling decision computed the long way: one completion
    under the default minabs convention, as decide completes, its
    element rows lifted from unit vectors, then in each round t a full
    division, with quotients, of (xy)^(t*D) * f_region (round 0 alone when
    both variables are tame).  A zero remainder's cofactors are the forward
    sum of quotient times row."""
    gens = tile_generators(prototiles)
    G = buchberger(gens)
    d = tile_reach(prototiles)
    decisive = all(G.periods[var] is not None or all(g.max_exponent(var) == 0 for g in gens)
                   for var in range(2))
    region_norm, (ri, rj) = normalize_region(region)
    f_region = newton_polynomial(region_norm)
    offsets = [normalize_region(t)[1] for t in prototiles]
    for t in range(1 if decisive else max_rounds + 1):
        res = reduce(f_region.mul_term(1, (t * d, t * d)), G)
        if res.remainder.is_zero():
            cof = [Polynomial.zero() for _ in prototiles]
            for q, row in zip(res.quotients, lifted_rows(G)):
                cof = [c + q * rc for c, rc in zip(cof, row)]
            return TilingDecision("yes", verified_certificate(
                prototiles, region,
                ((k, (a + oi - t * d - ri, b + oj - t * d - rj), c)
                 for k, (cf, (oi, oj)) in enumerate(zip(cof, offsets))
                 for (a, b), c in sorted(cf.terms.items()))))
    return TilingDecision("no" if decisive else "inconclusive")


def nbone_certificate_by_full_division(m, n):
    """The n-bone certificate of T(m) computed the long way: all of T(m)
    divided by the explicit basis, its quotients lifted through the
    cofactor rows."""
    basis = bone_system(n).basis
    t = triangle(m)
    res = reduce(t, basis)
    assert res.remainder.is_zero()
    return verified_certificate(nbone_prototiles(n), frozenset(t.terms),
                                _lifted_weights(basis, res.quotients, [(0, 0)] * 3))
