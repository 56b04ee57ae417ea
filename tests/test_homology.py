"""Smith normal form and tile homology groups."""

import math
import random

import pytest

from helpers import brute_minor_gcd
from tilegb.bones import bone_system, nbone_prototiles
from tilegb.homology import (AbelianGroup, box_group, box_presentation,
                             nbone_homology, snf, stabilized_group)


@pytest.mark.parametrize("M,factors,rank", [
    ([[2, 0], [0, 3]], [1, 6], 2),
    ([[0, 0], [0, 0]], [], 0),
    ([[2, 4], [6, 8]], [2, 4], 2),
    ([[1]], [1], 1),
    ([[4]], [4], 1),
    ([[2, 3]], [1], 1),
    ([[6, 0], [0, 10]], [2, 30], 2),
    ([[2, 1], [0, 2]], [1, 4], 2),
    ([[4, 6]], [2], 1),
])
def test_snf_examples(M, factors, rank):
    assert snf(M) == (factors, rank)


def test_snf_divisibility_and_minor_gcds():
    rng = random.Random(12)
    for _ in range(40):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        M = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        factors, rank = snf(M)
        assert len(factors) == rank
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0
        # d1 * ... * dk equals the gcd of all k x k minors
        prod = 1
        for k, d in enumerate(factors, 1):
            prod *= d
            assert prod == brute_minor_gcd(M, k), (M, factors)


def test_snf_scaled_matrices_match_minor_gcds():
    # Scaling keeps every pivot non-unit, so the cores have several rows and
    # are finished on their transposes.
    rng = random.Random(14)
    for _ in range(40):
        m, n = rng.randrange(1, 6), rng.randrange(1, 6)
        scale = rng.choice([2, 3, 6])
        M = [[scale * rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        factors, rank = snf(M)
        for k in range(1, min(m, n) + 1):
            expected = math.prod(factors[:k]) if k <= rank else 0
            assert brute_minor_gcd(M, k) == expected, (M, factors)


def test_snf_invariant_under_permutations():
    rng = random.Random(13)
    for _ in range(25):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        base = snf(M)
        rows = list(range(m))
        cols = list(range(n))
        rng.shuffle(rows)
        rng.shuffle(cols)
        P = [[M[i][j] for j in cols] for i in rows]
        assert snf(P) == base


def test_abelian_group_formatting():
    assert str(AbelianGroup(2, (3,))) == "Z^2 + Z/3"
    assert str(AbelianGroup(0, (2,))) == "Z/2"
    assert str(AbelianGroup(1)) == "Z"
    assert str(AbelianGroup(0)) == "0"
    assert str(AbelianGroup(3, (2, 4))) == "Z^3 + Z/2 + Z/4"


def test_abelian_group_validation():
    with pytest.raises(ValueError):
        AbelianGroup(-1)
    with pytest.raises(ValueError):
        AbelianGroup(0, (1,))
    with pytest.raises(ValueError):
        AbelianGroup(0, (4, 6))


def test_box_presentation_rows():
    rows = box_presentation([frozenset({(0, 0), (1, 0)})], 3)
    # shifts: a in 0..1, b in 0..2
    assert len(rows) == 6
    for row in rows:
        assert sorted(row.values()) == [1, 1]


def test_box_group_matches_dense_snf():
    # box_group reduces the sparse rows directly; snf on the densified rows
    # is the reference.
    rng = random.Random(303)
    for _ in range(40):
        tiles = [frozenset((rng.randrange(3), rng.randrange(3))
                           for _ in range(rng.randrange(1, 5)))
                 for _ in range(rng.randrange(1, 3))]
        d = rng.randrange(3, 7)
        rows = box_presentation(tiles, d)
        factors, rank = snf([[row.get(c, 0) for c in range(d * d)] for row in rows])
        assert box_group(tiles, d) == AbelianGroup(d * d - rank,
                                                   tuple(f for f in factors if f != 1))


def test_box_group_single_cell():
    assert box_group([frozenset({(0, 0)})], 3) == AbelianGroup(0)


def test_box_group_rejects_small_box():
    with pytest.raises(ValueError):
        box_group(nbone_prototiles(3), 2)


def test_box_group_rejects_empty_prototile():
    with pytest.raises(ValueError, match="empty prototile"):
        box_group([frozenset()], 3)
    with pytest.raises(ValueError, match="empty prototile"):
        box_group([frozenset({(0, 0), (1, 0)}), frozenset()], 3)


@pytest.mark.parametrize("n,d", [(2, 4), (2, 5), (3, 6), (3, 7)])
def test_box_group_bones_small_boxes(n, d):
    assert box_group(nbone_prototiles(n), d) == nbone_homology(n)


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_box_group_stabilizes_to_closed_form(n):
    group, stabilized = stabilized_group(nbone_prototiles(n), 3 * n, 3 * n + 2)
    assert stabilized
    assert group == nbone_homology(n)


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_box_group_matches_closed_form_on_window(n):
    for d in range(3 * n, 3 * n + 4):
        assert box_group(nbone_prototiles(n), d) == nbone_homology(n), d


def test_stabilized_group_insufficient_data():
    group, stabilized = stabilized_group(nbone_prototiles(2), 6, 7)
    assert not stabilized
    assert group == nbone_homology(2)
    with pytest.raises(ValueError):
        stabilized_group(nbone_prototiles(2), 7, 6)


def test_stabilized_group_single_cell():
    group, stabilized = stabilized_group([frozenset({(0, 0)})], 2, 4)
    assert stabilized and group == AbelianGroup(0)


@pytest.mark.parametrize("n,expected", [
    (2, AbelianGroup(0, (2,))),
    (3, AbelianGroup(2, (3,))),
    (4, AbelianGroup(6, (4,))),
    (5, AbelianGroup(12, (5,))),
])
def test_nbone_homology_closed_form(n, expected):
    assert nbone_homology(n) == expected


def test_nbone_homology_rejects_small_n():
    with pytest.raises(ValueError):
        nbone_homology(1)


@pytest.mark.parametrize("n", range(2, 7))
def test_staircase_count_matches_group(n):
    # Monomials under the unit-coefficient leading monomials number
    # (n-1)(n-2) + 1, and exactly one of them (x^(n-2)) is killed to order n
    # by the coefficient-n element: free rank + one torsion generator.
    system_basis = bone_system(n).basis
    unit_lms = [m for m, c in system_basis.leading_terms() if abs(c) == 1]
    torsion_lms = [m for m, c in system_basis.leading_terms() if abs(c) == n]
    bound = 2 * n
    staircase = []
    for p in range(bound):
        for q in range(bound):
            if not any(a <= p and b <= q for a, b in unit_lms):
                staircase.append((p, q))
    assert len(staircase) == (n - 1) * (n - 2) + 1
    torsion = [m for m in staircase
               if any(a <= m[0] and b <= m[1] for a, b in torsion_lms)]
    assert torsion == [(n - 2, 0)]
