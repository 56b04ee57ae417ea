"""Smith normal form and tile homology groups."""

import math
import random

import pytest

from helpers import brute_minor_gcd, pinned_families, torus_group
from tilegb.bones import bone_system, nbone_prototiles
from tilegb.groebner import buchberger
from tilegb.homology import (AbelianGroup, _read_group, basis_group, box_group,
                             box_presentation, nbone_homology, snf,
                             stabilized_group)
from tilegb.oracle import placement_system
from tilegb.polyring import Polynomial, TermOrder
from tilegb.tiling import decide_signed_tiling, tile_generators


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


def test_box_presentation_matches_plain_enumeration():
    # Each prototile moved to start at (0, 0), then every shift (a, b) with a
    # outside and b inside, as the row {(p + a) * D + (q + b): 1}.
    rng = random.Random(707)
    for _ in range(80):
        tiles = [frozenset((rng.randrange(-2, 3), rng.randrange(-2, 3))
                           for _ in range(rng.randrange(1, 5)))
                 for _ in range(rng.randrange(1, 4))]
        d = rng.randrange(1, 8)
        expected = []
        for tile in tiles:
            p0 = min(p for p, _ in tile)
            q0 = min(q for _, q in tile)
            cells = sorted((p - p0, q - q0) for p, q in tile)
            w = max(p for p, _ in cells)
            h = max(q for _, q in cells)
            if max(w, h) >= d:
                with pytest.raises(ValueError, match=f"box side {d} too small"):
                    box_presentation(tiles, d)
                break
            expected += [[((p + a) * d + (q + b), 1) for p, q in cells]
                         for a in range(d - w) for b in range(d - h)]
        else:
            assert [list(row.items()) for row in box_presentation(tiles, d)] == expected


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


# ---------------------------------------------------------------------------
# basis_group: the group read off a strong basis, checked against the torus
# presentation Z[Z_a x Z_b]/I, which is H when x^a and y^b are 1 in H.

# The pinned families whose H is not finitely generated.
NOT_FINITELY_GENERATED = (5, 9, 15, 16, 19, 20)


def periods(tiles):
    return buchberger(tile_generators(tiles)).periods


def laurent_basis(tiles):
    """A strong basis of I + (txy - 1) in Z[x, y, t], t highest: the basis
    that basis_group reads when x or y has no period modulo I."""
    gens = [Polynomial({(i, j, 0): c for (i, j), c in g.terms.items()}, 3)
            for g in tile_generators(tiles)]
    return buchberger(gens + [Polynomial({(1, 1, 1): 1, (0, 0, 0): -1}, 3)],
                      TermOrder((2, 0, 1)))


def random_tile_sets(seed):
    """Endless seeded draws of one to three tiles of one to five cells in a
    4 x 4 square."""
    rng = random.Random(seed)
    cells = [(i, j) for i in range(4) for j in range(4)]
    while True:
        yield [frozenset(rng.sample(cells, rng.randint(1, 5)))
               for _ in range(rng.randint(1, 3))]


@pytest.mark.parametrize("n", range(2, 9))
def test_basis_group_matches_closed_form(n):
    assert basis_group(nbone_prototiles(n)) == nbone_homology(n)


@pytest.mark.parametrize("n", range(2, 7))
def test_basis_group_matches_torus_on_bones(n):
    tiles = nbone_prototiles(n)
    a, b = periods(tiles)
    assert torus_group(tiles, a, b) == basis_group(tiles)


def test_basis_group_matches_torus_on_pinned_families():
    compared = 0
    for k, tiles in enumerate(pinned_families()):
        a, b = periods(tiles)
        group = basis_group(tiles)
        assert (group is None) == (k in NOT_FINITELY_GENERATED), k
        if a is not None and b is not None and a * b <= 64:
            assert torus_group(tiles, a, b) == group, k
            compared += 1
    assert compared == 9


def test_basis_group_matches_torus_on_random_sets():
    draws = random_tile_sets(1)
    compared = nontrivial = 0
    while compared < 100:
        tiles = next(draws)
        a, b = periods(tiles)
        if a is None or b is None or a * b > 64:
            continue
        group = basis_group(tiles)
        assert torus_group(tiles, a, b) == group, tiles
        compared += 1
        nontrivial += group != AbelianGroup(0)
    assert nontrivial >= 10


def test_basis_group_relation_tails_matter():
    # Generators x, y, 1 with relation rows 2*x + y - 1, 2*y + 2 and 4; the
    # diagonal alone, tails dropped, would give Z/2 + Z/2 + Z/4.
    tiles = [frozenset({(0, 0), (0, 2), (1, 1), (1, 2)}),
             frozenset({(0, 2), (1, 0), (1, 1), (1, 2), (2, 0)}),
             frozenset({(0, 2), (1, 2), (2, 1)})]
    assert periods(tiles) == (6, 2)
    assert basis_group(tiles) == AbelianGroup(0, (4, 4)) == torus_group(tiles, 6, 2)


def test_basis_group_none_when_not_tame():
    assert basis_group([frozenset({(0, 0), (0, 1), (1, 0)})]) is None
    # y occurs in no tile, so it has no period.
    assert basis_group([frozenset({(0, 0), (1, 0)})]) is None


def test_saturated_reading_matches_basis_group_on_tame_sets():
    # The same group read off the two-variable basis and off the saturated
    # one, on the 13 tame pinned families and on 100 random tame sets.
    tame = [tiles for tiles in pinned_families() if None not in periods(tiles)]
    assert len(tame) == 13
    draws = random_tile_sets(5)
    while len(tame) < 113:
        tiles = next(draws)
        if None not in periods(tiles):
            tame.append(tiles)
    for tiles in tame:
        assert _read_group(laurent_basis(tiles)) == basis_group(tiles), tiles


@pytest.mark.parametrize("k", (17, 18))
def test_basis_group_of_pinned_families_without_periods(k):
    # Neither x nor y has a period modulo I, but both have period 7 in H, so
    # the torus presentation on 7 x 7 is H too: an independent route.
    tiles = pinned_families()[k]
    assert periods(tiles) == (None, None)
    assert laurent_basis(tiles).periods[:2] == (7, 7)
    assert basis_group(tiles) == AbelianGroup(0, (2, 2, 2, 4)) == torus_group(tiles, 7, 7)


def test_basis_group_matches_torus_with_periods_in_h():
    # Sets without periods modulo I whose H still has them: the saturated
    # reading against the torus presentation on those periods.
    draws = random_tile_sets(5)
    compared = nontrivial = 0
    for _ in range(500):
        tiles = next(draws)
        if None not in periods(tiles):
            continue
        a, b, _ = laurent_basis(tiles).periods
        if a is not None and b is not None and a * b <= 64:
            group = basis_group(tiles)
            assert group == torus_group(tiles, a, b), tiles
            compared += 1
            nontrivial += group != AbelianGroup(0)
    assert compared >= 10 and nontrivial >= 4


def test_basis_group_single_cell():
    assert basis_group([frozenset({(0, 0)})]) == AbelianGroup(0)


# Every entry point refuses an empty prototile list and empty prototiles with
# the same messages.
@pytest.mark.parametrize("entry", [
    lambda tiles: decide_signed_tiling(frozenset({(0, 0)}), tiles),
    basis_group,
    lambda tiles: box_group(tiles, 3),
    lambda tiles: placement_system(frozenset({(0, 0)}), tiles, 1),
], ids=["decide_signed_tiling", "basis_group", "box_group", "placement_system"])
@pytest.mark.parametrize("tiles,message", [
    ([], "empty prototile list"),
    ([frozenset()], "empty prototile"),
    ([frozenset({(0, 0), (1, 0)}), frozenset()], "empty prototile"),
], ids=["no-tiles", "empty-tile", "second-tile-empty"])
def test_entry_points_refuse_empty_prototiles(entry, tiles, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        entry(tiles)
