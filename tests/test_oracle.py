"""Box-search oracle: exact integer solving and concordance with the theory."""

import copy
import hashlib
import random
import time

import pytest

import tilegb.oracle
import tilegb.tiling
from helpers import brute_minor_gcd, pinned_families
from tilegb.bones import decide_nbone, nbone_prototiles
from tilegb.cli import run
from tilegb.oracle import hnf_solve, oracle_decide, placement_system
from tilegb.tiling import (Placement, certificate_to_text, decide_signed_tiling,
                           region_to_text, tile_reach, tiles_to_text, verify_certificate)


def tri_region(m):
    return frozenset((i, j) for i in range(m) for j in range(m - i))


def matvec(A, z):
    return [sum(a * b for a, b in zip(row, z)) for row in A]


# ---------------------------------------------------------------------------
# hnf_solve

@pytest.mark.parametrize("A,t,solvable", [
    ([[2]], [4], True),
    ([[2]], [3], False),
    ([[1, 1], [0, 2]], [1, 2], True),
    ([[0]], [0], True),
    ([[0]], [1], False),
])
def test_hnf_solve_examples(A, t, solvable):
    z = hnf_solve(A, t)
    if solvable:
        assert z is not None and matvec(A, z) == t
    else:
        assert z is None


def test_hnf_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        hnf_solve([[1, 2]], [1, 2])
    with pytest.raises(ValueError):
        hnf_solve([[1, 2], [1]], [1, 2])


def test_hnf_solve_random_solvable_systems():
    rng = random.Random(17)
    for _ in range(60):
        m, k = rng.randrange(1, 6), rng.randrange(1, 6)
        A = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(m)]
        z = [rng.randint(-4, 4) for _ in range(k)]
        t = matvec(A, z)
        found = hnf_solve(A, t)
        assert found is not None
        assert matvec(A, found) == t


def test_hnf_solve_detects_unsolvable():
    rng = random.Random(18)
    found_unsolvable = 0
    for _ in range(200):
        m, k = rng.randrange(1, 5), rng.randrange(1, 5)
        A = [[2 * rng.randint(-3, 3) for _ in range(k)] for _ in range(m)]
        t = [2 * rng.randint(-5, 5) + 1 for _ in range(m)]  # odd targets
        z = hnf_solve(A, t)
        assert z is None  # even matrix cannot hit odd targets
        found_unsolvable += 1
    assert found_unsolvable == 200


def smith_shape(M):
    """(rank, non-unit invariant factors) of M from the gcds of its minors:
    the k-th invariant factor is g_k / g_(k-1), up to the last nonzero g_k."""
    diag, prev = [], 1
    for k in range(1, min(len(M), len(M[0])) + 1):
        g = brute_minor_gcd(M, k)
        if not g:
            break
        diag.append(g // prev)
        prev = g
    return len(diag), [d for d in diag if d != 1]


def test_hnf_solve_agrees_with_smith_form_of_augmented_matrix():
    # A z = t has an integer solution exactly when A and [A | t] have the same
    # rank and the same invariant factors; the minor gcds decide that without
    # the echelon kernel.  Scaled matrices give unsolvable targets with even
    # entries, which the odd-target test above cannot produce.
    rng = random.Random(606)
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        m, k = rng.randrange(1, 6), rng.randrange(1, 6)
        scale = rng.choice([1, 1, 2, 3, 6])
        A = [[scale * rng.randint(-4, 4) for _ in range(k)] for _ in range(m)]
        if rng.random() < 0.4:
            t = matvec(A, [rng.randint(-3, 3) for _ in range(k)])
        else:
            t = [rng.randint(-9, 9) for _ in range(m)]
        solvable = smith_shape(A) == smith_shape([row + [v] for row, v in zip(A, t)])
        z = hnf_solve(A, t)
        assert (z is not None) == solvable, (A, t)
        if z is not None:
            assert matvec(A, z) == t
        outcomes[solvable] += 1
    assert min(outcomes.values()) >= 60, outcomes


# ---------------------------------------------------------------------------
# placement systems

def test_placement_system_shape():
    system = placement_system(tri_region(2), nbone_prototiles(2), 1)
    x0, x1, y0, y1 = system.box
    assert (x0, y0) == (-1, -1) and (x1, y1) == (3, 3)
    ncells = (x1 - x0) * (y1 - y0)
    assert len(system.matrix) == ncells
    assert len(system.target) == ncells
    assert sum(system.target) == 3
    # every column has exactly |prototile| ones
    for c in range(len(system.placements)):
        assert sum(row.get(c, 0) for row in system.matrix) == 2


def dense_system(region, tiles, margin):
    system = placement_system(region, tiles, margin)
    k = len(system.placements)
    return system, [[row.get(c, 0) for c in range(k)] for row in system.matrix]


def witness_margins(margin):
    """The margins whose boxes the oracle tries in turn for its witness."""
    pad = 0
    while pad < margin:
        yield pad
        pad = max(1, 2 * pad)
    yield margin


def test_oracle_solution_matches_dense_hnf_solve():
    # The oracle solves sparse columns directly; the public dense entry point
    # on the densified systems is the reference.  It must decide the
    # requested box alike, and the oracle's z, which solves the requested
    # box, must be its solution in the box the witness came from.
    rng = random.Random(404)
    for _ in range(60):
        tiles = [frozenset((rng.randrange(3), rng.randrange(3))
                           for _ in range(rng.randrange(1, 5)))
                 for _ in range(rng.randrange(1, 3))]
        region = frozenset((i, j) for i in range(4) for j in range(4)
                           if rng.random() < 0.4)
        margin = rng.randrange(0, 4)
        system, dense = dense_system(region, tiles, margin)
        decision = oracle_decide(region, tiles, margin)
        assert decision.solvable == (hnf_solve(dense, system.target) is not None)
        if not decision.solvable:
            continue
        assert matvec(dense, decision.solution) == system.target
        for pad in witness_margins(margin):
            small, small_dense = dense_system(region, tiles, pad)
            z = hnf_solve(small_dense, small.target)
            if z is not None:
                break
        weights = {(p.tile, p.shift): v for p, v in zip(system.placements, decision.solution)}
        assert [weights[p.tile, p.shift] for p in small.placements] == z
        assert sum(map(abs, decision.solution)) == sum(map(abs, z))


def test_placement_system_rejects_bad_input():
    with pytest.raises(ValueError):
        placement_system(tri_region(2), [], 1)
    with pytest.raises(ValueError):
        placement_system(tri_region(2), [frozenset()], 1)
    with pytest.raises(ValueError):
        placement_system(tri_region(2), nbone_prototiles(2), -1)


# ---------------------------------------------------------------------------
# decisions

def test_oracle_single_cell():
    decision = oracle_decide(frozenset({(0, 0)}), [frozenset({(0, 0)})], 0)
    assert decision.solvable
    assert sum(map(abs, decision.solution)) == 1
    assert verify_certificate(decision.certificate)


def test_oracle_T3_dominoes():
    decision = oracle_decide(tri_region(3), nbone_prototiles(2), 4)
    assert decision.solvable
    assert verify_certificate(decision.certificate)


@pytest.mark.parametrize("margin", range(0, 7))
def test_oracle_T2_dominoes_never_solvable(margin):
    decision = oracle_decide(tri_region(2), nbone_prototiles(2), margin)
    assert not decision.solvable
    assert decision.status == "no_solution_in_box"


def test_oracle_empty_region():
    decision = oracle_decide(frozenset(), nbone_prototiles(2), 1)
    assert decision.solvable
    assert verify_certificate(decision.certificate)


@pytest.mark.parametrize("n", (2, 3))
def test_oracle_concordance_with_residue_rule(n):
    tiles = nbone_prototiles(n)
    for m in range(1, n * n + n + 1):
        decision = oracle_decide(tri_region(m), tiles, 2 * n)
        assert decision.solvable == decide_nbone(m, n), (n, m)
        if decision.solvable:
            assert verify_certificate(decision.certificate)


@pytest.mark.parametrize("margin", range(2, 9))
def test_oracle_cross_validates_groebner_route(margin):
    # The two decision paths are independent; a definitive answer from one
    # must never contradict the other on random small instances, whatever
    # the box margin.
    rng = random.Random(2025)
    for _ in range(120):
        tiles = []
        for _ in range(rng.randrange(1, 3)):
            cells = frozenset((rng.randrange(3), rng.randrange(2))
                              for _ in range(rng.randrange(1, 4)))
            if cells:
                tiles.append(cells)
        if not tiles:
            continue
        region = frozenset((i, j) for i in range(3) for j in range(3)
                           if rng.random() < 0.4)
        decision = decide_signed_tiling(region, tiles, max_rounds=3)
        boxed = oracle_decide(region, tiles, margin)
        if decision.status == "no":
            assert not boxed.solvable, (region, tiles)
        if boxed.solvable:
            assert decision.status != "no", (region, tiles)
            assert verify_certificate(boxed.certificate)


def test_oracle_certificate_has_one_placement_per_nonzero_entry():
    system = placement_system(tri_region(9), nbone_prototiles(3), 6)
    decision = oracle_decide(tri_region(9), nbone_prototiles(3), 6)
    assert decision.solvable
    weights = {(p.tile, p.shift): p.sign * p.count for p in decision.certificate.placements}
    assert len(weights) == len(decision.certificate.placements)
    assert weights == {(p.tile, p.shift): z for z, p in zip(decision.solution,
                                                            system.placements) if z}


# sha256 of certificate_to_text(cert, "region") for each pinned certificate.
CERTIFICATE_SHA256 = {
    ("family2", 7, 1): "b035ed33025eb175aaa04ba316bbbc51643cc18eca71e34b0ae015127f42cee2",
    ("family2", 7, 2): "b035ed33025eb175aaa04ba316bbbc51643cc18eca71e34b0ae015127f42cee2",
    ("family3", 7, 1): "c46afa75260edacfaa40b2386e47672304a134c9dfbe920d2e98c0e27dc8a267",
    ("family3", 7, 2): "c46afa75260edacfaa40b2386e47672304a134c9dfbe920d2e98c0e27dc8a267",
    ("family4", 7, 1): "47765cfa7dd3f9b41bcb6834f20257793abc59c5e3168a6827b68f33097aad9d",
    ("family4", 7, 2): "47765cfa7dd3f9b41bcb6834f20257793abc59c5e3168a6827b68f33097aad9d",
    ("family14", 7, 1): "3ecbdf8ed16621b6daa9f2843906e76fb06ea89fb95eafe1e0f5c20fa31f8bef",
    ("family14", 7, 2): "3ecbdf8ed16621b6daa9f2843906e76fb06ea89fb95eafe1e0f5c20fa31f8bef",
    ("family17", 7, 1): "d275e14075df9df0e9063d3cee76e0e03595534ace500ccc8816a7b39c599ff3",
    ("family17", 7, 2): "d275e14075df9df0e9063d3cee76e0e03595534ace500ccc8816a7b39c599ff3",
    ("family18", 7, 1): "7e39ac9a611425fd539199fad5ae9bdcbd145a6b4785bd8327dab4877d92469c",
    ("family18", 7, 2): "7e39ac9a611425fd539199fad5ae9bdcbd145a6b4785bd8327dab4877d92469c",
    (3, 8, 6): "3011d3397668a00b1e0ab843df462d26d2b94fc576cdbf309a9900df40db9120",
    (3, 9, 6): "76c1ecf867e6deb288951e655a2b4859e77876b1b564b51252a5446345a1d43e",
}


ORACLE_SIZES = [
    # "family<k>" is pinned family k; 3 is the 3-bones.
    ("family2", 7, 1, 25, 21), ("family2", 7, 2, 25, 21),
    ("family3", 7, 1, 27, 18), ("family3", 7, 2, 27, 18),
    ("family4", 7, 1, 25, 20), ("family4", 7, 2, 25, 20),
    ("family14", 7, 1, 57, 24), ("family14", 7, 2, 57, 24),
    ("family17", 7, 1, 41, 31), ("family17", 7, 2, 41, 31),
    ("family18", 7, 1, 53, 35), ("family18", 7, 2, 53, 35),
    (3, 8, 6, 20, 19), (3, 9, 6, 27, 24),
]


# Each id names the inputs alone (tiles, m, margin), so a re-pin of the
# counts does not rename the case.
@pytest.mark.parametrize("tiles,m,margin,units,distinct", ORACLE_SIZES,
                         ids=[f"{t}-{m}-{g}" for t, m, g, _, _ in ORACLE_SIZES])
def test_oracle_certificate_sizes(tiles, m, margin, units, distinct):
    # The witness comes from the smallest of the boxes padded by 0, 1, 2,
    # 4, ... that solves, with its columns inserted sparsest-leading first;
    # from the requested box instead, family 14 at margin 2 took 362,247
    # units.  Only family 17 and family 18 need margin 1, so their two
    # margins give one certificate.
    if isinstance(tiles, int):
        prototiles = nbone_prototiles(tiles)
    else:
        prototiles = pinned_families()[int(tiles.removeprefix("family"))]
    cert = oracle_decide(tri_region(m), prototiles, margin).certificate
    assert verify_certificate(cert)
    assert len(cert.placements) == distinct
    assert sum(p.count for p in cert.placements) == units
    text = certificate_to_text(cert, "region")
    assert hashlib.sha256(text.encode()).hexdigest() == CERTIFICATE_SHA256[(tiles, m, margin)]


def test_oracle_logs_combinations_only_for_a_yes(monkeypatch):
    # Membership is tested on an echelon with no log, so a
    # no_solution_in_box builds none, and a yes builds exactly one.
    built = []

    class Spy(tilegb.oracle.Combinations):
        def __init__(self):
            super().__init__()
            built.append(self)

    monkeypatch.setattr(tilegb.oracle, "Combinations", Spy)
    assert not oracle_decide(tri_region(2), nbone_prototiles(2), 3).solvable
    assert built == []
    assert oracle_decide(tri_region(3), nbone_prototiles(2), 4).solvable
    assert len(built) == 1


def test_oracle_makes_placements_only_for_a_certificate(monkeypatch):
    # The solver runs on plain columns, so a no_solution_in_box makes no
    # Placement, and a yes makes one per nonzero entry of its solution.
    built = []

    def spy(*args):
        built.append(args)
        return Placement(*args)

    monkeypatch.setattr(tilegb.oracle, "Placement", spy)
    monkeypatch.setattr(tilegb.tiling, "Placement", spy)
    for m in (2, 10):
        assert not oracle_decide(tri_region(m), nbone_prototiles(3), 6).solvable
    assert built == []
    decision = oracle_decide(tri_region(9), nbone_prototiles(3), 6)
    assert decision.solvable
    assert len(built) == sum(1 for v in decision.solution if v) == 24


def test_placement_matrix_is_the_transpose_of_the_solved_columns(monkeypatch):
    # placement_system's rows and the columns of the requested box that
    # oracle_decide tests membership on come from one enumeration; the
    # solver orders the columns by their first rows.
    seen = []
    in_lattice = tilegb.oracle._in_lattice

    def spy(columns, firsts, target):
        seen.append((copy.deepcopy(columns), list(firsts), dict(target)))
        return in_lattice(columns, firsts, target)

    monkeypatch.setattr(tilegb.oracle, "_in_lattice", spy)
    rng = random.Random(505)
    for _ in range(60):
        tiles = [frozenset((rng.randrange(-2, 3), rng.randrange(-2, 3))
                           for _ in range(rng.randrange(1, 5)))
                 for _ in range(rng.randrange(1, 4))]
        region = frozenset((rng.randrange(-3, 4), rng.randrange(-3, 4))
                           for _ in range(rng.randrange(0, 7)))
        margin = rng.randrange(0, 4)
        system = placement_system(region, tiles, margin)
        oracle_decide(region, tiles, margin)
        columns, firsts, target = seen.pop()
        assert len(columns) == len(system.placements)
        assert [list(row.items()) for row in system.matrix] == [
            [(c, col[i]) for c, col in enumerate(columns) if i in col]
            for i in range(len(system.matrix))]
        assert firsts == [min(col) for col in columns]
        assert system.target == [target.get(i, 0) for i in range(len(system.target))]


@pytest.mark.parametrize("family,units,distinct", [(17, 41, 31), (18, 53, 35)])
def test_oracle_witness_margin_escalates(family, units, distinct):
    # Families 17 and 18 of perfbench/pinned.json tile T(7) in no box of
    # margin 0 but in the box of margin 1, so a margin-2 yes takes its
    # witness from the margin-1 box and must still solve the margin-2 box.
    tiles = pinned_families()[family]
    assert not oracle_decide(tri_region(7), tiles, 0).solvable
    assert oracle_decide(tri_region(7), tiles, 1).solvable
    decision = oracle_decide(tri_region(7), tiles, 2)
    assert decision.solvable
    assert verify_certificate(decision.certificate)
    system = placement_system(tri_region(7), tiles, 2)
    assert [sum(decision.solution[c] * v for c, v in row.items())
            for row in system.matrix] == system.target
    assert len(decision.certificate.placements) == distinct
    assert sum(p.count for p in decision.certificate.placements) == units


def test_oracle_no_enumerates_one_box(monkeypatch):
    # A no_solution_in_box is decided on the requested box alone, with no
    # log; a yes enumerates the smaller boxes only up to the first that
    # solves.  NOs are 30 of the 36 3-bone oracle ops in the lattice
    # benchmark.
    margins, built = [], []
    box_columns = tilegb.oracle._box_columns

    def spy(region, prototiles, margin):
        margins.append(margin)
        return box_columns(region, prototiles, margin)

    class Spy(tilegb.oracle.Combinations):
        def __init__(self):
            super().__init__()
            built.append(self)

    monkeypatch.setattr(tilegb.oracle, "_box_columns", spy)
    monkeypatch.setattr(tilegb.oracle, "Combinations", Spy)
    for m in (2, 7, 10):
        assert not oracle_decide(tri_region(m), nbone_prototiles(3), 6).solvable
        assert margins == [6]
        margins.clear()
    assert built == []
    assert oracle_decide(tri_region(9), nbone_prototiles(3), 6).solvable
    assert margins == [6, 0]


@pytest.mark.parametrize("m", range(3, 8))
def test_oracle_family_9_T3_margin_2_finishes(m):
    # Family 9 of perfbench/pinned.json, a rotation-closed 4-cell polyhex
    # set: without size reduction of each new pivot its echelon grows
    # integers of hundreds of thousands of bits on T(3), and T(4) does not
    # finish.
    tiles = [frozenset({(0, 0), (0, 1), (1, 1), (2, 0)}),
             frozenset({(0, 0), (0, 2), (1, 0), (1, 1)}),
             frozenset({(0, 1), (0, 2), (1, 0), (2, 0)})]
    started = time.perf_counter()
    decision = oracle_decide(tri_region(m), tiles, margin=2)
    assert decision.status == "no_solution_in_box"
    assert time.perf_counter() - started < 10


def test_oracle_agrees_with_decide_at_default_margin(tmp_path):
    # The CLI's default margin, 2 * tile_reach, on every pinned family: an
    # oracle yes must not meet a decide no, and every yes must verify.
    # Without size reduction of each new pivot, the 3-cell region hangs on
    # 12 of the 21 families.
    three = frozenset({(1, 1), (2, 1), (1, 2)})
    seen = set()
    for tiles in pinned_families():
        margin = 2 * tile_reach(tiles)
        for region in (three, tri_region(3)):
            decided = decide_signed_tiling(region, tiles).status
            boxed = oracle_decide(region, tiles, margin)
            assert not (boxed.solvable and decided == "no"), (region, tiles)
            if boxed.solvable:
                assert verify_certificate(boxed.certificate)
            seen.add((decided, boxed.status))
    assert {("yes", "yes"), ("no", "no_solution_in_box")} <= seen, seen
    rpath, tpath = tmp_path / "three.region", tmp_path / "family9.tiles"
    rpath.write_text(region_to_text(three))
    tpath.write_text(tiles_to_text(pinned_families()[9]))
    code_out = run(["oracle", "--region", str(rpath), "--tiles", str(tpath)])
    assert code_out == (1, "NO_SOLUTION_IN_BOX\n")
