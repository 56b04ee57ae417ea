"""Strong Groebner machinery: division, critical pairs, completion, membership."""

import dataclasses
import itertools
import math
import random

import pytest

from helpers import (lifted_rows, periods_by_definition, pinned_families, poly_with_terms,
                     random_poly, random_univariate)
from tilegb import groebner
from tilegb.bones import b3_poly, bone_polynomials, bone_system, nbone_prototiles, triangle
from tilegb.groebner import (GroebnerBasis, basis_from_text, basis_to_text,
                             buchberger, g_polynomial, ideal_member, reduce,
                             remainder, s_polynomial, verify_strong_gb, xgcd)
from tilegb.polyring import (CONVENTIONS, LEX, Polynomial, TermOrder, diff_quotient,
                             format_poly, mono_divides, mono_lcm, parse_poly)
from tilegb.tiling import tile_generators


def expand(quotients, basis_elements, remainder):
    acc = remainder
    for q, g in zip(quotients, basis_elements):
        acc = acc + q * g
    return acc


def test_xgcd():
    rng = random.Random(3)
    for _ in range(200):
        a, b = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
        g, u, v = xgcd(a, b)
        assert u * a + v * b == g
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


# ---------------------------------------------------------------------------
# division

def test_reduce_T6_both_conventions():
    basis = bone_system(3).basis
    t6 = triangle(6)
    assert format_poly(reduce(t6, basis, "minabs").remainder) == "-1 - x - y"
    assert format_poly(reduce(t6, basis, "nonneg").remainder) == "2 + 2*x + 2*y"


def test_reduce_basis_element_by_itself():
    basis = bone_system(3).basis
    res = reduce(basis.elements[2], basis)
    assert res.remainder.is_zero()
    assert [format_poly(q) for q in res.quotients] == ["0", "0", "1", "0"]


def test_division_identity_and_irreducibility():
    rng = random.Random(42)
    for n in (2, 3, 4, 5):
        basis = bone_system(n).basis
        lts = basis.leading_terms()
        for conv in ("minabs", "nonneg"):
            for _ in range(25):
                f = random_poly(rng, max_degree=3 * n, coeff_bound=500)
                res = reduce(f, basis, conv)
                assert expand(res.quotients, basis.elements, res.remainder) == f
                for mono, c in res.remainder.terms.items():
                    for gm, gc in lts:
                        if all(a <= b for a, b in zip(gm, mono)):
                            from tilegb.polyring import coeff_divmod
                            assert coeff_divmod(c, gc, conv)[0] == 0


def test_reduce_idempotent_and_linear():
    rng = random.Random(1)
    basis = bone_system(3).basis
    rem = lambda f: reduce(f, basis).remainder
    for _ in range(40):
        f = random_poly(rng)
        g = random_poly(rng)
        assert rem(rem(f)) == rem(f)
        assert rem(f + g) == rem(rem(f) + rem(g))


def test_confluence_under_randomized_selection():
    # Strong bases give unique normal forms, so shuffling the basis order
    # must not change remainders.
    rng = random.Random(99)
    for n in range(2, 7):
        basis = bone_system(n).basis
        for _ in range(40):
            f = random_poly(rng, max_degree=3 * n, coeff_bound=100)
            baseline = reduce(f, basis).remainder
            for _ in range(3):
                perm = list(range(len(basis.elements)))
                rng.shuffle(perm)
                permuted = GroebnerBasis([basis.elements[i] for i in perm], basis.order,
                                         basis.convention)
                assert reduce(f, permuted).remainder == baseline


def test_packed_exponents_grow_past_the_input_without_carrying():
    # x - y^7 trades each x for seven y's: the y exponent reaches 700 from
    # an input whose largest exponent is 100.
    basis = GroebnerBasis([parse_poly("x - y^7")])
    res = reduce(parse_poly("x^100 + 3*x*y^2"), basis)
    assert res.remainder == parse_poly("y^700 + 3*y^9")
    assert expand(res.quotients, basis.elements, res.remainder) == \
        parse_poly("x^100 + 3*x*y^2")
    huge = 2 ** 80
    res = reduce(Polynomial({(huge, 3): 1}), GroebnerBasis([parse_poly("y - 1")]))
    assert res.remainder == Polynomial({(huge, 0): 1})


@pytest.mark.parametrize("make", [
    lambda: GroebnerBasis([parse_poly("x^2 - 3*y"), parse_poly("2*x*y + y^3 - 1")]),
    lambda: bone_system(3).basis,
    lambda: buchberger(tile_generators(pinned_families()[3]), conv="nonneg"),
], ids=["fresh", "shared-bone-basis", "completed"])
def test_divider_widens_and_reuses_wide_slots(make):
    # One basis divides small inputs, then inputs with an exponent of 2^80,
    # which widen its slots and re-pack it, then small inputs again on the
    # wide slots.  Each result equals a division by a fresh copy, also when
    # its quotients are first read after the slots widened.  The wide part
    # is a multiple of the first element, which divides it in one step.
    G = make()
    rng = random.Random(80)
    huge = 2 ** 80
    results = []
    for step in range(12):
        f = random_poly(rng, max_degree=9, coeff_bound=40)
        if 4 <= step < 8:
            wide = [(huge, rng.randint(0, 5)), (rng.randint(0, 5), huge + step)][step % 2]
            f = f + G.elements[0].mul_term(rng.choice([-3, 1, 2]), wide)
        for conv in CONVENTIONS:
            results.append((f, conv, reduce(f, G, conv)))
        assert remainder(f, G) == reduce(f, dataclasses.replace(G)).remainder
    assert G._divider.slots.bits > 80  # exponent bits per slot
    for f, conv, got in results:
        want = reduce(f, dataclasses.replace(G), conv)
        assert (got.remainder, got.quotients) == (want.remainder, want.quotients)
    bad = Polynomial._make({(-1, 0): 1, (-1, 1): 1}, 2)
    with pytest.raises(ValueError):
        reduce(bad, G)
    # The cached divider is no field: equality, hashing and repr ignore it.
    # A copy is unverified, since only a proof marks a basis verified.
    fresh = dataclasses.replace(G)
    assert "_divider" in vars(G) and "_divider" not in vars(fresh)
    assert not fresh.verified
    assert G == fresh and repr(G) == repr(fresh)
    if isinstance(G.elements, tuple):
        assert hash(G) == hash(fresh)


def test_negative_exponent_is_refused_not_misordered():
    # Polynomial refuses negative exponents, so build one past its checks.
    basis = bone_system(3).basis
    bad = Polynomial._make({(-1, 0): 1, (-1, 1): 1}, 2)
    assert min(e for m in bad.terms for e in m) < 0
    with pytest.raises(ValueError):
        reduce(bad, basis)
    with pytest.raises(ValueError):
        remainder(bad, basis)


# ---------------------------------------------------------------------------
# variable periods and the folding remainder

def test_periods_of_bone_bases():
    assert bone_system(2).basis.periods == (1, 1)
    for n in range(3, 9):
        assert bone_system(n).basis.periods == (n, n)


def test_periods_of_completed_basis_match_explicit():
    completed = buchberger(list(bone_polynomials(3)), conv="nonneg")
    assert completed.periods == bone_system(3).basis.periods == (3, 3)


def test_periods_absent_when_no_pure_power_is_one():
    assert GroebnerBasis([parse_poly("x - y")]).periods == (None, None)
    assert GroebnerBasis([parse_poly("x + 1")]).periods == (2, None)


def test_stepped_normal_forms_widen_the_slots_as_they_grow():
    # Modulo x - y^7, NF(x^a) is y^(7a): the search for x's period ends at
    # NF(x^16) = y^112, which needs 7 exponent bits where its first step
    # needed 4, so each step sizes the slots from its own normal form.
    G = GroebnerBasis([parse_poly("x - y^7")])
    assert G.periods == (None, None)
    assert G._divider.slots.bits >= (112).bit_length()
    assert G.periods == periods_by_definition(G)


def test_periods_of_unit_ideal():
    # NF(1) is 0 in the unit ideal, so the stepped search must compare with
    # NF(1), not with 1.
    assert buchberger([Polynomial.constant(1)]).periods == (1, 1)


def test_periods_after_the_shared_divider_has_widened():
    # A division with an exponent of 2^80 widens the basis's cached divider
    # first; the stepped search then runs on those wide slots.
    huge = 2 ** 80
    for k in (3, 5, 9, 14):
        G = buchberger(tile_generators(pinned_families()[k]), conv="nonneg")
        f = G.elements[0].mul_term(1, (huge, 1)) + parse_poly("1 + x*y")
        assert reduce(f, G).remainder == reduce(parse_poly("1 + x*y"), G).remainder
        assert G._divider.slots.bits > 80 and "periods" not in vars(G)
        assert G.periods == periods_by_definition(G)
        assert G.periods == dataclasses.replace(G).periods


def test_periods_match_definition():
    rng = random.Random(21)
    cells = [(i, j) for i in range(3) for j in range(3)]
    tile_sets = [nbone_prototiles(n) for n in range(2, 6)] + pinned_families() + [
        [frozenset(rng.sample(cells, rng.randint(1, 5))) for _ in range(rng.randint(1, 3))]
        for _ in range(60)]
    missing = set()
    for tiles in tile_sets:
        for conv in CONVENTIONS:
            G = buchberger(tile_generators(tiles), conv=conv)
            assert G.periods == periods_by_definition(G), (tiles, conv)
            missing.update(p is None for p in G.periods)
    assert missing == {True, False}


@pytest.mark.parametrize("n", range(2, 9))
def test_remainder_matches_reduce(n):
    # Seeded differential check of the folding route against plain division.
    rng = random.Random(1000 + n)
    basis = bone_system(n).basis
    top = 3 * n * n
    sides = sorted({0, top - 1, top, *rng.sample(range(top + 1), 5)})
    for conv in ("minabs", "nonneg"):
        for _ in range(40):
            f = Polynomial({(rng.randint(0, 5 * n), rng.randint(0, 5 * n)):
                            rng.randint(-60, 60) for _ in range(rng.randint(0, 10))})
            assert remainder(f, basis, conv) == reduce(f, basis, conv).remainder
        for m in sides:
            for f in (triangle(m), b3_poly(m)):
                assert remainder(f, basis, conv) == reduce(f, basis, conv).remainder, (conv, m)


@pytest.mark.parametrize("count", (7, 8, 9, 300))
def test_division_on_both_sides_of_the_column_threshold(count):
    # Every division input is packed by columns; quotients and remainders of
    # 8 terms or more are decoded by columns, shorter ones term by term.
    rng = random.Random(9000 + count)
    completed = buchberger(tile_generators(pinned_families()[4]), conv="nonneg")
    for basis in (bone_system(2).basis, bone_system(3).basis, completed):
        for conv in CONVENTIONS:
            for _ in range(3):
                f = poly_with_terms(rng, count, coeff_bound=40)
                res = reduce(f, basis, conv)
                assert expand(res.quotients, basis.elements, res.remainder) == f
                assert remainder(f, basis, conv) == res.remainder


def test_remainder_does_not_fold_unverified_basis(monkeypatch):
    seen = []
    real_reduce = groebner.reduce

    def spy(f, G, convention=None):
        seen.append(f)
        return real_reduce(f, G, convention)

    monkeypatch.setattr(groebner, "reduce", spy)
    loaded = basis_from_text(basis_to_text(bone_system(3).basis))
    t9 = triangle(9)
    assert remainder(t9, loaded) == real_reduce(t9, loaded).remainder
    assert seen == [t9]
    assert "periods" not in vars(loaded)
    # The verified basis with the same elements folds T(9) to at most 3 x 3 terms.
    remainder(t9, bone_system(3).basis)
    assert len(seen[-1]) <= 9 < len(t9)


# ---------------------------------------------------------------------------
# S- and G-polynomials

@pytest.mark.parametrize("n", range(3, 9))
def test_s_polynomial_g1_g4(n):
    basis = bone_system(n).basis
    g1, g4 = basis.elements[0], basis.elements[3]
    y = Polynomial.variable(1)
    x = Polynomial.variable(0)
    assert s_polynomial(g1, g4) == y * g1 - x * g4


@pytest.mark.parametrize("n", range(3, 9))
def test_s_polynomial_g1_g2(n):
    basis = bone_system(n).basis
    g1, g2 = basis.elements[0], basis.elements[1]
    assert s_polynomial(g1, g2) == (g1.mul_term(1, (0, n - 1)) - g2.mul_term(1, (n - 1, 0)))


def test_s_polynomial_self_is_zero():
    f = parse_poly("3*x^2 + y")
    assert s_polynomial(f, f).is_zero()
    with pytest.raises(ValueError):
        s_polynomial(f, Polynomial.zero())


@pytest.mark.parametrize("n", range(3, 9))
def test_strong_representations_from_completion_proof(n):
    # The three explicit strong representations hold as polynomial identities.
    basis = bone_system(n).basis
    g1, g2, g3, g4 = basis.elements
    x = Polynomial.variable(0)
    y = Polynomial.variable(1)
    one = Polynomial.constant(1)
    assert s_polynomial(g1, g4) == g1 - y * g4 + (x - one) * g2
    assert s_polynomial(g1, g3) == -n * g4 - g3
    assert s_polynomial(g3, g4) == g3 + n * g2


def test_g_polynomial_coprime_coefficients():
    g = parse_poly("3*x + 1")
    h = parse_poly("5*x - y")
    gp = g_polynomial(g, h)
    assert gp.leading_term(LEX) == ((1, 0), 1)
    # Bezout pair pinned to 2*3 - 1*5 = 1.
    assert gp == 2 * g - h


def test_g_polynomial_when_one_coefficient_divides():
    g = parse_poly("3*x^2 + y")
    h = parse_poly("6*x^2 + x")
    assert g_polynomial(g, h) == g
    hm = parse_poly("6*x^2*y + 1")
    gp = g_polynomial(g, hm)
    assert gp.leading_term(LEX) == ((2, 1), 3)
    assert gp == g.mul_term(1, (0, 1))


def test_g_polynomial_g1_g3_leading_term():
    basis = bone_system(3).basis
    gp = g_polynomial(basis.elements[0], basis.elements[2])
    assert gp.leading_term(LEX) == ((2, 0), 1)


# ---------------------------------------------------------------------------
# completion

def test_buchberger_constants():
    basis = buchberger([Polynomial.constant(2), Polynomial.constant(3)])
    assert basis.elements == [Polynomial.constant(1)]
    assert basis.verified


def test_buchberger_needs_g_polynomials():
    basis = buchberger([parse_poly("2*x"), parse_poly("3*x")])
    assert basis.elements == [parse_poly("x")]


def test_buchberger_rejects_bad_input():
    with pytest.raises(ValueError):
        buchberger([])
    with pytest.raises(ValueError):
        buchberger([Polynomial.zero()])


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_buchberger_bones_matches_explicit_basis(n):
    gens = list(bone_polynomials(n))
    completed = buchberger(gens, conv="nonneg")
    basis = bone_system(n).basis
    for p in completed.elements:
        assert reduce(p, basis).remainder.is_zero()
    for p in basis.elements:
        assert reduce(p, completed).remainder.is_zero()
    for elem, row in zip(completed.elements, lifted_rows(completed)):
        assert expand(row, completed.generators, Polynomial.zero()) == elem


@pytest.mark.parametrize("n", (2, 3, 4))
def test_buchberger_on_already_strong_basis(n):
    basis = bone_system(n).basis
    completed = buchberger(list(basis.elements), conv="nonneg")
    for p in completed.elements:
        assert reduce(p, basis).remainder.is_zero()


def test_buchberger_random_inputs_verify():
    rng = random.Random(6)
    count = 0
    while count < 8:
        gens = [random_poly(rng, max_degree=3, max_terms=3, coeff_bound=6)
                for _ in range(2)]
        gens = [g for g in gens if g]
        if not gens:
            continue
        count += 1
        for conv in CONVENTIONS:
            basis = buchberger(gens, conv=conv)
            fresh = GroebnerBasis(list(basis.elements), basis.order, basis.convention)
            assert verify_strong_gb(fresh).passed
            for elem, row in zip(basis.elements, lifted_rows(basis)):
                assert expand(row, basis.generators, Polynomial.zero()) == elem
            # generators lie in the ideal of the output
            for g in gens:
                assert reduce(g, basis).remainder.is_zero()


def test_completion_of_random_tile_sets_is_order_free_strong_and_lifts():
    # The reduced strong basis is unique, so no order of the generators may
    # change its text, whichever pairs completion skips on the way.
    rng = random.Random(20)
    cells = [(i, j) for i in range(4) for j in range(4)]
    for _ in range(100):
        gens = tile_generators([frozenset(rng.sample(cells, rng.randint(2, 5)))
                                for _ in range(rng.randint(1, 3))])
        for conv in CONVENTIONS:
            basis = buchberger(gens, conv=conv)
            text = basis_to_text(basis)
            for perm in itertools.islice(itertools.permutations(gens), 1, None):
                assert basis_to_text(buchberger(list(perm), conv=conv)) == text
            fresh = GroebnerBasis(list(basis.elements), basis.order, basis.convention)
            assert verify_strong_gb(fresh).passed
            for elem, row in zip(basis.elements, lifted_rows(basis)):
                assert expand(row, basis.generators, Polynomial.zero()) == elem


@pytest.mark.parametrize("k", (4, 64))
def test_completion_widens_slots_at_pair_time(k):
    # Every exponent of the generators fits k bits, but the pairs reach
    # y^(2c), which needs k + 1; the G-pair of 2 and 3 is taken too.
    c = 2 ** k - 1
    gens = [Polynomial({(1, 0): 2, (0, c): 1}), Polynomial({(1, c): 3, (0, 0): -1})]
    want = [Polynomial({(1, c): 1, (0, 2 * c): -1, (0, 0): -1}),
            Polynomial({(1, 0): 2, (0, c): 1}), Polynomial({(0, 2 * c): 3, (0, 0): 2})]
    for conv in CONVENTIONS:
        texts = set()
        for perm in itertools.permutations(gens):
            basis = buchberger(list(perm), conv=conv)
            texts.add(basis_to_text(basis))
            assert verify_strong_gb(dataclasses.replace(basis)).passed
            for elem, row in zip(basis.elements, lifted_rows(basis)):
                assert expand(row, basis.generators, Polynomial.zero()) == elem
        assert len(texts) == 1
        if conv == "minabs":
            assert basis.elements == want


def test_completion_skips_pairs_of_elements_a_newer_leading_term_divides(monkeypatch):
    # Pinned families 4, 10 and 14 under decide's convention: pairing every
    # element with every older one takes 64 + 100 + 62 = 226 divisions; the
    # update rule leaves 36 + 53 + 40.
    families = [
        [[(0, 0), (0, 1), (0, 2), (1, 2)], [(0, 1), (1, 0), (2, 0), (3, 0)],
         [(0, 3), (1, 2), (2, 0), (2, 1)]],
        [[(0, 0), (0, 1), (1, 1), (2, 1)], [(0, 2), (1, 1), (2, 0), (3, 0)],
         [(0, 3), (1, 0), (1, 1), (1, 2)]],
        [[(0, 0), (1, 0), (2, 0), (2, 1)], [(0, 1), (0, 2), (0, 3), (1, 0)],
         [(0, 2), (1, 2), (2, 1), (3, 0)]],
    ]
    # Each count takes in the four tail reductions of the final basis.  The
    # spy sits on the packed loop, which every pair and tail division runs.
    calls = []
    divide_packed = groebner._Divider.divide_packed

    def spy(self, work, conv):
        calls[-1] += 1
        return divide_packed(self, work, conv)

    monkeypatch.setattr(groebner._Divider, "divide_packed", spy)
    for tiles in families:
        calls.append(0)
        buchberger(tile_generators([frozenset(t) for t in tiles]), LEX, "nonneg")
    assert calls == [36, 53, 40]


def _lift_cases():
    rng = random.Random(14)
    cells = [(i, j) for i in range(3) for j in range(3)]
    for _ in range(12):
        tiles = [frozenset(rng.sample(cells, rng.randint(1, 4)))
                 for _ in range(rng.randint(1, 3))]
        for conv in CONVENTIONS:
            yield buchberger(tile_generators(tiles), conv=conv)
    for n in range(2, 6):
        yield bone_system(n).basis


def test_lift_writes_quotient_sums_over_the_generators():
    # sum_j lift(q)[j] * gen[j] == sum_i q[i] * element[i], on completed bases
    # (their log) and on the shared bone bases (their explicit rows).
    rng = random.Random(41)
    for basis in _lift_cases():
        log = basis._log
        before = ([list(node) for node in log.nodes], dict(log.node_of))
        for _ in range(4):
            qs = [random_poly(rng, max_degree=3, max_terms=3, coeff_bound=5)
                  if rng.random() < 0.6 else Polynomial.zero() for _ in basis.elements]
            cof = basis.lift(qs)
            assert len(cof) == len(basis.generators)
            assert (expand(cof, basis.generators, Polynomial.zero())
                    == expand(qs, basis.elements, Polynomial.zero()))
        assert ([list(node) for node in log.nodes], dict(log.node_of)) == before
    with pytest.raises(ValueError):
        bone_system(3).basis.lift([Polynomial.zero()])
    with pytest.raises(ValueError):
        GroebnerBasis([parse_poly("1 + x")]).lift([Polynomial.constant(1)])


# ---------------------------------------------------------------------------
# verification and membership

@pytest.mark.parametrize("n", range(2, 13))
def test_verify_explicit_basis(n):
    basis = bone_system(n).basis
    fresh = GroebnerBasis(list(basis.elements), basis.order, basis.convention)
    assert verify_strong_gb(fresh).passed


def test_verify_raw_generators_fail_with_witness():
    report = verify_strong_gb(GroebnerBasis(list(bone_polynomials(3)), convention="nonneg"))
    assert not report.passed
    assert report.pair is not None
    assert report.witness is not None and not report.witness.is_zero()


def test_verify_finds_the_one_s_pair_that_does_not_reduce():
    # Every pair is covered, and S(x^2 + y, x*y + 1) = y^2 - x reduces no
    # further, so the S-pair check alone refuses the set.
    report = verify_strong_gb(GroebnerBasis([parse_poly("x^2 + y"), parse_poly("x*y + 1")]))
    assert report.passed is False
    assert report.reason == "S-polynomial does not reduce to zero"
    assert report.pair == (0, 1)
    assert report.witness is not None and not report.witness.is_zero()


def test_verify_detects_uncovered_coefficient_gcd():
    # {2x, 3y}: nothing in the set divides gcd(2, 3) * lcm(x, y).
    report = verify_strong_gb(GroebnerBasis([parse_poly("2*x"), parse_poly("3*y")]))
    assert not report.passed
    assert report.pair == (0, 1)
    assert report.witness is None


def _first_failing_pair(G):
    """(reason, pair) of the first failure of the strong-basis criterion, by
    an explicit double loop over i < j: the coverage of every pair first,
    then every S-polynomial divided by the set; ("", None) when none fails."""
    lts = G.leading_terms()
    pairs = list(itertools.combinations(range(len(lts)), 2))
    for i, j in pairs:
        lcm, gcd = mono_lcm(lts[i][0], lts[j][0]), math.gcd(lts[i][1], lts[j][1])
        if not any(mono_divides(m, lcm) and gcd % c == 0 for m, c in lts):
            return "no element covers lcm(LM)/gcd(LC)", (i, j)
    for i, j in pairs:
        spoly = s_polynomial(G.elements[i], G.elements[j], G.order)
        if not reduce(spoly, G).remainder.is_zero():
            return "S-polynomial does not reduce to zero", (i, j)
    return "", None


def test_verify_reports_the_first_failing_pair_at_every_position():
    # A loop that skipped some pairs (say, one starting at i + 2) would
    # pass or blame a later pair where the first failure sits elsewhere.
    rng = random.Random(1)
    sets = []
    for _ in range(200):
        size = rng.randint(2, 5)
        polys = []
        while len(polys) < size:
            p = random_poly(rng, max_degree=2, max_terms=3, coeff_bound=3)
            if not p.is_zero():
                polys.append(p)
        sets.append(polys)
    # {x^2 + y, xy + 1} at positions i < j, and 2 everywhere else: every
    # pair is covered and every S-polynomial with a 2 reduces to zero, so
    # the one failing S-pair is (i, j).
    for i, j in itertools.combinations(range(4), 2):
        polys = [Polynomial.constant(2)] * 4
        polys[i], polys[j] = parse_poly("x^2 + y"), parse_poly("x*y + 1")
        sets.append(polys)
    found = set()
    for polys in sets:
        G = GroebnerBasis(polys)
        report = verify_strong_gb(G)
        want = _first_failing_pair(G)
        assert (report.reason, report.pair) == want, polys
        assert report.passed == (want[1] is None)
        found.add(want)
    cover, spair = "no element covers lcm(LM)/gcd(LC)", "S-polynomial does not reduce to zero"
    assert {(cover, p) for p in [(0, 2), (0, 3), (1, 2), (2, 3)]} <= found
    assert {(spair, p) for p in itertools.combinations(range(4), 2)} <= found


def test_verify_single_element():
    assert verify_strong_gb(GroebnerBasis([Polynomial.variable(0)])).passed


def test_ideal_member_triangle_cases():
    basis = bone_system(3).basis
    ok, cof = ideal_member(triangle(8), basis)
    assert ok
    assert expand(cof, basis.elements, Polynomial.zero()) == triangle(8)
    assert ideal_member(triangle(6), basis) == (False, None)
    ok, cof = ideal_member(Polynomial.zero(), basis)
    assert ok and all(q.is_zero() for q in cof)


def test_ideal_member_refuses_unverified_basis():
    raw = GroebnerBasis(list(bone_polynomials(3)), convention="nonneg")
    with pytest.raises(ValueError):
        ideal_member(triangle(9), raw)


def test_only_a_proof_marks_a_basis_verified():
    # The raw 3-bone generators are not strong: marked verified, they would
    # call T(8) a non-member and fold T(9) to a nonzero remainder.
    raw = list(bone_polynomials(3))
    with pytest.raises(TypeError):
        GroebnerBasis(raw, LEX, "nonneg", verified=True)
    with pytest.raises(TypeError):
        GroebnerBasis(raw, LEX, "nonneg", _log=bone_system(3).basis._log)
    with pytest.raises(TypeError):
        buchberger(raw, LEX, "nonneg", track_cofactors=True)
    copied = dataclasses.replace(bone_system(3).basis, elements=tuple(raw),
                                 cofactors=None, generators=None)
    assert not copied.verified and copied._log is None
    with pytest.raises(ValueError):
        ideal_member(triangle(8), copied)
    assert remainder(triangle(9), copied) == reduce(triangle(9), copied).remainder
    assert ideal_member(triangle(8), bone_system(3).basis)[0]
    assert remainder(triangle(9), bone_system(3).basis).is_zero()


def test_verification_keeps_equality_and_hash():
    basis = GroebnerBasis(tuple(bone_system(4).basis.elements), LEX, "nonneg")
    seen = {basis}
    assert verify_strong_gb(basis).passed and basis.verified
    assert basis in seen
    assert basis == dataclasses.replace(basis) and repr(basis) == repr(dataclasses.replace(basis))


# ---------------------------------------------------------------------------
# identities feeding the completion proof

@pytest.mark.parametrize("n", range(2, 11))
def test_triangle_recurrence_identities(n):
    b1, b2, b3 = bone_polynomials(n)
    t_prev = triangle(n - 1)
    x = Polynomial.variable(0)
    y = Polynomial.variable(1)
    one = Polynomial.constant(1)
    assert triangle(n) == t_prev + b3
    assert (x - one) * t_prev == b3 - b2
    assert (x - y) * t_prev == b1 - b2
    g1, g2, g4 = b1, b2, b3 - b1 - b2
    assert (y - one) * g1 + (y - x) * g4 == (x - one) * g2


@pytest.mark.parametrize("n", (3, 4, 5))
def test_diff_quotient_reduction_invariance(n):
    # Reducing the difference quotient of p is the same as reducing the
    # difference quotient of p mod (x^n - 1): exponent folding.
    rng = random.Random(n)
    basis = bone_system(n).basis
    for _ in range(20):
        p = random_univariate(rng, 40)
        folded = Polynomial([((m % n, 0), c) for (m, _), c in p.terms.items()])
        lhs = reduce(diff_quotient(p), basis).remainder
        rhs = reduce(diff_quotient(folded), basis).remainder
        assert lhs == rhs


def test_basis_serialization_round_trip():
    basis = bone_system(3).basis
    text = basis_to_text(basis)
    assert text.splitlines()[0] == "order=lex vars=x,y conv=nonneg"
    loaded = basis_from_text(text)
    assert loaded.elements == list(basis.elements)
    assert loaded.convention == "nonneg"
    assert not loaded.verified
    with pytest.raises(ValueError):
        basis_from_text("")


@pytest.mark.parametrize("header", ["order=grevlex vars=x,y conv=nonneg",
                                    "order=lex vars=y,x conv=nonneg",
                                    "order=lex vars=x conv=nonneg"])
def test_basis_header_other_than_lex_xy_is_refused(header):
    with pytest.raises(ValueError):
        basis_from_text(header + "\n1 + x\n")


def test_basis_to_text_refuses_bases_other_than_lex_xy():
    # The header says order=lex vars=x,y, so only such a basis may be written.
    gens = tile_generators(nbone_prototiles(2))
    with pytest.raises(ValueError):
        basis_to_text(buchberger(gens, TermOrder((1, 0))))
    # A saturated basis, in x, y, t as homology.basis_group completes it,
    # prints, but has no basis file.
    lifted = [Polynomial({(i, j, 0): c for (i, j), c in g.terms.items()}, 3) for g in gens]
    txy_minus_1 = Polynomial({(1, 1, 1): 1, (0, 0, 0): -1}, 3)
    saturated = buchberger(lifted + [txy_minus_1], TermOrder((2, 0, 1)))
    assert "Polynomial('-1 + x*y*t')" in repr(saturated)
    with pytest.raises(ValueError):
        basis_to_text(saturated)


def test_basis_file_without_header_keeps_first_polynomial():
    loaded = basis_from_text("1 + x\nx^2 + y\n")
    assert loaded.elements == [parse_poly("1 + x"), parse_poly("x^2 + y")]
    assert loaded.convention == "minabs"
