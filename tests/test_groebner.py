"""Strong Groebner machinery: division, critical pairs, completion, membership."""

import random

import pytest

from helpers import periods_by_definition, pinned_families, random_poly, random_univariate
from tilegb import groebner
from tilegb.bones import b3_poly, bone_polynomials, bone_system, nbone_prototiles, triangle
from tilegb.groebner import (GroebnerBasis, basis_from_text, basis_to_text,
                             buchberger, g_polynomial, ideal_member, reduce,
                             remainder, s_polynomial, verify_strong_gb, xgcd)
from tilegb.polyring import (CONVENTIONS, LEX, Polynomial, diff_quotient, format_poly,
                             parse_poly)
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
                                         basis.convention, verified=basis.verified)
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


def test_negative_exponent_is_refused_not_misordered():
    basis = bone_system(3).basis
    bad = parse_poly("1 + y").mul_term(1, (-1, 0))
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


def test_periods_of_unit_ideal():
    # NF(1) is 0 in the unit ideal, so the stepped search must compare with
    # NF(1), not with 1.
    assert buchberger([Polynomial.constant(1)]).periods == (1, 1)


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
    completed = buchberger(gens, conv="nonneg", track_cofactors=True)
    basis = bone_system(n).basis
    for p in completed.elements:
        assert reduce(p, basis).remainder.is_zero()
    for p in basis.elements:
        assert reduce(p, completed).remainder.is_zero()
    for elem, row in zip(completed.elements, completed.cofactors):
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
            basis = buchberger(gens, conv=conv, track_cofactors=True)
            # Tracking cofactors changes nothing about the elements.
            assert buchberger(gens, conv=conv).elements == basis.elements
            fresh = GroebnerBasis(list(basis.elements), basis.order, basis.convention)
            assert verify_strong_gb(fresh).passed
            for elem, row in zip(basis.elements, basis.cofactors):
                assert expand(row, basis.generators, Polynomial.zero()) == elem
            # generators lie in the ideal of the output
            for g in gens:
                assert reduce(g, basis).remainder.is_zero()


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


def test_verify_detects_uncovered_coefficient_gcd():
    # {2x, 3y}: nothing in the set divides gcd(2, 3) * lcm(x, y).
    report = verify_strong_gb(GroebnerBasis([parse_poly("2*x"), parse_poly("3*y")]))
    assert not report.passed
    assert report.pair == (0, 1)
    assert report.witness is None


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


def test_basis_file_without_header_keeps_first_polynomial():
    loaded = basis_from_text("1 + x\nx^2 + y\n")
    assert loaded.elements == [parse_poly("1 + x"), parse_poly("x^2 + y")]
    assert loaded.convention == "minabs"
