"""n-bone generators, the explicit basis and its closed-form remainders."""

import pytest

from tilegb import groebner
from tilegb.bones import (b3_poly, b3_remainder, bone_polynomials, bone_system,
                          decide_nbone, nbone_prototiles,
                          t_remainder_closed, triangle)
from tilegb.groebner import buchberger, reduce, remainder
from tilegb.polyring import Polynomial, coeff_divmod, format_poly, parse_poly


def test_triangle_small():
    assert triangle(0) == Polynomial.zero()
    assert triangle(1) == Polynomial.constant(1)
    assert triangle(2) == parse_poly("1 + x + y")


@pytest.mark.parametrize("m", range(0, 20))
def test_triangle_shape(m):
    t = triangle(m)
    assert len(t) == m * (m + 1) // 2
    assert all(c == 1 for c in t.terms.values())
    assert all(i + j <= m - 1 for i, j in t.terms)


@pytest.mark.parametrize("m", range(1, 31))
def test_triangle_difference_is_b3(m):
    assert triangle(m) - triangle(m - 1) == b3_poly(m)


def test_trusted_builds_match_validated_builds():
    # triangle, b3_poly and bone_polynomials skip the constructor's checks;
    # each must equal the checked build of the same term map.
    def checked(terms):
        return Polynomial(dict.fromkeys(terms, 1))
    for m in range(0, 16):
        assert triangle(m) == checked((i, j) for i in range(m) for j in range(m - i))
        assert b3_poly(m) == checked((m - 1 - i, i) for i in range(m))
    for n in range(2, 10):
        assert bone_polynomials(n) == (checked((i, 0) for i in range(n)),
                                       checked((0, j) for j in range(n)),
                                       checked((n - 1 - i, i) for i in range(n)))


def test_bone_polynomials_n3():
    b1, b2, b3 = bone_polynomials(3)
    assert b1 == parse_poly("1 + x + x^2")
    assert b2 == parse_poly("1 + y + y^2")
    assert b3 == parse_poly("x^2 + x*y + y^2")


def test_bone_system_n3_elements():
    bs = bone_system(3)
    g1, g2, g3, g4 = bs.basis.elements
    assert g1 == bs.b1 and g2 == bs.b2
    assert g3 == parse_poly("3 + 3*x + 3*y")
    assert g4 == parse_poly("x*y - x - y - 2")
    assert bs.basis.verified


@pytest.mark.parametrize("n", range(3, 9))
def test_leading_terms(n):
    lts = bone_system(n).basis.leading_terms()
    assert lts == [((n - 1, 0), 1), ((0, n - 1), 1), ((n - 2, 0), n), ((n - 2, 1), 1)]


def test_leading_terms_n2_degenerate():
    # For n = 2 both g3 and g4 collapse to constants: g3 = 2, g4 = -2.
    bs = bone_system(2)
    assert bs.basis.elements[2] == Polynomial.constant(2)
    assert bs.basis.elements[3] == Polynomial.constant(-2)
    assert bs.basis.verified


def test_bone_system_rejects_small_n():
    with pytest.raises(ValueError):
        bone_system(1)
    with pytest.raises(ValueError):
        bone_polynomials(0)


@pytest.mark.parametrize("n", range(2, 9))
def test_cofactors_exact(n):
    bs = bone_system(n)
    gens = [bs.b1, bs.b2, bs.b3]
    for elem, row in zip(bs.basis.elements, bs.basis.cofactors):
        acc = Polynomial.zero()
        for c, g in zip(row, gens):
            acc = acc + c * g
        assert acc == elem


def test_shared_bone_basis_is_frozen():
    # bone_system is cached, so every caller gets the same basis; no caller
    # may change what a later bone_system(n) or remainder returns.
    basis = bone_system(3).basis
    before = remainder(triangle(10), basis)
    with pytest.raises(AttributeError):
        basis.verified = False
    with pytest.raises(AttributeError):
        basis.elements = [Polynomial.constant(1)]
    with pytest.raises(AttributeError):
        basis.elements.append(Polynomial.constant(1))
    with pytest.raises(TypeError):
        basis.elements[0] = Polynomial.constant(1)
    with pytest.raises(TypeError):
        basis.cofactors[0][0] = Polynomial.zero()
    again = bone_system(3)
    assert again.basis is basis and again.basis.verified
    assert len(again.basis.elements) == 4
    assert remainder(triangle(10), again.basis) == before == t_remainder_closed(10, 3)


def test_shared_bone_basis_terms_are_read_only():
    # A write into an element's term map once changed every later division
    # by the cached basis: T(10) reduced to 2 + y instead of 1.
    basis = bone_system(3).basis
    with pytest.raises(TypeError):
        basis.elements[2].terms[(0, 0)] = 4
    with pytest.raises(TypeError):
        basis.cofactors[2][0].terms[(0, 0)] = 4
    assert basis.elements[2] == 3 * triangle(2)
    assert remainder(triangle(10), basis) == Polynomial.constant(1)
    assert reduce(triangle(10), basis).remainder == Polynomial.constant(1)


def test_cofactor_rows_shape():
    rows = bone_system(3).basis.cofactors
    one = Polynomial.constant(1)
    zero = Polynomial.zero()
    assert rows[0] == (one, zero, zero)
    assert rows[1] == (zero, one, zero)
    assert rows[3] == (-one, -one, one)
    c = parse_poly("2 + x")
    assert rows[2] == (parse_poly("1 + x + y"), c, -c)
    b1, b2, b3 = bone_polynomials(3)
    assert b1 * parse_poly("1 + x + y") + c * b2 - c * b3 == parse_poly("3 + 3*x + 3*y")


@pytest.mark.parametrize("m,n,expected", [
    (7, 3, "1"),
    (9, 3, "0"),
    (2, 5, "x + y"),
    (0, 4, "0"),
])
def test_b3_remainder_examples(m, n, expected):
    assert format_poly(b3_remainder(m, n)) == expected


@pytest.mark.parametrize("n", range(2, 7))
def test_b3_remainder_of_n_squared(n):
    assert b3_remainder(n * n, n).is_zero()


@pytest.mark.parametrize("n", range(2, 7))
def test_b3_remainder_agrees_with_division(n):
    # The acceptance suite runs the full n <= 8 grid.
    basis = bone_system(n).basis
    for m in range(0, 2 * n * n + 1):
        assert b3_remainder(m, n) == reduce(b3_poly(m), basis).remainder, (m, n)


def test_t_remainder_examples():
    assert format_poly(t_remainder_closed(6, 3)) == "2 + 2*x + 2*y"
    assert t_remainder_closed(8, 3).is_zero()
    for n in range(2, 9):
        assert t_remainder_closed(n * n - 1, n).is_zero()
        assert t_remainder_closed(n * n, n).is_zero()


def test_t_remainder_is_the_b3_sum():
    # Independent brute-force expansion of the closed-form sum.
    for n in range(2, 7):
        for m in range(1, n * n - 1):
            acc = Polynomial.zero()
            for k in range(1, m + 1):
                acc = acc + b3_poly(k % n)
            assert t_remainder_closed(m, n) == acc, (m, n)


@pytest.mark.parametrize("n", range(2, 7))
def test_t_remainder_periodicity(n):
    period = n * n
    for m in range(0, 2 * period):
        assert t_remainder_closed(m + period, n) == t_remainder_closed(m, n)


@pytest.mark.parametrize("n", range(2, 7))
def test_t_remainder_matches_division(n):
    basis = bone_system(n).basis
    for m in range(0, 2 * n * n + 3):
        assert t_remainder_closed(m, n) == reduce(triangle(m), basis).remainder, (m, n)


@pytest.mark.parametrize("n", range(2, 7))
def test_closed_form_is_reduced(n):
    # No term of the closed-form remainder is strongly reducible.
    basis = bone_system(n).basis
    lts = basis.leading_terms()
    for m in range(1, n * n - 1):
        for mono, c in t_remainder_closed(m, n).terms.items():
            for gm, gc in lts:
                if all(a <= b for a, b in zip(gm, mono)):
                    assert coeff_divmod(c, gc, "nonneg")[0] == 0, (m, n, mono)


@pytest.mark.parametrize("m,n,expected", [
    (8, 3, True), (9, 3, True), (10, 3, False),
    (3, 2, True), (1, 2, False), (1, 5, False),
    (17, 3, True), (18, 3, True), (16, 3, False),
])
def test_decide_nbone(m, n, expected):
    assert decide_nbone(m, n) is expected


@pytest.mark.parametrize("n", range(2, 7))
def test_decide_matches_membership(n):
    basis = bone_system(n).basis
    for m in range(1, 2 * n * n + 3):
        member, _ = groebner.ideal_member(triangle(m), basis)
        assert member == decide_nbone(m, n)


@pytest.mark.parametrize("n", range(2, 9))
def test_unit_power_differences_in_ideal(n):
    basis = bone_system(n).basis
    xn = Polynomial({(n, 0): 1, (0, 0): -1})
    yn = Polynomial({(0, n): 1, (0, 0): -1})
    assert reduce(xn, basis).remainder.is_zero()
    assert reduce(yn, basis).remainder.is_zero()


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_g3_membership_via_completion(n):
    basis = buchberger(list(bone_polynomials(n)), conv="nonneg")
    g3 = n * triangle(n - 1)
    assert reduce(g3, basis).remainder.is_zero()


def test_nbone_prototiles_match_generators():
    from tilegb.tiling import newton_polynomial
    for n in (2, 3, 5):
        tiles = nbone_prototiles(n)
        assert [newton_polynomial(t) for t in tiles] == list(bone_polynomials(n))
