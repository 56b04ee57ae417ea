"""Rational corner forms of triangle transforms."""

from fractions import Fraction

import pytest

from tilegb.bones import triangle
from tilegb.brion import rational_form_T, verify_brion
from tilegb.polyring import Polynomial, format_poly, parse_poly

# Points off the poles of the corner expansion: x != 1, y != 1, x != y.
POINTS = [(Fraction(2), Fraction(3)), (Fraction(-1), Fraction(1, 2)),
          (Fraction(1, 3), Fraction(-2)), (Fraction(-5, 7), Fraction(3, 4))]


def at(p, x, y):
    """Exact value of the polynomial p at (x, y)."""
    return sum(c * x ** a * y ** b for (a, b), c in p.terms.items())


def form_at(form, x, y):
    """Exact value of the rational form at (x, y), term by term."""
    total = Fraction(0)
    for num, factors in form.terms:
        value = Fraction(at(num, x, y))
        for f in factors:
            value /= at(f, x, y)
        total += value
    return total


def test_form_structure():
    form = rational_form_T(5)
    assert len(form.terms) == 3
    nums = [format_poly(num) for num, _ in form.terms]
    assert nums == ["1", "x^6", "y^6"]
    dens = [[format_poly(d) for d in factors] for _, factors in form.terms]
    assert dens == [["1 - x", "1 - y"], ["-1 + x", "x - y"], ["-1 + y", "-x + y"]]


def test_form_denotes_zero_and_one():
    for x, y in POINTS:
        assert form_at(rational_form_T(0), x, y) == 0
        assert form_at(rational_form_T(1), x, y) == 1
        assert form_at(rational_form_T(2), x, y) != 1  # T(2) = 1 + x + y


@pytest.mark.parametrize("m", [0, 1, 2, 3, 7, 12, 25])
def test_form_denotes_triangle(m):
    for x, y in POINTS:
        assert form_at(rational_form_T(m), x, y) == at(triangle(m), x, y)


def test_verify_brion_range():
    for m in range(0, 51):
        assert verify_brion(m), m


def test_brion_hand_anchor_m1():
    # At m = 1 the combined numerator is exactly the common denominator.
    delta = parse_poly("1 - x") * parse_poly("1 - y") * parse_poly("x - y")
    rhs = (parse_poly("x - y")
           - parse_poly("x^2") * parse_poly("1 - y")
           + parse_poly("y^2") * parse_poly("1 - x"))
    assert rhs == delta
    assert triangle(1) == Polynomial.constant(1)


def test_rejects_negative():
    with pytest.raises(ValueError):
        rational_form_T(-1)
    with pytest.raises(ValueError):
        verify_brion(-2)
