"""Rational corner forms of triangle transforms."""

import pytest

from tilegb.bones import triangle
from tilegb.brion import form_denotes, rational_form_T, verify_brion
from tilegb.polyring import Polynomial, format_poly, parse_poly


def test_form_structure():
    form = rational_form_T(5)
    assert len(form.terms) == 3
    nums = [format_poly(num) for num, _ in form.terms]
    assert nums == ["1", "x^6", "y^6"]
    dens = [[format_poly(d) for d in factors] for _, factors in form.terms]
    assert dens == [["1 - x", "1 - y"], ["-1 + x", "x - y"], ["-1 + y", "-x + y"]]


def test_form_denotes_zero_and_one():
    assert form_denotes(rational_form_T(0), Polynomial.zero())
    assert form_denotes(rational_form_T(1), Polynomial.constant(1))
    assert not form_denotes(rational_form_T(2), Polynomial.constant(1))


@pytest.mark.parametrize("m", [0, 1, 2, 3, 7, 12, 25])
def test_form_denotes_triangle(m):
    assert form_denotes(rational_form_T(m), triangle(m))


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
