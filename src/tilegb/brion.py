"""Short rational forms for triangle integer-point transforms.

The side-m triangle's Newton polynomial equals a three-term sum of rational
functions attached to the triangle's corners; verification clears
denominators and checks a polynomial identity by exact multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bones import triangle
from .polyring import Polynomial


@dataclass
class RationalForm:
    """Sum of numerator / product(denominator factors) terms."""

    terms: list[tuple[Polynomial, list[Polynomial]]]


def _p(coeffs: dict) -> Polynomial:
    return Polynomial(coeffs)


def rational_form_T(m: int) -> RationalForm:
    """The corner expansion of the side-m triangle:
    1/((1-x)(1-y)) + x^(m+1)/((x-1)(x-y)) + y^(m+1)/((y-1)(y-x))."""
    if m < 0:
        raise ValueError("negative side length")
    one_minus_x = _p({(0, 0): 1, (1, 0): -1})
    one_minus_y = _p({(0, 0): 1, (0, 1): -1})
    x_minus_one = _p({(1, 0): 1, (0, 0): -1})
    y_minus_one = _p({(0, 1): 1, (0, 0): -1})
    x_minus_y = _p({(1, 0): 1, (0, 1): -1})
    y_minus_x = _p({(0, 1): 1, (1, 0): -1})
    return RationalForm([
        (Polynomial.constant(1), [one_minus_x, one_minus_y]),
        (_p({(m + 1, 0): 1}), [x_minus_one, x_minus_y]),
        (_p({(0, m + 1): 1}), [y_minus_one, y_minus_x]),
    ])


def verify_brion(m: int) -> bool:
    """Check T(m) * (1-x)(1-y)(x-y) == (x-y) - x^(m+1)(1-y) + y^(m+1)(1-x),
    the cleared-denominator statement of the corner expansion.  T(m) is
    multiplied by one two-term factor at a time: (1-x) already telescopes
    each row to two terms, so only that first product is as large as T(m)."""
    if m < 0:
        raise ValueError("negative side length")
    one_minus_x = _p({(0, 0): 1, (1, 0): -1})
    one_minus_y = _p({(0, 0): 1, (0, 1): -1})
    x_minus_y = _p({(1, 0): 1, (0, 1): -1})
    rhs = (x_minus_y
           - _p({(m + 1, 0): 1}) * one_minus_y
           + _p({(0, m + 1): 1}) * one_minus_x)
    lhs = triangle(m)
    for factor in (one_minus_x, one_minus_y, x_minus_y):
        lhs = lhs * factor
    return lhs == rhs
