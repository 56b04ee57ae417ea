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


_ONE_MINUS_X = Polynomial({(0, 0): 1, (1, 0): -1})
_ONE_MINUS_Y = Polynomial({(0, 0): 1, (0, 1): -1})
_X_MINUS_Y = Polynomial({(1, 0): 1, (0, 1): -1})


def rational_form_T(m: int) -> RationalForm:
    """The corner expansion of the side-m triangle:
    1/((1-x)(1-y)) + x^(m+1)/((x-1)(x-y)) + y^(m+1)/((y-1)(y-x))."""
    if m < 0:
        raise ValueError("negative side length")
    return RationalForm([
        (Polynomial.constant(1), [_ONE_MINUS_X, _ONE_MINUS_Y]),
        (Polynomial({(m + 1, 0): 1}), [-_ONE_MINUS_X, _X_MINUS_Y]),
        (Polynomial({(0, m + 1): 1}), [-_ONE_MINUS_Y, -_X_MINUS_Y]),
    ])


def verify_brion(m: int) -> bool:
    """Check T(m) * (1-x)(1-y)(x-y) == (x-y) - x^(m+1)(1-y) + y^(m+1)(1-x),
    the cleared-denominator statement of the corner expansion.  T(m) is
    multiplied by one two-term factor at a time: (1-x) already telescopes
    each row to two terms, so only that first product is as large as T(m)."""
    if m < 0:
        raise ValueError("negative side length")
    rhs = (_X_MINUS_Y
           - Polynomial({(m + 1, 0): 1}) * _ONE_MINUS_Y
           + Polynomial({(0, m + 1): 1}) * _ONE_MINUS_X)
    lhs = triangle(m)
    for factor in (_ONE_MINUS_X, _ONE_MINUS_Y, _X_MINUS_Y):
        lhs = lhs * factor
    return lhs == rhs
