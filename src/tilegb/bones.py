"""The n-bone ideal: line-tile generators, triangular regions, the explicit
strong basis for every n, closed-form remainders and the tiling decision.

An n-bone is the n-in-line tile on the hexagonal lattice; its three
orientations have Newton polynomials b1 = 1 + x + ... + x^(n-1),
b2 = 1 + y + ... + y^(n-1) and b3 = x^(n-1) + x^(n-2) y + ... + y^(n-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import groebner
from .polyring import LEX, Polynomial
from .groebner import GroebnerBasis


def bone_polynomials(n: int) -> tuple[Polynomial, Polynomial, Polynomial]:
    """(b1, b2, b3) for the three n-bone orientations."""
    if n < 2:
        raise ValueError(f"bone length must be >= 2, got {n}")
    b1 = Polynomial._make({(i, 0): 1 for i in range(n)}, 2)
    b2 = Polynomial._make({(0, j): 1 for j in range(n)}, 2)
    return b1, b2, b3_poly(n)


def b3_poly(m: int) -> Polynomial:
    """x^(m-1) + x^(m-2) y + ... + y^(m-1); zero for m = 0."""
    if m < 0:
        raise ValueError("negative length")
    return Polynomial._make({(m - 1 - i, i): 1 for i in range(m)}, 2)


def triangle(m: int) -> Polynomial:
    """Newton polynomial of the triangular region of side m:
    sum of x^i y^j over i, j >= 0 with i + j <= m - 1."""
    if m < 0:
        raise ValueError("negative side length")
    return Polynomial._make({(i, j): 1 for i in range(m) for j in range(m - i)}, 2)


def nbone_prototiles(n: int) -> list[frozenset[tuple[int, int]]]:
    """The three n-bone cell sets, anchored at the origin."""
    if n < 2:
        raise ValueError(f"bone length must be >= 2, got {n}")
    return [frozenset((i, 0) for i in range(n)),
            frozenset((0, j) for j in range(n)),
            frozenset((n - 1 - i, i) for i in range(n))]


@dataclass(frozen=True)
class BoneSystem:
    """Bundle of the n-bone generators and their explicit strong basis.

    The basis elements are g1 = b1, g2 = b2, g3 = n * triangle(n-1) and
    g4 = b3 - b1 - b2; the attached cofactor matrix expresses each of them
    over (b1, b2, b3).
    """

    n: int
    b1: Polynomial
    b2: Polynomial
    b3: Polynomial
    basis: GroebnerBasis


@lru_cache(maxsize=None)
def bone_system(n: int) -> BoneSystem:
    """Construct (and verify) the explicit strong basis for the n-bone ideal."""
    b1, b2, b3 = bone_polynomials(n)
    t = triangle(n - 1)
    g3 = n * t
    g4 = b3 - b1 - b2
    one = Polynomial.constant(1)
    zero = Polynomial.zero()
    # g3 = t*b1 + C*b2 - C*b3 with C = sum of (n-1-i) x^i: telescoping
    # (x^k - 1) t = (1 + x + ... + x^(k-1)) (b3 - b2) summed over k < n.
    c = Polynomial({(i, 0): n - 1 - i for i in range(n - 1)})
    cofactors = (
        (one, zero, zero),
        (zero, one, zero),
        (t, c, -c),
        (-one, -one, one),
    )
    # Every caller shares this cached basis, so it is frozen and holds tuples.
    basis = GroebnerBasis((b1, b2, g3, g4), LEX, "nonneg",
                          generators=(b1, b2, b3), cofactors=cofactors)
    report = groebner.verify_strong_gb(basis)
    if not report.passed:
        raise RuntimeError(f"explicit basis failed verification for n={n}: {report.reason}")
    return BoneSystem(n, b1, b2, b3, basis)


def b3_remainder(m: int, n: int) -> Polynomial:
    """Closed-form remainder of b3(m) against the n-bone basis: b3(m mod n)."""
    if n < 2:
        raise ValueError(f"bone length must be >= 2, got {n}")
    if m < 0:
        raise ValueError("negative length")
    return b3_poly(m % n)


def t_remainder_closed(m: int, n: int) -> Polynomial:
    """Closed-form remainder of triangle(m) against the n-bone basis under the
    non-negative convention: zero when m mod n^2 is 0 or n^2 - 1, otherwise
    the sum of b3(k mod n) for k = 1 .. m mod n^2.  Periodic with period n^2.
    """
    if n < 2:
        raise ValueError(f"bone length must be >= 2, got {n}")
    if m < 0:
        raise ValueError("negative side length")
    mm = m % (n * n)
    if mm == 0 or mm == n * n - 1:
        return Polynomial.zero()
    acc: dict[tuple[int, int], int] = {}
    for r in range(1, n):
        count = (mm - r) // n + 1 if mm >= r else 0
        if count:
            for i in range(r):
                mono = (r - 1 - i, i)
                acc[mono] = acc.get(mono, 0) + count
    return Polynomial(acc)


def decide_nbone(m: int, n: int) -> bool:
    """True iff the side-m triangle admits a signed tiling by n-bones,
    i.e. m is congruent to 0 or -1 modulo n^2."""
    if n < 2:
        raise ValueError(f"bone length must be >= 2, got {n}")
    if m < 0:
        raise ValueError("negative side length")
    return m % (n * n) in (0, n * n - 1)
