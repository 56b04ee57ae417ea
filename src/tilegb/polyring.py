"""Sparse multivariate polynomials with arbitrary-precision integer coefficients.

Monomials are plain tuples of non-negative exponents; a polynomial is a map
from monomial to nonzero coefficient.  The default ring is Z[x, y].

Products and division (``groebner._Divider``) work on packed monomials in
one layout, ``Slots``: each exponent gets a slot of ``bits`` bits and a
guard bit in one int, so multiplying two monomials is adding two ints.
The layout is exact only while every exponent met fits its slot.  A
product sizes its slots from its two operands.  A divider packs its basis
once for all its calls, and widens the slots and re-packs the basis only
when an input needs more bits than they hold, by the bound proved on
``groebner._Divider``.  A negative exponent, which fits no slot, is refused.

``parse_poly`` reads text in one split-and-memo pass.  String methods cut
the text into terms at '+'/'-' and each term at its first '*'.  Each
distinct head (sign and first factor, e.g. "-3" or " x^12") and tail (the
factors after it, e.g. "y^5 ") is checked and converted once per call,
through dicts that live for that call only, so a term costs a few dict
lookups and one dict update: a side-m triangle has m^2 terms but about 2m
distinct heads and tails.  Text this pass refuses, and an integer past
the interpreter's int/str digit limit, go to ``_parse_error``.  It scans
the grammar with ``_STEP`` term by term, builds nothing, and only finds
the position to report.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import repeat
from operator import add, lshift
from types import MappingProxyType
from typing import Collection, Iterable, Iterator, Sequence

Mono = tuple[int, ...]

CONVENTIONS = ("minabs", "nonneg")


class PolyParseError(ValueError):
    """Syntax error in polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class TermOrder:
    """Lexicographic term order; ``precedence`` lists variable indices from
    most to least significant (default: x before y)."""

    precedence: tuple[int, ...] = (0, 1)

    def key(self, mono: Mono) -> tuple[int, ...]:
        return tuple(mono[i] for i in self.precedence)


LEX = TermOrder()


def mono_divides(u: Mono, v: Mono) -> bool:
    """True iff the monomial u divides v componentwise."""
    return all(a <= b for a, b in zip(u, v))


def mono_div(u: Mono, v: Mono) -> Mono:
    """u / v; requires v | u."""
    q = tuple(a - b for a, b in zip(u, v))
    if any(e < 0 for e in q):
        raise ValueError(f"{v} does not divide {u}")
    return q


def mono_lcm(u: Mono, v: Mono) -> Mono:
    return tuple(map(max, u, v))


class Slots:
    """The packed-monomial layout: one int per monomial, one slot per
    variable, each with ``bits`` exponent bits and a guard bit above them.
    The first variable of ``precedence`` gets the top slot, so comparing
    packed monomials is lex comparison under that precedence, and
    multiplying two monomials is adding two ints.  While every exponent
    fits ``bits``, v divides u exactly when u - v is non-negative with no
    bit of ``guard`` set.  A negative exponent fits no slot; callers refuse
    it before they pack.

    ``pack`` encodes a term map one exponent column at a time, with one
    C-level map per variable and no interpreter frame per term (``encode``).
    ``unpack`` decodes the same way, whatever the size of the map
    (``columns``)."""

    __slots__ = ("bits", "shifts", "guard")

    def __init__(self, bits: int, precedence: Sequence[int]):
        width, last = bits + 1, len(precedence) - 1
        shifts = [0] * len(precedence)  # each variable's bit offset
        for k, v in enumerate(precedence):
            shifts[v] = width * (last - k)
        self.bits, self.shifts = bits, shifts
        self.guard = sum(1 << (s + bits) for s in shifts)

    def mono(self, m: Mono) -> int:
        """The packed monomial m."""
        return sum(map(lshift, m, self.shifts))

    def encode(self, cols: Iterable[Iterable[int]]) -> Iterable[int]:
        """The packed monomials whose exponent columns are ``cols``, one per
        variable, as a lazy iterable: each column is shifted into its slot by
        one map and the shifted columns are summed by another."""
        packed = None
        for col, shift in zip(cols, self.shifts):
            if shift:  # the lowest slot's column is packed as it is
                col = map(lshift, col, repeat(shift))
            packed = col if packed is None else map(add, packed, col)
        return repeat(0) if packed is None else packed  # an empty map, or no variables

    def pack(self, terms: Mapping[Mono, int],
             cols: Sequence[Iterable[int]] | None = None) -> dict[int, int]:
        """The term map on packed monomials, in the order of ``terms``: the
        inverse of ``unpack``.  ``cols`` are the exponent columns of
        ``terms``, one per variable, for a caller that has read them already
        to size the slots."""
        return dict(zip(self.encode(zip(*terms) if cols is None else cols), terms.values()))

    def columns(self, packed: Collection[int]) -> list[list[int]]:
        """The exponent columns of packed monomials, one per variable."""
        mask = (1 << self.bits) - 1
        return [[(p >> s) & mask for p in packed] for s in self.shifts]

    def unpack(self, packed: Collection[int],
               coeffs: Iterable[int] | None = None) -> dict[Mono, int]:
        """The term map of packed monomials and their coefficients, in
        order: the inverse of ``pack``.  Without ``coeffs``, ``packed`` is a
        packed term map and its values are the coefficients."""
        if coeffs is None:
            coeffs = packed.values()
        # One column of exponents per variable, zipped into tuples at the end,
        # spends no interpreter frame per term.
        return dict(zip(zip(*self.columns(packed)), coeffs))


def _mul_packed(f: dict[Mono, int], g: dict[Mono, int], nvars: int) -> dict[Mono, int]:
    """Product of two term maps on packed monomials.  The exponent bits of
    a slot hold the sum of the two largest exponents, so no product
    exponent carries.

    A sum that cancels is dropped at once, so a product that mostly cancels
    (``verify_brion``'s) stays small while it runs, and the accumulator is
    freed before the result is built, so the two are never held at once."""
    fcols, gcols = list(zip(*f)), list(zip(*g))
    if min(map(min, fcols + gcols)) < 0:
        raise ValueError("negative exponent; products need exponents >= 0")
    top = max(map(max, fcols)) + max(map(max, gcols))
    slots = Slots(top.bit_length() or 1, range(nvars))
    acc: dict[int, int] = {}
    get = acc.get
    inner = list(slots.pack(g, gcols).items())
    for p1, c1 in zip(slots.encode(fcols), f.values()):
        for p2, c2 in inner:
            p = p1 + p2
            c = get(p, 0) + c1 * c2
            if c:
                acc[p] = c
            else:
                del acc[p]
    packed, coeffs = list(acc), list(acc.values())
    del acc, get
    return slots.unpack(packed, coeffs)


class Polynomial:
    """Immutable sparse polynomial over Z.

    ``terms`` is a read-only map from exponent tuples to nonzero integer
    coefficients; the zero polynomial has an empty map.  All monomials share
    the arity ``nvars``, and every exponent is non-negative: the constructor
    checks both, and ``_make`` trusts its caller to keep them.  Products
    rely on it.
    """

    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, terms: Mapping[Mono, int] | Iterable[tuple[Mono, int]] | None = None,
                 nvars: int = 2):
        data: dict[Mono, int] = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for mono, coeff in items:
                mono = tuple(mono)
                if len(mono) != nvars:
                    raise ValueError(f"monomial {mono} has arity {len(mono)}, expected {nvars}")
                if any(e < 0 for e in mono):
                    raise ValueError(f"negative exponent in {mono}")
                c = data.get(mono, 0) + coeff
                if c:
                    data[mono] = c
                else:
                    data.pop(mono, None)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", MappingProxyType(data))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @staticmethod
    def _make(data: dict[Mono, int], nvars: int) -> Polynomial:
        # Internal: wrap an already-normalized term map, which the caller
        # hands over and keeps no reference to, without re-validating.
        p = object.__new__(Polynomial)
        object.__setattr__(p, "nvars", nvars)
        object.__setattr__(p, "terms", MappingProxyType(data))
        object.__setattr__(p, "_hash", None)
        return p

    @staticmethod
    def zero(nvars: int = 2) -> Polynomial:
        return Polynomial(None, nvars)

    @staticmethod
    def constant(c: int, nvars: int = 2) -> Polynomial:
        return Polynomial({(0,) * nvars: c}, nvars)

    @staticmethod
    def variable(index: int, nvars: int = 2) -> Polynomial:
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} is outside 0..{nvars - 1}")
        mono = tuple(1 if i == index else 0 for i in range(nvars))
        return Polynomial({mono: 1}, nvars)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[tuple[Mono, int]]:
        return iter(self.terms.items())

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self == Polynomial.constant(other, self.nvars)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.nvars, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def _check_arity(self, other: Polynomial):
        if self.nvars != other.nvars:
            raise ValueError(f"arity mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other) -> Polynomial:
        if isinstance(other, int):
            other = Polynomial.constant(other, self.nvars)
        self._check_arity(other)
        data = self.terms.copy()  # dict(proxy) would copy key by key
        for mono, coeff in other.terms.items():
            c = data.get(mono, 0) + coeff
            if c:
                data[mono] = c
            else:
                del data[mono]
        return Polynomial._make(data, self.nvars)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial._make({m: -c for m, c in self.terms.items()}, self.nvars)

    def __sub__(self, other) -> Polynomial:
        if isinstance(other, int):
            other = Polynomial.constant(other, self.nvars)
        return self + (-other)

    def __rsub__(self, other) -> Polynomial:
        return (-self) + other

    def __mul__(self, other) -> Polynomial:
        if isinstance(other, int):
            if other == 0:
                return Polynomial.zero(self.nvars)
            return Polynomial._make({m: other * c for m, c in self.terms.items()}, self.nvars)
        self._check_arity(other)
        big, small = (self, other) if len(self.terms) >= len(other.terms) else (other, self)
        if len(small.terms) == 1:
            (mono, c), = small.terms.items()
            return big.mul_term(c, mono)
        if not small.terms:
            return Polynomial.zero(self.nvars)
        return Polynomial._make(_mul_packed(big.terms, small.terms, self.nvars), self.nvars)

    __rmul__ = __mul__

    def mul_term(self, coeff: int, mono: Mono) -> Polynomial:
        """Multiply by the single term coeff * x^mono, a monomial of the ring."""
        if len(mono) != self.nvars or min(mono, default=0) < 0:
            raise ValueError(f"{tuple(mono)} is not a monomial in {self.nvars} variables")
        if coeff == 0:
            return Polynomial.zero(self.nvars)
        return Polynomial._make({tuple(map(add, m, mono)): coeff * c
                                 for m, c in self.terms.items()}, self.nvars)

    def leading_term(self, order: TermOrder = LEX) -> tuple[Mono, int]:
        """(monomial, coefficient) of the largest term under ``order``."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self.terms, key=order.key)
        return mono, self.terms[mono]

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def max_exponent(self, var: int) -> int:
        """Largest exponent of variable ``var``; 0 for the zero polynomial."""
        return max((m[var] for m in self.terms), default=0)

    def __repr__(self) -> str:
        return f"Polynomial({format_poly(self)!r})"

    def __str__(self) -> str:
        return format_poly(self)


def coeff_divmod(a: int, d: int, conv: str = "minabs") -> tuple[int, int]:
    """Division a = q*d + r with the remainder picked by the convention.

    minabs: |r| <= |d|/2, ties broken toward positive r.
    nonneg: 0 <= r < |d|.
    """
    if d == 0:
        raise ZeroDivisionError("division by zero coefficient")
    ad = abs(d)
    r = a % ad  # Python remainder is already in [0, ad)
    if conv == "minabs":
        if 2 * r > ad:
            r -= ad
        # 2*r == ad keeps the positive representative
    elif conv != "nonneg":
        raise ValueError(f"unknown coefficient convention {conv!r}")
    return (a - r) // d, r


def diff_quotient(p: Polynomial) -> Polynomial:
    """(p(x) - p(y)) / (x - y) for a polynomial p in x alone.

    Always a polynomial: x^m contributes x^(m-1) + x^(m-2) y + ... + y^(m-1).
    """
    if p.nvars != 2:
        raise ValueError("expected a polynomial in the ring Z[x, y]")
    data: dict[Mono, int] = {}
    for (m, q), c in p.terms.items():
        if q != 0:
            raise ValueError("input must involve only the variable x")
        for i in range(m):
            mono = (m - 1 - i, i)
            v = data.get(mono, 0) + c
            if v:
                data[mono] = v
            else:
                del data[mono]
    return Polynomial(data, 2)


# The third name is the Laurent variable t of I + (txy - 1), which
# ``homology.basis_group`` completes in Z[x, y, t].
VAR_NAMES = ("x", "y", "t")


def _display_key(item: tuple[Mono, int]) -> tuple[int, tuple[int, ...]]:
    # Ascending total degree, x-major within a degree: 1 < x < y < x^2 < x*y < y^2.
    mono = item[0]
    return (sum(mono), tuple(-e for e in mono))


# 10^500: chunks of 500 digits stay below the smallest int/str conversion
# limit CPython allows (640 digits), whatever the process has set.
_CHUNK = 10 ** 500


def _decimal(n: int) -> str:
    """Decimal text of n >= 0, converted in 500-digit chunks when long, so
    integers past the interpreter's int/str digit limit still print."""
    if n < _CHUNK:
        return str(n)
    chunks = []
    while n:
        n, r = divmod(n, _CHUNK)
        chunks.append(r)
    return str(chunks.pop()) + "".join(f"{r:0500d}" for r in reversed(chunks))


def format_poly(p: Polynomial) -> str:
    """Canonical text form, e.g. "x^2 + x*y + y^2" or "-1 - x - y"."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for mono, coeff in sorted(p.terms.items(), key=_display_key):
        factors = []
        for i, e in enumerate(mono):
            if e == 1:
                factors.append(VAR_NAMES[i])
            elif e > 1:
                factors.append(f"{VAR_NAMES[i]}^{_decimal(e)}")
        mag = abs(coeff)
        if not factors:
            body = _decimal(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = _decimal(mag) + "*" + "*".join(factors)
        if not parts:
            parts.append(("-" if coeff < 0 else "") + body)
        else:
            parts.append(("- " if coeff < 0 else "+ ") + body)
    return " ".join(parts)


# The grammar, written once: a term is an optional integer coefficient and
# x/y factors with optional ``^exponent``, joined by '*'; terms are joined by
# '+'/'-', and the first may carry a sign.  From ``pos``, _STEP matches the
# longest prefix that continues a valid polynomial by one term: its sign
# (optional only at the start of the text), the term, then at most one
# operator still waiting for its operand (group "wait").  Matching term by
# term keeps memory flat: one match over the whole text keeps a backtracking
# frame per repetition (27 MB for the side-192 triangle).
_FACTOR = r"\s*([xy])(?:\s*\^\s*(\d+))?"
_STEP = re.compile(rf"(?P<sign>^\s*[+-]?|\s*[+-])(?P<term>(?:\s*\d+|{_FACTOR})"
                   rf"(?:\s*\*{_FACTOR})*(?P<wait>(?<=[xy])\s*\^|\s*\*)?)?\s*")
# One factor, and a term up to its first '*' (its sign and first factor):
# the groups of _FACTOR are the variable and its exponent.
_POWER = re.compile(_FACTOR + r"\s*")
_HEAD = re.compile(rf"(-?)(?:\s*(\d+)|{_FACTOR})\s*")
_DIGITS = re.compile(r"\d+")


def _power(text: str) -> tuple[int, int]:
    """Exponents (i, j) of one x/y factor, e.g. " y ^ 12" -> (0, 12)."""
    m = _POWER.fullmatch(text)
    if not m:
        raise ValueError(text)
    e = int(m[2] or 1)
    return (e, 0) if m[1] == "x" else (0, e)


def _head(text: str) -> tuple[int, int, int]:
    """(coefficient, i, j) of a term up to its first '*', with the term's
    sign: "-3" -> (-3, 0, 0), " x^2" -> (1, 2, 0)."""
    m = _HEAD.fullmatch(text)
    if not m:
        raise ValueError(text)
    sign, coeff, var, exp = m.groups()
    c = -1 if sign else 1
    if coeff:
        return c * int(coeff), 0, 0
    e = int(exp or 1)
    return (c, e, 0) if var == "x" else (c, 0, e)


def _tail(text: str) -> tuple[int, int]:
    """Summed exponents of the factors after a term's first '*'; a
    coefficient may not appear there."""
    if "*" not in text:
        return _power(text)
    i = j = 0
    for factor in text.split("*"):
        a, b = _power(factor)
        i += a
        j += b
    return i, j


def parse_poly(text: str) -> Polynomial:
    """Parse the canonical grammar (inverse of format_poly).  Malformed text
    raises PolyParseError at the first position no valid polynomial can
    continue from."""
    marked = text.replace("-", "+-")
    pieces = marked.split("+")  # one term each, '-' kept as its sign
    if not pieces[0].strip():  # the text opens with a sign, or is blank
        del pieces[0]
    data: dict[Mono, int] = {}
    get = data.get
    heads: dict[str, tuple[int, int, int]] = {}
    tails: dict[str, tuple[int, int]] = {"": (0, 0)}
    head_of, tail_of = heads.get, tails.get
    try:
        # An empty tail is either no '*' or a '*' at the end of its term.
        if not pieces or "*+" in marked or marked.endswith("*"):
            raise ValueError(text)
        for piece in pieces:
            head, _, tail = piece.partition("*")
            h = head_of(head)
            if h is None:
                h = heads[head] = _head(head)
            t = tail_of(tail)
            if t is None:
                t = tails[tail] = _tail(tail)
            c, i, j = h
            a, b = t
            mono = (i + a, j + b)
            c += get(mono, 0)
            if c:
                data[mono] = c
            else:
                data.pop(mono, None)
    except ValueError:  # refused, or an integer past the int/str digit limit
        raise _parse_error(text) from None
    return Polynomial._make(data, 2)


def _parse_error(text: str) -> PolyParseError:
    """The error for a text parse_poly refused: scan it term by term with
    _STEP and convert each integer, as far as the first failure."""
    pos = 0
    while True:
        m = _STEP.match(text, pos)
        if m:
            pos = m.end()
        if not m or not m["term"] or m["wait"]:
            return PolyParseError(f"unexpected {text[pos]!r}" if pos < len(text)
                                  else "incomplete polynomial", pos)
        term = m["term"]
        try:
            for digits in _DIGITS.findall(term):
                int(digits)
        except ValueError:  # an integer past the interpreter's int/str digit limit
            return PolyParseError("integer too long",
                                  m.start("term") + len(term) - len(term.lstrip()))
        if pos == len(text):
            raise RuntimeError(f"parse_poly refused valid text {text[:80]!r}")
