"""Polynomial ring: arithmetic, orders, coefficient division, parsing."""

import random
import sys
import time
from types import MappingProxyType

import pytest

from helpers import poly_with_terms, random_poly, schoolbook_product
from tilegb.bones import b3_poly, bone_polynomials, triangle
from tilegb.polyring import (LEX, Polynomial, PolyParseError, Slots, TermOrder,
                             coeff_divmod, diff_quotient, format_poly,
                             mono_divides, parse_poly)


def test_add_cancellation():
    one_plus_x = parse_poly("1 + x")
    one_minus_x = parse_poly("1 - x")
    assert one_plus_x + one_minus_x == Polynomial.constant(2)


@pytest.mark.parametrize("n", range(2, 9))
def test_x_minus_one_times_b1(n):
    b1 = bone_polynomials(n)[0]
    x_minus_1 = parse_poly("x - 1")
    assert x_minus_1 * b1 == Polynomial({(n, 0): 1, (0, 0): -1})


def test_b1_times_b2_full_square():
    b1, b2, _ = bone_polynomials(3)
    assert b1 * b2 == Polynomial({(i, j): 1 for i in range(3) for j in range(3)})


def test_arity_mismatch_raises():
    p2 = Polynomial.constant(1, nvars=2)
    p3 = Polynomial.constant(1, nvars=3)
    with pytest.raises(ValueError):
        p2 + p3
    with pytest.raises(ValueError):
        p2 * p3


def test_ring_axioms_random():
    rng = random.Random(20140909)
    for _ in range(30):
        a = random_poly(rng, max_degree=50, coeff_bound=1 << 128)
        b = random_poly(rng, max_degree=50, coeff_bound=1 << 128)
        c = random_poly(rng, max_degree=50, coeff_bound=1 << 128)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + Polynomial.zero() == a
        assert a * Polynomial.constant(1) == a
        assert a - a == Polynomial.zero()


def _random_terms(rng, nvars, base, spread, max_terms, coeff_bound):
    terms = {}
    for _ in range(rng.randrange(0, max_terms + 1)):
        mono = tuple(rng.choice((0, base)) + rng.randrange(spread) for _ in range(nvars))
        terms[mono] = terms.get(mono, 0) + rng.randint(-coeff_bound, coeff_bound)
    return Polynomial({m: c for m, c in terms.items() if c}, nvars)


def _check_products(a, b):
    for product in (a * b, b.__rmul__(a)):
        assert product == schoolbook_product(a, b)
        assert 0 not in product.terms.values()
        assert all(min(m) >= 0 and len(m) == a.nvars for m in product.terms)


@pytest.mark.parametrize("nvars", (1, 2, 3))
# The ids are written out because pytest would build them with str(), which
# refuses 10 ** 700 under the lowest int/str digit limit (640), and the whole
# module would then fail to collect.
@pytest.mark.parametrize("base", (0, 2 ** 64 - 2, 10 ** 700),
                         ids=("0", "18446744073709551614", "1" + "0" * 700))
def test_product_matches_schoolbook(nvars, base):
    # Exponents near 0, just below and past 2^64, and past 10^700 (as in the
    # digit-limit format test); few distinct exponents, so products cancel.
    rng = random.Random(1000 * nvars + base % 997)
    for _ in range(60):
        a = _random_terms(rng, nvars, base, 4, 9, 3)
        b = _random_terms(rng, nvars, base, 4, 9, 1 << 70)
        _check_products(a, b)
        for k in (0, 1, -1, 7, -(1 << 80)):
            assert a * k == k * a == schoolbook_product(a, k)
        if b:
            mono, c = next(iter(b))
            assert a.mul_term(c, mono) == schoolbook_product(a, Polynomial({mono: c}, nvars))
            assert a.mul_term(0, mono) == Polynomial.zero(nvars)


@pytest.mark.parametrize("count", (7, 8, 9, 300))
def test_products_on_both_sides_of_the_column_threshold(count):
    # Term maps of every size are decoded by columns; operands and products
    # here run from 1 to 300 terms.
    rng = random.Random(8000 + count)
    for nvars in (1, 2, 3):
        for other in (1, 2, 7, 8, 9, min(count, 40)):
            a = poly_with_terms(rng, count, nvars)
            b = poly_with_terms(rng, other, nvars)
            _check_products(a, b)
            _check_products(b, a)


def test_product_edge_operands():
    zero, one = Polynomial.zero(), Polynomial.constant(1)
    p = parse_poly("3 - x*y + 2*y^5")
    term = Polynomial({(2 ** 65, 3): -4})
    for a, b in [(p, zero), (zero, zero), (p, one), (p, Polynomial.constant(-5)), (p, term),
                 (term, term), (one, one), (Polynomial.constant(9), Polynomial.constant(-2))]:
        _check_products(a, b)
        _check_products(b, a)
    # Heavy cancellation: (1 - x) * (1 + x + ... + x^k) = 1 - x^(k+1).
    assert parse_poly("1 - x") * bone_polynomials(40)[0] == parse_poly("1 - x^40")
    delta = parse_poly("1 - x") * parse_poly("1 - y") * parse_poly("x - y")
    assert triangle(30) * delta == parse_poly("x - y - x^31 + x^31*y + y^31 - x*y^31")


def test_product_refuses_negative_exponents():
    neg = Polynomial._make({(-1, 0): 1, (0, 0): 1}, 2)
    for other in (parse_poly("1 + y"), parse_poly("x + x^2*y + 5"), neg):
        with pytest.raises(ValueError):
            neg * other
        with pytest.raises(ValueError):
            other * neg


@pytest.mark.parametrize("poly, coeff, shift", [
    ("1", 1, (-1, 0)),       # would print as 1
    ("x", 3, (-2, 1)),       # would print as 3*y
    ("x + y", 2, (1,)),      # would lose y
    ("x + y", 0, (0, -1)),   # a zero coefficient does not excuse the shift
    ("x + y", 1, (0, 0, 1)),
])
def test_mul_term_refuses_a_shift_outside_the_ring(poly, coeff, shift):
    with pytest.raises(ValueError):
        parse_poly(poly).mul_term(coeff, shift)


@pytest.mark.parametrize("index, nvars", [(5, 2), (-1, 2), (2, 2), (0, 0)])
def test_variable_refuses_an_index_outside_the_ring(index, nvars):
    with pytest.raises(ValueError):
        Polynomial.variable(index, nvars)


def test_product_is_one_method_for_both_sides():
    # The benchmark's tracer wraps the product where the class defines it.
    mul = Polynomial.__dict__["__mul__"]
    assert callable(mul) and Polynomial.__dict__["__rmul__"] is mul


def test_lex_compare_examples():
    assert LEX.key((2, 0)) > LEX.key((1, 5))  # x^2 > x*y^5
    assert LEX.key((2, 3)) == LEX.key((2, 3))
    assert LEX.key((0, 1)) > LEX.key((0, 0))  # y > 1


def test_lex_order_is_multiplicative():
    rng = random.Random(5)
    for _ in range(200):
        u = (rng.randrange(6), rng.randrange(6))
        v = (rng.randrange(6), rng.randrange(6))
        w = (rng.randrange(6), rng.randrange(6))
        uw = (u[0] + w[0], u[1] + w[1])
        vw = (v[0] + w[0], v[1] + w[1])
        assert (LEX.key(u) < LEX.key(v)) == (LEX.key(uw) < LEX.key(vw))
        assert (LEX.key(u) == LEX.key(v)) == (LEX.key(uw) == LEX.key(vw))


def test_y_before_x_precedence():
    order = TermOrder(precedence=(1, 0))
    assert order.key((2, 0)) < order.key((1, 5))  # y^5*x > x^2 when y leads


# ---------------------------------------------------------------------------
# the packed-monomial layout

@pytest.mark.parametrize("precedence", [(0, 1), (1, 0), (2, 0, 1)])
@pytest.mark.parametrize("bits", [1, 3, 7, 70])
def test_slots_round_trip_and_order(precedence, bits):
    # Maps of 0..9 and 40 terms decode column by column and must give back
    # the map in its order.  Comparing packed
    # monomials is comparing their keys under the precedence, and u - v is
    # non-negative with no guard bit set exactly when v divides u.
    rng = random.Random(bits * 10 + len(precedence))
    nvars, top = len(precedence), 2 ** bits - 1
    slots, order = Slots(bits, precedence), TermOrder(precedence)

    def mono():
        return tuple(rng.choice([0, 1, top, rng.randint(0, top)]) for _ in range(nvars))

    for size in [0, 1, 2, 7, 8, 9, 40]:
        terms = {}
        while len(terms) < size and len(terms) < (top + 1) ** nvars:
            terms[mono()] = rng.randint(-9, 9) or 1
        packed = slots.pack(terms)
        assert list(packed.values()) == list(terms.values())
        assert list(packed) == [slots.mono(m) for m in terms]
        assert list(slots.pack(terms, list(zip(*terms)))) == list(packed)
        decoded = slots.unpack(packed)
        assert list(decoded.items()) == list(terms.items())
        assert slots.unpack(list(packed), list(packed.values())) == decoded
        if terms:
            assert slots.columns(packed) == [list(col) for col in zip(*terms)]
    for _ in range(300):
        u, v = mono(), mono()
        pu, pv = slots.mono(u), slots.mono(v)
        assert (pu < pv) == (order.key(u) < order.key(v))
        assert (pu == pv) == (u == v)
        assert (pu - pv >= 0 and not (pu - pv) & slots.guard) == mono_divides(v, u)


def test_slots_place_the_leading_variable_highest():
    assert Slots(3, (0, 1)).shifts == [4, 0]
    assert Slots(3, (1, 0)).shifts == [0, 4]
    assert Slots(2, (2, 0, 1)).shifts == [3, 0, 6]
    assert Slots(2, (2, 0, 1)).guard == (1 << 2) | (1 << 5) | (1 << 8)
    assert Slots(2, (2, 0, 1)).mono((1, 2, 3)) == 1 << 3 | 2 | 3 << 6


@pytest.mark.parametrize("a,d,conv,expected", [
    (8, 5, "minabs", (2, -2)),
    (8, 5, "nonneg", (1, 3)),
    (6, 3, "minabs", (2, 0)),
    (6, 3, "nonneg", (2, 0)),
    (-1, 3, "nonneg", (-1, 2)),
    (3, 6, "minabs", (0, 3)),    # tie |r| = |d|/2 keeps the positive remainder
    (-3, 6, "minabs", (-1, 3)),
])
def test_coeff_divmod_examples(a, d, conv, expected):
    assert coeff_divmod(a, d, conv) == expected


def test_coeff_divmod_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        coeff_divmod(1, 0)


def test_coeff_divmod_properties():
    rng = random.Random(11)
    for _ in range(500):
        a = rng.randint(-10**9, 10**9)
        d = rng.randint(-10**6, 10**6) or 7
        q, r = coeff_divmod(a, d, "nonneg")
        assert a == q * d + r and 0 <= r < abs(d)
        q, r = coeff_divmod(a, d, "minabs")
        assert a == q * d + r and 2 * abs(r) <= abs(d)
        if 2 * abs(r) == abs(d):
            assert r > 0


def test_diff_quotient_cube():
    assert diff_quotient(Polynomial({(3, 0): 1})) == parse_poly("x^2 + x*y + y^2")


@pytest.mark.parametrize("m", range(0, 26))
def test_diff_quotient_power_gives_b3(m):
    assert diff_quotient(Polynomial({(m, 0): 1})) == b3_poly(m)


def test_diff_quotient_constant():
    assert diff_quotient(Polynomial.constant(7)) == Polynomial.zero()


def test_diff_quotient_rejects_y():
    with pytest.raises(ValueError):
        diff_quotient(parse_poly("x + y"))


def test_diff_quotient_is_linear_and_leibniz():
    # D(p*q) = D(p) q(y) + p(x) D(q), checkable by expansion.
    rng = random.Random(23)
    for _ in range(30):
        p = Polynomial({(rng.randrange(12), 0): rng.randint(-9, 9) or 1 for _ in range(4)})
        q = Polynomial({(rng.randrange(12), 0): rng.randint(-9, 9) or 1 for _ in range(4)})
        q_of_y = Polynomial({(0, i): c for (i, _), c in q.terms.items()})
        assert diff_quotient(p + q) == diff_quotient(p) + diff_quotient(q)
        lhs = diff_quotient(p * q)
        rhs = diff_quotient(p) * q_of_y + p * diff_quotient(q)
        assert lhs == rhs


@pytest.mark.parametrize("text,expected", [
    ("1 + x + x^2", Polynomial({(0, 0): 1, (1, 0): 1, (2, 0): 1})),
    ("3*x^0*y^0", Polynomial.constant(3)),
    ("-x", Polynomial({(1, 0): -1})),
    ("2*x*y^3 - 7", Polynomial({(1, 3): 2, (0, 0): -7})),
    ("x*x*y", Polynomial({(2, 1): 1})),
    ("0", Polynomial.zero()),
])
def test_parse_examples(text, expected):
    assert parse_poly(text) == expected


def test_format_examples():
    assert format_poly(b3_poly(3)) == "x^2 + x*y + y^2"
    assert format_poly(parse_poly("-1 - x - y")) == "-1 - x - y"
    assert format_poly(Polynomial.zero()) == "0"
    assert format_poly(Polynomial({(1, 0): -3, (0, 0): 2})) == "2 - 3*x"


def test_format_names_the_third_variable_t():
    # txy - 1 is in every basis of I + (txy - 1) that homology completes.
    txy_minus_1 = Polynomial({(1, 1, 1): 1, (0, 0, 0): -1}, 3)
    assert str(txy_minus_1) == "-1 + x*y*t"
    assert repr(txy_minus_1) == "Polynomial('-1 + x*y*t')"
    assert format_poly(Polynomial({(0, 2, 3): 2, (1, 0, 0): -1}, 3)) == "-x + 2*y^2*t^3"


@pytest.mark.parametrize("bad,pos", [
    ("", 0),
    ("x +", 3),
    ("1 + * x", 4),
    ("z", 0),
    ("x^", 2),
    ("x ^ -2", 4),
    ("3*", 2),
    ("x^2*", 4),
    ("2 * ", 4),
    ("x^\u00b2", 2),
    ("   ", 3),
    ("x^2^3", 3),
    ("3 * z", 4),
    ("x*3", 2),
    ("x y", 2),
    ("1 2", 2),
    ("x^1 2", 4),
    ("3 x", 2),
    ("+", 1),
    ("x + - y", 4),
    ("x +\n", 4),
])
def test_parse_errors_carry_position(bad, pos):
    with pytest.raises(PolyParseError) as err:
        parse_poly(bad)
    assert err.value.position == pos


# Whitespace between tokens: ASCII, a no-break space and an em space.
SPACES = (" ", "\t", "\n", "\u00a0", "\u2003")


def _loose_term(rng, mono, coeff, first):
    """One term of ``coeff * x^i * y^j`` as text format_poly never writes:
    random spacing, a leading '+' on a first positive term, exponents split
    over repeated factors (x^3 as x*x^2) and y possibly before x."""
    def gap():
        return "".join(rng.choice(SPACES) for _ in range(rng.randrange(3)))

    def powers(var, e):
        if e > 1 and rng.random() < 0.5:
            k = rng.randrange(1, e)
            return powers(var, k) + powers(var, e - k)
        return [var if e == 1 else f"{var}{gap()}^{gap()}{e}"] if e else []

    factors = powers("x", mono[0]) + powers("y", mono[1])
    if rng.random() < 0.5:
        factors.reverse()
    if abs(coeff) != 1 or not factors or rng.random() < 0.3:
        factors.insert(0, str(abs(coeff)))
    sign = "-" if coeff < 0 else "+" if not first or rng.random() < 0.5 else ""
    return gap() + sign + gap() + (gap() + "*" + gap()).join(factors) + gap()


def test_parse_accepts_non_canonical_text():
    rng = random.Random(2745)
    for _ in range(300):
        p = random_poly(rng, max_degree=12, coeff_bound=10 ** 6)
        terms = list(p.terms.items())
        for _ in range(rng.randrange(3)):  # a term and its negation: x - x
            mono, c = (rng.randrange(6), rng.randrange(6)), rng.randint(1, 9)
            terms += [(mono, c), (mono, -c)]
        rng.shuffle(terms)
        text = "".join(_loose_term(rng, m, c, k == 0) for k, (m, c) in enumerate(terms))
        assert parse_poly(text or "0") == p, text


# Characters the grammar uses, plus ones it refuses: an unknown variable, a
# superscript digit (str.isdigit but not a decimal), an Arabic-Indic three
# (a decimal digit that int() reads) and three kinds of whitespace.
FUZZ_ALPHABET = ["x", "y", "^", "*", "+", "-", "0", "1", "2", "12", "z",
                 "\u00b2", "\u0663", " ", "\t", "\n"]


def test_parse_fuzz_accepts_or_reports_a_position():
    rng = random.Random(1993)
    accepted = 0
    for _ in range(20000):
        text = "".join(rng.choice(FUZZ_ALPHABET) for _ in range(rng.randrange(14)))
        try:
            p = parse_poly(text)
        except PolyParseError as err:
            assert 0 <= err.position <= len(text), text
            continue
        assert isinstance(p, Polynomial)
        assert parse_poly(format_poly(p)) == p, text
        accepted += 1
    assert accepted > 1000


def test_parse_rejects_long_invalid_text_at_its_end():
    # A ~200 kB text that fails only at its last character: the grammar's
    # expression must reach the end without backtracking blow-up.
    terms = format_poly(triangle(192)).split(" + ")
    random.Random(192).shuffle(terms)
    text = " + ".join(terms) + " +"
    start = time.perf_counter()
    with pytest.raises(PolyParseError) as err:
        parse_poly(text)
    assert err.value.position == len(text)
    assert time.perf_counter() - start < 2.0


@pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
                    reason="interpreter has no int/str digit limit below 5,000")
def test_parse_refuses_integers_past_the_digit_limit_with_a_position():
    # CPython refuses int() on more than 4,300 digits by default; the parser
    # must report that as a positioned syntax error, not a bare ValueError.
    for text, pos in [("1" * 5000, 0), ("x + " + "1" * 5000, 4),
                      ("-  " + "9" * 5000 + "*x", 3), ("y^" + "2" * 5000, 0)]:
        with pytest.raises(PolyParseError) as err:
            parse_poly(text)
        assert err.value.position == pos


def test_format_prints_integers_past_the_digit_limit():
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    assert format_poly(Polynomial.constant(10 ** 5000)) == "1" + "0" * 5000
    big = 7 ** 9000  # 7,606 digits
    text = format_poly(Polynomial({(0, 0): -big, (2, 0): big}))
    head, tail = text.split(" + ")
    assert tail.endswith("*x^2") and tail[:-4] == head[1:]
    value = 0
    for i in range(0, len(head) - 1, 400):  # rebuild from chunks below any limit
        chunk = head[1 + i:1 + i + 400]
        value = value * 10 ** len(chunk) + int(chunk)
    assert head[0] == "-" and value == big
    assert format_poly(Polynomial({(10 ** 700, 0): 1})) == "x^1" + "0" * 700
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


def test_format_parse_round_trip_random():
    rng = random.Random(77)
    for _ in range(200):
        p = random_poly(rng, coeff_bound=10**6)
        assert parse_poly(format_poly(p)) == p


def test_polynomial_is_immutable_and_hashable():
    p = parse_poly("x + y")
    with pytest.raises(AttributeError):
        p.terms = {}
    assert hash(p) == hash(parse_poly("y + x"))
    assert p == parse_poly("y + x")
    assert len({p, parse_poly("x + y")}) == 1
    for q in (p, p * p, -p, p + 1, p.mul_term(2, (1, 0))):
        with pytest.raises(TypeError):
            q.terms[(5, 5)] = 1
        with pytest.raises(TypeError):
            del q.terms[(1, 0)]
    assert p == parse_poly("x + y")


def test_constructor_takes_any_mapping():
    p = parse_poly("3*x^2 - y + 7")
    assert Polynomial(p.terms) == p
    assert Polynomial(MappingProxyType({(1, 0): 2, (0, 0): 0})) == Polynomial({(1, 0): 2})
    assert Polynomial(list(p.terms.items())) == p


def test_leading_term():
    p = parse_poly("x^2 + 3*x*y^5 + y^9")
    assert p.leading_term(LEX) == ((2, 0), 1)
    with pytest.raises(ValueError):
        Polynomial.zero().leading_term(LEX)
