"""Strong Groebner bases over Z: division with cofactors, S- and G-polynomials,
Buchberger completion and basis verification.

Over the integers a basis is *strong* when the leading term (coefficient
included) of every nonzero ideal element is divisible by the leading term of
some basis element; membership then reduces to a zero remainder.
"""

from __future__ import annotations

import heapq
import math
import operator
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .polyring import (CONVENTIONS, LEX, Mono, Polynomial, TermOrder,
                       coeff_divmod, format_poly, mono_div, mono_divides,
                       mono_lcm, parse_poly)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u*a + v*b == g == gcd(a, b) >= 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


@dataclass(frozen=True)
class GroebnerBasis:
    """An ordered basis together with its term order and coefficient convention.

    When ``cofactors`` is present, row i expresses elements[i] over
    ``generators``: elements[i] == sum(cofactors[i][j] * generators[j]).
    ``verified`` records that strongness has been established (either by
    completion or by verify_strong_gb); ideal membership refuses to run
    without it.  A basis is frozen: no attribute can be reassigned, and only
    verify_strong_gb, once its proof is done, marks a basis verified.  Given
    tuples, as ``bone_system`` gives for the basis it shares, the contents
    cannot change either.
    """

    elements: Sequence[Polynomial]
    order: TermOrder = LEX
    convention: str = "minabs"
    generators: Sequence[Polynomial] | None = None
    cofactors: Sequence[Sequence[Polynomial]] | None = None
    verified: bool = False
    _lts: tuple[tuple[Mono, int], ...] = field(init=False, repr=False)

    def __post_init__(self):
        if not self.elements:
            raise ValueError("empty basis")
        if any(g.is_zero() for g in self.elements):
            raise ValueError("zero polynomial in basis")
        if self.convention not in CONVENTIONS:
            raise ValueError(f"unknown coefficient convention {self.convention!r}")
        object.__setattr__(self, "_lts",
                           tuple(g.leading_term(self.order) for g in self.elements))

    @property
    def nvars(self) -> int:
        return self.elements[0].nvars

    def leading_terms(self) -> list[tuple[Mono, int]]:
        return list(self._lts)

    @cached_property
    def periods(self) -> tuple[int | None, ...]:
        """For each variable, the smallest a in 1..2*maxdeg+2 with x_var^a - 1
        reducing to zero (so x_var^a is 1 modulo the ideal), or None.  The
        search steps NF(x^a) = NF(x * NF(x^(a-1))) and stops where it equals
        NF(1), which is 0 in the unit ideal; both rely on the unique normal
        forms that every strong basis has."""
        bound = 2 * max(g.degree() for g in self.elements) + 2

        def normal_form(terms: dict[Mono, int]) -> dict[Mono, int]:
            return _reduce_raw(terms, self.nvars, self.elements, self._lts, self.order,
                               self.convention)[1]

        one = normal_form({(0,) * self.nvars: 1})
        found: list[int | None] = []
        for var in range(self.nvars):
            step = tuple(int(i == var) for i in range(self.nvars))
            nf = one
            for a in range(1, bound + 1):
                nf = normal_form({tuple(map(operator.add, m, step)): c for m, c in nf.items()})
                if nf == one:
                    found.append(a)
                    break
            else:
                found.append(None)
        return tuple(found)


@dataclass
class ReductionResult:
    """Division output: input == sum(quotients[i] * basis[i]) + remainder,
    with no remainder term strongly reducible by the basis."""

    quotients: list[Polynomial]
    remainder: Polynomial


def _slot_width(fterms: dict[Mono, int], elements: list[Polynomial],
                prec: tuple[int, ...]) -> int:
    """Bits per exponent slot that no monomial met while dividing can exceed.

    A division step multiplies a term by t / LM(g) for a tail term t of g.
    The first position (in precedence order) where t and LM(g) differ drops
    by at least one, earlier positions are unchanged, and each later position
    grows by at most D, the largest exponent in the basis.  Along any chain
    of steps from an input term, position k therefore never exceeds
    E_k = e_k + D * (E_0 + ... + E_(k-1)), where e_k is the largest input
    exponent there and the sum bounds the steps that drop an earlier
    position.  All slots get the width of E_0 + ... + E_last, which covers
    every E_k.  Negative exponents fit no slot and are refused.
    """
    basis_cols = list(zip(*[m for g in elements for m in g.terms]))
    input_cols = list(zip(*fterms))
    if min(map(min, basis_cols + input_cols), default=0) < 0:
        raise ValueError("negative exponent; division needs exponents >= 0")
    top = max(map(max, basis_cols), default=0)
    highs = list(map(max, input_cols)) or [0] * len(prec)
    total = 0
    for v in prec:
        total += highs[v] + top * total
    return max(top, total).bit_length() or 1


def _reduce_raw(fterms: dict[Mono, int], nvars: int, elements: Sequence[Polynomial],
                lts: Sequence[tuple[Mono, int]], order: TermOrder,
                conv: str) -> tuple[list[dict[Mono, int]], dict[Mono, int]]:
    """Core division loop on raw term maps.

    Deterministic rules: always attack the current leading term; use the first
    basis element (in list order) whose leading term gives a nonzero division
    quotient; once no element applies, the term moves to the remainder.

    Monomials are packed into one int each, variables in precedence order,
    with slots wide enough (_slot_width) that no exponent carries into the
    next slot: lex comparison is integer comparison and shifting by a
    monomial is integer addition.  Each slot has one guard bit above its
    exponent bits, so v | u exactly when u - v is non-negative with no guard
    bit set.
    """
    prec = order.precedence
    if sorted(prec) != list(range(nvars)):
        raise ValueError(f"precedence {prec} is not an order of all {nvars} variables")
    bits = _slot_width(fterms, elements, prec)
    width = bits + 1
    shifts = [0] * nvars
    for k, v in enumerate(prec):
        shifts[v] = width * (nvars - 1 - k)
    guard = sum(1 << (s + bits) for s in shifts)
    slot = (1 << bits) - 1
    lshift = operator.lshift

    def unpack(terms: dict[int, int]) -> dict[Mono, int]:
        return {tuple((p >> s) & slot for s in shifts): c for p, c in terms.items()}

    work = {sum(map(lshift, m, shifts)): c for m, c in fterms.items()}
    heap = [-p for p in work]
    heapq.heapify(heap)
    quotients: list[dict[int, int]] = [{} for _ in elements]
    remainder: dict[int, int] = {}
    plts = [(sum(map(lshift, gm, shifts)), gc) for gm, gc in lts]
    tails = [[(sum(map(lshift, m, shifts)), c) for m, c in g.terms.items() if m != gm]
             for g, (gm, _) in zip(elements, lts)]
    while heap:
        mono = -heapq.heappop(heap)
        c = work.pop(mono, 0)
        if not c:
            continue
        progressed = True
        while c and progressed:
            progressed = False
            for gi, (gm, gc) in enumerate(plts):
                shift = mono - gm
                if shift < 0 or shift & guard:
                    continue
                q, r = coeff_divmod(c, gc, conv)
                if q == 0:
                    continue
                for tm, tc in tails[gi]:
                    m2 = tm + shift
                    v = work.get(m2, 0) - q * tc
                    if v:
                        if m2 not in work:
                            heapq.heappush(heap, -m2)
                        work[m2] = v
                    else:
                        work.pop(m2, None)
                c = r
                qd = quotients[gi]
                qd[shift] = qd.get(shift, 0) + q
                progressed = True
                break
        if c:
            remainder[mono] = c
    return [unpack(q) if q else {} for q in quotients], unpack(remainder)


def _checked_convention(f: Polynomial, G: GroebnerBasis, convention: str | None) -> str:
    if f.nvars != G.nvars:
        raise ValueError(f"arity mismatch: {f.nvars} vs {G.nvars}")
    conv = convention if convention is not None else G.convention
    if conv not in CONVENTIONS:
        raise ValueError(f"unknown coefficient convention {conv!r}")
    return conv


def reduce(f: Polynomial, G: GroebnerBasis, convention: str | None = None) -> ReductionResult:
    """Divide f by the basis, returning quotients (one per element) and the
    remainder.  The convention defaults to the basis's own."""
    conv = _checked_convention(f, G, convention)
    quotients, remainder = _reduce_raw(f.terms, f.nvars, G.elements, G._lts, G.order, conv)
    return ReductionResult([Polynomial._make(q, f.nvars) for q in quotients],
                           Polynomial._make(remainder, f.nvars))


def remainder(f: Polynomial, G: GroebnerBasis, convention: str | None = None) -> Polynomial:
    """reduce(f, G, convention).remainder, without the quotients.

    On a verified basis the remainder is the unique normal form of f, and
    x_i^a - 1 lies in the ideal for each variable period a, so every exponent
    is first folded modulo its variable's period: the division then sees at
    most one term per residue class instead of the whole input.  Unverified
    bases are divided as given.
    """
    _checked_convention(f, G, convention)
    periods = G.periods if G.verified else ()
    if any(periods):
        if min(map(min, f.terms), default=0) < 0:
            raise ValueError("negative exponent; division needs exponents >= 0")
        mods = [a or f.max_exponent(v) + 1 for v, a in enumerate(periods)]
        folded: dict[Mono, int] = {}
        for m, c in f.terms.items():
            m = tuple(map(operator.mod, m, mods))
            folded[m] = folded.get(m, 0) + c
        f = Polynomial._make({m: c for m, c in folded.items() if c}, f.nvars)
    return reduce(f, G, convention).remainder


def _pair(vg: Sequence[Polynomial], vh: Sequence[Polynomial], lt_g: tuple[Mono, int],
          lt_h: tuple[Mono, int], gcd_pair: bool) -> list[Polynomial]:
    """a x^ma vg + b x^mb vh, slot by slot, for vectors whose first slots have
    leading terms lt_g and lt_h.

    For the S-pair a = L / LT(g) and b = -L / LT(h) as terms, with
    L = lcm(LC(g), LC(h)) * lcm(LM(g), LM(h)).  For the G-pair (gcd_pair)
    a, b are the Bezout pair u LC(g) + v LC(h) = gcd(LC(g), LC(h)) and
    x^ma, x^mb take both leading monomials to their lcm.
    """
    (gm, gc), (hm, hc) = lt_g, lt_h
    if gcd_pair:
        d, a, _ = xgcd(gc, hc)
        # Pin u to the smallest-|u| Bezout solution (positive on ties).
        a = coeff_divmod(a, hc // d, "minabs")[1]
        b = (d - a * gc) // hc
    else:
        cl = math.lcm(gc, hc)
        a, b = cl // gc, -(cl // hc)
    ml = mono_lcm(gm, hm)
    ma, mb = mono_div(ml, gm), mono_div(ml, hm)
    return [p.mul_term(a, ma) + q.mul_term(b, mb) for p, q in zip(vg, vh)]


def s_polynomial(g: Polynomial, h: Polynomial, order: TermOrder = LEX) -> Polynomial:
    """S(g, h) = (L / LT(g)) g - (L / LT(h)) h for
    L = lcm(LC(g), LC(h)) * lcm(LM(g), LM(h))."""
    if g.is_zero() or h.is_zero():
        raise ValueError("S-polynomial of the zero polynomial")
    return _pair([g], [h], g.leading_term(order), h.leading_term(order), False)[0]


def g_polynomial(g: Polynomial, h: Polynomial, order: TermOrder = LEX) -> Polynomial:
    """GCD-polynomial: u (M/LM(g)) g + v (M/LM(h)) h with
    u LC(g) + v LC(h) = gcd(LC(g), LC(h)) and M = lcm(LM(g), LM(h)).

    Its leading term is gcd(LC(g), LC(h)) * M; completion over Z needs these
    to realize coefficient gcds that no S-polynomial can reach."""
    if g.is_zero() or h.is_zero():
        raise ValueError("G-polynomial of the zero polynomial")
    return _pair([g], [h], g.leading_term(order), h.leading_term(order), True)[0]


def _divide(vec: list[Polynomial], vecs: Sequence[list[Polynomial]],
            lts: Sequence[tuple[Mono, int]], order: TermOrder,
            conv: str) -> list[Polynomial]:
    """Divide the first slot of vec by the first slots of vecs; each quotient
    takes its multiple of that vector off the remaining slots too."""
    nvars = vec[0].nvars
    qs, rem = _reduce_raw(vec[0].terms, nvars, [v[0] for v in vecs], lts, order, conv)
    row = vec[1:]
    for q, v in zip(qs, vecs):
        if q:
            qp = Polynomial._make(q, nvars)
            row = [rc - qp * vc for rc, vc in zip(row, v[1:])]
    return [Polynomial._make(rem, nvars), *row]


def buchberger(generators: list[Polynomial], order: TermOrder = LEX,
               conv: str = "minabs", track_cofactors: bool = False) -> GroebnerBasis:
    """Complete the generators to a strong Groebner basis over Z.

    Pairs are processed FIFO; for each pair the S-polynomial is reduced (unless
    the leading monomials are coprime and one leading coefficient divides the
    other) and the G-polynomial is reduced when neither leading coefficient
    divides the other.  Nonzero remainders are appended, their pairs queued.
    The final basis is sign-normalized, purged of term-redundant elements,
    tail-reduced and sorted by descending leading monomial.

    Each element is carried as one vector: the polynomial, then its cofactor
    row over the generators (empty unless track_cofactors).  Every step acts
    on the whole vector, so the rows cannot drift from the elements.
    """
    if not generators:
        raise ValueError("empty generator list")
    if any(g.is_zero() for g in generators):
        raise ValueError("zero generator")
    nvars = generators[0].nvars
    k = len(generators) if track_cofactors else 0
    vecs = [[g, *(Polynomial.constant(int(i == j), nvars) for j in range(k))]
            for i, g in enumerate(generators)]
    lts = [g.leading_term(order) for g in generators]

    queue: deque[tuple[int, int]] = deque((i, j) for j in range(len(vecs)) for i in range(j))
    while queue:
        i, j = queue.popleft()
        (mi, ci), (mj, cj) = lts[i], lts[j]
        coprime = all(min(a, b) == 0 for a, b in zip(mi, mj))
        one_divides = ci % cj == 0 or cj % ci == 0
        for gcd_pair, wanted in ((False, not (coprime and one_divides)),
                                 (True, not one_divides)):
            if not wanted:
                continue
            vec = _pair(vecs[i], vecs[j], lts[i], lts[j], gcd_pair)
            if vec[0]:
                vec = _divide(vec, vecs, lts, order, conv)
            if vec[0]:
                vecs.append(vec)
                lts.append(vec[0].leading_term(order))
                queue.extend((s, len(vecs) - 1) for s in range(len(vecs) - 1))

    # Sign-normalize so leading coefficients are positive.
    for t, (m, c) in enumerate(lts):
        if c < 0:
            vecs[t] = [-p for p in vecs[t]]
            lts[t] = (m, -c)

    # Drop elements whose leading term is term-divisible by another's.
    keep = [t for t, (mt, ct) in enumerate(lts)
            if not any(mono_divides(ms, mt) and ct % cs == 0 and ((ms, cs) != lts[t] or s < t)
                       for s, (ms, cs) in enumerate(lts) if s != t)]
    keep.sort(key=lambda t: order.key(lts[t][0]), reverse=True)
    vecs = [vecs[t] for t in keep]
    lts = [lts[t] for t in keep]

    # Tail-reduce each element by the others; leading terms are untouched, so
    # strongness is preserved and the output is stable.
    for t, (gm, gc) in enumerate(lts):
        tail = dict(vecs[t][0].terms)
        del tail[gm]
        vec = _divide([Polynomial._make(tail, nvars), *vecs[t][1:]],
                      vecs[:t] + vecs[t + 1:], lts[:t] + lts[t + 1:], order, conv)
        vec[0] = Polynomial._make({**vec[0].terms, gm: gc}, nvars)
        vecs[t] = vec

    return GroebnerBasis([v[0] for v in vecs], order, conv,
                         generators=list(generators) if track_cofactors else None,
                         cofactors=[v[1:] for v in vecs] if track_cofactors else None,
                         verified=True)


@dataclass
class VerifyReport:
    """Outcome of the strong-basis criterion; on failure carries the first
    violating pair and, for an S-polynomial failure, its nonzero remainder."""

    passed: bool
    reason: str = ""
    pair: tuple[int, int] | None = None
    witness: Polynomial | None = None

    def __bool__(self) -> bool:
        return self.passed


def verify_strong_gb(G: GroebnerBasis) -> VerifyReport:
    """Check the two strong-basis conditions: every pair of leading terms is
    covered by some element dividing both lcm(LM) and gcd(LC), and every
    S-polynomial reduces to zero."""
    lts = G._lts
    n = len(lts)
    for i in range(n):
        for j in range(i + 1, n):
            (mi, ci), (mj, cj) = lts[i], lts[j]
            ml = mono_lcm(mi, mj)
            cg = xgcd(ci, cj)[0]
            if not any(mono_divides(hm, ml) and cg % hc == 0 for hm, hc in lts):
                return VerifyReport(False, "no element covers lcm(LM)/gcd(LC)", (i, j))
    for i in range(n):
        for j in range(i + 1, n):
            spoly = s_polynomial(G.elements[i], G.elements[j], G.order)
            if spoly.is_zero():
                continue
            rem = reduce(spoly, G).remainder
            if not rem.is_zero():
                return VerifyReport(False, "S-polynomial does not reduce to zero",
                                    (i, j), rem)
    object.__setattr__(G, "verified", True)  # proved above; the basis is frozen
    return VerifyReport(True)


def ideal_member(f: Polynomial, G: GroebnerBasis) -> tuple[bool, list[Polynomial] | None]:
    """Membership test via zero remainder; valid only against a verified
    strong basis, so unverified bases are refused."""
    if not G.verified:
        raise ValueError("basis not verified strong; run verify_strong_gb first")
    res = reduce(f, G)
    if res.remainder.is_zero():
        return True, res.quotients
    return False, None


def basis_to_text(G: GroebnerBasis) -> str:
    """Serialize: a header line, then one canonical polynomial per line."""
    lines = [f"order=lex vars=x,y conv={G.convention}"]
    lines.extend(format_poly(g) for g in G.elements)
    return "\n".join(lines) + "\n"


def basis_from_text(text: str) -> GroebnerBasis:
    """Parse the basis_to_text format; the result is unverified."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty basis file")
    # Line 1 is the header only when it carries a key=value field; otherwise
    # the file is all polynomials.
    fields = dict(part.split("=", 1) for part in lines[0].split() if "=" in part)
    if fields:
        lines = lines[1:]
    if fields.get("order", "lex") != "lex":
        raise ValueError(f"unsupported term order {fields['order']!r}; expected lex")
    if fields.get("vars", "x,y") != "x,y":
        raise ValueError(f"unsupported variables {fields['vars']!r}; expected x,y")
    conv = fields.get("conv", "minabs")
    if conv not in ("minabs", "nonneg"):
        raise ValueError(f"unknown convention {conv!r}")
    elements = [parse_poly(ln) for ln in lines]
    return GroebnerBasis(elements, LEX, conv)
