"""Strong Groebner bases over Z: division, S- and G-polynomials, Buchberger
completion, lifting quotients to cofactors, and basis verification.

Over the integers a basis is *strong* when the leading term (coefficient
included) of every nonzero ideal element is divisible by the leading term of
some basis element; membership then reduces to a zero remainder.  Completion
runs once and logs how it made each element from the generators
(intlin.Combinations); ``lift`` back-substitutes quotients through that log.

Every division goes through one packed divider (``_Divider``), which keeps
the basis's leading terms and tails packed in one ``polyring.Slots`` layout,
widens it with ``fit`` when an input needs wider slots, and has one division
loop on packed terms.  A basis caches one divider: ``reduce`` and
``remainder`` divide term maps through it and unpack the result with the
slots it returns, while ``periods`` and the rounds of
``tiling.decide_signed_tiling`` step normal forms on its packed terms from
one step to the next.  Completion keeps one divider for the elements it has
made, forms each S- and G-pair from the packed terms of its two elements,
decodes a remainder only when it is nonzero, and appends that element.
``verify_strong_gb`` builds its S-polynomials as polynomials instead, so
that it checks a basis by another route than the one that completed it.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, partial
from operator import add, sub
from typing import Callable, Mapping, Sequence

from .intlin import Combinations
from .polyring import (CONVENTIONS, LEX, Mono, Polynomial, Slots, TermOrder,
                       coeff_divmod, format_poly, mono_divides, mono_lcm,
                       parse_poly)


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
    Explicit rows become a one-level log, as ``buchberger`` keeps its own.
    ``verified`` records a proof of strongness, without which ideal
    membership refuses to run.  Only completion and verify_strong_gb mark a
    basis verified; the constructor and ``dataclasses.replace`` give an
    unverified one.  A basis is frozen: no attribute can be reassigned.
    Given tuples, as ``bone_system`` gives for the basis it shares, the
    contents cannot change either.
    """

    elements: Sequence[Polynomial]
    order: TermOrder = LEX
    convention: str = "minabs"
    generators: Sequence[Polynomial] | None = None
    cofactors: Sequence[Sequence[Polynomial]] | None = None
    verified: bool = field(default=False, init=False, compare=False, repr=False)
    _log: Combinations | None = field(default=None, init=False, compare=False, repr=False)
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
        if self.cofactors is not None:
            log = Combinations()
            log.node_of = {i: log.add([(c, ~j) for j, c in enumerate(row) if c])
                           for i, row in enumerate(self.cofactors)}
            object.__setattr__(self, "_log", log)

    def lift(self, quotients: Sequence[Polynomial]) -> list[Polynomial]:
        """sum(quotients[i] * elements[i]) written over the generators, one
        cofactor each, by one back-substitution through the log."""
        if self._log is None or len(quotients) != len(self.elements):
            raise ValueError("need a basis with a log and one quotient per element")
        weight = [0] * len(self._log.nodes)
        for i, q in enumerate(quotients):
            weight[self._log.node_of[i]] = q
        z = self._log.evaluate(weight)
        return [z.get(j, Polynomial.zero(self.nvars)) for j in range(len(self.generators))]

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
        zero = (0,) * self.nvars
        one = self._divider.divide({zero: 1}, self.convention)[1]  # a constant
        return tuple(self._steps_to(one, tuple(int(i == var) for i in range(self.nvars)),
                                    bound, one.get(zero, 0))
                     for var in range(self.nvars))

    def _steps_to(self, nf: Mapping[Mono, int], step: Mono, limit: int,
                  target: int) -> int | None:
        """The smallest a in 1..limit with NF(x^(a*step) * nf) equal to the
        constant ``target``, or None, for a normal form nf.

        Step a takes NF(x^step * r) of step a - 1's normal form r, which is
        NF(x^(a*step) * nf) because a strong basis has unique normal forms.
        The normal form stays packed from step to step: each step sizes the
        slots from its largest exponents (``fit``), shifts every packed
        monomial by x^step and divides with the divider's packed loop.  Only
        when the slots widen is it packed again."""
        div, conv = self._divider, self.convention
        goal = {0: target} if target else {}  # a constant is monomial 0 at every width
        highs = list(map(max, zip(*nf))) or [0] * self.nvars
        slots, work = None, nf
        for a in range(1, limit + 1):
            sized = div.fit(list(map(add, highs, step)))
            if sized is not slots:  # the first step, or the slots widened
                work = sized.pack(work if slots is None else slots.unpack(work))
                slots = sized
                by = slots.mono(step)
            work = div.divide_packed({p + by: c for p, c in work.items()}, conv)[1]
            if work == goal:
                return a
            highs = [max(col, default=0) for col in slots.columns(work)]
        return None

    @cached_property
    def _divider(self) -> _Divider:
        """The packed divider that ``reduce``, ``remainder``, ``periods`` and
        the stepped normal forms share.  A cached property is no field, so it
        takes no part in equality, hashing or repr."""
        return _Divider(self.elements, self._lts, self.order)


class ReductionResult:
    """Division output: input == sum(quotients[i] * basis[i]) + remainder,
    with no remainder term strongly reducible by the basis.  The quotients
    stay packed until ``quotients`` is first read."""

    def __init__(self, remainder: Polynomial, quotients: Callable[[], list[Polynomial]]):
        self.remainder = remainder
        self._pending = quotients

    @cached_property
    def quotients(self) -> list[Polynomial]:
        quotients = self._pending()
        self._pending = None  # frees the packed form
        return quotients


_NEGATIVE = "negative exponent; division needs exponents >= 0"


class _Divider:
    """Division by one list of basis elements, packed once for every call.

    ``slots`` is the layout (``polyring.Slots``) in which ``leads`` holds
    every element's packed leading term and coefficient and ``tails`` its
    packed tail, variables in precedence order.  The slots are wide enough
    that no exponent carries into the next slot: lex comparison is integer
    comparison, shifting by a monomial is integer addition, and a leading
    monomial divides a term exactly when their difference is non-negative
    with no guard bit set.

    ``divide_packed`` is the one division loop, on a packed term map and the
    divider's own ``slots``, ``leads`` and ``tails``.  Its callers size the
    slots first with ``fit``: a division whose input needs more bits than
    the slots hold packs the elements again, once, at the width it needs,
    and those wider slots stay, so divisions that share a basis each run on
    slots wide enough for their own input.  ``divide`` wraps the loop for a
    term map on exponent tuples (check, fit, pack, divide, unpack), and
    ``divide_pair`` forms an S- or G-pair of two elements straight from
    their packed terms and divides it; each returns the ``Slots`` that
    decodes its packed output.  ``GroebnerBasis._steps_to`` steps normal
    forms on packed terms.  ``append`` adds an element, for the one caller
    (completion) that owns the divider.

    Slot width.  A division step multiplies a term by t / LM(g) for a tail
    term t of g.  The first position (in precedence order) where t and LM(g)
    differ drops by at least one, earlier positions are unchanged, and each
    later position grows by at most D, the largest exponent in the basis.
    Along any chain of steps from an input term, position k therefore never
    exceeds E_k = e_k + D * (E_0 + ... + E_(k-1)), where e_k is the largest
    input exponent there and the sum bounds the steps that drop an earlier
    position.  A division needs the width of E_0 + ... + E_last, which
    covers every E_k, and of D.  D is the largest exponent of any element
    the divider has held, which only overstates it, and so may e_k: a pair
    is sized from its two elements' largest exponents.  Negative exponents
    fit no slot and are refused.

    Deterministic rules: always attack the current leading term; use the
    first element (in list order) whose leading term gives a nonzero
    coefficient quotient; once no element applies, the term moves to the
    remainder.
    """

    def __init__(self, elements: Sequence[Polynomial], lts: Sequence[tuple[Mono, int]],
                 order: TermOrder):
        prec = order.precedence
        nvars = elements[0].nvars
        if sorted(prec) != list(range(nvars)):
            raise ValueError(f"precedence {prec} is not an order of all {nvars} variables")
        self.prec = prec
        self.top = 0  # D
        self.elements: list[Polynomial] = []
        self.lts: list[tuple[Mono, int]] = []
        self.highs: list[list[int]] = []  # each element's largest exponent per variable
        self._repack(1)
        for g, lt in zip(elements, lts):
            self.append(g, lt)

    def _repack(self, bits: int) -> None:
        """Make the slots ``bits`` exponent bits wide and pack every element
        in them."""
        self.slots = Slots(bits, self.prec)
        self.leads: list[tuple[int, int]] = []
        self.tails: list[list[tuple[int, int]]] = []
        for g, lt in zip(self.elements, self.lts):
            self._store(g, lt)

    def _store(self, g: Polynomial, lt: tuple[Mono, int]) -> None:
        """Append g's leading term and tail, packed in the current slots."""
        mono, (gm, gc) = self.slots.mono, lt
        self.leads.append((mono(gm), gc))
        self.tails.append([(mono(m), c) for m, c in g.terms.items() if m != gm])

    def append(self, g: Polynomial, lt: tuple[Mono, int]) -> None:
        """Add g, whose leading term is lt, as the last element."""
        cols = list(zip(*g.terms))
        if min(map(min, cols)) < 0:
            raise ValueError(_NEGATIVE)
        highs = list(map(max, cols))
        self.elements.append(g)
        self.lts.append(lt)
        self.highs.append(highs)
        self.top = max(self.top, *highs)
        if self.top.bit_length() > self.slots.bits:
            self._repack(self.top.bit_length())
        else:
            self._store(g, lt)

    def fit(self, highs: Sequence[int]) -> Slots:
        """The slots for dividing an input whose largest exponent of each
        variable is at most ``highs[var]``: the current ones, or, when they
        are too narrow for the bound in the class docstring, slots of the
        width it needs, in which the elements are packed again."""
        top, total = self.top, 0
        for v in self.prec:  # E_0 + ... + E_last
            total += highs[v] + top * total
        need = max(top, total).bit_length()
        if need > self.slots.bits:
            self._repack(need)
        return self.slots

    def divide(self, fterms: Mapping[Mono, int], conv: str) -> tuple[
            dict[int, dict[int, int]], dict[Mono, int], Slots]:
        """Divide the term map: ({element index: packed quotient} for the
        nonzero quotients, remainder, the slots that unpack a quotient)."""
        slots = self.slots
        cols = list(zip(*fterms))
        if cols:
            if min(map(min, cols)) < 0:
                raise ValueError(_NEGATIVE)
            slots = self.fit(list(map(max, cols)))
        quotients, rem = self.divide_packed(slots.pack(fterms, cols), conv)
        return quotients, slots.unpack(rem), slots

    def divide_pair(self, i: int, j: int, left: tuple[int, Mono], right: tuple[int, Mono],
                    conv: str) -> tuple[dict[int, dict[int, int]], dict[int, int], Slots]:
        """Divide the pair a x^ma g_i + b x^mb g_j of elements i and j, for
        ``_pair``'s multipliers left = (a, ma) and right = (b, mb), formed
        from their packed leading terms and tails: (packed quotients, packed
        remainder, the slots that unpack them)."""
        (a, ma), (b, mb) = left, right
        slots = self.fit([max(e + s, f + t) for e, s, f, t
                          in zip(self.highs[i], ma, self.highs[j], mb)])
        sa, sb, tails = slots.mono(ma), slots.mono(mb), self.tails
        work = {m + sa: a * c for m, c in tails[i]}
        get = work.get
        for m, c in tails[j]:
            m += sb
            c = get(m, 0) + b * c
            if c:
                work[m] = c
            else:
                del work[m]
        # Both leading terms land on lcm(LM(g_i), LM(g_j)), above every tail
        # term: an S-pair's two cancel there, a G-pair's leave gcd(LC).
        (gm, gc), (_, hc) = self.leads[i], self.leads[j]
        lead = a * gc + b * hc
        if lead:
            work[gm + sa] = lead
        quotients, rem = self.divide_packed(work, conv)
        return quotients, rem, slots

    def divide_packed(self, work: dict[int, int], conv: str) -> tuple[
            dict[int, dict[int, int]], dict[int, int]]:
        """Divide the packed term map ``work``, which is consumed, by the
        elements as packed in ``slots``, which the caller has sized with
        ``fit``: ({element index: packed quotient} for the nonzero
        quotients, packed remainder)."""
        guard, plts, tails = self.slots.guard, self.leads, self.tails
        heap = [-p for p in work]
        heapq.heapify(heap)
        quotients: dict[int, dict[int, int]] = {}
        remainder: dict[int, int] = {}
        pop, push, get = heapq.heappop, heapq.heappush, work.get
        while heap:
            mono = -pop(heap)
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
                        v = get(m2)
                        if v is None:
                            push(heap, -m2)
                            work[m2] = -q * tc
                        else:
                            v -= q * tc
                            if v:
                                work[m2] = v
                            else:
                                del work[m2]
                    c = r
                    qd = quotients.get(gi)
                    if qd is None:
                        qd = quotients[gi] = {}
                    qd[shift] = qd.get(shift, 0) + q
                    progressed = True
                    break
            if c:
                remainder[mono] = c
        return quotients, remainder


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
    packed, rem, slots = G._divider.divide(f.terms, conv)
    nvars, count = f.nvars, len(G.elements)
    return ReductionResult(
        Polynomial._make(rem, nvars),
        lambda: [Polynomial._make(slots.unpack(packed.get(i, {})), nvars)
                 for i in range(count)])


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
        # One exponent column per variable, checked and reduced by one call or
        # comprehension each, so that no call runs per term.
        cols = list(zip(*f.terms))
        if min(map(min, cols), default=0) < 0:
            raise ValueError(_NEGATIVE)
        mods = [a or max(col) + 1 for col, a in zip(cols, periods)]
        cols = [[e % a for e in col] for col, a in zip(cols, mods)]
        folded: dict[Mono, int] = {}
        get = folded.get
        for m, c in zip(zip(*cols), f.terms.values()):
            folded[m] = get(m, 0) + c
        f = Polynomial._make({m: c for m, c in folded.items() if c}, f.nvars)
    return reduce(f, G, convention).remainder


def _pair(lt_g: tuple[Mono, int], lt_h: tuple[Mono, int],
          gcd_pair: bool) -> tuple[tuple[int, Mono], tuple[int, Mono]]:
    """The term multipliers (a, x^ma) and (b, x^mb) of the pair
    a x^ma g + b x^mb h, for g and h with leading terms lt_g and lt_h.

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
    return (a, tuple(map(sub, ml, gm))), (b, tuple(map(sub, ml, hm)))


def s_polynomial(g: Polynomial, h: Polynomial, order: TermOrder = LEX) -> Polynomial:
    """S(g, h) = (L / LT(g)) g - (L / LT(h)) h for
    L = lcm(LC(g), LC(h)) * lcm(LM(g), LM(h))."""
    if g.is_zero() or h.is_zero():
        raise ValueError("S-polynomial of the zero polynomial")
    (a, ma), (b, mb) = _pair(g.leading_term(order), h.leading_term(order), False)
    return g.mul_term(a, ma) + h.mul_term(b, mb)


def g_polynomial(g: Polynomial, h: Polynomial, order: TermOrder = LEX) -> Polynomial:
    """GCD-polynomial: u (M/LM(g)) g + v (M/LM(h)) h with
    u LC(g) + v LC(h) = gcd(LC(g), LC(h)) and M = lcm(LM(g), LM(h)).

    Its leading term is gcd(LC(g), LC(h)) * M; completion over Z needs these
    to realize coefficient gcds that no S-polynomial can reach."""
    if g.is_zero() or h.is_zero():
        raise ValueError("G-polynomial of the zero polynomial")
    (a, ma), (b, mb) = _pair(g.leading_term(order), h.leading_term(order), True)
    return g.mul_term(a, ma) + h.mul_term(b, mb)


def _quotient_steps(packed: dict[int, dict[int, int]], slots: Slots,
                    ids: Sequence[int], nvars: int) -> list[tuple[Callable[[], Polynomial], int]]:
    """Log steps (-q, node) for the nonzero quotients of a division, in
    basis order.  Each -q stays packed until ``lift`` reads its node."""
    return [(partial(_negated_quotient, packed[k], slots, nvars), ids[k]) for k in sorted(packed)]


def _negated_quotient(packed: dict[int, int], slots: Slots, nvars: int) -> Polynomial:
    return -Polynomial._make(slots.unpack(packed), nvars)


def buchberger(generators: list[Polynomial], order: TermOrder = LEX,
               conv: str = "minabs") -> GroebnerBasis:
    """Complete the generators to a strong Groebner basis over Z.

    Every pair of generators is queued, and every generator starts active.
    Pairs are taken in queue order (first in, first out); for each pair the
    S-polynomial is reduced (unless the leading monomials are coprime and one
    leading coefficient divides the other) and the G-polynomial is reduced
    when neither leading coefficient divides the other.  Each is formed from
    ``_pair``'s term multipliers and the two elements' packed leading terms
    and tails, and divided on packed terms by the divider that holds every
    element made so far (``_Divider.divide_pair``).  A nonzero remainder is
    decoded and appended; a zero one is never decoded.

    Appending follows the update rule of Gebauer and Moeller (J. Symb.
    Comput. 6, 1988), stated for strong bases over Euclidean domains by
    Lichtblau (Illinois J. Math. 56, 2012).  An appended element h is paired
    with every active element.  Then each active g whose leading term h
    divides as a term (LM(h) | LM(g) and LC(h) | LC(g)) leaves the active
    set, and h joins it.  An inactive g keeps the pairs it already has in the
    queue, its place in the divider and its log node, but gets no new pairs.
    This is sound.  For a later element f and an inactive g, follow the
    chain of newer elements that divide LT(g) down to the active element a.
    Each pair on that chain was queued when its newer element arrived, so
    S(f, g) is covered by the chain criterion, and the G-pair target of
    (f, a) divides that of (f, g).

    The final basis is sign-normalized, purged of term-redundant elements,
    tail-reduced and sorted by descending leading monomial.

    Each element logs how it was made as a node: a pair's two term
    multipliers and (-q, node) per division quotient, a sign flip (-1, node),
    a tail reduction (1, node) and its quotients.  The quotients stay packed
    until ``lift`` reads them.  The basis keeps the log for ``lift``: lifting
    the i-th unit vector writes element i over the generators.
    """
    if not generators:
        raise ValueError("empty generator list")
    if any(g.is_zero() for g in generators):
        raise ValueError("zero generator")
    nvars = generators[0].nvars
    polys = list(generators)
    lts = [g.leading_term(order) for g in polys]
    log = Combinations()
    ids = [log.add([(1, ~j)]) for j in range(len(polys))]  # each element's node

    div = _Divider(polys, lts, order)
    queue: deque[tuple[int, int]] = deque((i, j) for j in range(len(polys)) for i in range(j))
    active = list(range(len(polys)))
    while queue:
        i, j = queue.popleft()
        (mi, ci), (mj, cj) = lts[i], lts[j]
        coprime = not any(map(min, mi, mj))
        one_divides = ci % cj == 0 or cj % ci == 0
        for gcd_pair, wanted in ((False, not (coprime and one_divides)),
                                 (True, not one_divides)):
            if not wanted:
                continue
            left, right = _pair(lts[i], lts[j], gcd_pair)
            qs, rem, slots = div.divide_pair(i, j, left, right, conv)
            if rem:
                (a, ma), (b, mb) = left, right
                ids.append(log.add([(Polynomial._make({ma: a}, nvars), ids[i]),
                                    (Polynomial._make({mb: b}, nvars), ids[j]),
                                    *_quotient_steps(qs, slots, ids, nvars)]))
                polys.append(Polynomial._make(slots.unpack(rem), nvars))
                lts.append(polys[-1].leading_term(order))
                div.append(polys[-1], lts[-1])
                h = len(polys) - 1
                queue.extend((s, h) for s in active)
                hm, hc = lts[h]
                active = [s for s in active
                          if not (lts[s][1] % hc == 0 and mono_divides(hm, lts[s][0]))]
                active.append(h)

    # Sign-normalize so leading coefficients are positive.
    for t, (m, c) in enumerate(lts):
        if c < 0:
            polys[t] = -polys[t]
            ids[t] = log.add([(-1, ids[t])])
            lts[t] = (m, -c)

    # Drop elements whose leading term is term-divisible by another's.
    keep = [t for t, (mt, ct) in enumerate(lts)
            if not any(mono_divides(ms, mt) and ct % cs == 0 and ((ms, cs) != lts[t] or s < t)
                       for s, (ms, cs) in enumerate(lts) if s != t)]
    keep.sort(key=lambda t: order.key(lts[t][0]), reverse=True)
    polys = [polys[t] for t in keep]
    lts = [lts[t] for t in keep]
    ids = [ids[t] for t in keep]

    # Tail-reduce each element by the others; leading terms are untouched, so
    # strongness is preserved and the output is stable.  Every term met while
    # reducing g_t's tail is smaller than LM(g_t), and a leading monomial
    # divides only terms at least as large as itself.  So neither g_t nor an
    # element before it (larger leading monomial, already tail-reduced) ever
    # applies, and one divider over the sorted elements serves every t.
    div = _Divider(polys, lts, order)
    for t, (gm, gc) in enumerate(lts):
        tail = polys[t].terms.copy()
        del tail[gm]
        qs, rem, slots = div.divide(tail, conv)
        if qs:
            ids[t] = log.add([(1, ids[t]), *_quotient_steps(qs, slots, ids, nvars)])
        polys[t] = Polynomial._make({**rem, gm: gc}, nvars)

    log.node_of = dict(enumerate(ids))
    basis = GroebnerBasis(polys, order, conv, generators=list(generators))
    object.__setattr__(basis, "_log", log)  # the basis is frozen
    object.__setattr__(basis, "verified", True)  # completion proves strongness
    return basis


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
    S-polynomial reduces to zero.

    The S-polynomials are built as polynomials (``s_polynomial``) and
    divided through ``reduce``, not formed from packed terms as completion
    forms its pairs, so that the check of a completed basis does not rest
    on the pair code that completed it."""
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
    """Serialize: a header line, then one canonical polynomial per line.
    The header names x, y and lex order, so any other basis is refused."""
    if G.nvars != 2 or G.order != LEX:
        raise ValueError("basis_to_text writes bases in x, y under lex order only")
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
    elements = [parse_poly(ln) for ln in lines]
    return GroebnerBasis(elements, LEX, fields.get("conv", "minabs"))
