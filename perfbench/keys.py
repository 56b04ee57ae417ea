"""Answer keys computed without the library under test.

Closed forms for n-bone remainders, decisions and homology, the canonical
polynomial text of the README's grammar, a parser for that text, and a
cell-by-cell certificate check.  Nothing here imports tilegb, so a change
to the library cannot change what the benchmark expects.
"""

from __future__ import annotations

Cell = tuple[int, int]


def bone_cells(n: int) -> list[list[Cell]]:
    """The three n-bone orientations, in the library's prototile order."""
    return [[(i, 0) for i in range(n)],
            [(0, j) for j in range(n)],
            [(n - 1 - i, i) for i in range(n)]]


def triangle_cells(m: int) -> list[Cell]:
    return [(i, j) for i in range(m) for j in range(m - i)]


def b3_terms(m: int) -> dict[Cell, int]:
    return {(m - 1 - i, i): 1 for i in range(m)}


def triangle_terms(m: int) -> dict[Cell, int]:
    return {cell: 1 for cell in triangle_cells(m)}


def tileable(m: int, n: int) -> bool:
    """The side-m triangle has a signed n-bone tiling iff m = 0 or -1 mod n^2."""
    return m % (n * n) in (0, n * n - 1)


def t_remainder(m: int, n: int) -> dict[Cell, int]:
    """Remainder of T(m) against the n-bone basis (non-negative convention):
    zero when tileable, otherwise the sum of b3(k mod n) for k = 1 .. m mod n^2."""
    if tileable(m, n):
        return {}
    acc: dict[Cell, int] = {}
    for k in range(1, m % (n * n) + 1):
        for mono in b3_terms(k % n):
            acc[mono] = acc.get(mono, 0) + 1
    return acc


def b3_remainder(m: int, n: int) -> dict[Cell, int]:
    return b3_terms(m % n)


def bone_homology(n: int) -> str:
    """Z^((n-1)(n-2)) + Z/n in the CLI's group notation."""
    rank = (n - 1) * (n - 2)
    parts = [] if rank == 0 else ["Z" if rank == 1 else f"Z^{rank}"]
    return " + ".join(parts + [f"Z/{n}"])


def mono_text(i: int, j: int) -> str:
    """One monomial with coefficient 1, e.g. "x^2*y" or "1"."""
    factors = [f"{v}^{e}" if e > 1 else v for v, e in (("x", i), ("y", j)) if e]
    return "*".join(factors) or "1"


def poly_text(terms: dict[Cell, int]) -> str:
    """Canonical text: ascending total degree, x-major within a degree."""
    if not terms:
        return "0"
    out = []
    for (i, j), c in sorted(terms.items(), key=lambda t: (sum(t[0]), -t[0][0])):
        mag = abs(c)
        if (i, j) == (0, 0):
            body = str(mag)
        else:
            body = mono_text(i, j) if mag == 1 else f"{mag}*{mono_text(i, j)}"
        if out:
            out.append(("- " if c < 0 else "+ ") + body)
        else:
            out.append(("-" if c < 0 else "") + body)
    return " ".join(out)


def parse_poly_text(text: str) -> dict[Cell, int]:
    """Inverse of poly_text for the canonical form the CLI prints."""
    terms: dict[Cell, int] = {}
    text = text.strip()
    if text == "0":
        return terms
    for token in text.replace(" - ", " + -").split(" + "):
        sign = -1 if token.startswith("-") else 1
        coeff, exps = 1, [0, 0]
        for factor in token.lstrip("-").split("*"):
            if factor.isdigit():
                coeff = int(factor)
                continue
            var, _, exp = factor.partition("^")
            if var not in ("x", "y"):
                raise ValueError(f"bad factor {factor!r} in {text!r}")
            exps["xy".index(var)] += int(exp) if exp else 1
        mono = (exps[0], exps[1])
        if mono in terms:
            raise ValueError(f"repeated monomial in {text!r}")
        terms[mono] = sign * coeff
    return terms


def leading_term(terms: dict[Cell, int]) -> list[int]:
    """[i, j, c] of the lex-largest term (x before y)."""
    mono = max(terms)
    return [mono[0], mono[1], terms[mono]]


def brion_line(m: int) -> str:
    """First stdout line of `brion --m M`: the corner expansion of T(m)."""
    def frac(num, *dens):
        den = "*".join(f"({poly_text(d)})" for d in dens)
        return f"({poly_text(num)})/({den})"
    return f"T({m}) = " + " + ".join([
        frac({(0, 0): 1}, {(0, 0): 1, (1, 0): -1}, {(0, 0): 1, (0, 1): -1}),
        frac({(m + 1, 0): 1}, {(1, 0): 1, (0, 0): -1}, {(1, 0): 1, (0, 1): -1}),
        frac({(0, m + 1): 1}, {(0, 1): 1, (0, 0): -1}, {(0, 1): 1, (1, 0): -1}),
    ])


def parse_cells(text: str) -> list[Cell]:
    cells = []
    for line in text.splitlines():
        if line.strip():
            i, j = line.split()
            cells.append((int(i), int(j)))
    return cells


def signed_sum(placements, prototiles: list[list[Cell]]) -> dict[Cell, int]:
    """Cell multiplicities of weighted placements (tile, a, b, weight)."""
    acc: dict[Cell, int] = {}
    for tile, a, b, weight in placements:
        for i, j in prototiles[tile]:
            cell = (i + a, j + b)
            acc[cell] = acc.get(cell, 0) + weight
    return {c: v for c, v in acc.items() if v}


def check_certificate(cert_text: str, region_text: str, region_name: str,
                      prototiles: list[list[Cell]], region: list[Cell]) -> tuple[int, str | None]:
    """Accumulate the certificate's signed placements cell by cell.

    Returns (unit placements, problem or None).  Accepts an optional fifth
    count column, so a certificate format with multiplicities still checks.
    """
    lines = cert_text.splitlines()
    header = f"tiles={len(prototiles)} region={region_name}"
    if not lines or lines[0] != header:
        return 0, f"certificate header {lines[:1]!r}, expected {header!r}"
    if sorted(parse_cells(region_text)) != sorted(region):
        return 0, "region file does not list the triangle's cells"
    placements = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) not in (4, 5) or parts[0] not in ("+", "-"):
            return 0, f"bad placement line {line!r}"
        tile, a, b = (int(p) for p in parts[1:4])
        count = int(parts[4]) if len(parts) == 5 else 1
        if not 0 <= tile < len(prototiles) or count < 1:
            return 0, f"bad placement line {line!r}"
        placements.append((tile, a, b, count if parts[0] == "+" else -count))
    units = sum(abs(p[3]) for p in placements)
    if signed_sum(placements, prototiles) != {c: 1 for c in region}:
        return units, "placements do not sum to the region indicator"
    return units, None
