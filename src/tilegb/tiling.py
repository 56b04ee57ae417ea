"""Lattice regions, signed-tiling decisions with certificates, and rendering.

A signed tiling of a region is a multiset of translated prototiles with signs
whose indicator functions sum to the region's indicator.  Deciding one reduces
to ideal membership of the region's Newton polynomial after clearing a test
monomial (translates may stick out below the axes).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import chain
from typing import Iterable

from . import bones, groebner
from .groebner import buchberger
from .polyring import Polynomial

Cell = tuple[int, int]
Region = frozenset  # of Cell


@dataclass(frozen=True)
class Placement:
    """``count`` signed translates of prototile ``tile`` shifted by ``shift``;
    ``sign`` is +1 or -1 and ``count`` is at least 1."""

    tile: int
    shift: Cell
    sign: int
    count: int = 1


@dataclass
class Certificate:
    """A signed tiling witness; valid iff the signed sum of translated
    prototile indicators equals the region indicator exactly."""

    prototiles: list[Region]
    placements: list[Placement]
    region: Region


@dataclass
class TilingDecision:
    """Outcome of the generic decision: 'yes' carries a verified certificate;
    'no' is only returned when both variables are tame (each has a period
    modulo the ideal, or occurs in no prototile); otherwise 'inconclusive'."""

    status: str
    certificate: Certificate | None = None


def translate_region(region: Region, di: int, dj: int) -> Region:
    return frozenset((i + di, j + dj) for i, j in region)


def normalize_region(region: Region) -> tuple[Region, Cell]:
    """Translate so both coordinates start at 0; returns the applied shift."""
    if not region:
        return region, (0, 0)
    di, dj = _origin_shift(region)
    return translate_region(region, di, dj), (di, dj)


def _origin_shift(region: Region) -> Cell:
    """The shift that ``normalize_region`` applies to a nonempty region."""
    return -min(i for i, _ in region), -min(j for _, j in region)


def newton_polynomial(region: Region) -> Polynomial:
    """sum of x^i y^j over the cells (i, j); coordinates must be non-negative."""
    for i, j in region:
        if i < 0 or j < 0:
            raise ValueError(f"negative coordinate {(i, j)}; normalize the region first")
    return Polynomial._make({(i, j): 1 for i, j in region}, 2)


def verify_certificate(cert: Certificate) -> bool:
    """Cell-by-cell integer accumulation of ``sign * count`` per placement; no
    polynomial machinery involved."""
    acc: dict[Cell, int] = {}
    for pl in cert.placements:
        if not 0 <= pl.tile < len(cert.prototiles) or pl.sign not in (1, -1) or pl.count < 1:
            return False
        weight = pl.sign * pl.count
        tile = cert.prototiles[pl.tile]
        a, b = pl.shift
        for i, j in tile:
            cell = (i + a, j + b)
            v = acc.get(cell, 0) + weight
            if v:
                acc[cell] = v
            else:
                del acc[cell]
    return acc == {cell: 1 for cell in cert.region}


def verified_certificate(prototiles: list[Region], region: Region,
                         weights: Iterable[tuple[int, Cell, int]]) -> Certificate:
    """Certificate with one placement of sign +-1 and count |c| for each
    nonzero ``(tile, shift, c)`` in ``weights``, in the given order.  It is
    verified cell by cell before it is returned."""
    placements = [Placement(tile, shift, 1 if c > 0 else -1, abs(c))
                  for tile, shift, c in weights if c]
    cert = Certificate(list(prototiles), placements, region)
    if not verify_certificate(cert):
        raise RuntimeError("internal error: certificate failed verification")
    return cert


def _lifted_weights(G: groebner.GroebnerBasis, quotients: list[Polynomial],
                    offsets: list[Cell]) -> list[tuple[int, Cell, int]]:
    """``(tile, shift, c)`` for each term c * x^a y^b of each cofactor that
    the quotients of a zero-remainder division by G lift to (one cofactor
    per prototile, G's generators), shifted by the tile's offset."""
    return [(tile_index, (a + oi, b + oj), c)
            for tile_index, (cf, (oi, oj)) in enumerate(zip(G.lift(quotients), offsets))
            for (a, b), c in sorted(cf.terms.items())]


def tile_generators(prototiles: list[Region]) -> list[Polynomial]:
    """Generators of the prototile ideal: the Newton polynomial of each
    prototile translated to start at (0, 0).  Refuses an empty list and
    empty prototiles."""
    if not prototiles:
        raise ValueError("empty prototile list")
    if any(not t for t in prototiles):
        raise ValueError("empty prototile")
    return [newton_polynomial(normalize_region(t)[0]) for t in prototiles]


def tile_reach(prototiles: list[Region]) -> int:
    """One more than the largest bounding-box side (extent) of any prototile."""
    return _reach(tile_generators(prototiles))


def _reach(gens: list[Polynomial]) -> int:
    """``tile_reach`` of the prototiles whose generators are ``gens``."""
    return 1 + max(g.max_exponent(var) for g in gens for var in (0, 1))


def decide_signed_tiling(region: Region, prototiles: list[Region],
                         max_rounds: int = 8) -> TilingDecision:
    """Decide signed tilability of ``region`` by translates of ``prototiles``.

    Completes a strong basis of the prototile ideal once, under the default
    ``minabs`` convention, with the same call as ``homology.basis_group``.
    It then tests membership of (xy)^(t*D) * f_region for t =
    0..max_rounds, where D is one more than the largest prototile extent
    (a cofinal test sequence).  Round
    0 takes the normal form r_0 of f_region (folded by the variable periods);
    round t takes r_t = NF((xy)^D * r_(t-1)), which is NF((xy)^(t*D) *
    f_region) because a strong basis gives unique normal forms.  The basis
    steps the rounds on its packed terms (``GroebnerBasis._steps_to``), up
    to the first zero normal form.  Only when
    some r_t is zero is (xy)^(t*D) * f_region divided with quotients, which
    the basis lifts through its completion log to cofactors over the
    prototiles for the certificate.  The answer 'no' is definitive only when
    every variable is provably invertible modulo the ideal: either some pure
    power x^a (resp. y^a) is congruent to 1, or the variable occurs in no
    prototile.
    """
    gens = tile_generators(prototiles)
    if max_rounds < 0:
        raise ValueError(f"max_rounds must be >= 0, got {max_rounds}")
    # A placement of the normalized tile at (a, b) is the original tile at
    # (a + di, b + dj).
    offsets = [_origin_shift(t) for t in prototiles]
    region_norm, (ri, rj) = normalize_region(region)
    f_region = newton_polynomial(region_norm)
    G = buchberger(gens)
    d = _reach(gens)

    # A variable is tame when multiplication by it is invertible modulo the
    # ideal, so test monomials cannot change membership.
    tame = [G.periods[var] is not None or all(g.max_exponent(var) == 0 for g in gens)
            for var in range(2)]
    decisive = all(tame)

    nf = groebner.remainder(f_region, G)
    t = 0 if nf.is_zero() else None
    if t is None and not decisive:
        t = G._steps_to(nf.terms, (d, d), max_rounds, 0)
    if t is None:
        return TilingDecision("no" if decisive else "inconclusive")
    res = groebner.reduce(f_region.mul_term(1, (t * d, t * d)), G)
    shifted = [(oi - t * d - ri, oj - t * d - rj) for oi, oj in offsets]
    return TilingDecision("yes", verified_certificate(
        prototiles, region, _lifted_weights(G, res.quotients, shifted)))


def certificate_nbone(m: int, n: int) -> Certificate:
    """Signed-tiling certificate for the side-m triangle by n-bones.

    With N = n^2, m is d*N or d*N - 1 for some d >= 1 (or m = 0), so m =
    (d - 1)*N + k with k = N or N - 1.  Cut the plane into N x N blocks: block
    (a, b) lies inside T(m) when a + b <= d - 2, meets it in a copy of T(k)
    shifted by (a*N, b*N) when a + b = d - 1, and misses it otherwise.  Only
    T(k) is divided by the explicit strong basis; its quotients are lifted
    through the cofactor rows, and the weights are placed once per diagonal
    block.  Each row j of the whole blocks, its first (d - 1 - j // N) * N
    cells, is covered by horizontal bones.  Every base shift (a, b) has
    a >= 0 and b < N, since no basis tail raises the total degree, so no
    (tile, shift) is placed twice.  For m <= N the certificate is the plain
    lift of T(m)'s quotients.
    """
    if not bones.decide_nbone(m, n):
        raise ValueError(f"triangle of side {m} admits no signed tiling by {n}-bones")
    N = n * n
    d = max((m + 1) // N, 1)
    k = m - (d - 1) * N
    bs = bones.bone_system(n)
    res = groebner.reduce(bones.triangle(k), bs.basis)
    if not res.remainder.is_zero():
        raise RuntimeError("internal error: admissible triangle did not reduce to zero")
    base = _lifted_weights(bs.basis, res.quotients, [(0, 0)] * 3)
    copies = ((tile, (a + s * N, b + (d - 1 - s) * N), c)
              for s in range(d) for tile, (a, b), c in base)
    blocks = ((0, (i, j), 1)
              for j in range((d - 1) * N) for i in range(0, (d - 1 - j // N) * N, n))
    region = frozenset((i, j) for j in range(m) for i in range(m - j))
    return verified_certificate(bones.nbone_prototiles(n), region, chain(copies, blocks))


# ---------------------------------------------------------------------------
# file formats

def region_to_text(region: Region) -> str:
    """One ``i j`` line per cell, ordered by j and then i: the cells are
    grouped by row, and each row is sorted once and joined with its
    ``" j\\n"`` suffix."""
    rows: dict[int, list[int]] = {}
    for i, j in region:
        row = rows.get(j)
        if row is None:
            rows[j] = [i]
        else:
            row.append(i)
    parts = []
    for j in sorted(rows):
        suffix = f" {j}\n"
        parts.append(suffix.join(map(str, sorted(rows[j]))))
        parts.append(suffix)
    return "".join(parts)


def parse_region_text(text: str) -> Region:
    return _parse_cells(enumerate(text.splitlines(), 1))


def _parse_cells(numbered: Iterable[tuple[int, str]]) -> Region:
    """Cells from ``(line number, line)`` pairs; errors name the line."""
    cells = []
    for lineno, raw in numbered:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'i j', got {raw!r}")
        try:
            cells.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ValueError(f"line {lineno}: expected integers, got {raw!r}") from None
    return frozenset(cells)


def tiles_to_text(tiles: list[Region]) -> str:
    return "\n".join(region_to_text(t) for t in tiles)


def parse_tiles_text(text: str) -> list[Region]:
    """Blocks of region lines separated by blank lines, one per prototile;
    errors name the line of the file."""
    blocks: list[list[tuple[int, str]]] = [[]]
    for lineno, raw in enumerate(text.splitlines(), 1):
        if not raw.split("#", 1)[0].strip():
            if blocks[-1]:
                blocks.append([])
            continue
        blocks[-1].append((lineno, raw))
    tiles = [_parse_cells(b) for b in blocks if b]
    if not tiles:
        raise ValueError("no prototiles in tiles file")
    return tiles


def _placement_line(pl: Placement) -> str:
    """``<+|-> tile a b``, plus a ``count`` column when the count is not 1."""
    line = f"{'+' if pl.sign > 0 else '-'} {pl.tile} {pl.shift[0]} {pl.shift[1]}"
    return line if pl.count == 1 else f"{line} {pl.count}"


def certificate_to_text(cert: Certificate, region_path: str) -> str:
    # A line break (anything str.splitlines splits at) in the region path
    # would end the header early, so the file could not be read back.
    if len((region_path + ".").splitlines()) > 1:
        raise ValueError(f"region path {region_path!r} holds a line break")
    lines = [f"tiles={len(cert.prototiles)} region={region_path}"]
    lines.extend(_placement_line(pl) for pl in cert.placements)
    return "\n".join(lines) + "\n"


def _int(text: str, lineno: int, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"line {lineno}: {what} {text!r} is not an integer") from None


def parse_certificate_text(text: str) -> tuple[int, str, list[Placement]]:
    """Returns (tile count, region path, placements).  The region path runs
    from ``region=`` to the end of the header line, so it may hold spaces;
    errors name the line."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty certificate file")
    region = re.search(r"(?:^|\s)region=", lines[0])
    head = lines[0][:region.start()] if region else lines[0]
    fields = dict(part.split("=", 1) for part in head.split() if "=" in part)
    if "tiles" not in fields or region is None:
        raise ValueError("certificate header must carry tiles= and region=")
    path = lines[0][region.end():]
    count = _int(fields["tiles"], 1, "tile count")
    placements = []
    for lineno, raw in enumerate(lines[1:], 2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (4, 5) or parts[0] not in ("+", "-"):
            raise ValueError(f"line {lineno}: expected '<+|-> tile a b [count]', got {raw!r}")
        tile = _int(parts[1], lineno, "tile index")
        if not 0 <= tile < count:
            raise ValueError(f"line {lineno}: tile index {tile} outside 0..{count - 1}")
        shift = (_int(parts[2], lineno, "shift"), _int(parts[3], lineno, "shift"))
        mult = parts[4] if len(parts) == 5 else "1"
        if not mult.isdecimal() or int(mult) < 1:
            raise ValueError(f"line {lineno}: count {mult!r} is not a positive integer")
        placements.append(Placement(tile, shift, 1 if parts[0] == "+" else -1, int(mult)))
    return count, path, placements


# ---------------------------------------------------------------------------
# rendering

HEX_SIZE = 20.0
SQRT3 = math.sqrt(3.0)
# Larger coordinates would overflow floats (about 1.8e308) in the drawing.
MAX_DRAW_COORD = 10 ** 300


def _hex_center(i: int, j: int) -> tuple[float, float]:
    for v in (i, j):
        if abs(v) > MAX_DRAW_COORD:
            raise ValueError(f"cell coordinate {v} is too large to draw (limit 10^300)")
    return HEX_SIZE * (i + j / 2.0), HEX_SIZE * j * SQRT3 / 2.0


def _hex_points(cx: float, cy: float) -> str:
    r = HEX_SIZE / SQRT3
    pts = []
    for k in range(6):
        ang = math.pi / 6 + k * math.pi / 3
        pts.append(f"{cx + r * math.cos(ang):.2f},{cy - r * math.sin(ang):.2f}")
    return " ".join(pts)


def _svg_document(groups: list[str], cells: list[Cell]) -> bytes:
    if cells:
        xs, ys = zip(*[_hex_center(i, j) for i, j in cells])
        pad = HEX_SIZE
        x0, y0 = min(xs) - pad, -max(ys) - pad
        w, h = max(xs) - min(xs) + 2 * pad, max(ys) - min(ys) + 2 * pad
    else:
        x0 = y0 = 0.0
        w = h = 1.0
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="{x0:.2f} {y0:.2f} {w:.2f} {h:.2f}">')
    return ("\n".join([head] + groups + ["</svg>"]) + "\n").encode("utf-8")


def _hex_polygon(i: int, j: int, fill: str) -> str:
    cx, cy = _hex_center(i, j)
    # Flip y so increasing j runs upward on screen.
    return f'<polygon points="{_hex_points(cx, -cy)}" fill="{fill}" stroke="black" stroke-width="1"/>'


def render(obj: Certificate | Region, fmt: str = "text") -> bytes:
    """Render a region or certificate as plain text or an SVG hex drawing; a
    certificate draws each placement once, with its count."""
    if fmt == "text":
        if isinstance(obj, Certificate):
            lines = [_placement_line(pl) for pl in obj.placements]
            return ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")
        return region_to_text(obj).encode("utf-8")
    if fmt != "svg":
        raise ValueError(f"unsupported format {fmt!r}")
    if isinstance(obj, Certificate):
        groups = []
        all_cells: list[Cell] = []
        for pl in obj.placements:
            fill = "#8dc88d" if pl.sign > 0 else "#d98c8c"
            cells = sorted((i + pl.shift[0], j + pl.shift[1])
                           for i, j in obj.prototiles[pl.tile])
            all_cells.extend(cells)
            polys = "".join(_hex_polygon(i, j, fill) for i, j in cells)
            groups.append(f'<g opacity="0.7" data-count="{pl.count}">{polys}</g>')
        return _svg_document(groups, all_cells)
    cells = sorted(obj, key=lambda c: (c[1], c[0]))
    group = "".join(_hex_polygon(i, j, "#cccccc") for i, j in cells)
    return _svg_document([f"<g>{group}</g>"] if cells else [], cells)
