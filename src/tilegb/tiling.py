"""Lattice regions, signed-tiling decisions with certificates, and rendering.

A signed tiling of a region is a multiset of translated prototiles with signs
whose indicator functions sum to the region's indicator.  Deciding one reduces
to ideal membership of the region's Newton polynomial after clearing a test
monomial (translates may stick out below the axes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from . import bones, groebner
from .groebner import buchberger
from .polyring import LEX, Polynomial

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
    di = -min(i for i, _ in region)
    dj = -min(j for _, j in region)
    return translate_region(region, di, dj), (di, dj)


def newton_polynomial(region: Region) -> Polynomial:
    """sum of x^i y^j over the cells (i, j); coordinates must be non-negative."""
    for i, j in region:
        if i < 0 or j < 0:
            raise ValueError(f"negative coordinate {(i, j)}; normalize the region first")
    return Polynomial({(i, j): 1 for i, j in region})


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


def _certificate_from_quotients(quotients: list[Polynomial],
                                cofactor_rows: list[list[Polynomial]],
                                prototiles: list[Region], region: Region,
                                offsets: list[Cell]) -> Certificate:
    """Certificate from a zero-remainder division: the quotients times the
    basis cofactor rows give one cofactor per prototile, and each cofactor
    term c * x^a y^b becomes one placement of weight c, shifted by the tile's
    offset."""
    cof = [Polynomial.zero() for _ in prototiles]
    for q, row in zip(quotients, cofactor_rows):
        if q:
            cof = [c + q * rc for c, rc in zip(cof, row)]
    return verified_certificate(prototiles, region,
                                ((tile_index, (a + oi, b + oj), c)
                                 for tile_index, (cf, (oi, oj)) in enumerate(zip(cof, offsets))
                                 for (a, b), c in sorted(cf.terms.items())))


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
    return 1 + max(g.max_exponent(var) for g in tile_generators(prototiles) for var in (0, 1))


def decide_signed_tiling(region: Region, prototiles: list[Region],
                         max_rounds: int = 8) -> TilingDecision:
    """Decide signed tilability of ``region`` by translates of ``prototiles``.

    Computes a strong basis of the prototile ideal with cofactors recorded,
    then tests membership of (xy)^(t*D) * f_region for t = 0..max_rounds,
    where D is one more than the largest prototile extent (a cofinal test
    sequence).  The answer 'no' is definitive only when every variable is
    provably invertible modulo the ideal: either some pure power x^a (resp.
    y^a) is congruent to 1, or the variable occurs in no prototile.
    """
    gens = tile_generators(prototiles)
    if max_rounds < 0:
        raise ValueError(f"max_rounds must be >= 0, got {max_rounds}")
    # A placement of the normalized tile at (a, b) is the original tile at
    # (a + di, b + dj).
    offsets = [normalize_region(t)[1] for t in prototiles]
    region_norm, (ri, rj) = normalize_region(region)
    f_region = newton_polynomial(region_norm)
    G = buchberger(gens, LEX, "nonneg", track_cofactors=True)
    d = tile_reach(prototiles)

    # A variable is tame when multiplication by it is invertible modulo the
    # ideal, so test monomials cannot change membership.
    tame = [G.periods[var] is not None or all(g.max_exponent(var) == 0 for g in gens)
            for var in range(2)]
    decisive = all(tame)

    rounds = 0 if decisive else max_rounds
    for t in range(rounds + 1):
        shifted = f_region.mul_term(1, (t * d, t * d))
        res = groebner.reduce(shifted, G)
        if not res.remainder.is_zero():
            continue
        shift_back = (-t * d - ri, -t * d - rj)
        total_offsets = [(oi + shift_back[0], oj + shift_back[1]) for oi, oj in offsets]
        cert = _certificate_from_quotients(res.quotients, G.cofactors, prototiles,
                                           region, total_offsets)
        return TilingDecision("yes", cert)
    return TilingDecision("no" if decisive else "inconclusive")


def certificate_nbone(m: int, n: int) -> Certificate:
    """Signed-tiling certificate for the side-m triangle by n-bones, built by
    cofactor-tracked division against the explicit strong basis."""
    if not bones.decide_nbone(m, n):
        raise ValueError(f"triangle of side {m} admits no signed tiling by {n}-bones")
    bs = bones.bone_system(n)
    res = groebner.reduce(bones.triangle(m), bs.basis)
    if not res.remainder.is_zero():
        raise RuntimeError("internal error: admissible triangle did not reduce to zero")
    region = frozenset((i, j) for i in range(m) for j in range(m - i))
    return _certificate_from_quotients(res.quotients, bs.basis.cofactors,
                                       bones.nbone_prototiles(n), region, [(0, 0)] * 3)


# ---------------------------------------------------------------------------
# file formats

def region_to_text(region: Region) -> str:
    lines = [f"{i} {j}" for i, j in sorted(region, key=lambda c: (c[1], c[0]))]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_region_text(text: str) -> Region:
    cells = []
    for lineno, raw in enumerate(text.splitlines(), 1):
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
    """Blocks of region lines separated by blank lines, one per prototile."""
    blocks: list[list[str]] = [[]]
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            if blocks[-1]:
                blocks.append([])
            continue
        blocks[-1].append(raw)
    tiles = [parse_region_text("\n".join(b)) for b in blocks if b]
    if not tiles:
        raise ValueError("no prototiles in tiles file")
    return tiles


def _placement_line(pl: Placement) -> str:
    """``<+|-> tile a b``, plus a ``count`` column when the count is not 1."""
    line = f"{'+' if pl.sign > 0 else '-'} {pl.tile} {pl.shift[0]} {pl.shift[1]}"
    return line if pl.count == 1 else f"{line} {pl.count}"


def certificate_to_text(cert: Certificate, region_path: str) -> str:
    lines = [f"tiles={len(cert.prototiles)} region={region_path}"]
    lines.extend(_placement_line(pl) for pl in cert.placements)
    return "\n".join(lines) + "\n"


def parse_certificate_text(text: str) -> tuple[int, str, list[Placement]]:
    """Returns (tile count, region path, placements)."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty certificate file")
    fields = dict(part.split("=", 1) for part in lines[0].split() if "=" in part)
    if "tiles" not in fields or "region" not in fields:
        raise ValueError("certificate header must carry tiles= and region=")
    count = int(fields["tiles"])
    placements = []
    for lineno, raw in enumerate(lines[1:], 2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (4, 5) or parts[0] not in ("+", "-"):
            raise ValueError(f"line {lineno}: expected '<+|-> tile a b [count]', got {raw!r}")
        tile = int(parts[1])
        if not 0 <= tile < count:
            raise ValueError(f"line {lineno}: tile index {tile} outside 0..{count - 1}")
        mult = parts[4] if len(parts) == 5 else "1"
        if not mult.isdecimal() or int(mult) < 1:
            raise ValueError(f"line {lineno}: count {mult!r} is not a positive integer")
        placements.append(Placement(tile, (int(parts[2]), int(parts[3])),
                                    1 if parts[0] == "+" else -1, int(mult)))
    return count, fields["region"], placements


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
