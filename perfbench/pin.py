"""Regenerate pinned.json: answers that have no closed form, taken from the
library as it stands.

    python3 perfbench/pin.py

Enumerates every rotation-closed family of 3- and 4-cell polyhexes (a
polyhex with its 120-degree rotations), and records the CLI's `decide`
answer on the triangles of side 3..7 and the leading terms of the `gb`
basis, for each family and for the 2- and 3-bones.  Every "yes" is
re-checked here, cell by cell with the benchmark's own accumulator, on the
certificate that decide_signed_tiling returns.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import keys

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tilegb import cli, tiling  # noqa: E402

# Hexagonal-lattice neighbours in the library's square coordinates; the
# three n-bone directions are (1, 0), (0, 1) and (-1, 1).
NEIGHBOURS = [(1, 0), (0, 1), (1, -1), (-1, 0), (0, -1), (-1, 1)]
SIDES = range(3, 8)


def normalize(cells) -> tuple:
    di = min(i for i, _ in cells)
    dj = min(j for _, j in cells)
    return tuple(sorted((i - di, j - dj) for i, j in cells))


def rotate(cells) -> tuple:
    """120-degree rotation (i, j) -> (-i - j, i), normalized."""
    return normalize([(-i - j, i) for i, j in cells])


def polyhexes(size: int) -> set[tuple]:
    shapes = {((0, 0),)}
    for _ in range(size - 1):
        shapes = {normalize(s + ((i + di, j + dj),))
                  for s in shapes for i, j in s for di, dj in NEIGHBOURS
                  if (i + di, j + dj) not in s}
    return shapes


def families() -> list[list[tuple]]:
    """Each rotation orbit once, as its sorted distinct members."""
    orbits = {}
    for size in (3, 4):
        for shape in polyhexes(size):
            orbit = {shape, rotate(shape), rotate(rotate(shape))}
            orbits[min(orbit)] = sorted(orbit)
    return [orbits[k] for k in sorted(orbits)]


def tiles_file(work: Path, tiles) -> str:
    path = work / "tiles.txt"
    path.write_text("\n".join("".join(f"{i} {j}\n" for i, j in t) for t in tiles))
    return str(path)


def gb_leading(work: Path, tiles) -> list[list[int]]:
    code, out = cli.run(["gb", "--tiles", tiles_file(work, tiles), "--verify"])
    lines = out.splitlines()
    if code != 0 or lines[-1] != "verify: PASS":
        raise SystemExit(f"gb failed on {tiles}: {out!r}")
    return sorted(keys.leading_term(keys.parse_poly_text(ln)) for ln in lines[1:-1])


def decide(work: Path, tiles, m: int) -> str:
    region = work / "region.txt"
    region.write_text("".join(f"{i} {j}\n" for i, j in keys.triangle_cells(m)))
    code, out = cli.run(["decide", "--region", str(region), "--tiles", tiles_file(work, tiles)])
    answer = out.strip()
    if answer == "YES":
        decision = tiling.decide_signed_tiling(frozenset(keys.triangle_cells(m)),
                                               [frozenset(t) for t in tiles])
        placements = [(p.tile, p.shift[0], p.shift[1], p.sign)
                      for p in decision.certificate.placements]
        if keys.signed_sum(placements, tiles) != {c: 1 for c in keys.triangle_cells(m)}:
            raise SystemExit(f"certificate for {tiles} on T({m}) fails the cell check")
    return answer


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        pinned = {
            "bones": {str(n): gb_leading(work, keys.bone_cells(n)) for n in (2, 3)},
            "families": [{"tiles": fam,
                          "decide": {str(m): decide(work, fam, m) for m in SIDES},
                          "leading": gb_leading(work, fam)}
                         for fam in families()],
        }
    text = json.dumps(pinned, separators=(",", ":"))
    Path(__file__).with_name("pinned.json").write_text(text + "\n")


if __name__ == "__main__":
    main()
