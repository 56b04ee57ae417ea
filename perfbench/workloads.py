"""The benchmark's workloads: seeded lists of CLI operations with answer keys.

A run's list is a number of rounds, and a round is a fixed grid of
operation classes, so every list of a workload has the same mix of work.
The seed draws each free parameter once in each of as many equal slices of
its range as the list holds draws of it, translates regions and
prototiles, shuffles input lines and orders the list; it never changes
which classes the list holds.  That keeps the mix, and so the timings,
steady from seed to seed while the inputs differ.
"""

from __future__ import annotations

import functools
import json
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import keys

EXIT_CODES = {"YES": 0, "NO": 1, "INCONCLUSIVE": 3, "NO_SOLUTION_IN_BOX": 1}
SHIFT = 20  # inputs are translated by up to this many cells on each axis


@functools.cache
def pinned() -> dict:
    """Answers with no closed form, written by pin.py."""
    return json.loads(Path(__file__).with_name("pinned.json").read_text())


@dataclass
class Op:
    """One CLI invocation; ``check(code, stdout, stderr)`` returns a problem or None."""

    argv: list[str]
    check: Callable[[int, str, str], str | None]


class Inputs:
    """Writes a run's input files into its scratch directory."""

    def __init__(self, work: Path):
        self.work = work
        self.count = 0
        self.cache: dict[object, str] = {}

    def path(self, name: str) -> str:
        return str(self.work / name)

    def write(self, text: str) -> str:
        self.count += 1
        path = self.path(f"in{self.count}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def cached(self, key: object, make: Callable[[], str]) -> str:
        if key not in self.cache:
            self.cache[key] = self.write(make())
        return self.cache[key]


def expect(code: int, stdout: str) -> Callable[[int, str, str], str | None]:
    def check(got: int, out: str, err: str) -> str | None:
        if (got, out, err) != (code, stdout, ""):
            return (f"exit {got}, stdout {out[:80]!r}, stderr {err[:120]!r}; "
                    f"expected exit {code}, stdout {stdout[:80]!r}")
        return None
    return check


def stratified(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """k draws from lo..hi, one from each of k equal slices of the range."""
    return [lo + int((hi - lo + 1) * (s + rng.random()) / k) for s in range(k)]


def cells_text(cells, rng: random.Random) -> str:
    di, dj = rng.randint(-SHIFT, SHIFT), rng.randint(-SHIFT, SHIFT)
    lines = [f"{i + di} {j + dj}\n" for i, j in cells]
    rng.shuffle(lines)
    return "".join(lines)


def tiles_text(tiles, rng: random.Random) -> str:
    return "\n".join(cells_text(t, rng) for t in tiles)


# -- division ---------------------------------------------------------------

def reduce_op(inp: Inputs, rng: random.Random, n: int, family: str, m: int) -> Op:
    def make() -> str:
        terms = [keys.mono_text(i, j) for i, j in
                 (keys.triangle_terms(m) if family == "T" else keys.b3_terms(m))]
        rng.shuffle(terms)
        return " + ".join(terms)
    path = inp.cached((family, m), make)
    rem = keys.t_remainder(m, n) if family == "T" else keys.b3_remainder(m, n)
    return Op(["reduce", "--n", str(n), "--poly", "@" + path],
              expect(0, keys.poly_text(rem) + "\n"))


def certificate_op(inp: Inputs, n: int, m: int) -> Op:
    out = inp.path("cert.cert")
    passed: set[tuple[str, str, str]] = set()  # outputs already checked in full

    def check(code: int, stdout: str, err: str) -> str | None:
        if code != 0 or err:
            return f"exit {code}, stderr {err[:120]!r}"
        with open(out, encoding="utf-8") as fh:
            cert = fh.read()
        with open(out + ".region", encoding="utf-8") as fh:
            region = fh.read()
        if (stdout, cert, region) in passed:
            return None
        units, problem = keys.check_certificate(
            cert, region, os.path.basename(out) + ".region",
            keys.bone_cells(n), keys.triangle_cells(m))
        if problem is None and stdout != f"placements={units}\n":
            problem = f"stdout {stdout!r} but the file holds {units} unit placements"
        if problem is None:
            passed.add((stdout, cert, region))
        return problem
    return Op(["certificate", "--n", str(n), "--m", str(m), "--out", out], check)


def brion_op(m: int) -> Op:
    return Op(["brion", "--m", str(m)],
              expect(0, keys.brion_line(m) + "\nidentity: OK\n"))


def division_ops(inp: Inputs, rng: random.Random, rounds: int) -> list[Op]:
    ops = []
    for n in range(2, 9):
        for family in ("T", "b3"):
            for m in stratified(rng, 1, 3 * n * n, 5 * rounds):
                ops.append(reduce_op(inp, rng, n, family, m))
        for k in (1, 2, 3):
            for less in stratified(rng, 0, 1, rounds):
                ops.append(certificate_op(inp, n, k * n * n - less))
    ops += [brion_op(m) for m in stratified(rng, 20, 120, 10 * rounds)]
    rng.shuffle(ops)
    return ops


def division_warm(inp: Inputs, rng: random.Random) -> list[Op]:
    return [reduce_op(inp, rng, 2, "T", 2), certificate_op(inp, 2, 3), brion_op(20)]


# -- generic-decide ---------------------------------------------------------

def decide_op(inp: Inputs, rng: random.Random, tiles, m: int, answer: str) -> Op:
    region = inp.write(cells_text(keys.triangle_cells(m), rng))
    tile_file = inp.write(tiles_text(tiles, rng))
    return Op(["decide", "--region", region, "--tiles", tile_file],
              expect(EXIT_CODES[answer], answer + "\n"))


def gb_op(inp: Inputs, rng: random.Random, tiles, leading: list[list[int]]) -> Op:
    def check(code: int, out: str, err: str) -> str | None:
        lines = out.splitlines()
        if code != 0 or err or len(lines) < 3:
            return f"exit {code}, stdout {out[:80]!r}, stderr {err[:120]!r}"
        if lines[0] != "order=lex vars=x,y conv=nonneg" or lines[-1] != "verify: PASS":
            return f"unexpected header or verdict in {out[:200]!r}"
        got = sorted(keys.leading_term(keys.parse_poly_text(ln)) for ln in lines[1:-1])
        if got != leading:
            return f"basis leading terms {got}, expected {leading}"
        return None
    return Op(["gb", "--tiles", inp.write(tiles_text(tiles, rng)), "--verify"], check)


def generic_ops(inp: Inputs, rng: random.Random, rounds: int) -> list[Op]:
    # The n-bone grid (24 triangles) runs three times against the 105
    # rotation-family triangles, so each kind of tile set holds about half
    # the decides; three gb runs per tile set make decide:gb about 70:30.
    ops = []
    for _ in range(rounds):
        ops += generic_round(inp, rng)
    rng.shuffle(ops)
    return ops


def generic_round(inp: Inputs, rng: random.Random) -> list[Op]:
    ops = []
    for n in (2, 3):
        tiles = keys.bone_cells(n)
        for _ in range(3):
            for m in range(2, 2 * n * n + 1):
                ops.append(decide_op(inp, rng, tiles, m,
                                     "YES" if keys.tileable(m, n) else "NO"))
            ops.append(gb_op(inp, rng, tiles, pinned()["bones"][str(n)]))
    for fam in pinned()["families"]:
        for m, answer in fam["decide"].items():
            ops.append(decide_op(inp, rng, fam["tiles"], int(m), answer))
        ops += [gb_op(inp, rng, fam["tiles"], fam["leading"]) for _ in range(3)]
    return ops


def generic_warm(inp: Inputs, rng: random.Random) -> list[Op]:
    tiles = keys.bone_cells(2)
    return [decide_op(inp, rng, tiles, 3, "YES"), gb_op(inp, rng, tiles, pinned()["bones"]["2"])]


# -- lattice ----------------------------------------------------------------

def homology_op(n: int) -> Op:
    return Op(["homology", "--n", str(n)], expect(0, keys.bone_homology(n) + "\n"))


def box_op(inp: Inputs, rng: random.Random, n: int, d: int) -> Op:
    return Op(["homology", "--tiles", inp.write(tiles_text(keys.bone_cells(n), rng)),
               "--box", str(d)], expect(0, keys.bone_homology(n) + "\n"))


def oracle_op(inp: Inputs, rng: random.Random, n: int, m: int) -> Op:
    region = inp.write(cells_text(keys.triangle_cells(m), rng))
    tile_file = inp.write(tiles_text(keys.bone_cells(n), rng))
    answer = "YES" if keys.tileable(m, n) else "NO_SOLUTION_IN_BOX"
    return Op(["oracle", "--region", region, "--tiles", tile_file, "--margin", str(2 * n)],
              expect(EXIT_CODES[answer], answer + "\n"))


def lattice_ops(inp: Inputs, rng: random.Random, rounds: int) -> list[Op]:
    ops = [homology_op(n) for n in range(2, 6) for _ in range(4 * rounds)]
    for n in (3, 4):
        ops += [box_op(inp, rng, n, d) for d in stratified(rng, 3 * n, 20, 4 * rounds)]
    ops += [oracle_op(inp, rng, 2, m) for m in stratified(rng, 1, 6, 4 * rounds)]
    ops += [oracle_op(inp, rng, 3, m) for _ in range(rounds) for m in range(1, 13)]
    rng.shuffle(ops)
    return ops


def lattice_warm(inp: Inputs, rng: random.Random) -> list[Op]:
    return [homology_op(2), box_op(inp, rng, 3, 9), oracle_op(inp, rng, 2, 3)]


@dataclass(frozen=True)
class Workload:
    make_ops: Callable[[Inputs, random.Random, int], list[Op]]  # (inputs, rng, rounds)
    warm: Callable[[Inputs, random.Random], list[Op]]
    bone_ns: tuple[int, ...]  # bone_system(n) is built during set-up for these n
    rounds: int  # rounds in the op list of a run: at least 100 ops


WORKLOADS = {
    "division": Workload(division_ops, division_warm, tuple(range(2, 9)), 3),
    "generic-decide": Workload(generic_ops, generic_warm, (), 1),
    "lattice": Workload(lattice_ops, lattice_warm, (), 3),
}
