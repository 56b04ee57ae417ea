"""Command-line interface tying the library together for batch use.

Exit codes: 0 success, 1 domain-level no/fail, 2 usage error, 3 inconclusive.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import bones, brion, groebner, homology, oracle, tiling
from .polyring import PolyParseError, format_poly, parse_poly


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process; parse_args leaves the parser unchanged, so
    every call still starts from the declared defaults."""
    parser = argparse.ArgumentParser(
        prog="tilegb",
        description="Signed polyomino tilings via strong Groebner bases over Z.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("decide", help="decide signed tilability")
    p.add_argument("--n", type=int, help="bone length (triangle/n-bone mode)")
    p.add_argument("--m", type=int, help="triangle side (triangle/n-bone mode)")
    p.add_argument("--region", help="region file (generic mode)")
    p.add_argument("--tiles", help="prototile file (generic mode)")
    p.add_argument("--max-rounds", type=int, default=8)

    p = sub.add_parser("reduce", help="remainder of a polynomial against a basis")
    p.add_argument("--n", type=int)
    p.add_argument("--basis", help="basis file")
    p.add_argument("--poly", required=True, help="polynomial text, or @FILE")
    p.add_argument("--conv", choices=["minabs", "nonneg"])
    p.add_argument("--show-quotients", action="store_true")

    p = sub.add_parser("gb", help="compute or print a strong Groebner basis")
    p.add_argument("--n", type=int)
    p.add_argument("--tiles")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("certificate", help="signed-tiling certificate for a triangle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--svg")

    p = sub.add_parser("verify", help="check a certificate file")
    p.add_argument("--certificate", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--tiles")

    p = sub.add_parser("homology", help="tile homology group")
    p.add_argument("--n", type=int)
    p.add_argument("--tiles")
    p.add_argument("--box", type=int, help="group of one D x D box instead of H")

    p = sub.add_parser("oracle", help="brute-force box search")
    p.add_argument("--region", required=True)
    p.add_argument("--tiles", required=True)
    p.add_argument("--margin", type=int)

    p = sub.add_parser("brion", help="rational form of a triangle transform")
    p.add_argument("--m", type=int, required=True)

    p = sub.add_parser("render", help="render a region or certificate")
    p.add_argument("--region")
    p.add_argument("--certificate")
    p.add_argument("--n", type=int)
    p.add_argument("--tiles")
    p.add_argument("--format", choices=["text", "svg"], default="text")
    p.add_argument("--out", required=True)
    return parser


class UsageError(Exception):
    pass


# certificate and brion build the whole side-m triangle, so time and memory
# grow as m^2: at m = 1024 certificate took 1.3-3.0 s (n = 2, 3, 8, 32) and
# brion 0.8 s on one core of a Xeon server.  1024 still reaches the first
# tileable side, n^2 - 1, for every n <= 32.
MAX_SIDE = 1024


# reduce folds exponents by the periods of the verified n-bone basis, so its
# time does not grow with them.  With an unverified --basis, or with
# --show-quotients, it divides unfolded, in time linear in the largest
# exponent (x^100000 takes about 0.3 s), so these modes refuse exponents
# above the square of the largest triangle side.
MAX_EXPONENT = MAX_SIDE ** 2


# oracle builds one unknown per placement and one equation per cell of its
# box: a 1023 x 1023 box took 11 s and 1.1 GB.  With the 3-bones near this
# limit, a no (T(3), a 255 x 255 box) takes about 1.5 s and 144 MB, a yes
# (T(8), a 254 x 254 box) 52-77 s and 1.65 GB, since only a yes logs how
# its solution is combined.  The side limit alone bounds only thin boxes.
# homology --box D builds one generator per cell and one relation per tile
# translate, so it refuses D below 1 and D^2 above the same limit (D > 256):
# D = 3000 raised MemoryError under a 2 GB address-space limit.
MAX_BOX_CELLS = 256 ** 2


# bone_system(n) proves the explicit basis strong, in time growing about as
# n^3: reduce --n 300 took 17 s and gb --n 600 over a minute.  The
# prototiles alone hold 3n cells, 40 MiB at n = 10^5.  Every verb that
# builds the n-bones refuses n above this; at 64 each answers within
# 0.35 s.  decide --n --m uses the closed form and has no limit.
MAX_BONE = 64


# decide --region --tiles on a set that is not tame tests one more round per
# --max-rounds, and the normal forms grow from round to round, so its time
# grows faster than linearly: on the tile 1 + x + y and T(3), 256 rounds took
# 0.6 s, 400 rounds 1.4 s and 800 rounds 5.7 s (subprocess wall time).
MAX_ROUNDS = 256


def _check_side(m: int) -> None:
    if m > MAX_SIDE:
        raise UsageError(f"--m {m} is above the limit of {MAX_SIDE}")


def _check_bone(n: int) -> None:
    if n > MAX_BONE:
        raise UsageError(f"--n {n} is above the limit of {MAX_BONE}")


def _spans(cells) -> list[int]:
    """Width and height of the bounding box of ``cells`` (1 by 1 when empty)."""
    return [max(c) - min(c) + 1 for c in zip(*cells)] or [1, 1]


# Completion and division work on the Newton polynomials, whose degrees are
# the bounding-box sides, and the oracle on every cell of its box: a region
# with cells at (0, 0) and (100000, 0) ran decide out of memory.  decide,
# oracle, homology --tiles and gb --tiles therefore refuse a region or
# prototile with a side above MAX_SIDE, and oracle also a box side above it
# or a box of more than MAX_BOX_CELLS cells.
def _check_extent(prototiles: list[tiling.Region], region: tiling.Region = frozenset()) -> None:
    named = [("the region", region)] + [(f"prototile {k}", t) for k, t in enumerate(prototiles)]
    for what, cells in named:
        side = max(_spans(cells))
        if side > MAX_SIDE:
            raise UsageError(f"{what} has a bounding-box side of {side}, "
                             f"above the limit of {MAX_SIDE}")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_tiles(args) -> list[tiling.Region]:
    if args.n is not None and args.tiles is not None:
        raise UsageError("give either --n or --tiles, not both")
    if args.n is not None:
        _check_bone(args.n)
        return bones.nbone_prototiles(args.n)
    if args.tiles is not None:
        return tiling.parse_tiles_text(_read(args.tiles))
    raise UsageError("one of --n or --tiles is required")


def _load_certificate(args) -> tiling.Certificate:
    text = _read(args.certificate)
    count, region_path, placements = tiling.parse_certificate_text(text)
    prototiles = _load_tiles(args)
    if len(prototiles) != count:
        raise UsageError(f"certificate expects {count} prototiles, got {len(prototiles)}")
    if not os.path.isabs(region_path):
        region_path = os.path.join(os.path.dirname(os.path.abspath(args.certificate)),
                                   region_path)
    region = tiling.parse_region_text(_read(region_path))
    return tiling.Certificate(prototiles, placements, region)


def _cmd_decide(args, out: list[str]) -> int:
    triangle_mode = args.n is not None or args.m is not None
    generic_mode = args.region is not None or args.tiles is not None
    if triangle_mode == generic_mode:
        raise UsageError("give --n/--m or --region/--tiles")
    if triangle_mode:
        if args.n is None or args.m is None:
            raise UsageError("decide needs both --n and --m")
        if bones.decide_nbone(args.m, args.n):
            out.append("YES")
            return 0
        out.append("NO")
        return 1
    if args.region is None or args.tiles is None:
        raise UsageError("decide needs both --region and --tiles")
    if args.max_rounds > MAX_ROUNDS:
        raise UsageError(f"--max-rounds {args.max_rounds} is above the limit of {MAX_ROUNDS}")
    region = tiling.parse_region_text(_read(args.region))
    prototiles = tiling.parse_tiles_text(_read(args.tiles))
    _check_extent(prototiles, region)
    decision = tiling.decide_signed_tiling(region, prototiles, args.max_rounds)
    if decision.status == "yes":
        out.append("YES")
        return 0
    if decision.status == "no":
        out.append("NO")
        return 1
    out.append("INCONCLUSIVE")
    return 3


def _cmd_reduce(args, out: list[str]) -> int:
    if (args.n is None) == (args.basis is None):
        raise UsageError("give exactly one of --n or --basis")
    if args.n is not None:
        _check_bone(args.n)
        basis = bones.bone_system(args.n).basis
    else:
        basis = groebner.basis_from_text(_read(args.basis))
    text = args.poly
    if text.startswith("@"):
        text = _read(text[1:])
    try:
        poly = parse_poly(text)
    except PolyParseError as exc:
        raise UsageError(f"bad polynomial: {exc}") from None
    unfolded = args.basis is not None or args.show_quotients
    if unfolded and max(map(max, poly.terms), default=0) > MAX_EXPONENT:
        raise UsageError(f"an exponent is above the limit of {MAX_EXPONENT} "
                         "with --basis or --show-quotients")
    if not args.show_quotients:
        out.append(format_poly(groebner.remainder(poly, basis, args.conv)))
        return 0
    res = groebner.reduce(poly, basis, args.conv)
    out.append(format_poly(res.remainder))
    for i, q in enumerate(res.quotients):
        out.append(f"q[{i}] = {format_poly(q)}")
    return 0


def _cmd_gb(args, out: list[str]) -> int:
    prototiles = _load_tiles(args)
    if args.n is not None:
        basis = bones.bone_system(args.n).basis
    else:
        _check_extent(prototiles)
        basis = groebner.buchberger(tiling.tile_generators(prototiles), conv="nonneg")
    text = groebner.basis_to_text(basis)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        out.append(text.rstrip("\n"))
    if args.verify:
        report = groebner.verify_strong_gb(basis)
        if report.passed:
            out.append("verify: PASS")
        else:
            out.append(f"verify: FAIL ({report.reason}, pair {report.pair})")
            return 1
    return 0


def _cmd_certificate(args, out: list[str]) -> int:
    _check_bone(args.n)
    _check_side(args.m)
    if not bones.decide_nbone(args.m, args.n):
        print(f"triangle of side {args.m} admits no signed tiling by {args.n}-bones",
              file=sys.stderr)
        return 1
    cert = tiling.certificate_nbone(args.m, args.n)
    if args.out:
        region_path = args.out + ".region"
        # Built first, so that a region path it refuses leaves no file behind.
        text = tiling.certificate_to_text(cert, os.path.basename(region_path))
        with open(region_path, "w", encoding="utf-8") as fh:
            fh.write(tiling.region_to_text(cert.region))
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.svg:
        with open(args.svg, "wb") as fh:
            fh.write(tiling.render(cert, "svg"))
    out.append(f"placements={sum(pl.count for pl in cert.placements)}")
    return 0


def _cmd_verify(args, out: list[str]) -> int:
    cert = _load_certificate(args)
    if tiling.verify_certificate(cert):
        out.append("VALID")
        return 0
    out.append("INVALID")
    return 1


def _cmd_homology(args, out: list[str]) -> int:
    prototiles = _load_tiles(args)
    _check_extent(prototiles)
    if args.box is not None:
        if args.box < 1:
            raise UsageError(f"--box {args.box} is below 1")
        if args.box ** 2 > MAX_BOX_CELLS:
            raise UsageError(f"the box of {args.box} x {args.box} = {args.box ** 2} cells "
                             f"is above the limit of {MAX_BOX_CELLS} cells")
        group = homology.box_group(prototiles, args.box)
    else:
        group = homology.basis_group(prototiles)
    out.append("not finitely generated" if group is None else str(group))
    return 0


def _cmd_oracle(args, out: list[str]) -> int:
    region = tiling.parse_region_text(_read(args.region))
    prototiles = tiling.parse_tiles_text(_read(args.tiles))
    _check_extent(prototiles, region)
    margin = args.margin
    if margin is None:
        margin = 2 * tiling.tile_reach(prototiles)
    if margin < 0:
        raise UsageError("negative margin")
    width, height = (s + 2 * margin for s in _spans(region))
    box = max(width, height)
    if box > MAX_SIDE:
        raise UsageError(f"the box side {box} (the region's side plus twice the margin "
                         f"{margin}) is above the limit of {MAX_SIDE}")
    if width * height > MAX_BOX_CELLS:
        raise UsageError(f"the box of {width} x {height} = {width * height} cells is above "
                         f"the limit of {MAX_BOX_CELLS} cells")
    decision = oracle.oracle_decide(region, prototiles, margin)
    if decision.solvable:
        out.append("YES")
        return 0
    out.append("NO_SOLUTION_IN_BOX")
    return 1


def _cmd_brion(args, out: list[str]) -> int:
    _check_side(args.m)
    form = brion.rational_form_T(args.m)
    parts = []
    for num, dens in form.terms:
        dens_text = "*".join(f"({format_poly(d)})" for d in dens)
        parts.append(f"({format_poly(num)})/({dens_text})")
    out.append(f"T({args.m}) = " + " + ".join(parts))
    ok = brion.verify_brion(args.m)
    out.append("identity: OK" if ok else "identity: FAIL")
    return 0 if ok else 1


def _cmd_render(args, out: list[str]) -> int:
    if (args.region is None) == (args.certificate is None):
        raise UsageError("give exactly one of --region or --certificate")
    if args.region is not None:
        obj = tiling.parse_region_text(_read(args.region))
    else:
        if args.format == "text":
            # Placements alone suffice for the text form.
            _, _, placements = tiling.parse_certificate_text(_read(args.certificate))
            obj = tiling.Certificate([], placements, frozenset())
        else:
            obj = _load_certificate(args)
    data = tiling.render(obj, args.format)
    with open(args.out, "wb") as fh:
        fh.write(data)
    return 0


_COMMANDS = {
    "decide": _cmd_decide,
    "reduce": _cmd_reduce,
    "gb": _cmd_gb,
    "certificate": _cmd_certificate,
    "verify": _cmd_verify,
    "homology": _cmd_homology,
    "oracle": _cmd_oracle,
    "brion": _cmd_brion,
    "render": _cmd_render,
}


def run(argv: list[str]) -> tuple[int, str]:
    """Parse and execute; returns (exit code, stdout text).  Output files are
    written as side effects; usage errors return code 2."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2), ""
    out: list[str] = []
    try:
        code = _COMMANDS[args.verb](args, out)
    except (UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, ""
    return code, "".join(line + "\n" for line in out)


def main() -> None:
    code, text = run(sys.argv[1:])
    sys.stdout.write(text)
    sys.exit(code)


if __name__ == "__main__":
    main()
