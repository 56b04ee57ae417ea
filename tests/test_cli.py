"""Command-line surface: golden outputs, exit codes, file round trips."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from helpers import pinned_families
import tilegb
from tilegb.bones import nbone_prototiles, triangle
from tilegb.cli import run
from tilegb.polyring import format_poly
from tilegb.tiling import region_to_text, tiles_to_text


@pytest.fixture
def t6_file(tmp_path):
    path = tmp_path / "T6.poly"
    path.write_text(format_poly(triangle(6)) + "\n")
    return str(path)


@pytest.fixture
def bones3_file(tmp_path):
    path = tmp_path / "bones3.tiles"
    path.write_text(tiles_to_text(nbone_prototiles(3)))
    return str(path)


def region_file(tmp_path, name, cells):
    path = tmp_path / name
    path.write_text(region_to_text(frozenset(cells)))
    return str(path)


def tri(m):
    return [(i, j) for i in range(m) for j in range(m - i)]


# ---------------------------------------------------------------------------
# the three golden invocations, byte-exact and repeatable

def test_golden_decide():
    assert run(["decide", "--n", "3", "--m", "8"]) == (0, "YES\n")
    assert run(["decide", "--n", "3", "--m", "8"]) == (0, "YES\n")


def test_golden_reduce(t6_file):
    argv = ["reduce", "--n", "3", "--poly", "@" + t6_file, "--conv", "minabs"]
    assert run(argv) == (0, "-1 - x - y\n")
    assert run(argv) == (0, "-1 - x - y\n")


def test_golden_homology():
    assert run(["homology", "--n", "3"]) == (0, "Z^2 + Z/3\n")
    assert run(["homology", "--n", "3"]) == (0, "Z^2 + Z/3\n")


# ---------------------------------------------------------------------------
# decide

def test_decide_no_exit_code():
    assert run(["decide", "--n", "3", "--m", "10"]) == (1, "NO\n")


def test_decide_usage_errors():
    assert run(["decide", "--n", "3"])[0] == 2
    assert run(["decide"])[0] == 2
    assert run(["decide", "--n", "3", "--m", "8", "--region", "r"])[0] == 2
    assert run(["frobnicate"])[0] == 2
    assert run([])[0] == 2


def test_decide_generic_region(tmp_path, bones3_file):
    rpath = region_file(tmp_path, "t8.region", tri(8))
    assert run(["decide", "--region", rpath, "--tiles", bones3_file]) == (0, "YES\n")
    rpath = region_file(tmp_path, "t6.region", tri(6))
    assert run(["decide", "--region", rpath, "--tiles", bones3_file]) == (1, "NO\n")


def test_decide_generic_inconclusive(tmp_path):
    rpath = region_file(tmp_path, "cell.region", [(0, 0)])
    tpath = tmp_path / "diag.tiles"
    tpath.write_text("0 0\n1 1\n")
    code, out = run(["decide", "--region", rpath, "--tiles", str(tpath),
                     "--max-rounds", "2"])
    assert (code, out) == (3, "INCONCLUSIVE\n")


def test_decide_max_rounds_above_the_limit_is_usage_error(tmp_path, capsys):
    # The tile 1 + x + y is not tame, so every round up to the limit runs.
    rpath = region_file(tmp_path, "t3.region", tri(3))
    tpath = region_file(tmp_path, "corner.tiles", [(0, 0), (1, 0), (0, 1)])
    argv = ["decide", "--region", rpath, "--tiles", tpath, "--max-rounds"]
    capsys.readouterr()
    assert run(argv + ["256"]) == (3, "INCONCLUSIVE\n")
    assert run(argv + ["257"]) == (2, "")
    assert capsys.readouterr().err == "error: --max-rounds 257 is above the limit of 256\n"


def test_decide_negative_max_rounds_is_usage_error(tmp_path, capsys):
    rpath = region_file(tmp_path, "diag.region", [(0, 0), (1, 1)])
    tpath = tmp_path / "diag.tiles"
    tpath.write_text("0 0\n1 1\n")
    argv = ["decide", "--region", rpath, "--tiles", str(tpath), "--max-rounds"]
    assert run(argv + ["0"]) == (0, "YES\n")
    assert run(argv + ["-1"]) == (2, "")
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# reduce

def test_reduce_inline_default_convention():
    code, out = run(["reduce", "--n", "3", "--poly", format_poly(triangle(6))])
    assert (code, out) == (0, "2 + 2*x + 2*y\n")


def test_reduce_show_quotients():
    code, out = run(["reduce", "--n", "2", "--poly", "1 + x + y + x^2 + x*y + y^2",
                     "--show-quotients"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0"
    assert lines[1:] == ["q[0] = x + y", "q[1] = -1 + y", "q[2] = 1", "q[3] = 0"]


def test_reduce_bad_poly_is_usage_error(capsys):
    assert run(["reduce", "--n", "3", "--poly", "1 +"])[0] == 2
    assert run(["reduce", "--n", "3", "--basis", "b", "--poly", "1"])[0] == 2
    capsys.readouterr()
    assert run(["reduce", "--n", "3", "--poly", "3*"]) == (2, "")
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
                    reason="interpreter has no int/str digit limit below 5,000")
def test_reduce_integer_past_the_digit_limit_is_usage_error(capsys):
    assert run(["reduce", "--n", "3", "--poly", "1" * 5000]) == (2, "")
    assert capsys.readouterr().err.startswith("error: ")


def test_reduce_from_basis_file(tmp_path, t6_file):
    bpath = tmp_path / "basis.txt"
    code, _ = run(["gb", "--n", "3", "--out", str(bpath)])
    assert code == 0
    code, out = run(["reduce", "--basis", str(bpath), "--poly", "@" + t6_file,
                     "--conv", "minabs"])
    assert (code, out) == (0, "-1 - x - y\n")


# ---------------------------------------------------------------------------
# gb

def test_gb_prints_basis_and_verifies():
    code, out = run(["gb", "--n", "3", "--verify"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "order=lex vars=x,y conv=nonneg"
    assert lines[1:5] == ["1 + x + x^2", "1 + y + y^2", "3 + 3*x + 3*y",
                          "-2 - x - y + x*y"]
    assert lines[5] == "verify: PASS"


def test_gb_from_tiles(tmp_path, bones3_file):
    code, out = run(["gb", "--tiles", bones3_file, "--verify"])
    assert code == 0
    assert out.splitlines()[-1] == "verify: PASS"


@pytest.mark.parametrize("flags", [
    ["--n", "3", "--tiles", "{tiles}"], [], ["--n", "3", "--tiles", ""],
], ids=["both", "neither", "both-empty-path"])
def test_gb_needs_exactly_one_tile_source(capsys, bones3_file, flags):
    capsys.readouterr()
    assert run(["gb"] + [f.format(tiles=bones3_file) for f in flags]) == (2, "")
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# certificate / verify / render

def test_certificate_verify_render_round_trip(tmp_path):
    cert_path = str(tmp_path / "c83.cert")
    svg_path = str(tmp_path / "c83.svg")
    code, out = run(["certificate", "--n", "3", "--m", "8", "--out", cert_path,
                     "--svg", svg_path])
    assert (code, out) == (0, "placements=24\n")
    assert os.path.exists(cert_path)
    assert os.path.exists(cert_path + ".region")
    assert Path(svg_path).read_bytes().startswith(b"<svg")

    assert run(["verify", "--certificate", cert_path, "--n", "3"]) == (0, "VALID\n")

    # wreck it: one extra placement breaks the indicator sum
    with open(cert_path, "a") as fh:
        fh.write("+ 0 40 40\n")
    assert run(["verify", "--certificate", cert_path, "--n", "3"]) == (1, "INVALID\n")


@pytest.mark.parametrize("line", ["+ -3 0 0", "+ 5 0 0", "+- 0 0 0"])
def test_verify_malformed_placement_is_input_error(tmp_path, capsys, line):
    cert_path = str(tmp_path / "c.cert")
    assert run(["certificate", "--n", "3", "--m", "8", "--out", cert_path])[0] == 0
    with open(cert_path, "a") as fh:
        fh.write(line + "\n")
    capsys.readouterr()
    assert run(["verify", "--certificate", cert_path, "--n", "3"]) == (2, "")
    assert capsys.readouterr().err.startswith("error: ")


def test_certificate_file_carries_counts(tmp_path):
    cert_path = str(tmp_path / "c83.cert")
    assert run(["certificate", "--n", "3", "--m", "8", "--out", cert_path]) == \
        (0, "placements=24\n")
    rows = [line.split() for line in Path(cert_path).read_text().splitlines()[1:]]
    assert sum(int(r[4]) if len(r) == 5 else 1 for r in rows) == 24
    assert len(rows) < 24 and any(len(r) == 5 for r in rows)
    out_path = str(tmp_path / "c83.txt")
    assert run(["render", "--certificate", cert_path, "--format", "text",
                "--out", out_path]) == (0, "")
    assert Path(out_path).read_text().splitlines() == [" ".join(r) for r in rows]


@pytest.mark.parametrize("count", ["0", "-2", "x"])
def test_verify_bad_count_is_input_error(tmp_path, capsys, count):
    cert_path = str(tmp_path / "c.cert")
    assert run(["certificate", "--n", "3", "--m", "8", "--out", cert_path])[0] == 0
    with open(cert_path, "a") as fh:
        fh.write(f"+ 0 0 0 {count}\n")
    capsys.readouterr()
    assert run(["verify", "--certificate", cert_path, "--n", "3"]) == (2, "")
    assert capsys.readouterr().err.startswith("error: ")


def test_certificate_path_with_spaces_reads_back(tmp_path):
    # The header names the region file "my cert.region"; its space must not
    # cut the path short when verify and render read the header back.
    folder = tmp_path / "sp dir"
    folder.mkdir()
    cert_path = str(folder / "my cert")
    assert run(["certificate", "--n", "2", "--m", "3", "--out", cert_path]) == \
        (0, "placements=5\n")
    assert Path(cert_path).read_text().splitlines()[0] == "tiles=3 region=my cert.region"
    assert run(["verify", "--certificate", cert_path, "--n", "2"]) == (0, "VALID\n")
    svg_path = str(folder / "my cert.svg")
    assert run(["render", "--certificate", cert_path, "--n", "2", "--format", "svg",
                "--out", svg_path]) == (0, "")
    assert Path(svg_path).read_bytes().startswith(b"<svg")


@pytest.mark.parametrize("brk", ["\n", "\x0c", "\x85", "\u2028"],
                         ids=["newline", "form-feed", "next-line", "line-separator"])
def test_certificate_out_with_line_break_is_refused(tmp_path, capsys, brk):
    # The header could not be read back, so no file is written at all.
    cert_path = str(tmp_path / f"x{brk}cert")
    assert run(["certificate", "--n", "2", "--m", "3", "--out", cert_path]) == (2, "")
    assert "holds a line break" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("header, line, message", [
    ("tiles=x", "+ 0 0 0", "line 1: tile count 'x' is not an integer"),
    ("tiles=3", "+ a 0 0", "line 2: tile index 'a' is not an integer"),
    ("tiles=3", "+ 0 0 b", "line 2: shift 'b' is not an integer"),
])
def test_verify_certificate_integer_error_names_the_line(tmp_path, capsys, header, line,
                                                          message):
    region = region_file(tmp_path, "t2.region", tri(2))
    cert = tmp_path / "c.cert"
    cert.write_text(f"{header} region={region}\n{line}\n")
    assert usage_error(capsys, ["verify", "--certificate", str(cert), "--n", "2"]) == message


def test_reduce_refuses_mislabelled_basis_file(tmp_path):
    bpath = tmp_path / "basis.txt"
    assert run(["gb", "--n", "3", "--out", str(bpath)])[0] == 0
    bpath.write_text(bpath.read_text().replace("vars=x,y", "vars=y,x"))
    assert run(["reduce", "--basis", str(bpath), "--poly", "1 + x"]) == (2, "")


def test_certificate_inadmissible(tmp_path):
    code, out = run(["certificate", "--n", "3", "--m", "10"])
    assert (code, out) == (1, "")


def test_certificate_verify_whole_admissible_grid(tmp_path):
    from tilegb.bones import decide_nbone
    for n in (2, 3, 4):
        for m in range(1, 2 * n * n + 1):
            if not decide_nbone(m, n):
                continue
            path = str(tmp_path / f"c{n}_{m}.cert")
            code, _ = run(["certificate", "--n", str(n), "--m", str(m),
                           "--out", path])
            assert code == 0
            assert run(["verify", "--certificate", path, "--n", str(n)]) == \
                (0, "VALID\n"), (n, m)


def test_render_region_text_and_svg(tmp_path):
    rpath = region_file(tmp_path, "t2.region", tri(2))
    out_path = str(tmp_path / "t2.txt")
    code, _ = run(["render", "--region", rpath, "--format", "text", "--out", out_path])
    assert code == 0
    assert Path(out_path).read_text() == "0 0\n1 0\n0 1\n"
    svg_path = str(tmp_path / "t2.svg")
    code, _ = run(["render", "--region", rpath, "--format", "svg", "--out", svg_path])
    assert code == 0
    first = Path(svg_path).read_bytes()
    run(["render", "--region", rpath, "--format", "svg", "--out", svg_path])
    assert Path(svg_path).read_bytes() == first


@pytest.mark.parametrize("source", ["region", "certificate"])
def test_render_svg_refuses_coordinate_too_large_to_draw(tmp_path, capsys, source):
    far = 10 ** 399 + 7  # 400 digits: no float holds it
    if source == "region":
        argv = ["--region", region_file(tmp_path, "far.region", [(0, 0), (1, far)])]
    else:
        cert = tmp_path / "far.cert"
        near = region_file(tmp_path, "t2.region", tri(2))
        cert.write_text(f"tiles=3 region={near}\n+ 0 {far} 0\n")
        argv = ["--certificate", str(cert), "--n", "3"]
    capsys.readouterr()
    out = str(tmp_path / "far.svg")
    assert run(["render", *argv, "--format", "svg", "--out", out]) == (2, "")
    assert capsys.readouterr().err.startswith("error: cell coordinate 1000")
    assert not os.path.exists(out)


def test_render_certificate_text(tmp_path):
    cert_path = str(tmp_path / "c32.cert")
    run(["certificate", "--n", "2", "--m", "3", "--out", cert_path])
    out_path = str(tmp_path / "c32.txt")
    code, _ = run(["render", "--certificate", cert_path, "--format", "text",
                   "--out", out_path])
    assert code == 0
    lines = Path(out_path).read_text().splitlines()
    assert len(lines) == 5


# ---------------------------------------------------------------------------
# homology / oracle / brion

def test_homology_box_flag():
    assert run(["homology", "--n", "2", "--box", "4"]) == (0, "Z/2\n")


def test_homology_large_box():
    # 16,384 cells and 48,132 relations: inserted from the far end, they
    # echelonize in well under a second.
    assert run(["homology", "--n", "3", "--box", "128"]) == (0, "Z^2 + Z/3\n")


def test_homology_unstable_scan_is_inconclusive(tmp_path, capsys):
    # The L-tromino is not tame (no power of x is 1 modulo its ideal), and
    # its H, Z[x, 1/x, 1/(1 + x)], is not finitely generated: a definite
    # answer, with exit 0 and no warning.
    path = tmp_path / "L.tiles"
    path.write_text(tiles_to_text([frozenset({(0, 0), (0, 1), (1, 0)})]))
    assert run(["homology", "--tiles", str(path)]) == (0, "not finitely generated\n")
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("k, expected", [
    # Families 17 and 18 have no periods modulo I, yet H is finite.
    (17, "Z/2 + Z/2 + Z/2 + Z/4"), (18, "Z/2 + Z/2 + Z/2 + Z/4"),
    *((k, "not finitely generated") for k in (5, 9, 15, 16, 19, 20)),
])
def test_homology_of_pinned_families_without_periods(tmp_path, capsys, k, expected):
    path = tmp_path / "family.tiles"
    path.write_text(tiles_to_text(pinned_families()[k]))
    assert run(["homology", "--tiles", str(path)]) == (0, expected + "\n")
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("tiles", [
    # Families 2 and 3 of perfbench/pinned.json; their strong bases hold the
    # constant 4, so the group has no free part.
    [[(0, 0), (0, 1), (0, 2), (1, 0)], [(0, 0), (1, 0), (1, 1), (2, 0)],
     [(0, 1), (0, 2), (1, 1), (2, 0)]],
    [[(0, 0), (0, 1), (0, 2), (1, 1)], [(0, 0), (0, 1), (1, 0), (2, 0)],
     [(0, 2), (1, 0), (1, 1), (2, 0)]],
])
def test_homology_tame_tiles_without_free_part(tmp_path, tiles):
    path = tmp_path / "family.tiles"
    path.write_text(tiles_to_text([frozenset(t) for t in tiles]))
    assert run(["homology", "--tiles", str(path)]) == (0, "Z/2 + Z/2 + Z/2 + Z/4\n")
    code, text = run(["gb", "--tiles", str(path), "--verify"])
    assert code == 0 and "4" in text.splitlines()


def test_homology_large_bones_from_basis():
    started = time.perf_counter()
    assert run(["homology", "--n", "40"]) == (0, "Z^1482 + Z/40\n")
    assert time.perf_counter() - started < 5


def test_homology_tiles_file(tmp_path, bones3_file):
    assert run(["homology", "--tiles", bones3_file]) == (0, "Z^2 + Z/3\n")


def test_oracle_cli(tmp_path, bones3_file):
    rpath = region_file(tmp_path, "t8.region", tri(8))
    code, out = run(["oracle", "--region", rpath, "--tiles", bones3_file,
                     "--margin", "6"])
    assert (code, out) == (0, "YES\n")
    rpath = region_file(tmp_path, "t2.region", tri(2))
    code, out = run(["oracle", "--region", rpath, "--tiles", bones3_file])
    assert (code, out) == (1, "NO_SOLUTION_IN_BOX\n")


def test_brion_cli():
    code, out = run(["brion", "--m", "5"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("T(5) = (1)/((1 - x)*(1 - y)) + (x^6)/(")
    assert lines[1] == "identity: OK"
    assert run(["brion", "--m", "5"]) == (code, out)


@pytest.mark.parametrize("argv", (["certificate", "--n", "3"], ["brion"]))
def test_triangle_side_above_limit_is_usage_error(capsys, argv):
    capsys.readouterr()
    start = time.perf_counter()
    assert run(argv + ["--m", "1000000"]) == (2, "")
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err == "error: --m 1000000 is above the limit of 1024\n"


WIDE = [(0, 0), (100000, 0)]
L_TROMINO = [(0, 0), (1, 0), (0, 1)]


@pytest.mark.parametrize("argv", (
    ["decide", "--region", "{wide}", "--tiles", "{L}"],
    ["decide", "--region", "{small}", "--tiles", "{wide}"],
    ["oracle", "--region", "{wide}", "--tiles", "{L}", "--margin", "2"],
    ["oracle", "--region", "{small}", "--tiles", "{wide}"],
    ["oracle", "--region", "{small}", "--tiles", "{L}", "--margin", "512"],
    ["oracle", "--region", "{small}", "--tiles", "{small}", "--margin", "511"],
    ["homology", "--tiles", "{wide}"],
    ["gb", "--tiles", "{wide}"],
    ["homology", "--n", "2", "--box", "257"],
    ["reduce", "--n", "65", "--poly", "1 + x"],
    ["certificate", "--n", "65", "--m", "0"],
    ["gb", "--n", "65"],
    ["homology", "--n", "65"],
))
def test_wide_region_or_tile_is_usage_error(tmp_path, capsys, argv):
    # A region or prototile with a bounding-box side above 1024 (or an oracle
    # box above it, or one of more than 65,536 cells) is refused before any
    # work; the wide region once ran decide out of memory, and the one-cell
    # tile at margin 511 (a 1023 x 1023 box) took 11 s and 1.1 GB.
    paths = {"wide": region_file(tmp_path, "wide.txt", WIDE),
             "L": region_file(tmp_path, "L.tiles", L_TROMINO),
             "small": region_file(tmp_path, "small.region", [(0, 0)])}
    capsys.readouterr()
    start = time.perf_counter()
    assert run([arg.format(**paths) for arg in argv]) == (2, "")
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err.startswith("error: ")


def test_extent_limit_is_inclusive(tmp_path):
    edge = region_file(tmp_path, "edge.tiles", [(0, 0), (1023, 0)])
    cell = region_file(tmp_path, "cell.region", [(0, 0)])
    assert run(["gb", "--tiles", edge])[0] == 0
    assert run(["oracle", "--region", edge, "--tiles", cell, "--margin", "0"])[0] == 0


def test_unfolded_reduce_refuses_large_exponents(tmp_path, capsys):
    bpath = str(tmp_path / "basis.txt")
    assert run(["gb", "--n", "3", "--out", bpath])[0] == 0
    capsys.readouterr()
    for mode in (["--n", "3", "--show-quotients"], ["--basis", bpath]):
        for poly in ("x^10000000000", "1 + x*y^1048577"):
            start = time.perf_counter()
            assert run(["reduce", *mode, "--poly", poly]) == (2, "")
            assert time.perf_counter() - start < 0.5
            assert capsys.readouterr().err == ("error: an exponent is above the limit of "
                                               "1048576 with --basis or --show-quotients\n")
    # Folded reduce --n has no limit.
    assert run(["reduce", "--n", "3", "--poly", "x^1000000000000 + y"]) == (0, "x + y\n")


def test_missing_file_is_reported():
    assert run(["reduce", "--n", "3", "--poly", "@/no/such/file"])[0] == 2
    assert run(["verify", "--certificate", "/no/such/file", "--n", "3"])[0] == 2


# Every verb that reads a file, fed a malformed one: (argv, file text).  Each
# must exit 2 with an "error:" line; an exception the CLI does not map (say,
# an IndexError from a parser) escapes run() and fails the test.
MALFORMED_FILES = {
    "reduce-poly-file": (["reduce", "--n", "3", "--poly", "@{bad}"], "3*\n"),
    "reduce-basis": (["reduce", "--basis", "{bad}", "--poly", "1"],
                     "order=lex vars=x,y conv=minabs\nx*\n"),
    "decide-region": (["decide", "--region", "{bad}", "--tiles", "{tiles}"], "0 0\n1 x\n"),
    "decide-tiles": (["decide", "--region", "{region}", "--tiles", "{bad}"], "0\n"),
    "gb-tiles": (["gb", "--tiles", "{bad}"], "# no tiles\n"),
    "homology-tiles": (["homology", "--tiles", "{bad}"], "0 0 0\n"),
    "oracle-region": (["oracle", "--region", "{bad}", "--tiles", "{tiles}"], "a b\n"),
    "oracle-tiles": (["oracle", "--region", "{region}", "--tiles", "{bad}"], "0 0\n\n1\n"),
    "verify-certificate": (["verify", "--certificate", "{bad}", "--n", "3"], "tiles=3\n"),
    "verify-region": (["verify", "--certificate", "{cert}", "--n", "3"], "0 0 0\n"),
    "render-region": (["render", "--region", "{bad}", "--out", "{out}"], "1\n"),
    "render-certificate": (["render", "--certificate", "{bad}", "--out", "{out}"],
                           "tiles=1 region=r\n+ 0 0\n"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_malformed_file_is_input_error(tmp_path, capsys, bones3_file, case):
    argv, text = MALFORMED_FILES[case]
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    cert = tmp_path / "c.cert"
    cert.write_text(f"tiles=3 region={bad}\n+ 0 0 0\n")
    paths = {"bad": bad, "tiles": bones3_file, "cert": cert, "out": tmp_path / "out",
             "region": region_file(tmp_path, "t8.region", tri(8))}
    capsys.readouterr()
    assert run([arg.format(**paths) for arg in argv]) == (2, "")
    assert capsys.readouterr().err.startswith("error: ")


def test_reused_parser_does_not_leak_values(tmp_path, monkeypatch):
    # The parser is built once per process; a flag given to one call must not
    # carry over to the next.
    from tilegb import tiling
    seen = []
    real = tiling.decide_signed_tiling

    def spy(region, tiles, max_rounds):
        seen.append(max_rounds)
        return real(region, tiles, max_rounds)

    monkeypatch.setattr(tiling, "decide_signed_tiling", spy)
    rpath = region_file(tmp_path, "cell.region", [(0, 0)])
    tpath = region_file(tmp_path, "cell.tiles", [(0, 0)])
    argv = ["decide", "--region", rpath, "--tiles", tpath]
    assert run(argv + ["--max-rounds", "2"]) == (0, "YES\n")
    assert run(argv) == (0, "YES\n")
    assert seen == [2, 8]
    argv = ["reduce", "--n", "3", "--poly", "1 + x + y"]
    assert run(argv + ["--show-quotients"])[1].count("\n") == 5
    assert run(argv) == (0, "1 + x + y\n")


# ---------------------------------------------------------------------------
# usage errors, each a single "error:" line on stderr and exit 2

@pytest.fixture
def cert83(tmp_path):
    path = str(tmp_path / "c83.cert")
    assert run(["certificate", "--n", "3", "--m", "8", "--out", path])[0] == 0
    return path


def usage_error(capsys, argv):
    capsys.readouterr()
    assert run(argv) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err[len("error: "):-1]


def test_bone_length_above_limit_is_usage_error(tmp_path, capsys, cert83):
    # reduce, certificate, gb and homology are among the wide cases above.
    out = str(tmp_path / "out.svg")
    for argv in (["verify", "--certificate", cert83, "--n", "65"],
                 ["render", "--certificate", cert83, "--n", "65", "--format", "svg",
                  "--out", out]):
        assert usage_error(capsys, argv) == "--n 65 is above the limit of 64"
    assert run(["gb", "--n", "64"])[0] == 0
    # decide --n --m uses the closed form and has no limit.
    assert run(["decide", "--n", "100000", "--m", "3"]) == (1, "NO\n")


def test_certificate_with_wrong_tile_count_is_usage_error(tmp_path, capsys, cert83):
    one = region_file(tmp_path, "one.tiles", L_TROMINO)
    out = str(tmp_path / "out.svg")
    for argv in (["verify", "--certificate", cert83, "--tiles", one],
                 ["render", "--certificate", cert83, "--tiles", one, "--format", "svg",
                  "--out", out]):
        assert usage_error(capsys, argv) == "certificate expects 3 prototiles, got 1"
    assert not os.path.exists(out)


def test_decide_region_without_tiles_is_usage_error(tmp_path, capsys):
    region = region_file(tmp_path, "t3.region", tri(3))
    assert (usage_error(capsys, ["decide", "--region", region])
            == "decide needs both --region and --tiles")


def test_oracle_negative_margin_is_usage_error(tmp_path, capsys, bones3_file):
    region = region_file(tmp_path, "t3.region", tri(3))
    argv = ["oracle", "--region", region, "--tiles", bones3_file, "--margin", "-1"]
    assert usage_error(capsys, argv) == "negative margin"


@pytest.mark.parametrize("box", ["0", "-3", "-300"])
def test_homology_box_below_one_is_usage_error(capsys, box):
    # Checked before the cell limit and the prototile extent, which would
    # otherwise misreport -300 as 90,000 cells and -3 as too small a side.
    argv = ["homology", "--n", "2", "--box", box]
    assert usage_error(capsys, argv) == f"--box {box} is below 1"


def test_render_needs_exactly_one_source(tmp_path, capsys, cert83):
    region = region_file(tmp_path, "t3.region", tri(3))
    out = str(tmp_path / "out.txt")
    for sources in ([], ["--region", region, "--certificate", cert83]):
        assert (usage_error(capsys, ["render", *sources, "--out", out])
                == "give exactly one of --region or --certificate")
    assert not os.path.exists(out)


def test_reduce_refuses_unknown_basis_convention(tmp_path, capsys):
    bpath = tmp_path / "basis.txt"
    assert run(["gb", "--n", "3", "--out", str(bpath)])[0] == 0
    bpath.write_text(bpath.read_text().replace("conv=nonneg", "conv=foo"))
    assert (usage_error(capsys, ["reduce", "--basis", str(bpath), "--poly", "1 + x"])
            == "unknown coefficient convention 'foo'")


@pytest.mark.parametrize("argv, code, out", [
    (["decide", "--n", "3", "--m", "8"], 0, "YES\n"),
    (["decide", "--n", "3", "--m", "7"], 1, "NO\n"),
    (["decide"], 2, ""),
])
def test_module_entry_point(argv, code, out):
    # python -m tilegb.cli runs main(), which writes run()'s text and exits
    # with its code.
    src = str(Path(tilegb.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "tilegb.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (code, out)
    if code == 2:
        assert proc.stderr.startswith("error: ")
