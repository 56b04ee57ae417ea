"""Regions, signed-tiling decisions, certificates, files and rendering."""

import dataclasses
import random
import time

import pytest

from helpers import (decide_by_full_division, nbone_certificate_by_full_division,
                     pinned_families)
from tilegb import tiling
from tilegb.bones import decide_nbone, nbone_prototiles, triangle
from tilegb.polyring import Polynomial
from tilegb.tiling import (Certificate, Placement, certificate_nbone,
                           certificate_to_text, decide_signed_tiling,
                           newton_polynomial, normalize_region,
                           parse_certificate_text, parse_region_text,
                           parse_tiles_text, region_to_text, render, tiles_to_text,
                           translate_region, verify_certificate)


def tri_region(m):
    return frozenset((i, j) for i in range(m) for j in range(m - i))


# ---------------------------------------------------------------------------
# regions and Newton polynomials

def test_newton_polynomial_examples():
    assert newton_polynomial(frozenset({(2, 2), (3, 2), (4, 2)})) == \
        Polynomial({(2, 2): 1, (3, 2): 1, (4, 2): 1})
    assert newton_polynomial(frozenset({(0, 0)})) == Polynomial.constant(1)
    for m in (0, 1, 5):
        assert newton_polynomial(tri_region(m)) == triangle(m)


def test_newton_polynomial_rejects_negative():
    with pytest.raises(ValueError):
        newton_polynomial(frozenset({(-1, 0)}))


def test_newton_is_a_bijection():
    rng = random.Random(4)
    for _ in range(50):
        region = frozenset((rng.randrange(9), rng.randrange(9)) for _ in range(12))
        assert newton_polynomial(region).terms == dict.fromkeys(region, 1)


def test_newton_polynomial_matches_validated_build():
    rng = random.Random(12)
    for _ in range(60):
        side = rng.randrange(1, 12)
        region = frozenset((rng.randrange(side), rng.randrange(side))
                           for _ in range(rng.randrange(0, 30)))
        f = newton_polynomial(region)
        assert f == Polynomial({cell: 1 for cell in region}) and f.nvars == 2


def test_normalize_region():
    norm, shift = normalize_region(frozenset({(-1, 5)}))
    assert norm == frozenset({(0, 0)}) and shift == (1, -5)
    region = frozenset({(0, 0), (2, 1)})
    assert normalize_region(region) == (region, (0, 0))
    assert normalize_region(frozenset()) == (frozenset(), (0, 0))
    rng = random.Random(8)
    for _ in range(20):
        region = frozenset((rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(6))
        norm, (di, dj) = normalize_region(region)
        assert norm == translate_region(region, di, dj)
        assert len(norm) == len(region)


# ---------------------------------------------------------------------------
# certificate verification

def test_verify_certificate_trivial_cases():
    bone = frozenset({(0, 0), (1, 0), (2, 0)})
    cert = Certificate([bone], [Placement(0, (0, 0), 1)], bone)
    assert verify_certificate(cert)
    assert verify_certificate(Certificate([bone], [], frozenset()))
    cancel = Certificate([bone], [Placement(0, (0, 0), 1), Placement(0, (0, 0), -1)],
                         frozenset())
    assert verify_certificate(cancel)
    wrong = Certificate([bone], [Placement(0, (0, 0), 1)], frozenset({(0, 0)}))
    assert not verify_certificate(wrong)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_certificate_nbone_grid(n):
    for m in range(1, 2 * n * n + 1):
        if decide_nbone(m, n):
            cert = certificate_nbone(m, n)
            assert verify_certificate(cert)
            assert cert.region == tri_region(m)


def _units(cert):
    return sum(pl.count for pl in cert.placements)


@pytest.mark.parametrize("n", range(2, 9))
def test_certificate_nbone_blocks_against_full_division(n):
    # Beyond n^2 the certificate places copies of one base triangle plus
    # whole blocks of horizontal bones; up to n^2 it is the plain lift.
    for m in [0] + [k * n * n - less for k in (1, 2, 3) for less in (1, 0)]:
        cert = certificate_nbone(m, n)
        assert verify_certificate(cert), (n, m)
        assert cert.region == tri_region(m)
        keys = [(pl.tile, pl.shift) for pl in cert.placements]
        assert len(set(keys)) == len(keys), (n, m)
        ref = nbone_certificate_by_full_division(m, n)
        if m <= n * n:
            assert certificate_to_text(cert, "r") == certificate_to_text(ref, "r"), (n, m)
        else:
            assert _units(cert) <= _units(ref), (n, m)


def test_certificate_nbone_figure_case():
    cert = certificate_nbone(8, 3)
    assert verify_certificate(cert)
    assert len(cert.prototiles) == 3


def test_certificate_nbone_rejects_inadmissible():
    with pytest.raises(ValueError):
        certificate_nbone(10, 3)


def test_verify_weights_placements_by_count():
    bone = frozenset({(0, 0), (1, 0), (2, 0)})
    net_one = Certificate([bone], [Placement(0, (0, 0), 1, 3), Placement(0, (0, 0), -1, 2)],
                          bone)
    assert verify_certificate(net_one)
    assert not verify_certificate(Certificate([bone], [Placement(0, (0, 0), 1, 2)], bone))
    for bad in (Placement(0, (0, 0), 1, 0), Placement(0, (0, 0), 1, -1),
                Placement(0, (0, 0), 2, 1), Placement(0, (0, 0), 0, 1)):
        assert not verify_certificate(Certificate([bone], [bad], frozenset()))


# Three rotation-closed 4-cell polyhex families (one tile under its three
# rotations) whose side-7 triangle admits a signed tiling, as pinned in
# perfbench/pinned.json.
YES_FAMILIES = [
    [[(0, 0), (0, 1), (0, 2), (1, 0)], [(0, 0), (1, 0), (1, 1), (2, 0)],
     [(0, 1), (0, 2), (1, 1), (2, 0)]],
    [[(0, 0), (0, 1), (0, 2), (1, 1)], [(0, 0), (0, 1), (1, 0), (2, 0)],
     [(0, 2), (1, 0), (1, 1), (2, 0)]],
    [[(0, 0), (0, 1), (0, 2), (1, 2)], [(0, 1), (1, 0), (2, 0), (3, 0)],
     [(0, 3), (1, 2), (2, 0), (2, 1)]],
]


def weighted_cases():
    for n in (2, 3):
        for m in range(1, 2 * n * n + 1):
            if decide_nbone(m, n):
                yield tri_region(m), nbone_prototiles(n)
    for family in YES_FAMILIES:
        yield tri_region(7), [frozenset(t) for t in family]


def test_weighted_certificates_verify_and_reject_tampering():
    for region, tiles in weighted_cases():
        cert = decide_signed_tiling(region, tiles).certificate
        assert verify_certificate(cert)
        keys = [(p.tile, p.shift) for p in cert.placements]
        assert len(set(keys)) == len(keys)  # one placement per (tile, shift)
        k = len(cert.placements) // 2
        pl = cert.placements[k]
        for tampered in (dataclasses.replace(pl, sign=-pl.sign),
                         dataclasses.replace(pl, count=0),
                         dataclasses.replace(pl, count=-1)):
            placements = list(cert.placements)
            placements[k] = tampered
            assert not verify_certificate(Certificate(cert.prototiles, placements,
                                                      cert.region))


DECIDE_SIZES = [
    (3, 18, 143, 80), (4, 16, 70, 54),
    ("family2", 7, 217, 41), ("family3", 7, 3_207, 169),
    ("family4", 7, 19_205, 417), ("family14", 7, 278_249, 315)]


# The four YES cases of the pinned families (perfbench/pinned.json) at T(7)
# pin the completion log: a change in how completion makes an element
# changes the lifted cofactors and so these sizes.  Each id names the
# inputs alone (tiles, m), so a re-pin of the counts does not rename the
# case.
@pytest.mark.parametrize("tiles, m, units, distinct", DECIDE_SIZES,
                         ids=[f"{t}-{m}" for t, m, _, _ in DECIDE_SIZES])
def test_decide_certificate_sizes(tiles, m, units, distinct):
    # ``tiles`` is n for the n-bones, or "family<k>" for pinned family k.
    if isinstance(tiles, int):
        prototiles = nbone_prototiles(tiles)
    else:
        prototiles = pinned_families()[int(tiles.removeprefix("family"))]
    start = time.perf_counter()
    cert = decide_signed_tiling(tri_region(m), prototiles).certificate
    assert verify_certificate(cert)
    assert time.perf_counter() - start < 1.0
    assert len(cert.placements) == distinct
    assert sum(p.count for p in cert.placements) == units


# ---------------------------------------------------------------------------
# generic decision

def test_decide_triangle_with_tribones():
    decision = decide_signed_tiling(tri_region(8), nbone_prototiles(3))
    assert decision.status == "yes"
    assert verify_certificate(decision.certificate)


def test_decide_single_cell_tile():
    decision = decide_signed_tiling(frozenset({(0, 0)}), [frozenset({(0, 0)})])
    assert decision.status == "yes"
    assert len(decision.certificate.placements) == 1


def test_decide_single_cell_with_domino_is_definitive_no():
    decision = decide_signed_tiling(frozenset({(0, 0)}),
                                    [frozenset({(0, 0), (1, 0)})])
    assert decision.status == "no"
    assert decision.certificate is None


def test_decide_inconclusive_without_stabilization():
    # The diagonal-domino ideal <1 + xy> makes no pure power of x or y
    # congruent to 1, so a failed search cannot conclude "no".
    decision = decide_signed_tiling(frozenset({(0, 0)}),
                                    [frozenset({(0, 0), (1, 1)})], max_rounds=3)
    assert decision.status == "inconclusive"


@pytest.mark.parametrize("region, tiles, status", [
    (tri_region(10), nbone_prototiles(3), "no"),
    (frozenset({(0, 0)}), [frozenset({(0, 0), (1, 1)})], "inconclusive"),
    (tri_region(8), nbone_prototiles(3), "yes"),
])
def test_decide_completes_with_cofactors_only_for_yes(monkeypatch, region, tiles, status):
    # Exactly one completion, whatever the answer: a "yes" lifts its
    # quotients through that basis's log.
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return tiling.groebner.buchberger(*args, **kwargs)

    monkeypatch.setattr(tiling, "buchberger", spy)
    assert decide_signed_tiling(region, tiles, max_rounds=3).status == status
    assert len(calls) == 1


def test_decide_matches_full_division_on_random_sets():
    # Stepped normal forms must give the status and the certificate text of
    # a full division of (xy)^(t*D) * f_region in every round.
    rng = random.Random(11)
    cells = [(i, j) for i in range(3) for j in range(3)]
    cases = [([frozenset(rng.sample(cells, rng.randint(2, 4)))
               for _ in range(rng.randint(1, 3))], tri_region(m))
             for _ in range(40) for m in range(1, 6)]
    # This ideal is not saturated in xy: the region is in it only after
    # round 1's shift, which exercises the stepped rounds and shift-back.
    shifted_tiles = [frozenset({(0, 0), (1, 0), (0, 2), (1, 2)}),
                     frozenset({(1, 0), (1, 2), (2, 2)})]
    shifted_region = frozenset({(0, 1), (1, 0), (0, 2), (1, 1)})
    assert (decide_signed_tiling(shifted_region, shifted_tiles, max_rounds=0).status
            == "inconclusive")
    statuses = []
    for tiles, region in cases + [(shifted_tiles, shifted_region)]:
        got = decide_signed_tiling(region, tiles, max_rounds=3)
        want = decide_by_full_division(region, tiles, max_rounds=3)
        assert got.status == want.status, (tiles, region)
        if got.certificate is not None:
            assert (certificate_to_text(got.certificate, "r")
                    == certificate_to_text(want.certificate, "r")), (tiles, region)
        statuses.append(got.status)
    assert statuses[-1] == "yes"
    assert {"yes", "no", "inconclusive"} <= set(statuses)


def test_decide_refuses_negative_max_rounds():
    # Round 0 (t = 0) is always tested, so a negative bound is a usage error,
    # not a silent INCONCLUSIVE.
    diag = [frozenset({(0, 0), (1, 1)})]
    assert decide_signed_tiling(diag[0], diag, max_rounds=0).status == "yes"
    with pytest.raises(ValueError):
        decide_signed_tiling(diag[0], diag, max_rounds=-1)


@pytest.mark.parametrize("n", (2, 3))
def test_decide_agrees_with_residue_rule(n):
    tiles = nbone_prototiles(n)
    for m in range(1, 2 * n * n + 1):
        decision = decide_signed_tiling(tri_region(m), tiles)
        assert decision.status == ("yes" if decide_nbone(m, n) else "no"), (m, n)


def test_decide_is_translation_invariant():
    tiles = nbone_prototiles(3)
    base = tri_region(8)
    for (di, dj) in ((-5, 7), (11, -2)):
        decision = decide_signed_tiling(translate_region(base, di, dj), tiles)
        assert decision.status == "yes"
        assert verify_certificate(decision.certificate)


def test_decide_accepts_unnormalized_prototiles():
    # Prototiles anywhere in the plane denote the same translate set.
    tiles = [translate_region(t, di, dj)
             for t, (di, dj) in zip(nbone_prototiles(3), ((5, 5), (0, -2), (-4, 1)))]
    decision = decide_signed_tiling(tri_region(9), tiles)
    assert decision.status == "yes"
    assert verify_certificate(decision.certificate)


def test_decide_rejects_bad_prototiles():
    with pytest.raises(ValueError):
        decide_signed_tiling(frozenset({(0, 0)}), [])
    with pytest.raises(ValueError):
        decide_signed_tiling(frozenset({(0, 0)}), [frozenset()])


def test_decide_empty_region():
    decision = decide_signed_tiling(frozenset(), [frozenset({(0, 0), (1, 0)})])
    assert decision.status == "yes"
    assert decision.certificate.placements == []


# ---------------------------------------------------------------------------
# file formats

def test_region_to_text_matches_sorted_reference():
    rng = random.Random(19)
    regions = [frozenset(), frozenset({(-3, -7)}),
               frozenset((i, 4) for i in range(-9, 30, 3)),
               frozenset((-2, j) for j in range(-15, 15))]
    for _ in range(150):
        i0, j0 = rng.randint(-60, 10), rng.randint(-60, 10)
        w, h = rng.choice([(1, rng.randint(1, 40)), (rng.randint(1, 40), 1),
                           (rng.randint(1, 40), rng.randint(1, 40))])
        regions.append(frozenset((rng.randrange(i0, i0 + w), rng.randrange(j0, j0 + h))
                                 for _ in range(rng.randint(1, 300))))
    for region in regions:
        expected = "".join(f"{i} {j}\n" for i, j in sorted(region, key=lambda c: (c[1], c[0])))
        assert region_to_text(region) == expected


def test_region_file_round_trip():
    region = frozenset({(-1, 5), (2, 3), (0, 0)})
    assert parse_region_text(region_to_text(region)) == region
    text = "# comment\n1 2\n\n3 4  # trailing\n"
    assert parse_region_text(text) == frozenset({(1, 2), (3, 4)})
    with pytest.raises(ValueError):
        parse_region_text("1 2 3\n")
    with pytest.raises(ValueError):
        parse_region_text("a b\n")


def test_tiles_file_round_trip():
    tiles = nbone_prototiles(3)
    assert parse_tiles_text(tiles_to_text(tiles)) == tiles
    with pytest.raises(ValueError):
        parse_tiles_text("# nothing here\n")


def test_tiles_file_errors_name_the_line_of_the_file():
    with pytest.raises(ValueError, match="^line 6: "):
        parse_tiles_text("0 0\n1 0\n\n0 0\n0 1\nfoo bar\n")
    with pytest.raises(ValueError, match="^line 5: "):
        parse_tiles_text("# two tiles\n0 0\n\n\n0 1 2\n")


def test_certificate_file_round_trip():
    from tilegb.tiling import certificate_to_text
    cert = certificate_nbone(3, 2)
    text = certificate_to_text(cert, "triangle.region")
    count, path, placements = parse_certificate_text(text)
    assert count == 3 and path == "triangle.region"
    assert placements == cert.placements
    with pytest.raises(ValueError):
        parse_certificate_text("")
    with pytest.raises(ValueError):
        parse_certificate_text("tiles=3 region=r\n? 0 1 2\n")


def test_certificate_file_count_column():
    cert = decide_signed_tiling(tri_region(18), nbone_prototiles(3)).certificate
    text = certificate_to_text(cert, "r")
    lines = text.splitlines()[1:]
    assert len(lines) == len(cert.placements)
    for line, pl in zip(lines, cert.placements):
        assert len(line.split()) == (4 if pl.count == 1 else 5)
    assert any(pl.count > 1 for pl in cert.placements)
    assert parse_certificate_text(text) == (3, "r", cert.placements)
    # Four-column files (every count 1) still parse.
    _, _, placements = parse_certificate_text("tiles=3 region=r\n+ 1 2 3\n- 0 0 0 1\n")
    assert placements == [Placement(1, (2, 3), 1), Placement(0, (0, 0), -1)]


@pytest.mark.parametrize("count", ["0", "-2", "x", "1.5"])
def test_certificate_count_must_be_positive_integer(count):
    with pytest.raises(ValueError, match="count"):
        parse_certificate_text(f"tiles=3 region=r\n+ 0 0 0 {count}\n")


@pytest.mark.parametrize("line", ["+ -3 0 0", "+ 3 0 0", "- 5 0 0"])
def test_certificate_tile_index_outside_range_is_refused(line):
    with pytest.raises(ValueError):
        parse_certificate_text(f"tiles=3 region=r\n{line}\n")


def test_certificate_tile_index_error_names_line_and_range():
    with pytest.raises(ValueError) as err:
        parse_certificate_text("tiles=3 region=r\n+ 0 0 0\n+ 7 0 0\n")
    assert str(err.value) == "line 3: tile index 7 outside 0..2"


@pytest.mark.parametrize("text, message", [
    ("tiles=a region=r\n+ 0 0 0\n", "line 1: tile count 'a' is not an integer"),
    ("tiles=3 region=r\n+ 0 0 0\n+ a 0 0\n", "line 3: tile index 'a' is not an integer"),
    ("tiles=3 region=r\n+ 0 a 0\n", "line 2: shift 'a' is not an integer"),
    ("tiles=3 region=r\n\n+ 0 0 1.5\n", "line 3: shift '1.5' is not an integer"),
])
def test_certificate_integer_errors_name_the_line(text, message):
    with pytest.raises(ValueError) as err:
        parse_certificate_text(text)
    assert str(err.value) == message


@pytest.mark.parametrize("path", ["my cert.region", "a  b\tc region=d.region", "r "])
def test_certificate_region_path_runs_to_the_end_of_the_header(path):
    cert = certificate_nbone(3, 2)
    text = certificate_to_text(cert, path)
    assert parse_certificate_text(text) == (3, path, cert.placements)
    with pytest.raises(ValueError, match="tiles= and region="):
        parse_certificate_text(f"region={path} tiles=3\n")


@pytest.mark.parametrize("brk", ["\n", "\r\n", "\x0c", "\x85", "\u2028"],
                         ids=["newline", "crlf", "form-feed", "next-line", "line-separator"])
def test_certificate_refuses_region_path_with_line_break(brk):
    cert = certificate_nbone(3, 2)
    for path in (f"x{brk}cert.region", f"cert.region{brk}", brk):
        with pytest.raises(ValueError, match="holds a line break"):
            certificate_to_text(cert, path)


def test_certificate_sign_token_must_be_exact():
    with pytest.raises(ValueError):
        parse_certificate_text("tiles=3 region=r\n+- 0 0 0\n")


def test_verify_rejects_tile_index_outside_range():
    # A negative index must not wrap around to the last prototile.
    bones = nbone_prototiles(2)
    wrapped = Certificate(bones, [Placement(-3, (0, 0), 1)], bones[0])
    assert not verify_certificate(wrapped)
    past_end = Certificate(bones, [Placement(3, (0, 0), 1)], frozenset())
    assert not verify_certificate(past_end)


# ---------------------------------------------------------------------------
# rendering

def test_render_text_region():
    data = render(tri_region(2), "text")
    assert data == b"0 0\n1 0\n0 1\n"


def test_render_text_certificate():
    cert = certificate_nbone(3, 2)
    lines = render(cert, "text").decode().splitlines()
    assert len(lines) == len(cert.placements)
    assert all(line.split()[0] in "+-" for line in lines)


def test_render_svg_certificate():
    cert = certificate_nbone(8, 3)
    svg = render(cert, "svg")
    assert svg.startswith(b"<svg")
    assert svg.rstrip().endswith(b"</svg>")
    assert svg.count(b"<g ") == len(cert.placements)
    assert render(cert, "svg") == svg  # deterministic


def test_render_weighted_certificate():
    bone = frozenset({(0, 0), (1, 0)})
    cert = Certificate([bone], [Placement(0, (0, 0), 1, 3), Placement(0, (2, 0), -1)],
                       frozenset())
    assert render(cert, "text") == b"+ 0 0 0 3\n- 0 2 0\n"
    svg = render(cert, "svg").decode()
    assert svg.count("<g ") == 2
    assert '<g opacity="0.7" data-count="3">' in svg
    assert '<g opacity="0.7" data-count="1">' in svg


def test_render_empty_region_svg():
    svg = render(frozenset(), "svg")
    assert svg.startswith(b"<svg") and b"</svg>" in svg


def test_render_unknown_format():
    with pytest.raises(ValueError):
        render(frozenset(), "png")
