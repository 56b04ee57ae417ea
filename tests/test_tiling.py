"""Regions, signed-tiling decisions, certificates, files and rendering."""

import random

import pytest

from tilegb.bones import decide_nbone, nbone_prototiles, triangle
from tilegb.polyring import Polynomial
from tilegb.tiling import (Certificate, Placement, certificate_nbone,
                           decide_signed_tiling, newton_polynomial,
                           normalize_region, parse_certificate_text,
                           parse_region_text, parse_tiles_text,
                           region_of_polynomial, region_to_text, render,
                           tiles_to_text, translate_region, verify_certificate)


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
        assert region_of_polynomial(newton_polynomial(region)) == region


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


def test_certificate_nbone_figure_case():
    cert = certificate_nbone(8, 3)
    assert verify_certificate(cert)
    assert len(cert.prototiles) == 3


def test_certificate_nbone_rejects_inadmissible():
    with pytest.raises(ValueError):
        certificate_nbone(10, 3)


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


@pytest.mark.parametrize("line", ["+ -3 0 0", "+ 3 0 0", "- 5 0 0"])
def test_certificate_tile_index_outside_range_is_refused(line):
    with pytest.raises(ValueError):
        parse_certificate_text(f"tiles=3 region=r\n{line}\n")


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


def test_render_empty_region_svg():
    svg = render(frozenset(), "svg")
    assert svg.startswith(b"<svg") and b"</svg>" in svg


def test_render_unknown_format():
    with pytest.raises(ValueError):
        render(frozenset(), "png")
