from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tesserae import (
    Polyomino,
    TileError,
    TileSet,
    make_tileset,
    orientations,
    parse_polyomino,
    parse_tile_file,
    preset,
)
from tesserae.poly import PRESETS


def cells(*pairs):
    return frozenset(pairs)


class TestParse:
    def test_right_tromino_grid(self):
        p = parse_polyomino("##\n#.")
        assert p.cells == cells((0, 0), (0, 1), (1, 0))

    def test_t_shape_grid(self):
        p = parse_polyomino("###\n.#.")
        assert p.cells == cells((0, 0), (0, 1), (0, 2), (1, 1))

    def test_u_shape_is_connected_through_bottom_row(self):
        p = parse_polyomino("#.#\n###")
        assert p.area == 5

    def test_short_lines_padded(self):
        p = parse_polyomino("##\n#")
        assert p.cells == cells((0, 0), (0, 1), (1, 0))

    def test_no_cells_rejected(self):
        with pytest.raises(TileError):
            parse_polyomino("...\n...")

    def test_disconnected_rejected(self):
        with pytest.raises(TileError):
            parse_polyomino("#.#")

    def test_diagonal_touch_is_disconnected(self):
        with pytest.raises(TileError):
            parse_polyomino("#.\n.#")

    def test_bad_character_rejected(self):
        with pytest.raises(TileError):
            parse_polyomino("#x")

    def test_empty_text_rejected(self):
        with pytest.raises(TileError):
            parse_polyomino("")


class TestPolyomino:
    def test_construction_normalizes(self):
        p = Polyomino(cells((3, 5), (4, 5)))
        assert p.cells == cells((0, 0), (1, 0))

    def test_normalization_idempotent(self):
        p = Polyomino(cells((2, 7), (2, 8), (3, 7)))
        assert Polyomino(p.cells) == p

    def test_dimensions(self):
        p = parse_polyomino("###\n.#.")
        assert (p.height, p.width, p.area) == (2, 3, 4)

    def test_empty_rejected(self):
        with pytest.raises(TileError):
            Polyomino(frozenset())


@pytest.mark.parametrize(
    "grid, count",
    [
        ("##\n#.", 4),       # right tromino: four orientations
        ("#.\n#.\n##", 8),   # L tetromino: eight
        ("###\n.#.", 4),     # T tetromino: four
        ("##\n##", 1),       # square: fully symmetric
        ("##", 2),           # domino: horizontal and vertical
        ("#", 1),
    ],
)
def test_orientation_counts(grid, count):
    assert len(orientations(parse_polyomino(grid))) == count


def test_orientation_flags():
    ell = parse_polyomino("#.\n#.\n##")
    assert len(orientations(ell, allow_rotations=True, allow_reflections=False)) == 4
    assert len(orientations(ell, allow_rotations=False, allow_reflections=True)) == 2
    assert len(orientations(ell, allow_rotations=False, allow_reflections=False)) == 1


@st.composite
def polyominoes(draw, max_cells=6):
    size = draw(st.integers(min_value=1, max_value=max_cells))
    shape = {(0, 0)}
    while len(shape) < size:
        frontier = sorted(
            {
                (r + dr, c + dc)
                for r, c in shape
                for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1))
            }
            - shape
        )
        shape.add(draw(st.sampled_from(frontier)))
    return Polyomino(frozenset(shape))


@settings(deadline=None, max_examples=60)
@given(p=polyominoes(), rot=st.booleans(), ref=st.booleans())
def test_orientations_closed_under_admitted_symmetry(p, rot, ref):
    variants = orientations(p, rot, ref)
    for v in variants:
        assert set(orientations(v, rot, ref)) == set(variants)
        assert v.area == p.area
    if rot and ref:
        assert 8 % len(variants) == 0


def _closure(p, rot, ref):
    # the closure search orientations ran before it listed the group
    # directly, kept with its own quarter turn and mirror as a reference
    seen, frontier = {p}, [p]
    while frontier:
        q = frontier.pop()
        images = []
        if rot:
            images.append(Polyomino(frozenset((c, -r) for r, c in q.cells)))
        if ref:
            images.append(Polyomino(frozenset((r, -c) for r, c in q.cells)))
        for img in images:
            if img not in seen:
                seen.add(img)
                frontier.append(img)
    return sorted(seen, key=lambda q: sorted(q.cells))


@settings(deadline=None, max_examples=200)
@given(p=polyominoes(max_cells=7), rot=st.booleans(), ref=st.booleans())
def test_orientations_match_the_closure_in_order(p, rot, ref):
    assert orientations(p, rot, ref) == _closure(p, rot, ref)


def _rows(p):
    return "/".join(
        "".join("#" if (r, c) in p.cells else "." for c in range(p.width)) for r in range(p.height)
    )


# each preset's variants in order, one '/'-separated grid each, recorded while
# orientations was a closure search: the order fixes the state numbering
PRESET_VARIANTS = {
    ("monomino", "all"): ("#",),
    ("domino", "all"): ("##", "#/#"),
    ("tromino-right", "all"): ("##/#.", "##/.#", "#./##", ".#/##"),
    ("tetromino-L", "all"): ("###/#..", "###/..#", "##/#./#.", "##/.#/.#",
                             "#../###", "#./#./##", ".#/.#/##", "..#/###"),
    ("tetromino-T", "all"): ("###/.#.", "#./##/#.", ".#./###", ".#/##/.#"),
    ("monomino", "rotations"): ("#",),
    ("domino", "rotations"): ("##", "#/#"),
    ("tromino-right", "rotations"): ("##/#.", "##/.#", "#./##", ".#/##"),
    ("tetromino-L", "rotations"): ("###/#..", "##/.#/.#", "#./#./##", "..#/###"),
    ("tetromino-T", "rotations"): ("###/.#.", "#./##/#.", ".#./###", ".#/##/.#"),
    ("monomino", "none"): ("#",),
    ("domino", "none"): ("##",),
    ("tromino-right", "none"): ("##/#.",),
    ("tetromino-L", "none"): ("#./#./##",),
    ("tetromino-T", "none"): ("###/.#.",),
}
FLAGS = {"all": (True, True), "rotations": (True, False), "none": (False, False)}


@pytest.mark.parametrize("name, symmetry", sorted(PRESET_VARIANTS))
def test_preset_variant_order_pinned(name, symmetry):
    tiles = make_tileset([parse_polyomino(PRESETS[name])], *FLAGS[symmetry])
    assert tuple(map(_rows, tiles.variants)) == PRESET_VARIANTS[name, symmetry]
    if symmetry == "all":
        assert tiles.variants == preset(name).variants


@pytest.mark.parametrize(
    "name, variant_count",
    [
        ("monomino", 1),
        ("domino", 2),
        ("tromino-right", 4),
        ("tetromino-L", 8),
        ("tetromino-T", 4),
    ],
)
def test_presets(name, variant_count):
    tiles = preset(name)
    assert len(tiles.variants) == variant_count
    assert tiles.allow_rotations and tiles.allow_reflections
    base_area = tiles.base[0].area
    assert all(v.area == base_area for v in tiles.variants)


def test_unknown_preset():
    with pytest.raises(TileError):
        preset("pentomino-X")


def test_make_tileset_dedupes_across_shapes():
    a = parse_polyomino("##\n#.")
    b = parse_polyomino("##\n.#")  # a reflection of the same tromino
    tiles = make_tileset([a, b])
    assert len(tiles.variants) == 4


class TestTileFile:
    def test_default_symmetry(self):
        tiles = parse_tile_file("##\n#.\n")
        assert len(tiles.variants) == 4

    def test_rotations_only(self):
        tiles = parse_tile_file("@symmetry: rotations\n##\n#.\n")
        assert len(tiles.variants) == 4
        assert not tiles.allow_reflections

    def test_none(self):
        tiles = parse_tile_file("@symmetry: none\n##\n#.\n")
        assert len(tiles.variants) == 1

    def test_multiple_shapes(self):
        tiles = parse_tile_file("#\n\n##\n")
        assert len(tiles.base) == 2
        assert len(tiles.variants) == 3  # monomino + two domino orientations

    def test_bad_symmetry(self):
        with pytest.raises(TileError):
            parse_tile_file("@symmetry: diagonal\n##\n")

    def test_empty_file(self):
        with pytest.raises(TileError):
            parse_tile_file("\n\n")

    def test_readme_example_parses(self):
        # the code block under README's "Tile files" heading, as a reader copies it
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        tiles = parse_tile_file(readme.split("## Tile files", 1)[1].split("```\n")[1])
        assert len(tiles.base) == 2
        assert len(tiles.variants) == 12  # right tromino 4, L tetromino 8


# mostly tile-file characters, with any other character and a few header forms
TILE_TEXT = st.tuples(
    st.sampled_from(["", "@symmetry: all\n", "@symmetry: none\n", "@symmetry:", " @symmetry: x\n"]),
    st.text(st.sampled_from("#.\n \t\r\x0b\x0c\u2028@:") | st.characters(), max_size=60),
).map("".join)


@settings(max_examples=300, deadline=None)
@given(text=TILE_TEXT)
def test_tile_file_parser_raises_only_tile_errors(text):
    try:
        tiles = parse_tile_file(text)
    except TileError:
        return
    assert isinstance(tiles, TileSet) and tiles.variants
