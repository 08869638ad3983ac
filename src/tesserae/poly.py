"""Polyomino shapes, their orientation groups, and tile sets."""

from __future__ import annotations

from dataclasses import dataclass

Cell = tuple[int, int]


class TileError(ValueError):
    """Malformed polyomino text, bad tile file, or unknown preset."""


def _normalized(cells: frozenset[Cell]) -> frozenset[Cell]:
    rmin = min(r for r, _ in cells)
    cmin = min(c for _, c in cells)
    if rmin == 0 and cmin == 0:
        return cells
    return frozenset((r - rmin, c - cmin) for r, c in cells)


def _is_connected(cells: frozenset[Cell]) -> bool:
    stack = [next(iter(cells))]
    seen = set(stack)
    while stack:
        r, c = stack.pop()
        for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if nb in cells and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(cells)


@dataclass(frozen=True)
class Polyomino:
    """An edge-connected set of unit cells.

    Cells are (row, col) pairs with row 0 at the top: rows run across the
    strip width, columns along its length.  Construction translates the
    shape so the minimum row and minimum column are both 0, which makes
    equal shapes compare equal.
    """

    cells: frozenset[Cell]

    def __post_init__(self) -> None:
        cells = frozenset(self.cells)
        if not cells:
            raise TileError("a polyomino needs at least one cell")
        cells = _normalized(cells)
        if not _is_connected(cells):
            raise TileError("polyomino cells are not edge-connected")
        object.__setattr__(self, "cells", cells)

    @property
    def height(self) -> int:
        return 1 + max(r for r, _ in self.cells)

    @property
    def width(self) -> int:
        return 1 + max(c for _, c in self.cells)

    @property
    def area(self) -> int:
        return len(self.cells)


def _rotated(cells: frozenset[Cell]) -> frozenset[Cell]:
    return frozenset((c, -r) for r, c in cells)


def _mirrored(cells: frozenset[Cell]) -> frozenset[Cell]:
    return frozenset((r, -c) for r, c in cells)


def orientations(
    p: Polyomino,
    allow_rotations: bool = True,
    allow_reflections: bool = True,
) -> list[Polyomino]:
    """All distinct images of p under the admitted symmetries.

    The images are listed directly: p, then its three quarter turns when
    rotations are allowed, then the mirror image of each when reflections
    are allowed; that is the whole group the admitted operations generate.
    Duplicates collapse after normalization; the list is sorted for determinism.
    """
    images = [p.cells]
    if allow_rotations:
        for _ in range(3):
            images.append(_rotated(images[-1]))
    if allow_reflections:
        images += [_mirrored(q) for q in images]
    return sorted(set(map(Polyomino, images)), key=lambda q: sorted(q.cells))


@dataclass(frozen=True)
class TileSet:
    """Base shapes plus every orientation admitted by the symmetry flags."""

    base: tuple[Polyomino, ...]
    allow_rotations: bool
    allow_reflections: bool
    variants: tuple[Polyomino, ...]


def make_tileset(
    shapes: list[Polyomino],
    allow_rotations: bool = True,
    allow_reflections: bool = True,
) -> TileSet:
    """Bundle shapes into a TileSet, deduplicating orientations across shapes."""
    variants: list[Polyomino] = []
    seen: set[Polyomino] = set()
    for shape in shapes:
        for v in orientations(shape, allow_rotations, allow_reflections):
            if v not in seen:
                seen.add(v)
                variants.append(v)
    return TileSet(tuple(shapes), allow_rotations, allow_reflections, tuple(variants))


def parse_polyomino(text: str) -> Polyomino:
    """Read one ASCII grid where '#' marks a cell and '.' marks empty space.

    Lines may have different lengths; short lines count as padded with '.'.
    """
    cells = set()
    for r, line in enumerate(text.splitlines()):
        for c, ch in enumerate(line):
            if ch == "#":
                cells.add((r, c))
            elif ch != ".":
                raise TileError(f"unexpected character {ch!r} in tile grid")
    if not cells:
        raise TileError("tile grid contains no '#' cells")
    return Polyomino(frozenset(cells))


PRESETS = {
    "monomino": "#",
    "domino": "##",
    "tromino-right": "##\n#.",
    "tetromino-L": "#.\n#.\n##",
    "tetromino-T": "###\n.#.",
}


def preset(name: str) -> TileSet:
    """Named tile set with all rotations and reflections admitted."""
    try:
        grid = PRESETS[name]
    except KeyError:
        raise TileError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from None
    return make_tileset([parse_polyomino(grid)])


def parse_tile_file(text: str) -> TileSet:
    """Parse a tile file: ASCII grids separated by blank lines.

    An optional first line '@symmetry: all | rotations | none' selects the
    admitted orientation group (default all).
    """
    lines = text.splitlines()
    symmetry = "all"
    if lines and lines[0].lstrip().startswith("@symmetry:"):
        symmetry = lines[0].split(":", 1)[1].strip()
        lines = lines[1:]
    if symmetry not in ("all", "rotations", "none"):
        raise TileError(f"unknown symmetry policy {symmetry!r}")
    blocks: list[list[str]] = [[]]
    for line in lines:
        if line.strip():
            blocks[-1].append(line)
        elif blocks[-1]:
            blocks.append([])
    shapes = [parse_polyomino("\n".join(b)) for b in blocks if b]
    if not shapes:
        raise TileError("tile file contains no shapes")
    return make_tileset(
        shapes,
        allow_rotations=symmetry in ("all", "rotations"),
        allow_reflections=symmetry == "all",
    )
