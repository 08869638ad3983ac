import contextlib
import hashlib
import io
import json
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tesserae import (
    AutomatonError,
    NoTilingsError,
    OracleLimitError,
    Polyomino,
    StateBudgetError,
    TransferAutomaton,
    brute_force_count,
    build_automaton,
    count_rect,
    faultfree,
    parse_tile_file,
    perron_root,
    preset,
    series,
    strip_gf,
    to_dot,
    trim_reachable,
)
from tesserae import automaton
from tesserae.automaton import MAX_STATES, MAX_WIDTH, _cyclic_classes
from tesserae.cli import main
from tesserae.poly import PRESETS

PRESET_NAMES = ["monomino", "domino", "tromino-right", "tetromino-L", "tetromino-T"]


def dense(auto):
    """Dense n x n view of an automaton's sparse edges."""
    n = len(auto.states)
    return [[dict(out).get(j, 0) for j in range(n)] for out in auto.edges]


def resampled(auto, step, count):
    return list(series(auto, step * (count - 1)).terms[::step])


class TestBuild:
    def test_domino_width1_two_states(self):
        auto = build_automaton(preset("domino"), 1)
        assert len(auto.states) == 2
        assert series(auto, 6).terms == (1, 0, 1, 0, 1, 0, 1)

    def test_domino_width2_fibonacci(self):
        # frozen from the brute-force oracle on 2 x n, n <= 6
        auto = build_automaton(preset("domino"), 2)
        assert series(auto, 6).terms == (1, 1, 2, 3, 5, 8, 13)

    def test_t_tetromino_width4(self):
        auto = build_automaton(preset("tetromino-T"), 4)
        assert count_rect(auto, 4) == 2
        assert count_rect(auto, 8) == 6
        assert count_rect(auto, 12) == 18

    def test_monomino_width3_single_state(self):
        auto = build_automaton(preset("monomino"), 3)
        assert len(auto.states) == 1
        assert auto.reach == 0

    def test_nothing_fits(self):
        with pytest.raises(AutomatonError):
            build_automaton(preset("tetromino-T"), 1)
        with pytest.raises(AutomatonError):
            build_automaton(preset("domino"), 0)

    def test_start_state_is_empty_profile(self):
        for name in PRESET_NAMES:
            auto = build_automaton(preset(name), 3 if name != "tetromino-T" else 4)
            assert auto.states[0] == 0


class TestCountRect:
    def test_paper_small_counts(self):
        assert count_rect(build_automaton(preset("tromino-right"), 4), 3) == 4
        assert count_rect(build_automaton(preset("tetromino-L"), 4), 2) == 2
        assert count_rect(build_automaton(preset("tromino-right"), 5), 3) == 0

    def test_empty_rectangle(self):
        for name in PRESET_NAMES:
            assert count_rect(build_automaton(preset(name), 2), 0) == 1

    def test_negative_length(self):
        with pytest.raises(ValueError, match="length must be nonnegative"):
            count_rect(build_automaton(preset("domino"), 2), -1)

    def test_closed_forms_far_past_the_proof(self):
        # domino 2 x n: F(n + 1); monomino 1 x n: 1; tetromino-T 4 x 4t: 2 3^(t-1), else 0
        assert [fibonacci(n) for n in range(12)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
        auto = build_automaton(preset("domino"), 2, mirror=True)
        for n in (1000, 21000, 69000):
            assert count_rect(auto, n) == fibonacci(n + 1), n
        auto = build_automaton(preset("monomino"), 1)
        assert [count_rect(auto, n) for n in (33, 1000, 10**6, 10**9)] == [1] * 4
        auto = build_automaton(preset("tetromino-T"), 4, mirror=True)
        for t in [*range(1, 41), 97, 500, 1234, 4999, 5000]:
            assert count_rect(auto, 4 * t) == 2 * 3 ** (t - 1), t
            assert [count_rect(auto, 4 * t + r) for r in (1, 2, 3)] == [0, 0, 0], t


def fibonacci(n):
    """F(n) by fast doubling: F(2j) = F(j) (2 F(j+1) - F(j)), F(2j+1) = F(j)^2 + F(j+1)^2."""
    a, b = 0, 1  # F(j), F(j + 1) for j = the bits of n read so far
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return a


@settings(max_examples=120, deadline=None)
@example(coeffs=[1] * 17, zeros=3, start=list(range(20)), m=5000)
@example(coeffs=[0], zeros=2, start=[7] * 20, m=1)
@given(coeffs=st.lists(st.integers(-5, 5), min_size=1, max_size=17), zeros=st.integers(0, 3),
       start=st.lists(st.integers(-10**6, 10**6), min_size=20, max_size=20),
       m=st.one_of(st.integers(0, 3), st.integers(0, 5000)))
def test_jump_equals_stepping_the_recurrence(coeffs, zeros, start, m):
    # orders 1-20, the last zeros coefficients 0, from any d counts
    coeffs = (*coeffs, *[0] * zeros)
    last = start[:len(coeffs)]
    stepped = [*last, *automaton._extended(coeffs, last, [0] * m)]
    assert automaton._jumped(coeffs, last, m) == stepped[-1]


class TestSeries:
    def test_right_tromino_width4_golden(self):
        auto = build_automaton(preset("tromino-right"), 4)
        assert resampled(auto, 3, 11) == [
            1, 4, 18, 88, 468, 2672, 16072, 100064, 636368, 4097984, 26579488,
        ]

    def test_right_tromino_width5_golden(self):
        auto = build_automaton(preset("tromino-right"), 5)
        assert resampled(auto, 3, 11) == [
            1, 0, 72, 384, 8544, 76800, 1168512, 12785664,
            170678784, 2014648320, 25633231872,
        ]

    def test_l_tetromino_width4_golden(self):
        auto = build_automaton(preset("tetromino-L"), 4)
        assert resampled(auto, 2, 11) == [
            1, 2, 10, 42, 182, 790, 3432, 14914, 64814, 281680, 1224182,
        ]

    def test_monomino_all_ones(self):
        assert series(build_automaton(preset("monomino"), 2), 4).terms == (1, 1, 1, 1, 1)

    def test_series_matches_count_rect(self):
        auto = build_automaton(preset("tetromino-L"), 3)
        s = series(auto, 8)
        assert list(s.terms) == [count_rect(auto, n) for n in range(9)]

    def test_divisibility_zeros(self):
        # uniform tile area a forces N(n) = 0 whenever a does not divide m*n
        for name in PRESET_NAMES:
            tiles = preset(name)
            area = tiles.base[0].area
            for width in range(1, 7):
                try:
                    auto = build_automaton(tiles, width)
                except AutomatonError:
                    continue
                for n, term in enumerate(series(auto, 12).terms):
                    if (width * n) % area:
                        assert term == 0, (name, width, n)


class TestTrim:
    def test_removes_dead_states_t_tetromino(self):
        # the build discovers 12 profiles at width 4, two of them dead
        auto = build_automaton(preset("tetromino-T"), 4)
        assert len(auto.states) == 10
        assert series(auto, 16).terms == (1, 0, 0, 0, 2, 0, 0, 0, 6, 0, 0, 0, 18, 0, 0, 0, 54)

    def test_series_invariant_across_presets(self):
        # the build already trims, so trimming again keeps the very object
        for name in PRESET_NAMES:
            auto = build_automaton(preset(name), 4)
            assert trim_reachable(auto) is auto

    def test_unreachable_state_dropped(self):
        # state 1 has an edge into the start but nothing reaches it
        auto = TransferAutomaton(
            width=1, reach=1, states=(0, 1), edges=(((0, 1),), ((0, 1), (1, 1)))
        )
        trimmed = trim_reachable(auto)
        assert trimmed.states == (0,)
        assert series(trimmed, 5).terms == series(auto, 5).terms

    def test_monomino_already_minimal(self):
        auto = build_automaton(preset("monomino"), 3)
        assert len(trim_reachable(auto).states) == 1

    def test_trimmed_is_strongly_connected(self):
        # _levels_and_period relies on it: state 0 reaches every state and
        # every state reaches state 0
        def reached(adj):
            seen = {0}
            stack = [0]
            while stack:
                for j in adj[stack.pop()]:
                    if j not in seen:
                        seen.add(j)
                        stack.append(j)
            return len(seen)

        for name in PRESET_NAMES:
            for width in range(1, 9):
                try:
                    auto = build_automaton(preset(name), width)
                except AutomatonError:
                    continue
                n = len(auto.states)
                fwd = [[j for j, _ in out] for out in auto.edges]
                back = [[] for _ in range(n)]
                for i, targets in enumerate(fwd):
                    for j in targets:
                        back[j].append(i)
                assert reached(fwd) == reached(back) == n, (name, width)


class TestOracle:
    def test_small_counts(self):
        assert brute_force_count(preset("tromino-right"), 2, 3) == 2
        assert brute_force_count(preset("tromino-right"), 4, 6) == 18
        assert brute_force_count(preset("tetromino-T"), 5, 8) == 0
        assert brute_force_count(preset("tetromino-L"), 5, 8) == 436

    def test_zero_length(self):
        assert brute_force_count(preset("domino"), 3, 0) == 1

    @pytest.mark.parametrize("width, length", [(0, 3), (2, -1)])
    def test_empty_or_negative_side(self, width, length):
        with pytest.raises(ValueError, match="need width >= 1 and length >= 0"):
            brute_force_count(preset("domino"), width, length)

    def test_budget(self):
        # the I pentomino and the domino need 723773 partial fillings at 8x8
        with pytest.raises(OracleLimitError, match="budget"):
            brute_force_count(parse_tile_file("##\n\n#####"), 8, 8)
        # 72 cells: the budget counts partial fillings, not cells
        assert brute_force_count(preset("domino"), 8, 9) == count_rect(
            build_automaton(preset("domino"), 8), 9)
        assert brute_force_count(preset("tromino-right"), 5, 9) == 384

    def test_cells_past_recursion_bound(self):
        # one recursion per tile placed: a 1x3000 monomino strip would exhaust
        # the stack, so it is refused however few fillings it has
        with pytest.raises(OracleLimitError, match=str(MAX_WIDTH)):
            brute_force_count(preset("monomino"), 1, 3000)
        assert brute_force_count(preset("monomino"), 1, MAX_WIDTH) == 1

    def test_readme_tile_file_8x8(self):
        tiles = parse_tile_file("@symmetry: all\n##\n#.\n\n#..\n###")
        count = brute_force_count(tiles, 8, 8)
        assert count == count_rect(build_automaton(tiles, 8), 8) == 1472632956

    def test_every_preset_rectangle_up_to_64_cells(self):
        cases = 0
        for name in PRESETS:
            tiles = preset(name)
            for width in range(1, 9):
                try:
                    counts = series(build_automaton(tiles, width), 64 // width).terms
                except AutomatonError:
                    counts = [1] + [0] * (64 // width)
                for length, count in enumerate(counts):
                    assert brute_force_count(tiles, width, length) == count, (name, width, length)
                    cases += 1
        assert cases == 900

    def test_long_narrow_strip_scans_short_side(self):
        tiles = parse_tile_file("##\n.#\n\n..#\n###")
        assert brute_force_count(tiles, 2, 18) == brute_force_count(tiles, 18, 2) == 384

    def test_area_not_a_multiple_of_tile_areas(self):
        assert brute_force_count(parse_tile_file("#\n#\n\n#.\n#.\n##"), 5, 7) == 0

    def test_area_no_sum_of_tile_areas(self):
        # gcd(3, 5) = 1 divides 7, but 7 is no sum of 3s and 5s: the search
        # finds no tiling, and the automaton agrees
        tiles = parse_tile_file("###\n\n###\n#.#")
        assert {v.area for v in tiles.variants} == {3, 5}
        for width, length in [(1, 7), (7, 1)]:
            assert brute_force_count(tiles, width, length) == 0
            assert count_rect(build_automaton(tiles, width), length) == 0
        for width, length in [(2, 3), (1, 9), (3, 5)]:
            count = count_rect(build_automaton(tiles, width), length)
            assert brute_force_count(tiles, width, length) == count > 0

    def test_agrees_with_automaton_spot_checks(self):
        for name, width, length in [
            ("domino", 3, 6),
            ("tromino-right", 4, 6),
            ("tetromino-L", 4, 6),
            ("tetromino-T", 4, 8),
        ]:
            tiles = preset(name)
            auto = build_automaton(tiles, width)
            assert count_rect(auto, length) == brute_force_count(tiles, width, length)


class TestDot:
    def test_monomino_self_loop(self):
        dot = to_dot(build_automaton(preset("monomino"), 1))
        assert dot.startswith("digraph")
        assert 's0 -> s0 [label="1"];' in dot

    def test_domino_width1_cycle(self):
        dot = to_dot(build_automaton(preset("domino"), 1))
        assert "s0 -> s1" in dot and "s1 -> s0" in dot
        assert "s0 -> s0" not in dot

    def test_node_count_matches_trimmed_states(self):
        auto = build_automaton(preset("tromino-right"), 4)
        dot = to_dot(auto)
        assert dot.count("[label=") - dot.count("->") == len(auto.states)

    def test_edge_multiplicities_from_matrix(self):
        auto = build_automaton(preset("tromino-right"), 4)
        dot = to_dot(auto)
        for i, row in enumerate(dense(auto)):
            for j, ways in enumerate(row):
                assert (f"s{i} -> s{j} " in dot) == (ways > 0)


def test_matrix_entries_nonnegative_and_square():
    for name in PRESET_NAMES:
        auto = build_automaton(preset(name), 4)
        n = len(auto.states)
        matrix = dense(auto)
        assert len(matrix) == n
        for row in matrix:
            assert len(row) == n
            assert all(w >= 0 for w in row)


def test_tall_variants_silently_dropped():
    # the L tetromino's 3-row orientations cannot appear in a width-2 strip,
    # but the 2-row ones keep the automaton buildable
    auto = build_automaton(preset("tetromino-L"), 2)
    assert count_rect(auto, 4) == brute_force_count(preset("tetromino-L"), 2, 4)


def test_sparse_edges_well_formed_every_preset_width():
    for name in PRESETS:
        for width in range(1, 7):
            try:
                auto = build_automaton(preset(name), width)
            except AutomatonError:
                continue
            n = len(auto.states)
            assert len(auto.edges) == n
            for out in auto.edges:
                targets = [j for j, _ in out]
                assert targets == sorted(set(targets))
                assert all(0 <= j < n and w > 0 for j, w in out)
            # the dense view round-trips to the sparse transitions
            assert tuple(
                tuple((j, w) for j, w in enumerate(row) if w) for row in dense(auto)
            ) == auto.edges


def test_sparse_trim_keeps_dense_era_dot():
    # SHA-256 of the DOT text that the dense-matrix automaton produced
    dot = to_dot(build_automaton(preset("tromino-right"), 4))
    assert hashlib.sha256(dot.encode()).hexdigest() == (
        "2ad1be7521379b1037cccf87a9bb3a60cc1accfdca63ba13a4cd05613ccbe634"
    )


# First 16 hex digits of the SHA-256 of to_dot of the automaton, the bytes
# automaton-dot prints, recorded from the earlier build that returned the raw
# automaton, trimmed by trim_reachable; the labels pin every profile and the
# node order pins the numbering.  None: no variant fits the width.  tetromino-T
# widths 12 and 20 and tetromino-L width 9, the cases with the most dead
# profiles, were recorded before the build did its own trim.
DOT_DIGESTS = {
    ("monomino", 1): "42205d2400754326",
    ("monomino", 2): "42205d2400754326",
    ("monomino", 3): "42205d2400754326",
    ("monomino", 4): "42205d2400754326",
    ("monomino", 5): "42205d2400754326",
    ("monomino", 6): "42205d2400754326",
    ("monomino", 7): "42205d2400754326",
    ("monomino", 8): "42205d2400754326",
    ("domino", 1): "c7739b0febc5a93d",
    ("domino", 2): "8f63372f4bb0a542",
    ("domino", 3): "aa5e18355f3af2e5",
    ("domino", 4): "61cf2b2e0a075655",
    ("domino", 5): "222de3976bcb6282",
    ("domino", 6): "76d65969326a34bc",
    ("domino", 7): "ef2ffcbf20496fb4",
    ("domino", 8): "725ea2e8c4314e4c",
    ("tromino-right", 1): None,
    ("tromino-right", 2): "51d16bf8a00b60cd",
    ("tromino-right", 3): "904f069a5aa6617c",
    ("tromino-right", 4): "2ad1be7521379b10",
    ("tromino-right", 5): "dabab5733d268814",
    ("tromino-right", 6): "60b5a047d94030a0",
    ("tromino-right", 7): "54696e923e1c3c3d",
    ("tromino-right", 8): "2b568a89b1a6c67e",
    ("tetromino-L", 1): None,
    ("tetromino-L", 2): "353688b87025ed60",
    ("tetromino-L", 3): "b27bb3d41418d51d",
    ("tetromino-L", 4): "6fe8de2ecb0f4423",
    ("tetromino-L", 5): "7cf17c9e4dea6756",
    ("tetromino-L", 6): "a4eda6d7bf82bfb0",
    ("tetromino-L", 7): "dc571259e8bd543c",
    ("tetromino-L", 8): "cafa98ac16769370",
    ("tetromino-T", 1): None,
    ("tetromino-T", 2): "367dd48e00ba1261",
    ("tetromino-T", 3): "81f670721a3c2859",
    ("tetromino-T", 4): "89c86c36df20ff57",
    ("tetromino-T", 5): "a4028b33dbdfefb4",
    ("tetromino-T", 6): "df658af82f254f1d",
    ("tetromino-T", 7): "e8b2d354743ee749",
    ("tetromino-T", 8): "1f0371c5981a1829",
    ("tetromino-T", 12): "8b507b6b6c9274f0",
    ("tetromino-T", 16): "0a8185192059bbbe",
    ("tetromino-T", 20): "1729031e62c7999f",
    ("tetromino-L", 9): "c5031055291284cb",
    ("domino", 12): "46a408f6b82c8dd1",
}


@pytest.mark.parametrize("name, width", sorted(DOT_DIGESTS))
def test_raw_automaton_numbering_pinned(name, width):
    if DOT_DIGESTS[name, width] is None:
        with pytest.raises(AutomatonError):
            build_automaton(preset(name), width)
        return
    dot = to_dot(build_automaton(preset(name), width))
    assert hashlib.sha256(dot.encode()).hexdigest()[:16] == DOT_DIGESTS[name, width]


def untrimmed(tiles, width):
    """build_automaton's fill loop without its trim: every profile found from the start,
    dead ones included, in discovery order.  The reference that trim_reachable trims."""
    variants = [v for v in tiles.variants if v.height <= width]
    placements = [[] for _ in range(width)]
    for v in variants:
        lead = min(r for r, c in v.cells if c == 0)
        mask = sum(1 << (c * width + r) for r, c in v.cells)
        for s in range(width - v.height + 1):
            placements[lead + s].append(mask << s)
    full, index, profiles, edges = (1 << width) - 1, {0: 0}, [0], []

    def fill(window, counts):
        col0 = window & full
        if col0 == full:
            j = index.setdefault(window >> width, len(profiles))
            if j == len(profiles):
                profiles.append(window >> width)
            counts[j] = counts.get(j, 0) + 1
            return
        for mask in placements[((col0 + 1) & ~col0).bit_length() - 1]:
            if not mask & window:
                fill(window | mask, counts)

    for profile in profiles:  # grows while it is walked
        counts = {}
        fill(profile, counts)
        edges.append(tuple(sorted(counts.items())))
    reach = max(v.width for v in variants) - 1
    return TransferAutomaton(width, reach, tuple(profiles), tuple(edges))


@pytest.mark.parametrize(
    "name, width", [(n, w) for n in PRESET_NAMES for w in range(1, 9)] + [("tetromino-T", 16)]
)
def test_build_trims_as_trim_reachable_does(name, width):
    # the build trims as it builds; trim_reachable of the untrimmed automaton is the
    # independent route to the same states, numbering and edges
    try:
        auto = build_automaton(preset(name), width)
    except AutomatonError:  # no variant fits the width: DOT_DIGESTS pins the refusal
        return
    assert trim_reachable(untrimmed(preset(name), width)) == auto


def test_untrimmed_reference_has_dead_profiles():
    # tetromino-T width 16 discovers 2710 profiles, 2020 of them dead
    raw = untrimmed(preset("tetromino-T"), 16)
    assert (len(raw.states), len(trim_reachable(raw).states)) == (2710, 690)


# the same digests for the code block under README's "Tile files" heading, a
# right tromino and an L tetromino, under each symmetry policy, recorded while
# each placement was rebuilt cell by cell for every anchor row
README_DOT_DIGESTS = {
    ("all", 2): "7f37a22dc7589e36",
    ("all", 3): "43e76d6e1b92e9d6",
    ("all", 4): "5782cb1cd22609e8",
    ("all", 5): "686a428516783e11",
    ("rotations", 2): "b4bcd7507d9bbbe3",
    ("rotations", 3): "8810fcdcbbc97836",
    ("rotations", 4): "9dfa03cd59961f45",
    ("rotations", 5): "bced00f5d994c073",
    ("none", 2): "367dd48e00ba1261",
    ("none", 3): "81f670721a3c2859",
    ("none", 4): "6effe36c2c4400ac",
    ("none", 5): "a4028b33dbdfefb4",
}


@pytest.mark.parametrize("symmetry, width", sorted(README_DOT_DIGESTS))
def test_readme_tile_file_numbering_pinned(symmetry, width):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Tile files", 1)[1].split("```\n")[1]
    assert block.startswith("@symmetry: all\n")
    tiles = parse_tile_file(block.replace("all", symmetry, 1))
    dot = to_dot(build_automaton(tiles, width))
    assert hashlib.sha256(dot.encode()).hexdigest()[:16] == README_DOT_DIGESTS[symmetry, width]


def test_state_budget():
    # the domino width-20 automaton would have 184756 states
    with pytest.raises(StateBudgetError, match=str(MAX_STATES)):
        build_automaton(preset("domino"), 20)
    assert not issubclass(StateBudgetError, AutomatonError)  # exit 1, not 2
    # the widest preset strip README names as fitting: the build finds 23728
    # profiles, 12369 of them on a start-to-start path
    assert len(build_automaton(preset("tetromino-L"), 9).states) == 12369


def test_width_budget():
    # the fill recurses once per placement in a column, and the placement masks
    # grow with width^2: past MAX_WIDTH rows no mask is built
    start = time.perf_counter()
    for width in (MAX_WIDTH + 1, 10**6):
        with pytest.raises(StateBudgetError, match=str(MAX_WIDTH)):
            build_automaton(preset("monomino"), width)
    assert time.perf_counter() - start < 0.1
    assert len(build_automaton(preset("monomino"), MAX_WIDTH).states) == 1


STEPS = [(0, 1), (1, 0), (0, -1), (-1, 0)]
# each move grows the shape by one cell next to an existing one: 1-5 cells
GROWTH = st.lists(st.tuples(st.integers(0, 4), st.sampled_from(STEPS)), max_size=4)


def _grid(moves) -> str:
    cells = [(0, 0)]
    for k, (dr, dc) in moves:
        r, c = cells[k % len(cells)]
        if (r + dr, c + dc) not in cells:
            cells.append((r + dr, c + dc))
    p = Polyomino(frozenset(cells))
    return "\n".join(
        "".join("#" if (r, c) in p.cells else "." for c in range(p.width)) for r in range(p.height)
    )


@settings(max_examples=60, deadline=None)
@given(
    shapes=st.lists(GROWTH, min_size=1, max_size=2),
    symmetry=st.sampled_from(["all", "rotations", "none"]),
    width=st.integers(1, 6),
)
def test_automaton_matches_oracle_on_random_tile_sets(shapes, symmetry, width):
    text = f"@symmetry: {symmetry}\n" + "\n\n".join(map(_grid, shapes))
    tiles = parse_tile_file(text)
    try:
        auto = build_automaton(tiles, width)
    except AutomatonError:
        assert all(v.height > width for v in tiles.variants)
        return
    assert trim_reachable(auto) is auto
    assert trim_reachable(untrimmed(tiles, width)) == auto
    counts = series(auto, 64 // width).terms
    assert counts[0] == 1
    for length, count in enumerate(counts[1:], start=1):
        assert brute_force_count(tiles, width, length) == count, (text, width, length)


@settings(max_examples=60, deadline=None)
@given(
    shapes=st.lists(GROWTH, min_size=1, max_size=2),
    symmetry=st.sampled_from(["all", "rotations", "none"]),
    sides=st.tuples(st.integers(1, 7), st.integers(1, 7)),
)
def test_count_matches_oracle_either_way_round(tmp_path_factory, shapes, symmetry, sides):
    # the count command sweeps the shorter side: it must agree with the oracle both ways
    text = f"@symmetry: {symmetry}\n" + "\n\n".join(map(_grid, shapes))
    tiles = parse_tile_file(text)
    path = tmp_path_factory.getbasetemp() / "random.tiles"
    path.write_text(text)
    for width, length in (sides, sides[::-1]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["count", "--tiles", str(path), "--width", str(width),
                         "--length", str(length), "--json"])
        if all(v.height > width for v in tiles.variants):
            assert code == 2
        else:
            assert code == 0, (text, width, length)
            count = brute_force_count(tiles, width, length)
            assert json.loads(out.getvalue())["count"] == str(count), (text, width, length)


def full_size(auto):
    """(states, nonzeros) of the full automaton that a build, lumped or not, stands for."""
    sizes = auto.sizes or (1,) * len(auto.states)
    return sum(sizes), sum(s * len(out) for s, out in zip(sizes, auto.edges))


def row_flip_closed(tiles, width):
    fitting = [v for v in tiles.variants if v.height <= width]
    return {v.cells for v in fitting} == {
        frozenset((v.height - 1 - r, c) for r, c in v.cells) for v in fitting}


MIRROR_CASES = [(n, w) for n in PRESET_NAMES for w in range(1, 9)] + [
    ("tetromino-T", 12), ("tetromino-T", 16), ("tetromino-T", 20), ("tetromino-L", 7),
    ("domino", 12)]


@pytest.mark.parametrize("name, width", MIRROR_CASES)
def test_mirror_quotient_keeps_counts_gf_and_root(name, width):
    try:
        auto = build_automaton(preset(name), width)
    except AutomatonError:
        with pytest.raises(AutomatonError):
            build_automaton(preset(name), width, mirror=True)
        return
    q = build_automaton(preset(name), width, mirror=True)
    assert trim_reachable(q) is q
    assert full_size(q) == full_size(auto) and set(q.sizes) <= {1, 2}
    assert series(q, 40) == series(auto, 40)
    for length in (0, 1, 7, 40, 333):
        assert count_rect(q, length) == count_rect(auto, length)
    try:
        g = strip_gf(auto)
    except NoTilingsError:
        with pytest.raises(NoTilingsError):
            strip_gf(q)
        return
    assert strip_gf(q) == g and faultfree(strip_gf(q)) == faultfree(g)
    classes = _cyclic_classes(q)
    assert len(classes) == g.step
    assert sum(q.sizes[i] for i in classes[0]) == len(_cyclic_classes(auto)[0])  # r0
    assert perron_root(q) == pytest.approx(perron_root(auto), rel=1e-12)


def test_mirror_quotient_sizes():
    # T w16: 364 states stand for the 690 of the full build; T w20: 1562 for 3102
    for width, states, profiles in ((16, 364, 690), (20, 1562, 3102)):
        q = build_automaton(preset("tetromino-T"), width, mirror=True)
        assert (len(q.states), sum(q.sizes)) == (states, profiles)


def test_chiral_tiles_decline_the_mirror():
    # quarter turns of an L tetromino hold no mirror image of it, while a horizontal
    # domino and a monomino, drawn once each, are their own mirror images
    chiral = parse_tile_file("@symmetry: rotations\n##\n#.\n\n#..\n###\n")
    for width in range(2, 7):
        assert build_automaton(chiral, width, mirror=True) == build_automaton(chiral, width)
    closed = parse_tile_file("@symmetry: none\n##\n\n#\n")
    assert build_automaton(closed, 2, mirror=True) == TransferAutomaton(
        2, 1, (0, 3, 1), (((0, 1), (1, 1), (2, 1), (2, 1)), ((0, 1),), ((0, 1), (2, 1))),
        (1, 1, 2))


def test_trim_keeps_the_ways_of_a_repeated_target():
    # a quotient's row holds one pair per profile reached, so a target can repeat;
    # state 2 is dead
    a = TransferAutomaton(2, 1, (0, 1, 2), (((0, 1), (1, 1), (1, 1), (2, 1)), ((0, 2),), ()),
                          (1, 2, 2))
    trimmed = trim_reachable(a)
    assert trimmed == TransferAutomaton(2, 1, (0, 1), (((0, 1), (1, 1), (1, 1)), ((0, 2),)),
                                        (1, 2))
    assert series(trimmed, 8) == series(a, 8)
    assert series(a, 3).terms == (1, 1, 5, 9)
    # with no mirror pairs, a repeated target's ways are summed
    full = TransferAutomaton(1, 1, (0, 1), (((0, 1), (0, 1), (1, 1)), ()))
    assert trim_reachable(full) == TransferAutomaton(1, 1, (0,), (((0, 2),),))
    assert series(trim_reachable(full), 5) == series(full, 5)


@pytest.mark.parametrize("budget", [40, 200])
def test_mirror_build_refused_exactly_where_the_full_build_is(monkeypatch, budget):
    monkeypatch.setattr(automaton, "MAX_STATES", budget)
    refused = 0
    for name in PRESET_NAMES:
        for width in range(1, 11):
            outcomes = []
            for mirror in (False, True):
                try:
                    outcomes.append(full_size(build_automaton(preset(name), width, mirror=mirror)))
                except AutomatonError as exc:
                    outcomes.append(repr(exc))
                except StateBudgetError as exc:
                    outcomes.append(repr(exc))
                    refused += 1
            assert outcomes[0] == outcomes[1], (name, width)
    assert 0 < refused < 2 * len(PRESET_NAMES) * 10


@pytest.mark.parametrize("name, width", [(n, w) for n in PRESET_NAMES for w in range(2, 9)])
def test_mirror_build_counts_both_profiles_of_a_pair(monkeypatch, name, width):
    # at a budget of exactly the profiles the full build finds, both builds answer;
    # one fewer, and both refuse
    try:
        found = len(untrimmed(preset(name), width).states)
    except ValueError:  # no variant fits
        return
    if found == 1:  # the start alone, which the budget checks only with a second profile
        return
    for budget, fits in ((found, True), (found - 1, False)):
        monkeypatch.setattr(automaton, "MAX_STATES", budget)
        for mirror in (False, True):
            if fits:
                build_automaton(preset(name), width, mirror=mirror)
            else:
                with pytest.raises(StateBudgetError, match=f"needs over {budget} states"):
                    build_automaton(preset(name), width, mirror=mirror)


@settings(max_examples=60, deadline=None)
@given(
    shapes=st.lists(GROWTH, min_size=1, max_size=2),
    symmetry=st.sampled_from(["all", "rotations", "none"]),
    width=st.integers(1, 6),
)
def test_mirror_build_matches_oracle_on_random_tile_sets(shapes, symmetry, width):
    text = f"@symmetry: {symmetry}\n" + "\n\n".join(map(_grid, shapes))
    tiles = parse_tile_file(text)
    try:
        q = build_automaton(tiles, width, mirror=True)
    except AutomatonError:
        assert all(v.height > width for v in tiles.variants)
        return
    full = build_automaton(tiles, width)
    assert trim_reachable(q) is q
    assert full_size(q) == full_size(full)
    assert bool(q.sizes) == row_flip_closed(tiles, width)
    if not q.sizes:
        assert q == full
    counts = series(q, 64 // width).terms
    assert counts == series(full, 64 // width).terms
    for length, count in enumerate(counts[1:], start=1):
        assert brute_force_count(tiles, width, length) == count, (text, width, length)
