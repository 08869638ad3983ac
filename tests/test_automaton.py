import hashlib

import pytest

from tesserae import (
    AutomatonError,
    OracleLimitError,
    TransferAutomaton,
    brute_force_count,
    build_automaton,
    count_rect,
    preset,
    series,
    to_dot,
    trim_reachable,
)
from tesserae.poly import PRESETS

PRESET_NAMES = ["monomino", "domino", "tromino-right", "tetromino-L", "tetromino-T"]


def resampled(auto, step, count):
    return list(series(auto, step * (count - 1)).terms[::step])


class TestBuild:
    def test_domino_width1_two_states(self):
        auto = build_automaton(preset("domino"), 1)
        assert len(auto.states) == 2
        assert series(auto, 6).terms == (1, 0, 1, 0, 1, 0, 1)

    def test_domino_width2_fibonacci(self):
        # frozen from the exhaustive oracle on 2 x n, n <= 6
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
            assert auto.states[auto.start] == 0


class TestCountRect:
    def test_paper_small_counts(self):
        assert count_rect(build_automaton(preset("tromino-right"), 4), 3) == 4
        assert count_rect(build_automaton(preset("tetromino-L"), 4), 2) == 2
        assert count_rect(build_automaton(preset("tromino-right"), 5), 3) == 0

    def test_empty_rectangle(self):
        for name in PRESET_NAMES:
            assert count_rect(build_automaton(preset(name), 2), 0) == 1

    def test_negative_length(self):
        with pytest.raises(ValueError):
            count_rect(build_automaton(preset("domino"), 2), -1)


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
        auto = build_automaton(preset("tetromino-T"), 4)
        trimmed = trim_reachable(auto)
        assert len(trimmed.states) < len(auto.states)
        assert series(trimmed, 16).terms == series(auto, 16).terms

    def test_series_invariant_across_presets(self):
        for name in PRESET_NAMES:
            auto = build_automaton(preset(name), 4)
            assert series(trim_reachable(auto), 10).terms == series(auto, 10).terms

    def test_unreachable_state_dropped(self):
        # state 1 has an edge into the start but nothing reaches it
        auto = TransferAutomaton(
            width=1, reach=1, states=(0, 1), start=0, edges=(((0, 1),), ((0, 1), (1, 1)))
        )
        trimmed = trim_reachable(auto)
        assert trimmed.states == (0,)
        assert series(trimmed, 5).terms == series(auto, 5).terms

    def test_monomino_already_minimal(self):
        auto = build_automaton(preset("monomino"), 3)
        assert len(trim_reachable(auto).states) == 1

    def test_trimmed_is_strongly_connected(self):
        auto = trim_reachable(build_automaton(preset("tetromino-L"), 4))
        n = len(auto.states)

        def reachable_from(i):
            seen = {i}
            stack = [i]
            while stack:
                x = stack.pop()
                for j in range(n):
                    if auto.matrix[x][j] and j not in seen:
                        seen.add(j)
                        stack.append(j)
            return seen

        assert all(len(reachable_from(i)) == n for i in range(n))


class TestOracle:
    def test_small_counts(self):
        assert brute_force_count(preset("tromino-right"), 2, 3) == 2
        assert brute_force_count(preset("tromino-right"), 4, 6) == 18
        assert brute_force_count(preset("tetromino-T"), 5, 8) == 0
        assert brute_force_count(preset("tetromino-L"), 5, 8) == 436

    def test_zero_length(self):
        assert brute_force_count(preset("domino"), 3, 0) == 1

    def test_cap(self):
        with pytest.raises(OracleLimitError):
            brute_force_count(preset("domino"), 8, 9)
        # raising the cap admits the request; 5x9 right trominoes stay cheap
        assert brute_force_count(preset("tromino-right"), 5, 9, max_cells=45) == 384

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
        auto = trim_reachable(build_automaton(preset("tromino-right"), 4))
        dot = to_dot(auto)
        assert dot.count("[label=") - dot.count("->") == len(auto.states)

    def test_edge_multiplicities_from_matrix(self):
        auto = trim_reachable(build_automaton(preset("tromino-right"), 4))
        dot = to_dot(auto)
        for i, row in enumerate(auto.matrix):
            for j, ways in enumerate(row):
                assert (f"s{i} -> s{j} " in dot) == (ways > 0)


def test_matrix_entries_nonnegative_and_square():
    for name in PRESET_NAMES:
        auto = build_automaton(preset(name), 4)
        n = len(auto.states)
        assert len(auto.matrix) == n
        for row in auto.matrix:
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
                tuple((j, w) for j, w in enumerate(row) if w) for row in auto.matrix
            ) == auto.edges


def test_sparse_trim_keeps_dense_era_dot():
    # SHA-256 of the DOT text that the dense-matrix automaton produced
    dot = to_dot(trim_reachable(build_automaton(preset("tromino-right"), 4)))
    assert hashlib.sha256(dot.encode()).hexdigest() == (
        "2ad1be7521379b1037cccf87a9bb3a60cc1accfdca63ba13a4cd05613ccbe634"
    )
