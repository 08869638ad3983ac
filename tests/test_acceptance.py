"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its elapsed time and asserting its wall-clock budget.

Run with `pytest -s tests/test_acceptance.py -v` to see the lines live.
"""

import math
import random
import time

from tesserae import (
    AutomatonError,
    RationalGF,
    brute_force_count,
    build_automaton,
    dominant_root,
    eight_cell_bound,
    entropy_lower,
    entropy_upper,
    expand,
    faultfree,
    from_faultfree,
    infer_recurrence,
    perron_root,
    preset,
    recurrence_to_gf,
    series,
    strip_gf,
    t_tetromino_bound,
)

CATALAN = 0.915965594177219015054603514932

TROMINO4_GF = RationalGF((1, -6), (1, -10, 22, 4), 3)
# Quartic signs pinned by three independent routes: the exact series, the
# fault-free identity G = 1/(1 - G'), and the characteristic polynomial of
# the growth rate 12.3636672245596...
TROMINO5_GF = RationalGF((1, -2, -31, -40, -20), (1, -2, -103, -280, -380), 3)
ELL4_GF = RationalGF((1, -2, 0, -1), (1, -4, -2, 1, 4, 4, 2), 2)
TEE4_GF = RationalGF((1, -1), (1, -3), 4)


def check(number, limit, description, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {number:>2} FAIL {elapsed:8.3f}s  {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number:>2} PASS {elapsed:8.3f}s  {description}")
    assert elapsed < limit, f"criterion {number} took {elapsed:.3f}s, budget {limit}s"


def resampled(auto, step, count):
    return list(series(auto, step * (count - 1)).terms[::step])


def test_criterion_01_right_tromino_width4():
    def body():
        auto = build_automaton(preset("tromino-right"), 4)
        assert resampled(auto, 3, 11) == [
            1, 4, 18, 88, 468, 2672, 16072, 100064, 636368, 4097984, 26579488,
        ]
        assert strip_gf(auto) == TROMINO4_GF

    check(1, 1.0, "right tromino width 4: series and generating function", body)


def test_criterion_02_right_tromino_width4_faultfree():
    def body():
        ff = faultfree(strip_gf(build_automaton(preset("tromino-right"), 4)))
        terms = expand(ff, 10)
        assert terms[1:7] == [4, 2, 8, 48, 288, 1728]
        assert all(terms[t] == 8 * 6 ** (t - 3) for t in range(3, 11))

    check(2, 1.0, "right tromino width 4: fault-free expansion and closed form", body)


def test_criterion_03_right_tromino_width5():
    def body():
        auto = build_automaton(preset("tromino-right"), 5)
        assert resampled(auto, 3, 11) == [
            1, 0, 72, 384, 8544, 76800, 1168512, 12785664,
            170678784, 2014648320, 25633231872,
        ]
        g = strip_gf(auto)
        assert g == TROMINO5_GF
        ff = faultfree(g)
        assert expand(ff, 10)[2:] == [
            72, 384, 3360, 21504, 163968, 1136640, 8283648, 58791936, 423121920,
        ]

    check(3, 5.0, "right tromino width 5: series, quartic gf, fault-free series", body)


def test_criterion_04_l_tetromino_width4():
    def body():
        auto = build_automaton(preset("tetromino-L"), 4)
        assert resampled(auto, 2, 11) == [
            1, 2, 10, 42, 182, 790, 3432, 14914, 64814, 281680, 1224182,
        ]
        g = strip_gf(auto)
        assert g == ELL4_GF
        assert expand(faultfree(g), 10)[1:] == [
            2, 6, 10, 18, 38, 84, 186, 410, 904, 1994,
        ]

    check(4, 2.0, "L tetromino width 4: series, sextic gf, fault-free series", body)


def test_criterion_05_t_tetromino_width4():
    def body():
        auto = build_automaton(preset("tetromino-T"), 4)
        g = strip_gf(auto)
        assert g == TEE4_GF
        a = resampled(auto, 4, 13)
        assert all(a[t] == 2 * 3 ** (t - 1) for t in range(1, 13))
        assert expand(faultfree(g), 12)[1:] == [2] * 12

    check(5, 1.0, "T tetromino width 4: gf, closed-form counts, fault-free twos", body)


def test_criterion_06_growth_rates():
    def body():
        g4 = strip_gf(build_automaton(preset("tromino-right"), 4))
        g5 = strip_gf(build_automaton(preset("tromino-right"), 5))
        gl = strip_gf(build_automaton(preset("tetromino-L"), 4))
        for g, expected in [
            (g4, 6.54560770847481152029),
            (g5, 12.36366722455963019234),
            (gl, 4.34601641141649282849),
            (faultfree(g5), 7.16235536278185348653),
            (faultfree(gl), 2.20556943040059031170),
        ]:
            assert abs(dominant_root(g) - expected) < 1e-12, expected

    check(6, 1.0, "five growth rates reproduced to 1e-12", body)


def test_criterion_07_entropy_bounds():
    def body():
        g5 = strip_gf(build_automaton(preset("tromino-right"), 5))
        gl = strip_gf(build_automaton(preset("tetromino-L"), 4))
        assert abs(entropy_lower(dominant_root(g5), 15) - 0.1676508) < 1e-6
        assert abs(entropy_lower(dominant_root(gl), 8) - 0.183657) < 1e-5
        assert abs(entropy_lower(3.0, 16) - 0.06866) < 1e-4
        assert abs(eight_cell_bound() - 0.08664) < 1e-4
        assert abs(entropy_upper(preset("tromino-right")) - 0.462) < 1e-3
        assert abs(entropy_upper(preset("tetromino-L")) - 0.520) < 1e-3
        assert abs(entropy_upper(preset("tetromino-T")) - 0.347) < 1e-3

    check(7, 1.0, "entropy lower and scanning upper bounds", body)


def test_criterion_08_ising_bound():
    def body():
        bound = t_tetromino_bound(1024)
        assert abs(bound.sigma_ising - 0.8270269567) < 1e-9
        assert abs(bound.sigma_lower - 0.09501088358) < 1e-9

    check(8, 1.0, "Ising entropy integral and T-tetromino bound", body)


def test_criterion_09_oracle_equivalence():
    def body():
        cases = 0
        for name in ["monomino", "domino", "tromino-right", "tetromino-L", "tetromino-T"]:
            tiles = preset(name)
            for width in range(1, 6):
                try:
                    auto = build_automaton(tiles, width)
                except AutomatonError:
                    for length in range(9):
                        assert brute_force_count(tiles, width, length) == (length == 0)
                        cases += 1
                    continue
                counts = series(auto, 8).terms
                for length in range(9):
                    assert counts[length] == brute_force_count(tiles, width, length), (
                        name, width, length,
                    )
                    cases += 1
        assert cases == 225

    check(9, 60.0, "oracle equivalence on every preset, widths <= 5, lengths <= 8", body)


def test_criterion_10_t_rectangles_need_sides_divisible_by_four():
    def body():
        tiles = preset("tetromino-T")
        for width in range(1, 13):
            try:
                counts = series(build_automaton(tiles, width), 12).terms
            except AutomatonError:
                counts = (1,) + (0,) * 12  # nothing fits, only the empty tiling
            for length in range(1, 13):
                expected = width % 4 == 0 and length % 4 == 0
                assert (counts[length] > 0) == expected, (width, length)

    check(10, 60.0, "T tetromino fills m x n iff 4 | m and 4 | n (m, n <= 12)", body)


def test_criterion_11_dimer_reference():
    def body():
        auto = build_automaton(preset("domino"), 8)
        sigma = entropy_lower(perron_root(auto), 8)
        assert 0.27 <= sigma <= CATALAN / math.pi
        # same number through the generating-function route
        g = strip_gf(build_automaton(preset("domino"), 8))
        assert abs(entropy_lower(dominant_root(g), 8) - sigma) < 1e-9

    check(11, 5.0, "domino width-8 entropy in [0.27, 0.29156], below Catalan/pi", body)


def test_criterion_12_gf_algebra():
    def body():
        gfs = [TROMINO4_GF, TROMINO5_GF, ELL4_GF, TEE4_GF,
               faultfree(TROMINO5_GF)]
        rng = random.Random(20260810)
        while len(gfs) < 55:
            num = (1, *(rng.randint(-5, 5) for _ in range(rng.randint(0, 4))))
            den = (1, *(rng.randint(-4, 4) for _ in range(rng.randint(1, 4))))
            gfs.append(RationalGF(num, den, 1))
        for g in gfs:
            terms = expand(g, 23)
            rebuilt = recurrence_to_gf(infer_recurrence(terms), terms, step=g.step)
            assert expand(rebuilt, 23) == terms, g
            if g.num and g.num[0] == 1:
                assert from_faultfree(faultfree(g)) == g, g

    check(12, 5.0, "round trips and fault-free involution, paper gfs + 50 random", body)


def test_criterion_13_stretch_t_tetromino_width8():
    def body():
        auto = build_automaton(preset("tetromino-T"), 8)
        s = series(auto, 132)
        assert s.terms[0] == 1
        assert any(s.terms[1:])
        for n, term in enumerate(s.terms):
            if n % 4:
                assert term == 0, n
        g = strip_gf(auto)  # recurrence inference must succeed
        assert expand(g, 33) == list(s.terms[::4])

    check(13, 300.0, "stretch: T tetromino width 8 series and inferred recurrence", body)
