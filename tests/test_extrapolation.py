"""series and count_rect, which switch from the sweep to a recurrence once it is
proved, and strip_gf, which reads the same sweep, against the plain sweep, the
r0 path, the Kasteleyn-Temperley-Fisher product and growth rate, and hand-built
automata."""

import contextlib
import functools
import io
import json
import sys
import threading
from collections import deque
from itertools import islice
from math import prod

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tesserae import (
    AutomatonError,
    LinearRecurrence,
    NoTilingsError,
    RecurrenceError,
    TransferAutomaton,
    automaton,
    build_automaton,
    count_rect,
    dominant_root,
    expand,
    gf,
    infer_recurrence,
    parse_tile_file,
    perron_root,
    preset,
    series,
    strip_gf,
)
from tesserae.automaton import _cyclic_classes, _lift, _primes, _registers, _sweep
from tesserae.cli import main
from tesserae.poly import PRESETS
from tesserae.spectral import PERRON_TOL
from test_automaton import GROWTH, _grid, dense
from test_gf import r0_path


def plain(auto, length):
    """N(0..length) from the sweep over every state alone."""
    return [x[0] for x in islice(_sweep(auto, [range(len(auto.states))]), length + 1)]


def matrix_power(auto, length):
    """N(0..length) as (A^n)[0][0] from the dense matrix."""
    a, row, out = dense(auto), [1] + [0] * (len(auto.states) - 1), []
    for _ in range(length + 1):
        out.append(row[0])
        row = [sum(row[i] * a[i][j] for i in range(len(row))) for j in range(len(row))]
    return out


@pytest.fixture
def swept(monkeypatch):
    # the vectors series and count_rect take from the sweep, e0 included
    count = [0]

    def counting(*args):
        for x in _sweep(*args):
            count[0] += 1
            yield x

    monkeypatch.setattr(automaton, "_sweep", counting)
    return count


@pytest.fixture
def proposals(monkeypatch):
    # every recurrence _lift returns, with the terms it was given
    log = []

    def logging(terms, c, rho):
        coeffs = _lift(terms, c, rho)
        log.append((list(terms), coeffs))
        return coeffs

    monkeypatch.setattr(automaton, "_lift", logging)
    return log


def holds(terms, coeffs):
    d = len(coeffs)
    return all(terms[s] == sum(c * terms[s - 1 - i] for i, c in enumerate(coeffs))
               for s in range(d, len(terms)))


# sweep vectors at length 1100: the sweep stops at the t that proves the recurrence,
# t = 2 d for these, k t + 1 vectors for step k, unless a recurrence step costs more
# than a sweep step (2 d > e) or is not proved before half the length (tetromino-L
# width 7)
SWEPT = {
    ("domino", 8): 33,
    ("tromino-right", 8): 217,
    ("tetromino-L", 8): 401,
    ("tetromino-T", 8): 25,
    ("domino", 2): 1101,
    ("monomino", 1): 1101,
    ("tetromino-T", 6): 1101,
    ("tetromino-L", 7): 1097,
}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_counts_equal_the_plain_sweep_past_certification(swept, name):
    length = 1100  # past t = 400, where tetromino-L width 8 (order 200) is proved
    for width in range(1, 9):
        try:
            auto = build_automaton(preset(name), width)
        except AutomatonError:
            continue
        ref = plain(auto, length)
        swept[0] = 0
        assert list(series(auto, length).terms) == ref, (name, width)
        assert swept[0] == SWEPT.get((name, width), swept[0]), (name, width)
        for n in (0, 1, 32, 33, 64, 777, length):
            assert count_rect(auto, n) == ref[n], (name, width, n)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_count_rect_equals_the_plain_sweep_on_the_mirror_quotient(name):
    # the quotient the CLI counts on, against the full automaton's sweep: every length to 40,
    # 31, 32 and 33 steps of k columns around the n > 32 floor, and lengths that jump past the proof
    for width in range(1, 9):
        try:
            auto = build_automaton(preset(name), width)
        except AutomatonError:
            continue
        k = 1
        with contextlib.suppress(NoTilingsError):
            k = len(_cyclic_classes(auto))
        lengths = {*range(41), 64, 100, 333, 777, 1100, 1500,
                   *(k * n + r for n in (31, 32, 33) for r in (0, k - 1))}
        ref = plain(auto, max(lengths))
        quotient = build_automaton(preset(name), width, mirror=True)
        for n in sorted(lengths):
            assert count_rect(quotient, n) == ref[n], (name, width, n)


def test_count_rect_jumps_where_series_steps(monkeypatch):
    # past the proof count_rect reads N(n) off the recurrence's characteristic polynomial,
    # while series still extends the recurrence count by count
    domino = build_automaton(preset("domino"), 8, mirror=True)
    ref = plain(domino, 2000)
    t4 = build_automaton(preset("tetromino-T"), 4, mirror=True)

    def refuse(*args):
        raise AssertionError("stepped")

    monkeypatch.setattr(automaton, "_extended", refuse)
    assert [count_rect(domino, n) for n in (600, 1999, 2000)] == [ref[600], ref[1999], ref[2000]]
    assert count_rect(t4, 20000) == 2 * 3**4999
    with pytest.raises(AssertionError, match="stepped"):
        series(domino, 600)


def count_json(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["count", *map(str, argv), "--json"])
    return code, out.getvalue() and json.loads(out.getvalue()), err.getvalue()


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_count_on_the_short_side_is_the_transposed_count(name):
    # length below the width: each preset is closed under transposition, so the width x length
    # count is the sweep of length rows over width columns, 0 where no tile fits in length rows;
    # past MAX_WIDTH the width side refuses
    for length in range(1, 9):
        try:
            ref = plain(build_automaton(preset(name), length), 512)
        except AutomatonError:
            ref = [0] * 513
        for width in (9, 12, 40, 100, 333, 512):
            report = {"command": "count", "tiles": name, "width": width, "length": length,
                      "count": str(ref[width])}
            assert count_json("--tiles", name, "--width", width, "--length", length) == (
                0, report, ""), (width, length)
        assert count_json("--tiles", name, "--width", 513, "--length", length) == (
            1, "", "error: width 513 exceeds the 512-row strip budget\n")


def test_count_on_the_short_side_falls_back_to_the_width(monkeypatch, tmp_path):
    # the 8-bar with the monomino: transposed, of reach 7, over the state budget at lengths
    # 9-12, so count takes the width side, where each column of w cells has f(w) fillings,
    # f(w) = f(w - 1) + f(w - 8) from f = 1 below 8
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bars.tiles").write_text("@symmetry: none\n" + "#\n" * 8 + "\n#\n")
    f = [1] * 8
    while len(f) <= 40:
        f.append(f[-1] + f[-8])
    for width, length in ((12, 10), (40, 12), (24, 9), (12, 40)):
        code, report, err = count_json("--tiles", "bars.tiles", "--width", width, "--length", length)
        assert (code, report["count"], err) == (0, str(f[width] ** length), ""), (width, length)


@pytest.mark.parametrize("primes", [(2, 3, 5), (3, 2)])
def test_word_primes_only_propose(monkeypatch, proposals, primes):
    # tiny primes first, then the primes _primes draws below 2^31 - 1: the tiny registers
    # propose wrong lengths and lifts that the exact checks reject, so every count stays
    # exact, every lift returned holds on its counts, and strip_gf gives the r0 path's gf,
    # from the 2 r0 + 2 terminal or, past the r0 < 16 route, from a proof
    monkeypatch.setattr(automaton, "_PRIMES", [*primes, 2**31 - 1])
    terminal = []
    monkeypatch.setattr(gf, "infer_recurrence",
                        lambda terms: terminal.append(len(terms)) or infer_recurrence(terms))
    for name in sorted(PRESETS):
        for width in range(1, 9):
            try:
                auto = build_automaton(preset(name), width)
            except AutomatonError:
                continue
            if len(auto.states) < 300:
                assert list(series(auto, 600).terms) == plain(auto, 600), (name, width)
                terminal.clear()
                try:
                    g = strip_gf(auto)
                except NoTilingsError:
                    continue
                assert g == r0_path(auto), (name, width)
                r0 = len(_cyclic_classes(auto)[0])
                assert terminal == [2 * r0 + 2] or r0 >= 16 and not terminal, (name, width)
    assert all(holds(terms, c) for terms, c in proposals if c is not None)
    assert any(c is None for _, c in proposals)


@pytest.fixture
def drawn(monkeypatch):
    # how many primes _lift draws, the first included
    count = [0]

    def counting():
        for p in _primes():
            count[0] += 1
            yield p

    monkeypatch.setattr(automaton, "_primes", counting)
    return count


def test_primes_are_the_primes_below_2_31_descending(monkeypatch):
    sympy = pytest.importorskip("sympy")
    monkeypatch.setattr(automaton, "_PRIMES", [2**31 - 1])
    want = sorted(sympy.primerange(2**31 - 50_000, 2**31), reverse=True)[:2000]
    assert len(want) == 2000
    assert list(islice(_primes(), 2000)) == want
    assert automaton._PRIMES == want  # drawn once: a second walk reads the cache
    assert list(islice(_primes(), 2000)) == want


def test_threads_drawing_primes_at_once_share_one_cache(monkeypatch):
    # _PRIMES is one cache for the process: threads that extend it at once, switching every
    # microsecond, must neither skip nor repeat a prime
    monkeypatch.setattr(automaton, "_PRIMES", [2**31 - 1])
    want = list(islice(_primes(), 300))
    monkeypatch.setattr(automaton, "_PRIMES", [2**31 - 1])
    got = [None] * 8

    def draw(i):
        got[i] = list(islice(_primes(), 300))

    threads = [threading.Thread(target=draw, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [want] * 8 and automaton._PRIMES == want


def lift(terms):
    # _lift as infer_recurrence calls it: the register mod the first prime, rho = n max|a|
    c = deque(_registers(terms, automaton._PRIMES[0]), maxlen=1)[0]
    return _lift(terms, c, len(terms) * max(map(abs, terms))), len(c) - 1


def test_lift_settles_a_1000_bit_coefficient(drawn):
    # a(t) = r a(t-1) - a(t-2): 14 primes, whose product has 434 bits, lift no 1000-bit r
    r = 2**1000 + 297
    terms = [1, r]
    while len(terms) < 8:
        terms.append(r * terms[-1] - terms[-2])
    assert lift(terms) == ((r, -1), 2)
    assert drawn[0] == 34  # 33 primes of 31 bits pass 2 r, a 34th confirms the lift
    assert infer_recurrence(terms) == LinearRecurrence(2, (r, -1), 2)


def test_lift_of_a_non_integral_register_ends_at_the_cap(drawn):
    # a(t) = (2^100 + 1)^t 3^(10-t): the register 1 - (2^100 + 1) / 3 z is not integral, so no
    # lift holds, and _lift gives None at the first prime that takes the modulus past the cap
    terms = [(2**100 + 1) ** t * 3 ** (10 - t) for t in range(11)]
    coeffs, length = lift(terms)
    cap = 2 * (1 + len(terms) * max(terms)) ** length
    primes = list(islice(_primes(), drawn[0]))
    assert coeffs is None and length == 1
    assert prod(primes[:-1]) <= cap < prod(primes)
    with pytest.raises(RecurrenceError, match="11 terms leave 10 past the linear complexity 1"):
        infer_recurrence(terms)


def test_strip_gf_past_the_fourteen_prime_wall():
    # tromino-right width 11: a den of 277 terms with 641-bit coefficients, which the
    # 14 primes below 2^31 once capped; checked against the sweep and the Perron root
    auto = build_automaton(preset("tromino-right"), 11)
    g = strip_gf(auto)
    assert (len(g.den), g.step) == (277, 3)
    assert max(abs(c) for c in g.den).bit_length() == 641
    assert expand(g, 40) == list(series(auto, 120).terms[::3])
    assert dominant_root(g) ** (1 / 3) == pytest.approx(perron_root(auto), rel=1e-12)


def test_residual_rejects_a_fit_of_the_prefix_only(proposals):
    # start self-loop plus a 40-cycle through the start: a(t) = a(t-1) + a(t-40).  The
    # counts start 1, 1, 1, ..., so a(t) = a(t-1) holds on every count swept at the
    # tries t = 2, 5, 11 and 23, but its residual vector is nonzero
    edges = (((0, 1), (1, 1)),) + tuple((((i + 1) % 40, 1),) for i in range(1, 40))
    auto = TransferAutomaton(1, 0, tuple(range(40)), edges)
    assert list(series(auto, 400).terms) == plain(auto, 400)
    assert [(len(terms) - 1, c) for terms, c in proposals[:4]] == [
        (2, (1,)), (5, (1,)), (11, (1,)), (23, (1,))]
    assert all(holds(terms, c) for terms, c in proposals[:4])


@settings(max_examples=60, deadline=None)
@given(
    shapes=st.lists(GROWTH, min_size=1, max_size=2),
    symmetry=st.sampled_from(["all", "rotations", "none"]),
    width=st.integers(1, 6),
)
def test_counts_equal_the_plain_sweep_on_random_tile_sets(shapes, symmetry, width):
    tiles = parse_tile_file(f"@symmetry: {symmetry}\n" + "\n\n".join(map(_grid, shapes)))
    try:
        auto = build_automaton(tiles, width)
    except AutomatonError:
        return
    ref = plain(auto, 400)
    assert list(series(auto, 400).terms) == ref
    assert [count_rect(auto, n) for n in (33, 199, 400)] == [ref[33], ref[199], ref[400]]


@functools.lru_cache(maxsize=None)
def cos2(n):
    # 4 cos^2(pi k / (n + 1)) for k = 1..n / 2, to more digits than any count checked here
    with mpmath.workdps(720):
        return [4 * mpmath.cos(mpmath.pi * k / (n + 1)) ** 2 for k in range(1, n // 2 + 1)]


def ktf(m, n):
    """Domino tilings of an m x n rectangle by the Kasteleyn-Temperley-Fisher product
    of 4 cos^2(pi j / (m + 1)) + 4 cos^2(pi k / (n + 1)), j <= m / 2, k <= n / 2."""
    if m * n % 2:
        return 0
    with mpmath.workdps(m * n // 7 + 30):  # the count has under 0.127 m n digits
        return int(mpmath.nint(mpmath.fprod(a + b for a in cos2(m) for b in cos2(n))))


def test_domino_counts_match_the_kasteleyn_product():
    assert [ktf(2, n) for n in range(8)] == [1, 1, 2, 3, 5, 8, 13, 21]
    assert ktf(8, 8) == 12988816
    for m in range(1, 13):
        auto = build_automaton(preset("domino"), m)
        assert list(series(auto, 120).terms) == [ktf(m, n) for n in range(121)], m
        for n in (0, 1, 33, 64, 97, 120):
            assert count_rect(auto, n) == ktf(m, n), (m, n)
    assert count_rect(build_automaton(preset("domino"), 8), 600) == ktf(8, 600)


def ktf_root(m):
    """Growth rate of width-m domino strips, the product over j = 1..ceil(m / 2) of
    c + sqrt(1 + c^2), c = cos(pi j / (m + 1)): the largest eigenvalue of the
    Kasteleyn-Temperley-Fisher transfer matrix."""
    with mpmath.workdps(60):
        cs = [mpmath.cos(mpmath.pi * j / (m + 1)) for j in range(1, (m + 1) // 2 + 1)]
        return mpmath.fprod(c + mpmath.sqrt(1 + c * c) for c in cs)


@pytest.mark.parametrize("m", range(2, 17, 2))
def test_domino_growth_matches_the_kasteleyn_root(m):
    # perron_root within its tolerance; at widths to 12 the gf's den has order 2^(m/2),
    # and dominant_root, which rounds the root it isolates to a double, is lam rounded
    lam = ktf_root(m)
    auto = build_automaton(preset("domino"), m)
    assert perron_root(auto) == pytest.approx(float(lam), rel=PERRON_TOL, abs=0)
    if m <= 12:
        g = strip_gf(auto)
        assert (len(g.den) - 1, g.step) == (2 ** (m // 2), 1)
        assert dominant_root(g) == float(lam)


@pytest.mark.parametrize("width", [5, 6, 7])
def test_widths_with_no_tiling_count_zero_past_length_zero(width):
    auto = build_automaton(preset("tetromino-T"), width)
    for length in (0, 8, 32, 33, 200):
        assert series(auto, length).terms == (1,) + (0,) * length
        assert count_rect(auto, length) == (length == 0)
    for command in ("count", "series"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([command, "--tiles", "tetromino-T", "--width", str(width),
                         "--length", "40", "--json"])
        key, want = ("count", "0") if command == "count" else ("series", ["1"] + ["0"] * 40)
        assert code == 0 and json.loads(out.getvalue())[key] == want


# hand-built automata that build_automaton never returns: not trimmed, with states
# that never return to the start or are never reached, or no closed walk at all
UNTRIMMED = {
    "dead end": (((0, 1),), ()),
    "dies out": (((1, 1), (2, 1)), ((2, 1),), ()),
    "growing dead end": (((0, 1), (1, 1)), ((1, 2),)),
    "unreachable": (((0, 1),), ((0, 1), (1, 1))),
    "period 2 with a dead end": (((1, 1), (2, 1)), ((0, 3),), ((3, 1),), ((2, 1),)),
}


@pytest.mark.parametrize("name", sorted(UNTRIMMED))
def test_untrimmed_hand_built_automata_keep_their_counts(name):
    edges = UNTRIMMED[name]
    auto = TransferAutomaton(1, 1, tuple(range(len(edges))), edges)
    ref = matrix_power(auto, 150)
    assert plain(auto, 150) == ref
    assert list(series(auto, 150).terms) == ref
    assert [count_rect(auto, n) for n in (0, 1, 40, 150)] == [ref[0], ref[1], ref[40], ref[150]]
