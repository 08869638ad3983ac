import hashlib
from itertools import islice
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tesserae import (
    LinearRecurrence,
    NoTilingsError,
    RationalGF,
    RecurrenceError,
    TransferAutomaton,
    build_automaton,
    expand,
    faultfree,
    from_faultfree,
    infer_recurrence,
    poly_gcd,
    preset,
    recurrence_to_gf,
    series,
    strip_gf,
)
from tesserae import automaton, gf
from tesserae.automaton import _sweep, _vanishes
from tesserae.gf import _cyclic_classes
from tesserae.poly import PRESETS

TROMINO4 = RationalGF((1, -6), (1, -10, 22, 4), 3)
TROMINO5 = RationalGF((1, -2, -31, -40, -20), (1, -2, -103, -280, -380), 3)
ELL4 = RationalGF((1, -2, 0, -1), (1, -4, -2, 1, 4, 4, 2), 2)
TEE4 = RationalGF((1, -1), (1, -3), 4)
PAPER_GFS = [TROMINO4, TROMINO5, ELL4, TEE4]


def strip_series(name, width, length):
    return series(build_automaton(preset(name), width), length)


def detect_step(s):
    """Gcd of all lengths n >= 1 with a nonzero count: the series-side oracle
    for the graph period that strip_gf takes as its resampling step k."""
    k = 0
    for n, term in enumerate(s.terms):
        if n and term:
            k = gcd(k, n)
    if not k:
        raise NoTilingsError(f"width {s.width} admits no tiling of any positive length")
    return k


class TestDetectStep:
    # the length step is the number of the start's cyclic classes
    def test_t_tetromino(self):
        assert len(_cyclic_classes(build_automaton(preset("tetromino-T"), 4))) == 4

    def test_tromino_width5(self):
        # no 5x3 tilings, so the period comes from closed walks of 6, 9, 12, ... columns
        assert len(_cyclic_classes(build_automaton(preset("tromino-right"), 5))) == 3

    def test_monomino(self):
        assert _cyclic_classes(build_automaton(preset("monomino"), 1)) == [[0]]

    def test_all_zero_raises(self):
        with pytest.raises(NoTilingsError):
            _cyclic_classes(build_automaton(preset("tetromino-T"), 2))


class TestInferRecurrence:
    def test_geometric_with_transient(self):
        rec = infer_recurrence([1, 2, 6, 18, 54])
        assert rec == LinearRecurrence(order=1, coeffs=(3,), valid_from=2)

    def test_pure_geometric(self):
        rec = infer_recurrence([1, 2, 4, 8, 16])
        assert (rec.order, rec.coeffs, rec.valid_from) == (1, (2,), 1)

    def test_tromino_width4_order3(self):
        a = strip_series("tromino-right", 4, 36).terms[::3]
        rec = infer_recurrence(a)
        assert (rec.order, rec.coeffs) == (3, (10, -22, -4))

    def test_fibonacci(self):
        rec = infer_recurrence([1, 1, 2, 3, 5, 8, 13, 21, 34])
        assert (rec.order, rec.coeffs, rec.valid_from) == (2, (1, 1), 2)

    def test_zero_terms_participate(self):
        a = strip_series("tromino-right", 5, 36).terms[::3]
        assert a[1] == 0
        rec = infer_recurrence(a)
        assert rec.coeffs == (2, 103, 280, 380)
        assert rec.valid_from == 5

    def test_eventually_zero(self):
        rec = infer_recurrence([3, 1, 4, 0, 0, 0, 0])
        assert (rec.order, rec.valid_from) == (0, 3)

    def test_no_fit_raises(self):
        with pytest.raises(RecurrenceError):
            infer_recurrence([1, 1, 2, 6, 24, 120, 720])  # factorial growth


class TestRecurrenceToGF:
    def test_tromino_width4(self):
        a = strip_series("tromino-right", 4, 36).terms[::3]
        assert recurrence_to_gf(infer_recurrence(a), a, step=3) == TROMINO4

    def test_tromino_width5(self):
        a = strip_series("tromino-right", 5, 42).terms[::3]
        assert recurrence_to_gf(infer_recurrence(a), a, step=3) == TROMINO5

    def test_l_tetromino(self):
        a = strip_series("tetromino-L", 4, 40).terms[::2]
        assert recurrence_to_gf(infer_recurrence(a), a, step=2) == ELL4

    def test_t_tetromino(self):
        a = strip_series("tetromino-T", 4, 48).terms[::4]
        assert recurrence_to_gf(infer_recurrence(a), a, step=4) == TEE4

    def test_too_few_terms(self):
        rec = LinearRecurrence(order=2, coeffs=(1, 1), valid_from=2)
        with pytest.raises(ValueError):
            recurrence_to_gf(rec, [1, 1, 2])


class TestStripGF:
    @pytest.mark.parametrize(
        "name, width, expected",
        [
            ("tromino-right", 4, TROMINO4),
            ("tromino-right", 5, TROMINO5),
            ("tetromino-L", 4, ELL4),
            ("tetromino-T", 4, TEE4),
        ],
    )
    def test_paper_gfs(self, name, width, expected):
        assert strip_gf(build_automaton(preset(name), width)) == expected

    def test_no_tilings(self):
        with pytest.raises(NoTilingsError):
            strip_gf(build_automaton(preset("tetromino-T"), 2))


class TestExpand:
    def test_tromino_width4(self):
        assert expand(TROMINO4, 5) == [1, 4, 18, 88, 468, 2672]

    def test_geometric(self):
        assert expand(RationalGF((1,), (1, -1)), 4) == [1, 1, 1, 1, 1]

    def test_l_tetromino_tail(self):
        assert expand(ELL4, 10)[-1] == 1224182

    def test_zero_gf(self):
        assert expand(RationalGF((0,), (1,)), 3) == [0, 0, 0, 0]

    def test_negative_length(self):
        with pytest.raises(ValueError, match="length must be nonnegative"):
            expand(RationalGF((1,), (1, -1)), -1)


class TestFaultfree:
    def test_tromino_width4(self):
        ff = faultfree(TROMINO4)
        assert (ff.num, ff.den) == ((0, 4, -22, -4), (1, -6))
        terms = expand(ff, 10)
        assert terms[1:7] == [4, 2, 8, 48, 288, 1728]
        assert all(terms[t] == 8 * 6 ** (t - 3) for t in range(3, 11))

    def test_tromino_width5(self):
        ff = faultfree(TROMINO5)
        assert (ff.num, ff.den) == ((0, 0, 72, 240, 360), (1, -2, -31, -40, -20))
        assert expand(ff, 10)[2:] == [
            72, 384, 3360, 21504, 163968, 1136640, 8283648, 58791936, 423121920,
        ]

    def test_l_tetromino(self):
        ff = faultfree(ELL4)
        assert ff.den == (1, -2, 0, -1)
        assert expand(ff, 10)[1:] == [2, 6, 10, 18, 38, 84, 186, 410, 904, 1994]

    def test_t_tetromino_two_per_size(self):
        ff = faultfree(TEE4)
        assert (ff.num, ff.den) == ((0, 2), (1, -1))
        assert expand(ff, 12)[1:] == [2] * 12

    def test_value_at_zero_is_zero(self):
        for g in PAPER_GFS:
            assert expand(faultfree(g), 0) == [0]

    def test_requires_unit_constant_term(self):
        with pytest.raises(ValueError):
            faultfree(RationalGF((2,), (1, -1)))

    def test_reassembly_requires_zero_constant_term(self):
        with pytest.raises(ValueError, match="reassembly needs g"):
            from_faultfree(RationalGF((1,), (1, -1)))

    def test_involution(self):
        for g in PAPER_GFS:
            assert from_faultfree(faultfree(g)) == g


# 2^31 - 1.  By Gauss's lemma a common factor of num and den over the rationals is an integer
# polynomial whose leading coefficient divides both of theirs; mod a prime that divides
# neither it keeps its degree, so a gcd mod that prime of degree 0 proves them coprime
GCD_PRIME = 2147483647


def _stripped_mod(p):
    p = [c % GCD_PRIME for c in p]
    while p and not p[-1]:
        p.pop()
    return p


def gcd_mod(p, q):
    """A gcd mod GCD_PRIME of two integer polynomials, lowest degree first: [] for zero."""
    a, b = _stripped_mod(p), _stripped_mod(q)
    while b:
        inv = pow(b[-1], -1, GCD_PRIME)
        while len(a) >= len(b):
            f, shift = a[-1] * inv % GCD_PRIME, len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= f * c
            a = _stripped_mod(a)
        a, b = b, a
    return a


def coprime_mod_p(num, den):
    """Whether den(0) = 1, both leading coefficients are nonzero and prime to GCD_PRIME, and
    the gcd mod GCD_PRIME is a nonzero constant: then num and den are coprime over ℚ."""
    lead_ok = num[-1] % GCD_PRIME and den[-1] % GCD_PRIME
    return den[0] == 1 and bool(lead_ok) and len(gcd_mod(num, den)) == 1


def assert_lowest_terms(h):
    # h == RationalGF(h.num, h.den, h.step), which runs poly_gcd: about 35 s for a den of
    # 201 terms, so past 100 terms coprime_mod_p stands in for it where it proves anything
    if len(h.den) > 100 and coprime_mod_p(h.num, h.den):
        return
    assert h == RationalGF(h.num, h.den, h.step)


class TestNormalization:
    def test_reduction_on_construction(self):
        # num and den share the factor (1 - z)
        g = RationalGF((1, -3, 2), (1, -1), 1)
        assert (g.num, g.den) == ((1, -2), (1,))

    def test_den_constant_term_one(self):
        with pytest.raises(ValueError):
            RationalGF((1,), (2, -1))

    @pytest.mark.parametrize("args, message", [
        (((1,), (0, 1)), "denominator needs a nonzero constant term"),
        (((1,), (1,), 0), "step must be positive"),
    ])
    def test_refused_on_construction(self, args, message):
        with pytest.raises(ValueError, match=message):
            RationalGF(*args)

    def test_coprime_after_operations(self):
        # the gfs that strip_gf proves, faultfree and from_faultfree skip RationalGF's gcd:
        # reducing them again changes nothing.  tetromino-L width 8 (order 200) is checked
        # mod GCD_PRIME; the third h equals g
        from tesserae import AutomatonError

        gfs = list(PAPER_GFS)
        for name in PRESETS:
            for width in range(1, 9):
                try:
                    gfs.append(strip_gf(build_automaton(preset(name), width)))
                except (AutomatonError, NoTilingsError):
                    continue
        assert max(len(g.den) for g in gfs) == 201
        for g in gfs:
            for h in (g, faultfree(g)):
                assert_lowest_terms(h)
            assert from_faultfree(faultfree(g)) == g

    def test_coprime_mod_p_catches_a_planted_factor(self):
        g = strip_gf(build_automaton(preset("tetromino-L"), 8))
        for h in (g, faultfree(g)):
            assert len(h.den) > 100 and coprime_mod_p(h.num, h.den)
            for factor in ((1, 2), (1, -1, 3), (1, 0, 0, 5)):
                assert not coprime_mod_p(_mul(h.num, factor), _mul(h.den, factor))
            # a leading coefficient that GCD_PRIME divides proves nothing
            assert not coprime_mod_p(_mul(h.num, (1, GCD_PRIME)), _mul(h.den, (1, 1)))
        # up to 100 den terms the exact check runs, and a planted factor fails it
        planted = gf._coprime(_mul(ELL4.num, (1, 2)), _mul(ELL4.den, (1, 2)), ELL4.step)
        with pytest.raises(AssertionError):
            assert_lowest_terms(planted)
        assert_lowest_terms(ELL4)

    def test_derived_gfs_skip_the_gcd(self, monkeypatch):
        # strip_gf's proved exit, faultfree and from_faultfree call no gcd; the exact route
        # below r0 = 16 still reduces through recurrence_to_gf
        calls = []
        monkeypatch.setattr(gf, "poly_gcd", lambda p, q: calls.append(p) or poly_gcd(p, q))
        auto = build_automaton(preset("domino"), 8)
        assert len(_cyclic_classes(auto)[0]) == 70
        g = strip_gf(auto)
        assert from_faultfree(faultfree(g)) == g
        assert calls == []
        strip_gf(build_automaton(preset("domino"), 2))
        assert calls


def test_round_trip_every_preset_width():
    # expand(infer(series)) reproduces the exact counts for every preset
    # and width up to 6 that admits any tiling at all, out to 60 resampled
    # terms: past every prefix that strip_gf reads here except for
    # tetromino-L width 6 (r0 = 68, order 29), where it reads the
    # 2 (r0 // 2) + 2 = 70 terms its exact check then proves
    from tesserae import AutomatonError

    for name in ["monomino", "domino", "tromino-right", "tetromino-L", "tetromino-T"]:
        for width in range(1, 7):
            try:
                auto = build_automaton(preset(name), width)
                g = strip_gf(auto)
            except (AutomatonError, NoTilingsError):
                continue
            a = list(series(auto, g.step * 60).terms[::g.step])
            assert expand(g, 60) == a, (name, width)


small_ints = st.integers(min_value=-5, max_value=5)


@settings(deadline=None, max_examples=80)
@given(
    num=st.lists(small_ints, min_size=1, max_size=5),
    den_tail=st.lists(small_ints, min_size=1, max_size=4),
)
def test_expand_infer_round_trip(num, den_tail):
    g = RationalGF(tuple(num), (1, *den_tail), 1)
    terms = expand(g, 23)
    rec = infer_recurrence(terms)
    assert recurrence_to_gf(rec, terms) == g  # the inferred recurrence is minimal


def expand_by_double_loop(g, length):
    # reference for expand: a[k] = num[k] - den[1] a[k-1] - ... - den[d] a[k-d] as a double loop
    out = []
    for k in range(length + 1):
        acc = g.num[k] if k < len(g.num) else 0
        for j in range(1, min(k, len(g.den) - 1) + 1):
            acc -= g.den[j] * out[k - j]
        out.append(acc)
    return out


wide_ints = st.integers(-(2**70), 2**70)


@settings(deadline=None, max_examples=150)
@given(num=st.lists(small_ints | wide_ints, min_size=1, max_size=9),
       den_tail=st.lists(small_ints | wide_ints, max_size=5), length=st.integers(0, 30))
@example(num=[3, 1, 4], den_tail=[], length=5)  # den = (1,)
@example(num=[1, 2, 3, 4, 5, 6], den_tail=[-1, 2], length=9)  # num longer than den
@example(num=[7, 1], den_tail=[-3], length=0)
def test_expand_matches_the_double_loop(num, den_tail, length):
    g = RationalGF(tuple(num), (1, *den_tail), 1)
    assert expand(g, length) == expand_by_double_loop(g, length)


def _mul(p, q):
    out = [0] * (len(p) + len(q) - 1) if p and q else []
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


@settings(deadline=None, max_examples=150)
@given(
    factor=st.lists(st.integers(-20, 20), min_size=0, max_size=4),
    u=st.lists(st.integers(-20, 20), min_size=0, max_size=6),
    v=st.lists(st.integers(-20, 20), min_size=0, max_size=6),
)
def test_poly_gcd_matches_sympy(factor, u, v):
    # planted common factor; empty or all-zero lists give zero polynomials
    # and one-element lists constants
    sympy = pytest.importorskip("sympy")
    p, q = _mul(factor, u), _mul(factor, v)
    x = sympy.Symbol("x")
    want = sympy.Poly(p[::-1] or [0], x, domain="ZZ").gcd(sympy.Poly(q[::-1] or [0], x))
    if want.is_zero:
        assert poly_gcd(p, q) == ()
        return
    want = want.primitive()[1]
    if want.LC() < 0:
        want = -want
    assert poly_gcd(p, q) == tuple(int(c) for c in reversed(want.all_coeffs()))


@settings(deadline=None, max_examples=80)
@given(
    num_tail=st.lists(small_ints, min_size=0, max_size=4),
    den_tail=st.lists(small_ints, min_size=1, max_size=4),
)
def test_faultfree_involution_random(num_tail, den_tail):
    g = RationalGF((1, *num_tail), (1, *den_tail), 1)
    assert from_faultfree(faultfree(g)) == g


def test_graph_period_step_matches_series_gcd():
    from tesserae import AutomatonError

    for name in ["monomino", "domino", "tromino-right", "tetromino-L", "tetromino-T"]:
        for width in range(1, 7):
            try:
                auto = build_automaton(preset(name), width)
            except AutomatonError:
                continue
            try:
                k = detect_step(series(auto, 24))
            except NoTilingsError:
                with pytest.raises(NoTilingsError):
                    _cyclic_classes(auto)
                continue
            assert len(_cyclic_classes(auto)) == k, (name, width)


def checked_classes(auto):
    # the start's cyclic classes, once checked to partition the states with
    # every edge i -> j running from class c to class c + 1 mod k, which
    # strip_gf relies on when it steps only the current class's sources
    classes = _cyclic_classes(auto)
    assert classes[0][0] == 0 and all(states == sorted(states) for states in classes)
    assert sorted(sum(classes, [])) == list(range(len(auto.states)))
    cls = {i: c for c, states in enumerate(classes) for i in states}
    for i, out in enumerate(auto.edges):
        for j, _ in out:
            assert cls[j] == (cls[i] + 1) % len(classes), (i, j)
    return classes


def test_cyclic_classes_partition_and_advance_every_preset_width():
    # test_independent_routes_agree_on_random_tile_sets checks random tile sets
    from tesserae import AutomatonError

    for name in PRESETS:
        for width in range(1, 9):
            try:
                checked_classes(build_automaton(preset(name), width))
            except (AutomatonError, NoTilingsError):
                continue


def r0_path(auto):
    # strip_gf's certificate before short prefixes: Berlekamp-Massey on the
    # 2 r0 + 2 resampled terms, certified by Cayley-Hamilton alone, by the
    # fraction-free reference, which uses no prime
    classes = _cyclic_classes(auto)
    k, r0 = len(classes), len(classes[0])
    a = series(auto, k * (2 * r0 + 1)).terms[::k]
    return recurrence_to_gf(massey_from_scratch(a), a, step=k)


def _digest(g):
    return hashlib.sha256(repr((g.num, g.den, g.step)).encode()).hexdigest()


# r0-path gfs that take seconds, as _digest of r0_path's result, recorded
R0_PATH_DIGESTS = {
    ("tetromino-L", 7): "69a10f65ec7ee508fc8834b2519adaf7801efd9615a44cadd05992afd1ae3236",
    # order 200: the r0 path takes about two minutes, strip_gf half a second
    ("tetromino-L", 8): "eaa8dc441c4aaaa04e58e1a1a0d8259fab215267ad8a0c6b1022432a86d1631e",
}


def test_strip_gf_matches_r0_path_every_preset_width():
    from tesserae import AutomatonError

    for name in PRESETS:
        for width in range(1, 9):
            try:
                auto = build_automaton(preset(name), width)
                g = strip_gf(auto)
            except (AutomatonError, NoTilingsError):
                continue
            if (name, width) in R0_PATH_DIGESTS:
                assert _digest(g) == R0_PATH_DIGESTS[name, width]
            else:
                assert g == r0_path(auto), (name, width)


def start_sweep(auto, k, steps):
    # x_t = e0 B^t, B = A^k, for t = 0..steps
    return list(islice(_sweep(auto, [range(len(auto.states))]), 0, k * steps + 1, k))


@pytest.fixture
def column_steps(monkeypatch):
    # counts the vectors _sweep computes past e0, one a column step: series and
    # strip_gf both reach it through automaton
    count = [0]

    def counting(*args):
        sweep = _sweep(*args)
        yield next(sweep)
        for x in sweep:
            count[0] += 1
            yield x

    monkeypatch.setattr(automaton, "_sweep", counting)
    return count


def test_annihilator_rejects_a_fit_of_the_prefix_only(column_steps):
    # start self-loop plus a 40-cycle through the start: a(t) = a(t-1) + a(t-40)
    edges = (((0, 1), (1, 1)),) + tuple((((i + 1) % 40, 1),) for i in range(1, 40))
    auto = TransferAutomaton(1, 0, tuple(range(40)), edges)
    a = list(series(auto, 9).terms)
    assert a == [1] * 10
    rec = infer_recurrence(a)
    assert rec == LinearRecurrence(order=1, coeffs=(1,), valid_from=1)
    assert not _vanishes(start_sweep(auto, 1, 9), rec.coeffs)
    column_steps[0] = 0
    g = strip_gf(auto)
    assert column_steps[0] == 2 * 40  # proved at t = 2 L, a step before the 2 r0 + 2 terminal
    assert g.den == (1, -1) + (0,) * 38 + (-1,)
    assert expand(g, 90) == list(series(auto, 90).terms)


def test_annihilator_steps_past_the_order():
    # tromino-right width 8: the start row's Krylov degree under B = A^3 is
    # 37, one more than the order, so the residual at t = valid_from is
    # nonzero but one B-step later it is zero
    auto = build_automaton(preset("tromino-right"), 8)
    a = series(auto, 3 * 79).terms[::3]
    rec = infer_recurrence(a)
    assert (rec.order, rec.valid_from) == (36, 36)
    xs = start_sweep(auto, 3, 37)
    assert not _vanishes(xs[:37], rec.coeffs)
    assert _vanishes(xs, rec.coeffs)


# column steps (vectors _sweep computes past e0) of strip_gf, and the counts from when it
# tried prefixes of 2 d + 2 terms and proved each fit by more B-steps
APPLY_CALLS = [
    ("domino", 10, 64, 97),
    ("domino", 9, 64, 98),
    ("tromino-right", 7, 108, 183),
    ("tetromino-T", 12, 40, 88),
]


@pytest.mark.parametrize("name, width, calls, tried", APPLY_CALLS)
def test_one_sweep_column_steps(column_steps, name, width, calls, tried):
    auto = build_automaton(preset(name), width)
    g = strip_gf(auto)
    assert column_steps[0] == calls < tried
    assert expand(g, 60) == list(series(auto, 60 * g.step).terms[::g.step])


def massey_from_scratch(terms):
    # reference Berlekamp-Massey over ℤ for infer_recurrence, with its own gap bookkeeping
    a = [int(x) for x in terms]
    n = len(a)
    c, b = (1,), (1,)
    length, gap, b_disc = 0, 1, 1
    for t in range(n):
        disc = sum(x * y for x, y in zip(c, a[t::-1]))
        if disc == 0:
            gap += 1
            continue
        nxt = [b_disc * x for x in c] + [0] * (len(b) + gap - len(c))
        for j, x in enumerate(b):
            nxt[j + gap] -= disc * x
        if 2 * length <= t:
            length, b, b_disc, gap = t + 1 - length, c, disc, 1
        else:
            gap += 1
        c = gf._primitive(nxt)
    poly = gf._strip(c)
    order = len(poly) - 1
    if n - length < order + 2 or any(x % poly[0] for x in poly):
        raise RecurrenceError(
            f"{n} terms leave {n - length} past the linear complexity {length}, "
            f"too few to check an order-{order} integer recurrence; supply a longer series"
        )
    return LinearRecurrence(order=order, coeffs=tuple(-x // poly[0] for x in poly[1:]),
                            valid_from=length)


def _outcome(fit, *args):
    try:
        return fit(*args)
    except RecurrenceError as e:
        return str(e)


@st.composite
def gf_expansions(draw):
    g = RationalGF(tuple(draw(st.lists(small_ints, min_size=1, max_size=5))),
                   (1, *draw(st.lists(small_ints, min_size=1, max_size=5))), 1)
    return expand(g, draw(st.integers(0, 30)))


@st.composite
def non_integral(draw):
    # sum of m p^t q^(n-t): roots p/q, so the minimal recurrence has
    # denominators unless every p is a multiple of q
    q, n = draw(st.integers(2, 5)), draw(st.integers(0, 24))
    parts = draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(-3, 3)), min_size=1, max_size=3))
    return [sum(m * p**t * q ** (n - t) for p, m in parts) for t in range(n + 1)]


@st.composite
def wide_expansions(draw):
    # den coefficients past 434 bits, the product of the 14 primes the lift once stopped at
    wide = st.sampled_from([2**700, -(3**450), 2**1000 + 297]) | st.integers(-(2**700), 2**700)
    g = RationalGF(tuple(draw(st.lists(small_ints, min_size=1, max_size=3))),
                   (1, *draw(st.lists(wide | small_ints, min_size=1, max_size=3))), 1)
    return expand(g, draw(st.integers(0, 12)))


sequences = st.one_of(gf_expansions(), st.lists(st.integers(-50, 50), max_size=24), non_integral(),
                      wide_expansions())


P31 = 2**31 - 1  # the first word prime, automaton._PRIMES[0]


@settings(deadline=None, max_examples=150)
@given(terms=sequences)
# the first prime divides a term, so its register is too short: a second prime settles each
@example(terms=[0, 3 * P31, 0, 0])
@example(terms=[0, P31])
@example(terms=[1, -P31])
@example(terms=[2 * P31])
@example(terms=[1, 1, P31 + 1])
def test_resumable_massey_matches_every_prefix(terms):
    for n in range(len(terms) + 1):
        assert _outcome(infer_recurrence, terms[:n]) == _outcome(massey_from_scratch, terms[:n])
