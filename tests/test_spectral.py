import dataclasses
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_automaton import GROWTH, _grid
from test_gf import _mul, checked_classes, detect_step, r0_path

from tesserae import (
    AutomatonError,
    NoTilingsError,
    RationalGF,
    SpectralError,
    build_automaton,
    dominant_root,
    entropy_lower,
    entropy_upper,
    expand,
    faultfree,
    from_faultfree,
    make_tileset,
    parse_polyomino,
    parse_tile_file,
    perron_root,
    preset,
    residual,
    series,
    strip_entropy,
    strip_gf,
)
from tesserae import spectral
from tesserae.poly import PRESETS
from tesserae.spectral import PERRON_TOL

GOLDEN_RATIO = (1 + math.sqrt(5)) / 2


class TestDominantRoot:
    def test_t_tetromino_exactly_three(self):
        assert dominant_root(RationalGF((1, -1), (1, -3), 4)) == 3.0

    def test_domino_width2_golden_ratio(self):
        g = strip_gf(build_automaton(preset("domino"), 2))
        assert abs(dominant_root(g) - GOLDEN_RATIO) < 1e-13

    def test_residual_tiny(self):
        for name, width in [("tromino-right", 4), ("tromino-right", 5), ("tetromino-L", 4)]:
            g = strip_gf(build_automaton(preset(name), width))
            assert residual(g, dominant_root(g)) < 1e-14

    def test_constant_denominator(self):
        with pytest.raises(SpectralError):
            dominant_root(RationalGF((1, 1), (1,), 1))

    def test_no_positive_root(self):
        # den = 1 + z: the only root of x + 1 is negative; refused at once,
        # however far the root bound reaches
        for den in [(1, 1), (1, 30)]:
            start = time.perf_counter()
            with pytest.raises(SpectralError):
                dominant_root(RationalGF((1,), den, 1))
            assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "den",
        [
            (1, -6, 6, 18, -27),  # (x - 3)^2 (x^2 - 3): sqrt(3) is simple, 3 double
            (1, -5, 14, -13),  # real root 1.478, complex pair of real part 1.761
        ],
    )
    def test_rightmost_root_not_real_and_simple(self, den):
        with pytest.raises(SpectralError):
            dominant_root(RationalGF((1,), den, 1))


def float_residual(g, root):
    # the float sum, which residual keeps wherever it is finite
    value = scale = 0.0
    power = 1.0
    for c in reversed(g.den):
        value += c * power
        scale += abs(c) * power
        power *= root
    return abs(value) / scale


class TestResidualPastTheFloatRange:
    # p = x^401 den(1/x) = (x - 7)(x^400 + 1); 7^i overflows a float from i = 365
    WIDE_POWER = RationalGF((1,), tuple(_mul((1, -7), (1, *[0] * 399, 1))), 1)
    # p = (x - 3)^600, whose middle coefficients are past 2^1024
    WIDE_COEFFS = RationalGF((1,), tuple(math.comb(600, i) * (-3) ** i for i in range(601)), 1)

    def test_powers_past_the_float_range(self):
        assert math.isnan(float_residual(self.WIDE_POWER, 7.0))
        assert residual(self.WIDE_POWER, 7.0) == 0.0
        # |p| / scale = (x - 7)(x^400 + 1) / ((x + 7)(x^400 + 1)) = 1/29 at 7.5
        assert residual(self.WIDE_POWER, 7.5) == 1 / 29

    def test_coefficients_past_the_float_range(self):
        with pytest.raises(OverflowError):
            float_residual(self.WIDE_COEFFS, 3.0)
        assert residual(self.WIDE_COEFFS, 3.0) == 0.0
        # |x - 3|^600 / (x + 3)^600, correctly rounded
        assert residual(self.WIDE_COEFFS, 3000.0) == float(Fraction(2997, 3003) ** 600)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_residual_keeps_the_float_sum_on_preset_strips(name):
    for width in range(1, 9):
        try:
            g = strip_gf(build_automaton(preset(name), width, mirror=True))
        except (AutomatonError, NoTilingsError):
            continue  # entropy answers no residual here
        root = dominant_root(g)
        assert residual(g, root).hex() == float_residual(g, root).hex(), width


# (float.hex of dominant_root(strip_gf(auto)), step) where strip_gf takes
# seconds: L width 7 (2 s, the ROOT_HEX value below) and width 8 (40 s,
# degree 200)
SLOW_GF_ROOTS = {
    ("tetromino-L", 7): ("0x1.626ebc9fbb61bp+16", 8),
    ("tetromino-L", 8): ("0x1.72c8596f70a7dp+2", 1),
}


class TestPerron:
    def test_t_tetromino_fourth_root_of_three(self):
        auto = build_automaton(preset("tetromino-T"), 4)
        assert abs(perron_root(auto) ** 4 - 3.0) < 1e-9

    def test_tromino_width4_cubed(self):
        auto = build_automaton(preset("tromino-right"), 4)
        assert abs(perron_root(auto) ** 3 - 6.545607708474811) < 1e-9

    def test_domino_width2_golden_ratio(self):
        auto = build_automaton(preset("domino"), 2)
        assert abs(perron_root(auto) - GOLDEN_RATIO) < 1e-12

    def test_unsettled_iteration_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "PERRON_MAX_ITER", 1)
        with pytest.raises(SpectralError, match="power iteration did not settle"):
            perron_root(build_automaton(preset("tromino-right"), 4))

    def test_consistency_with_dominant_root(self):
        # perron_root on build_automaton output as it comes, every preset up to
        # width 8: the gf route's growth per column where a strip tiling
        # exists, 0.0 at once where none does (the T at widths 2, 3, 5, 6 and
        # 7, whose trimmed automaton is the start state alone, with no edge)
        for name in PRESETS:
            for width in range(1, 9):
                try:
                    auto = build_automaton(preset(name), width)
                except AutomatonError:
                    continue
                start = time.perf_counter()
                lam = perron_root(auto)
                elapsed = time.perf_counter() - start
                if (name, width) in SLOW_GF_ROOTS:
                    root, step = SLOW_GF_ROOTS[name, width]
                    root = float.fromhex(root)
                else:
                    try:
                        g = strip_gf(auto)
                    except NoTilingsError:
                        assert lam == 0.0 and elapsed < 0.1, (name, width)
                        continue
                    root, step = dominant_root(g), g.step
                assert lam == pytest.approx(root ** (1 / step), rel=PERRON_TOL, abs=0), (name, width)

    def test_extra_transition_never_decreases(self):
        auto = build_automaton(preset("domino"), 2)
        base = perron_root(auto)
        n = len(auto.states)
        for i in range(n):
            for j in range(n):
                out = dict(auto.edges[i])
                out[j] = out.get(j, 0) + 1
                edges = list(auto.edges)
                edges[i] = tuple(sorted(out.items()))
                bumped = dataclasses.replace(auto, edges=tuple(edges))
                assert perron_root(bumped) >= base - 1e-12

    def test_row_sum_bracketing(self):
        for name, width in [("domino", 2), ("tromino-right", 4), ("tetromino-L", 4)]:
            auto = build_automaton(preset(name), width)
            sums = [sum(w for _, w in out) for out in auto.edges]
            lam = perron_root(auto)
            assert min(s for s in sums if s) - 1e-9 <= lam <= max(sums) + 1e-9


class TestEntropyLower:
    def test_paper_values(self):
        assert abs(entropy_lower(12.36366722455963, 15) - 0.1676508) < 1e-6
        assert abs(entropy_lower(4.346016411416493, 8) - 0.183657) < 1e-5
        assert abs(entropy_lower(3.0, 16) - 0.06866) < 1e-4

    def test_growth_one_gives_zero(self):
        assert entropy_lower(1.0, 7) == 0.0

    def test_rejects_decay(self):
        with pytest.raises(SpectralError):
            entropy_lower(0.5, 4)

    def test_rejects_no_sites(self):
        with pytest.raises(SpectralError, match="sites_per_step must be positive"):
            entropy_lower(2.0, 0)


class TestEntropyUpper:
    @pytest.mark.parametrize(
        "name, expected",
        [
            ("tromino-right", math.log(4) / 3),
            ("tetromino-L", math.log(8) / 4),
            ("tetromino-T", math.log(4) / 4),
        ],
    )
    def test_scanning_bounds(self, name, expected):
        assert entropy_upper(preset(name)) == pytest.approx(expected, abs=1e-15)

    def test_mixed_areas_refused(self):
        mixed = make_tileset([parse_polyomino("#"), parse_polyomino("##")])
        with pytest.raises(SpectralError):
            entropy_upper(mixed)


def test_domino_strip_entropy_converges_toward_dimer_constant():
    # per-site entropy of even-width domino strips climbs toward the known
    # plane value, Catalan/pi; odd widths sit lower from a parity effect,
    # so the monotone chain is the even one
    catalan_over_pi = 0.915965594177219 / math.pi
    sigmas = []
    for width in (2, 4, 6, 8):
        auto = build_automaton(preset("domino"), width)
        sigmas.append(entropy_lower(perron_root(auto), width))
    assert sigmas == sorted(sigmas)
    assert all(s < catalan_over_pi for s in sigmas)
    assert 0.27 <= sigmas[-1] <= 0.29156


class TestStripEntropy:
    def test_sites_per_step_bookkeeping(self):
        g = strip_gf(build_automaton(preset("tromino-right"), 5))
        report = strip_entropy(g, 5)
        assert report.sites_per_step == 15  # 5 rows x 3 columns per step
        assert report.sigma_lower == pytest.approx(math.log(report.lambda_) / 15, abs=1e-15)
        assert report.residual < 1e-14

    def test_t_tetromino(self):
        g = strip_gf(build_automaton(preset("tetromino-T"), 4))
        report = strip_entropy(g, 4)
        assert report.sites_per_step == 16
        assert report.lambda_ == 3.0


# float.hex of the growth rate of each preset strip, recorded with the earlier
# ratio-seeded rational bisection, an independent root search; --json prints
# 12 digits, so these pin every bit of the float
ROOT_HEX = {
    ("domino", 2): "0x1.9e3779b97f4a8p+0",
    ("domino", 3): "0x1.ddb3d742c2655p+1",
    ("domino", 4): "0x1.6b96b0a45efe2p+1",
    ("domino", 5): "0x1.91666fb332a49p+3",
    ("domino", 6): "0x1.432176315d291p+2",
    ("domino", 7): "0x1.4963c564ac534p+5",
    ("domino", 8): "0x1.203a249514a2dp+3",
    ("domino", 9): "0x1.0bdb84cca291bp+7",
    ("domino", 10): "0x1.0180a9bb7ec43p+4",
    ("tromino-right", 4): "0x1.a2eb3c9816118p+2",
    ("tromino-right", 5): "0x1.8ba32972838aep+3",
    ("tromino-right", 6): "0x1.947639bcc28c3p+1",
    ("tromino-right", 7): "0x1.0d111d9e16322p+6",
    ("tromino-right", 8): "0x1.38b57cd5bef29p+7",
    ("tromino-right", 9): "0x1.c6659269be21bp+2",
    ("tetromino-L", 4): "0x1.16252204ba708p+2",
    ("tetromino-L", 5): "0x1.ed10d0d2c74fdp+9",
    ("tetromino-L", 6): "0x1.0a33f53833d39p+7",
    ("tetromino-L", 7): "0x1.626ebc9fbb61bp+16",
    ("tetromino-T", 8): "0x1.c2a5fd9b1ee1dp+3",
    ("tetromino-T", 12): "0x1.0b3cccd213e1ep+6",
}


@pytest.mark.parametrize("name, width", ROOT_HEX, ids=[f"{n}-{w}" for n, w in ROOT_HEX])
def test_preset_roots_pinned(name, width):
    g = strip_gf(build_automaton(preset(name), width))
    assert dominant_root(g).hex() == ROOT_HEX[name, width]


@settings(max_examples=200, deadline=None)
@given(
    shapes=st.lists(GROWTH, min_size=1, max_size=2),
    symmetry=st.sampled_from(["all", "rotations", "none"]),
    width=st.integers(1, 4),
)
def test_independent_routes_agree_on_random_tile_sets(shapes, symmetry, width):
    tiles = parse_tile_file(f"@symmetry: {symmetry}\n" + "\n\n".join(map(_grid, shapes)))
    try:
        auto = build_automaton(tiles, width)
    except AutomatonError:
        return
    # closed walks through the start of length below 2 * states already have
    # the period as their gcd: for each edge i -> j, BFS path to i, the edge
    # and a path home, against BFS path to j and the same path home
    prefix = series(auto, 2 * len(auto.states))
    try:
        classes = checked_classes(auto)
    except NoTilingsError:
        with pytest.raises(NoTilingsError):
            detect_step(prefix)
        return
    step, r0 = len(classes), len(classes[0])
    assert detect_step(prefix) == step
    # every tile set this strategy can draw has a start class of at most 625 states, so
    # every gf route runs: the largest, the L-tetromino and I-pentomino under rotations at
    # width 4 (r0 = 500, order 445) and domino plus I-pentomino (r0 = 625, order 320),
    # take about a second each.  RationalGF's gcd, which strip_gf's proved gf skips, takes
    # seconds to a minute past r0 = 200 on these sets, as does the r0 path, whose exact
    # Berlekamp-Massey always reads 2 r0 + 2 terms: both are checked up to r0 = 200
    g = strip_gf(auto)
    assert g.step == step
    if r0 <= 200:
        assert g == r0_path(auto)
        for h in (g, faultfree(g), from_faultfree(faultfree(g))):
            assert h == RationalGF(h.num, h.den, h.step)
    assert expand(g, 30) == list(series(auto, 30 * step).terms[::step])
    assert perron_root(auto) ** step == pytest.approx(dominant_root(g), rel=1e-9, abs=0)


@settings(deadline=None, max_examples=150)
@given(
    factor=st.lists(st.integers(-20, 20), max_size=2),
    power=st.integers(0, 3),
    tail=st.lists(st.integers(-20, 20), max_size=5),
)
def test_dominant_root_matches_sympy(factor, power, tail):
    # planted repeated factors give multiple roots; zero tails give constants
    sympy = pytest.importorskip("sympy")
    den = [1, *tail]
    for _ in range(power):
        den = _mul(den, [1, *factor])
    g = RationalGF((1,), tuple(den), 1)
    if len(g.den) < 2:
        return
    x = sympy.Symbol("x")
    factors = sympy.Poly(g.den, x).sqf_list()[1]
    roots = [(z, m) for f, m in factors for z in f.nroots(n=60, maxsteps=500)]
    r, m = max(((z, m) for z, m in roots if z.is_real), key=lambda t: t[0], default=(0, 1))
    try:
        got = dominant_root(g)
    except SpectralError:
        got = None
    if r <= 0 or m > 1:
        assert got is None
    elif all(sympy.re(z) < r * (1 - 1e-9) for z, _ in roots if z != r):
        assert got == float(r)
    else:
        # another root at, right of or within 1e-9 r of r in real part:
        # Descartes' rule counts a complex pair near the axis, not one far off it
        assert got in (None, float(r))
