import dataclasses
import math

import pytest

from tesserae import (
    RationalGF,
    SpectralError,
    build_automaton,
    detect_step,
    dominant_root,
    entropy_lower,
    entropy_upper,
    make_tileset,
    parse_polyomino,
    perron_root,
    preset,
    residual,
    series,
    strip_entropy,
    strip_gf,
    trim_reachable,
)

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
        # den = 1 + z: the only root of x + 1 is negative
        with pytest.raises(SpectralError):
            dominant_root(RationalGF((1,), (1, 1), 1))


class TestPerron:
    def test_t_tetromino_fourth_root_of_three(self):
        auto = trim_reachable(build_automaton(preset("tetromino-T"), 4))
        assert abs(perron_root(auto) ** 4 - 3.0) < 1e-9

    def test_tromino_width4_cubed(self):
        auto = trim_reachable(build_automaton(preset("tromino-right"), 4))
        assert abs(perron_root(auto) ** 3 - 6.545607708474811) < 1e-9

    def test_domino_width2_golden_ratio(self):
        auto = trim_reachable(build_automaton(preset("domino"), 2))
        assert abs(perron_root(auto) - GOLDEN_RATIO) < 1e-12

    def test_consistency_with_dominant_root(self):
        for name, width in [
            ("monomino", 3),
            ("domino", 2),
            ("domino", 3),
            ("tromino-right", 4),
            ("tetromino-L", 4),
            ("tetromino-T", 4),
        ]:
            auto = build_automaton(preset(name), width)
            step = detect_step(series(auto, 12))
            g = strip_gf(auto)
            assert abs(perron_root(trim_reachable(auto)) ** step - dominant_root(g)) < 1e-9

    def test_extra_transition_never_decreases(self):
        auto = trim_reachable(build_automaton(preset("domino"), 2))
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
            auto = trim_reachable(build_automaton(preset(name), width))
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
        auto = trim_reachable(build_automaton(preset("domino"), width))
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
