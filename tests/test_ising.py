import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tesserae import (
    BETA_CRITICAL,
    BETA_TILING,
    IsingError,
    eight_cell_bound,
    fylfot_sum,
    onsager_entropy,
    spin_weight_sum,
    t_tetromino_bound,
)
from tesserae.ising import MAX_GRID, onsager_estimate


class TestOnsager:
    def test_beta_zero_is_ln2(self):
        # integrand is identically ln(1) = 0, so the mean contributes nothing
        assert onsager_entropy(0.0, 64) == math.log(2.0)

    def test_paper_value_at_half_ln2(self):
        assert abs(onsager_entropy(BETA_TILING, 1024) - 0.8270269567) < 1e-9

    def test_grid_refinement_stable(self):
        assert abs(onsager_entropy(0.2, 512) - onsager_entropy(0.2, 1024)) < 1e-12

    def test_spectral_convergence_at_half_ln2(self):
        assert abs(onsager_entropy(BETA_TILING, 512) - onsager_entropy(BETA_TILING, 1024)) < 1e-12

    def test_criticality_refused(self):
        with pytest.raises(IsingError):
            onsager_entropy(BETA_CRITICAL, 256)
        with pytest.raises(IsingError):
            onsager_entropy(BETA_CRITICAL + 0.1, 256)
        with pytest.raises(IsingError):
            onsager_entropy(-0.01, 256)

    @pytest.mark.parametrize("grid", [0, 32, 63, 100, 1000, 16384])
    def test_bad_grid_refused(self, grid):
        with pytest.raises(IsingError):
            onsager_entropy(0.1, grid)


@functools.lru_cache(maxsize=None)
def _dense_entropy(beta, grid):
    """The quadrature as it was before blocking: the whole grid x grid mesh of
    ln[cosh^2 2b - sinh 2b (c_i + c_j)], one mean.  The same elementwise ops
    run in place, so grid 8192 holds one 512 MB array, not four."""
    c = np.cos(2.0 * math.pi * np.arange(grid) / grid)
    b = 2.0 * beta
    values = c[:, None] + c[None, :]
    values *= math.sinh(b)
    np.subtract(math.cosh(b) ** 2, values, out=values)
    np.log(values, out=values)
    return math.log(2.0) + 0.5 * float(np.mean(values))


def _assert_matches_dense(beta, grid):
    sigma, coarse = _dense_entropy(beta, grid), _dense_entropy(beta, grid // 2)
    assert onsager_estimate(beta, grid) == (sigma, abs(sigma - coarse))
    assert onsager_entropy(beta, grid) == sigma


class TestBlockedQuadrature:
    # equality, not approx: the blocked sums rely on numpy's add.reduce being
    # one pairwise tree that splits power-of-two lengths at exact halves
    @pytest.mark.parametrize("grid", [1 << k for k in range(6, 13)])
    @pytest.mark.parametrize("beta", [0.0, BETA_TILING, 0.3, 0.999 * BETA_CRITICAL])
    def test_bit_identical_to_dense_mesh(self, beta, grid):
        _assert_matches_dense(beta, grid)

    def test_bit_identical_to_dense_mesh_at_max_grid(self):
        # one beta only: the dense oracle holds a 512 MB mesh at MAX_GRID
        _assert_matches_dense(BETA_TILING, MAX_GRID)

    @settings(max_examples=30, deadline=None)
    @given(beta=st.floats(0.0, BETA_CRITICAL, exclude_max=True),
           grid=st.sampled_from([64, 128, 256, 512, 1024]))
    def test_bit_identical_to_dense_mesh_random_beta(self, beta, grid):
        _assert_matches_dense(beta, grid)

    def test_memory_is_linear_in_grid(self):
        # numpy reports its buffers to tracemalloc; the full mesh at MAX_GRID
        # would be 512 MiB per temporary
        t_tetromino_bound(64)  # import numpy outside the trace
        tracemalloc.start()
        try:
            t_tetromino_bound(MAX_GRID)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20


class TestTetrominoBound:
    def test_paper_bound(self):
        bound = t_tetromino_bound()
        assert abs(bound.sigma_lower - 0.09501088358) < 1e-9
        assert abs(bound.sigma_ising - 0.8270269567) < 1e-9
        assert bound.beta == BETA_TILING
        assert bound.err_estimate < 1e-12

    def test_consistency_identity(self):
        bound = t_tetromino_bound(256)
        assert bound.sigma_lower == (math.log(2.0) + bound.sigma_ising) / 16.0

    def test_beats_simpler_bounds(self):
        bound = t_tetromino_bound(256)
        assert bound.sigma_lower > eight_cell_bound()
        assert bound.sigma_lower > math.log(3.0) / 16.0


class TestEightCell:
    def test_value(self):
        assert eight_cell_bound() == math.log(2.0) / 8.0
        assert abs(eight_cell_bound() - 0.08664) < 1e-4

    def test_orders_between_bounds(self):
        assert math.log(3.0) / 16.0 < eight_cell_bound()


class TestFylfotSum:
    @pytest.mark.parametrize(
        "p, q, expected",
        [
            (1, 1, 2),       # no edges, two orientations
            (1, 2, 6),       # enumerated by hand over 4 assignments
            (2, 2, 82),      # enumerated by hand over 16 assignments
            (2, 3, 1122),    # frozen from an independent per-mask product sweep
            (3, 3, 70146),   # frozen from an independent per-mask product sweep
            (5, 5, 469135234666818),  # frozen from the former 2^(pq) enumeration
            (4, 6, 102597174055746),  # frozen from the former 2^(pq) enumeration
        ],
    )
    def test_small_lattices(self, p, q, expected):
        assert fylfot_sum(p, q) == expected

    def test_transpose_symmetry(self):
        assert fylfot_sum(2, 4) == fylfot_sum(4, 2)
        assert fylfot_sum(6, 4) == fylfot_sum(4, 6)

    def test_cap(self):
        # just past the transfer budget (13x13 is the last square admitted and
        # 1x68254 the last strip), then far past it, where the check must not
        # build anything of size 2^min(p, q)
        for p, q in [(14, 14), (1, 68255), (10**9, 10**9)]:
            with pytest.raises(IsingError):
                fylfot_sum(p, q)
        with pytest.raises(IsingError):
            fylfot_sum(0, 3)

    @pytest.mark.parametrize("like, unlike", [(2, 1), (1, 2), (3, 5)])
    def test_transfer_matches_brute_force(self, like, unlike):
        for p in range(1, 13):
            for q in range(1, 12 // p + 1):
                assert spin_weight_sum(p, q, like, unlike) == _brute_force_sum(p, q, like, unlike)

    def test_global_flip_symmetry(self):
        # negating every spin preserves edge likeness, so each term pairs up:
        # the total is twice the sum restricted to spin 0 fixed at +1
        for p, q in [(2, 2), (2, 3), (3, 3)]:
            total = fylfot_sum(p, q)
            assert total % 2 == 0
            half = _sum_with_first_spin_up(p, q)
            assert total == 2 * half

    def test_antiferro_ferro_equivalence(self):
        # checkerboard negation swaps like and unlike edge counts
        for p, q in [(1, 4), (2, 2), (2, 3), (3, 3), (4, 4)]:
            assert spin_weight_sum(p, q, like=2, unlike=1) == spin_weight_sum(
                p, q, like=1, unlike=2
            )

    def test_bound_chain_increases_and_extrapolates_past_eight_cell(self):
        per_site = {
            n: math.log(fylfot_sum(n, n)) / (16 * n * n) for n in (1, 2, 3, 4)
        }
        assert per_site[1] < per_site[2] < per_site[3] < per_site[4]
        # open-boundary values behave like A - B/n; doubling n cancels B
        extrapolated = 2 * per_site[4] - per_site[2]
        assert extrapolated > eight_cell_bound()

    def test_strip_growth_converges_to_onsager(self):
        # two routes that share nothing: like = 2, unlike = 1 is e^(beta (1 + s s'))
        # at beta = ln 2 / 2, so the per-site growth of the exact spin sum is
        # ln 2 + sigma_Ising, which the quadrature gives.  The strip increments
        # ln(lambda_(p+1) / lambda_p), lambda_p = fylfot_sum(p, 41) / fylfot_sum(p, 40),
        # close in on it geometrically
        target = math.log(2.0) + onsager_entropy(BETA_TILING, 4096)
        assert target == pytest.approx(1.5201741372782744, abs=1e-15)
        growth = [math.log(fylfot_sum(p, 41) / fylfot_sum(p, 40)) for p in range(4, 10)]
        errors = [b - a - target for a, b in zip(growth, growth[1:])]
        assert all(abs(e) >= 2.5 * abs(f) for e, f in zip(errors, errors[1:]))
        assert abs(errors[-1]) < 1e-6


def _brute_force_sum(p, q, like, unlike):
    total = 0
    for mask in range(1 << (p * q)):  # bit i * q + j is the spin at row i, column j
        value = 1
        for i in range(p):
            for j in range(q):
                b = i * q + j
                if j + 1 < q:
                    value *= like if ((mask >> b) ^ (mask >> (b + 1))) & 1 == 0 else unlike
                if i + 1 < p:
                    value *= like if ((mask >> b) ^ (mask >> (b + q))) & 1 == 0 else unlike
        total += value
    return total


def _sum_with_first_spin_up(p, q):
    total = 0
    spins = p * q
    for mask in range(1 << (spins - 1)):  # spin 0 fixed to +1 (bit clear)
        value = 1
        full = mask << 1
        for i in range(p):
            for j in range(q):
                b = i * q + j
                if j + 1 < q:
                    value *= 2 if ((full >> b) ^ (full >> (b + 1))) & 1 == 0 else 1
                if i + 1 < p:
                    value *= 2 if ((full >> b) ^ (full >> (b + q))) & 1 == 0 else 1
        total += value
    return total
