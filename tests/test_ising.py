import functools
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

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
from tesserae import ising
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

    def test_memory_is_linear_in_grid(self, monkeypatch):
        # numpy reports its buffers to tracemalloc, from every thread; the full
        # mesh at MAX_GRID would be 512 MiB per temporary
        t_tetromino_bound(64)  # import numpy outside the trace
        tracemalloc.start()
        try:
            t_tetromino_bound(MAX_GRID)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20
        # the pass's one allocation holds 2^17 block nodes and their coarse
        # copies however many workers share them: 1.28 MiB at grid 4096
        for workers in (1, 2, 8):
            monkeypatch.setattr(ising, "_cpus", lambda: workers)
            onsager_estimate(0.3, 512)  # import threading outside the trace
            tracemalloc.start()
            try:
                onsager_estimate(BETA_TILING, 4096)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 3 << 19, (workers, peak)  # 1.5 MiB


@functools.lru_cache(maxsize=None)
def _one_worker(beta, grid):
    saved, ising._cpus = ising._cpus, lambda: 1
    try:
        return onsager_estimate(beta, grid)
    finally:
        ising._cpus = saved


def _hex(pair):
    return tuple(x.hex() for x in pair)


class TestThreadedQuadrature:
    # the worker count comes from the CPUs that ising reads; blocks land in
    # their own slots and are paired in block order, so no count moves a bit
    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("grid", [512, 1024, 4096, 8192])
    def test_worker_count_does_not_change_a_bit(self, monkeypatch, workers, grid):
        monkeypatch.setattr(ising, "_cpus", lambda: workers)
        for beta in (0.0, 0.3, BETA_TILING, 0.999 * BETA_CRITICAL):
            assert _hex(onsager_estimate(beta, grid)) == _hex(_one_worker(beta, grid))

    @pytest.mark.parametrize("grid, threads", [(512, 1), (1024, 7), (2048, 31), (4096, 15),
                                               (8192, 7)])
    def test_threads_are_capped_by_blocks_and_rows(self, monkeypatch, grid, threads):
        # 64 CPUs: at most one worker per _BLOCK_NODES nodes of the mesh, and
        # every worker's block keeps at least two rows
        started = []

        class Counted(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(ising, "_cpus", lambda: 64)
        monkeypatch.setattr(threading, "Thread", Counted)
        assert _hex(onsager_estimate(BETA_TILING, grid)) == _hex(_one_worker(BETA_TILING, grid))
        assert len(started) == threads
        assert not any(t.is_alive() for t in started)

    @pytest.mark.parametrize("grid", [64, 128, 256])
    def test_one_block_reads_no_cpu_count_and_starts_no_thread(self, monkeypatch, grid):
        def unasked():
            raise AssertionError("one block asked for the CPU count")

        monkeypatch.setattr(ising, "_cpus", unasked)
        monkeypatch.setattr(threading.Thread, "start", unasked)
        assert onsager_estimate(BETA_TILING, grid) == _one_worker(BETA_TILING, grid)

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_an_error_in_any_share_reaches_the_caller_after_every_join(self, monkeypatch, failing):
        # np.log raises in the second block of one share (blocks 1, 3 of
        # the worker's, 0, 2 of the caller's at grid 1024 under two CPUs)
        caller, calls, log = threading.get_ident(), {}, np.log

        def failing_log(*args, **kwargs):
            me = threading.get_ident()
            calls[me] = calls.get(me, 0) + 1
            if calls[me] == 2 and (me == caller) == (failing == "caller"):
                raise FloatingPointError(f"second block of the {failing}")
            return log(*args, **kwargs)

        monkeypatch.setattr(ising, "_cpus", lambda: 2)
        monkeypatch.setattr(np, "log", failing_log)
        before, bufsize = threading.active_count(), np.getbufsize()
        with pytest.raises(FloatingPointError, match=f"second block of the {failing}"):
            onsager_estimate(0.3, 1024)
        assert threading.active_count() == before
        assert np.getbufsize() == bufsize
        assert len(calls) == 2 and calls[caller] >= 2

    def test_concurrent_callers_with_more_threads_than_cores(self, monkeypatch):
        # four callers at once, each sharing its blocks out to four threads,
        # switching every microsecond: a block sum lost or written to another
        # call's slot would move a bit
        monkeypatch.setattr(ising, "_cpus", lambda: 4)
        betas = (0.0, 0.3, BETA_TILING, 0.999 * BETA_CRITICAL)
        expected = [_hex(_one_worker(beta, 2048)) for beta in betas]
        results = [None] * len(betas)

        def call(i):
            results[i] = _hex(onsager_estimate(betas[i], 2048))

        callers = [threading.Thread(target=call, args=(i,)) for i in range(len(betas))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert results == expected

    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_callers_ufunc_buffer_size_is_restored(self, monkeypatch, workers):
        # the pass sets numpy's per-thread buffer size to one row of the mesh
        monkeypatch.setattr(ising, "_cpus", lambda: workers)
        bufsize = np.getbufsize()
        with np.errstate(all="raise"):
            onsager_estimate(0.3, 1024)
            assert np.geterr()["divide"] == "raise"
        assert np.getbufsize() == bufsize

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
    def test_a_process_pinned_to_one_cpu_runs_one_worker(self):
        code = ("import os, threading; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
                "from tesserae import ising; assert ising._cpus() == 1; "
                "print(*(x.hex() for x in ising.onsager_estimate(ising.BETA_TILING, 4096))); "
                "assert threading.active_count() == 1")
        src = str(Path(ising.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                              text=True, timeout=60, check=True)
        assert tuple(proc.stdout.split()) == _hex(_one_worker(BETA_TILING, 4096))


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
