"""Ising entropy integral (node mean) and fylfot spin sum (per-site transfer), both budgeted."""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass


class IsingError(ValueError):
    """Parameters outside the valid quadrature or lattice range."""


BETA_CRITICAL = 0.5 * math.log(1.0 + math.sqrt(2.0))

# Coupling induced by tile boundaries four sites apart: the gap between
# same-handed pinwheel motifs closes in two ways, between opposite ones in
# just one, which is an Ising weight e^(2 beta s s') with beta = ln(2)/2.
BETA_TILING = 0.5 * math.log(2.0)

# Budgets, checked before any work.  The quadrature holds _BLOCK_NODES float64
# block nodes and a quarter more for coarse copies, however many threads share
# them, so MAX_GRID bounds time: 2^26 nodes, about 0.16 s on one Xeon core and
# 0.09 s on two.
# The spin transfer makes p q site updates over 2^min(p, q) entries growing a
# bit per site, each ~1 + p q / SPIN_GROWTH_SITES small-integer steps;
# MAX_SPIN_WORK steps take about 2 s on one Xeon core (CPython 3.11).
MAX_GRID, _BLOCK_NODES = 8192, 1 << 17
MAX_SPIN_WORK, SPIN_GROWTH_SITES = 2_000_000, 5000


@dataclass(frozen=True)
class IsingBound:
    beta: float
    sigma_ising: float
    sigma_lower: float
    grid: int
    err_estimate: float


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS keeps one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def onsager_estimate(beta: float, grid: int = 1024) -> tuple[float, float]:
    """onsager_entropy at `grid` and its error estimate |value - value at grid // 2|,
    in one pass over row blocks of at most _BLOCK_NODES nodes, shared out to one
    thread per CPU of the affinity mask (at most one per block).  numpy's add.reduce
    sums a contiguous array as a pairwise tree splitting power-of-two lengths at
    exact halves, so block sums paired as that tree, in block order, give the
    whole-mesh sums to the bit, whatever the block size and the thread count."""
    if not 0.0 <= beta < BETA_CRITICAL:
        raise IsingError("beta must lie in [0, ln(1 + sqrt 2)/2): integrand stays positive")
    if grid < 64 or grid & (grid - 1) or grid > MAX_GRID:
        raise IsingError(f"grid must be a power of two from 64 to {MAX_GRID}")
    import numpy as np  # here, not at module level, so the CLI starts without it

    # One allocation holds the pass: for each of n workers a block of rows (a
    # power of two, at least 2) in _BLOCK_NODES // n nodes and a quarter block
    # for its coarse copy; then the blocks' fine sums, their coarse sums, and
    # the cosines.  One block of up to _BLOCK_NODES nodes needs no thread.
    nodes = grid * grid
    workers = 1 if nodes <= _BLOCK_NODES else min(
        _cpus(), nodes // _BLOCK_NODES, _BLOCK_NODES // (2 * grid))
    rows = min(grid, (_BLOCK_NODES >> (workers - 1).bit_length()) // grid)
    block, blocks, share_nodes = rows * grid, grid // rows, rows * grid * 5 // 4
    arena = np.empty(workers * share_nodes + 2 * blocks + grid)
    sums, c = arena[workers * share_nodes:-grid], arena[-grid:]
    # periodic trapezoid rule on [0, 2pi)^2 is a plain mean over the nodes
    np.cos(2.0 * math.pi * np.arange(grid) / grid, c)
    cosh2, sinh = math.cosh(2.0 * beta) ** 2, math.sinh(2.0 * beta)

    def share(w: int) -> None:  # blocks w, w + workers, ...
        start = w * share_nodes
        buf = arena[start:start + block].reshape(rows, grid)
        coarse = arena[start + block:start + share_nodes].reshape(rows // 2, grid // 2)
        for b in range(w, blocks, workers):
            np.add(c[b * rows:(b + 1) * rows, None], c, buf)
            np.multiply(sinh, buf, buf)
            np.subtract(cosh2, buf, buf)
            np.log(buf, buf)
            coarse[...] = buf[::2, ::2]
            sums[b] = np.add.reduce(buf, None)
            sums[blocks + b] = np.add.reduce(coarse, None)

    if blocks == 1:
        share(0)
    else:
        # numpy lets go of the GIL in these loops; every thread ends before we
        # return.  A ufunc buffer of one row (a per-thread numpy setting) keeps
        # np.add from copying the broadcast column into 8192-node buffers below
        # grid 8192: four times slower, and 128 KiB more in each worker's arena.
        errors, threads = [], []

        def guarded(w: int) -> None:
            try:
                np.setbufsize(grid)
                share(w)
            except BaseException as e:
                errors.append(e)

        bufsize = np.setbufsize(grid)
        try:
            for w in range(1, workers):
                t = threading.Thread(target=guarded, args=(w,))
                t.start()
                threads.append(t)
            share(0)
        finally:
            np.setbufsize(bufsize)
            for t in threads:
                t.join()
        if errors:
            raise errors[0]
    while len(sums) > 2:  # a power of two of block sums, paired as numpy pairs halves
        sums = sums[::2] + sums[1::2]
    fine, coarse = sums.tolist()
    fine, coarse = (math.log(2.0) + 0.5 * (fine / nodes),
                    math.log(2.0) + 0.5 * (coarse / (nodes // 4)))
    return fine, abs(fine - coarse)


def onsager_entropy(beta: float, grid: int = 1024) -> float:
    """Per-site entropy of the square-lattice Ising model below criticality.

    ln 2 plus half the node mean of ln[cosh^2 2b - sinh 2b (cos w1 + cos w2)].
    The integrand is analytic and periodic below criticality, so the node
    mean converges spectrally; at or above criticality it touches zero and
    the call is refused.
    """
    return onsager_estimate(beta, grid)[0]


def t_tetromino_bound(grid: int = 1024) -> IsingBound:
    """Entropy lower bound for T-tetromino plane tilings via the Ising map.

    Evaluated at beta = ln(2)/2, where cosh^2 2b = 25/16 and sinh 2b = 3/4
    (exact in doubles); the tiling bound is (ln 2 + sigma_ising) / 16.
    """
    sigma, err = onsager_estimate(BETA_TILING, grid)
    return IsingBound(beta=BETA_TILING, sigma_ising=sigma, grid=grid,
                      sigma_lower=(math.log(2.0) + sigma) / 16.0, err_estimate=err)


def eight_cell_bound() -> float:
    """Bound from the 8-cell plane-filling block the T tiles in two ways."""
    return math.log(2.0) / 8.0


def spin_weight_sum(p: int, q: int, like: int = 2, unlike: int = 1) -> int:
    """Sum over all 2^(p q) spin assignments of an open p x q grid of the
    product of nearest-neighbor edge weights (like or unlike spins).

    Exact per-site transfer: sites join column by column along the longer
    side; a vector over the spins of the last min(p, q) sites sums the
    weights of all earlier assignments, and each new site multiplies in its
    edges to the sites above and on its left.  Refused past MAX_SPIN_WORK.
    """
    if p < 1 or q < 1:
        raise IsingError("lattice dimensions must be positive")
    rows, cols = sorted((p, q))
    # p q 2^rows (1 + p q / growth) > work, shifted right to allocate nothing
    if p * q * (p * q + SPIN_GROWTH_SITES) > (MAX_SPIN_WORK * SPIN_GROWTH_SITES) >> rows:
        raise IsingError(f"{p}x{q} lattice exceeds the spin-transfer budget")
    weight = (like, unlike)  # indexed by s ^ t for neighbor spins s, t
    vec = [1] + [0] * ((1 << rows) - 1)  # column -1: all spins 0, weight 1
    for c in range(cols):
        for r in range(rows):
            bit, new = 1 << r, []
            for x in range(len(vec)):  # new state x has the new spin s at bit r
                s = x >> r & 1
                a, b = vec[x & ~bit], vec[x | bit]  # left neighbor spin 0, 1
                left = a * weight[s] + b * weight[s ^ 1] if c else a
                new.append(left * weight[s ^ (x >> (r - 1) & 1)] if r else left)
            vec = new
    return sum(vec)


def fylfot_sum(p: int, q: int) -> int:
    """Weighted count over pinwheel orientations on a p x q lattice.

    Neighboring same-handed pinwheels leave two ways to tile the gap
    between them, opposite-handed ones leave one, so each orientation
    assignment contributes 2^(like edges).
    """
    return spin_weight_sum(p, q, like=2, unlike=1)
