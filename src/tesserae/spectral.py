"""Dominant growth rates and per-site entropy bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .automaton import TransferAutomaton
from .gf import RationalGF, expand
from .poly import TileSet


class SpectralError(ValueError):
    """Root finding failed or an entropy precondition does not hold."""


@dataclass(frozen=True)
class EntropyReport:
    """Growth rate per step and the per-site entropy bound it implies."""

    lambda_: float
    sites_per_step: int
    sigma_lower: float
    residual: float


def _char_poly(den: tuple[int, ...]) -> tuple[int, ...]:
    # x^d * den(1/x), ascending; monic because den(0) = 1
    return tuple(reversed(den))


def _sign_at(p: tuple[int, ...], x: Fraction) -> int:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return (acc > 0) - (acc < 0)


def _ratio_estimate(g: RationalGF) -> float | None:
    terms = expand(g, 80)
    for window in range(1, 9):
        for i in range(len(terms) - 1, window - 1, -1):
            if terms[i] and terms[i - window]:
                bits = terms[i].bit_length() - terms[i - window].bit_length()
                try:
                    ratio = terms[i] / terms[i - window]
                except OverflowError:
                    ratio = 2.0 ** bits
                if ratio > 0:
                    return ratio ** (1.0 / window) if window > 1 else ratio
                break
    return None


def _bisect(p: tuple[int, ...], lo: Fraction, hi: Fraction) -> float:
    # precondition: p(lo) < 0 < p(hi)
    for _ in range(90):
        mid = (lo + hi) / 2
        s = _sign_at(p, mid)
        if s == 0:
            return float(mid)
        if s > 0:
            hi = mid
        else:
            lo = mid
    return float((lo + hi) / 2)


def _scan_bracket(p: tuple[int, ...], bound: Fraction) -> tuple[Fraction, Fraction] | None:
    # walk down from the root bound on ever finer grids; the first point with
    # p <= 0 brackets the largest positive root from below
    for halvings in range(13):
        step = Fraction(1, 1 << halvings)
        x = bound
        while x > 0:
            x = max(x - step, Fraction(0))
            s = _sign_at(p, x)
            if s == 0:
                return x, x
            if s < 0:
                return x, x + step
    return None


def dominant_root(g: RationalGF) -> float:
    """Largest positive real root of x^d den(1/x): the per-step growth rate.

    A ratio of late series coefficients seeds the bracket; all bracketing
    and bisection signs are evaluated exactly at rational points, so large
    coefficients cannot mislead the search.
    """
    den = g.den
    if len(den) < 2:
        raise SpectralError("constant denominator has no growth rate")
    p = _char_poly(den)
    bound = Fraction(1 + max(abs(c) for c in p[:-1]))

    intervals: list[tuple[Fraction, Fraction]] = []
    estimate = _ratio_estimate(g)
    if estimate and estimate > 0 and math.isfinite(estimate):
        e = Fraction(estimate).limit_denominator(1 << 24)
        for spread in (Fraction(1, 64), Fraction(1, 8), Fraction(1, 2), Fraction(15, 16)):
            intervals.append((max(e * (1 - spread), Fraction(0)), min(e * (1 + spread), bound)))

    for lo, hi in intervals:
        if lo >= hi:
            continue
        s_lo, s_hi = _sign_at(p, lo), _sign_at(p, hi)
        if s_lo == 0:
            lo -= Fraction(1, 1000003)
            s_lo = _sign_at(p, lo)
        if s_hi == 0:
            hi += Fraction(1, 1000003)
            s_hi = _sign_at(p, hi)
        if s_lo < 0 < s_hi:
            return _bisect(p, lo, hi)

    scanned = _scan_bracket(p, bound)
    if scanned is None:
        raise SpectralError("no positive real root in the denominator spectrum")
    lo, hi = scanned
    if lo == hi:
        return float(lo)
    return _bisect(p, lo, hi)


def residual(g: RationalGF, root: float) -> float:
    """|p(root)| relative to the magnitude of p's terms at root."""
    value = 0.0
    scale = 0.0
    power = 1.0
    for c in _char_poly(g.den):
        value += c * power
        scale += abs(c) * power
        power *= root
    return abs(value) / scale if scale else 0.0


def perron_root(a: TransferAutomaton, tol: float = 1e-13, max_iter: int = 200_000) -> float:
    """Per-column growth rate of the transfer matrix, by power iteration.

    Iterates on matrix + identity so that periodic automata (tiles that
    only complete every k-th column) still converge; the unit shift is
    subtracted from the converged Rayleigh quotient.  Each step touches the
    nonzero transitions only, as index arrays.
    """
    import numpy as np  # here, not at module level, so the CLI starts without it

    n = len(a.states)
    src = np.array([i for i, out in enumerate(a.edges) for _ in out], dtype=np.intp)
    dst = np.array([j for out in a.edges for j, _ in out], dtype=np.intp)
    ways = np.array([w for out in a.edges for _, w in out], dtype=float)
    v = np.full(n, 1.0 / math.sqrt(n))
    prev = math.inf
    settled = 0
    for it in range(max_iter):
        w = np.bincount(src, weights=ways * v[dst], minlength=n) + v
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            raise SpectralError("transfer matrix annihilated the iterate")
        quotient = float(v @ w) / float(v @ v)
        v = w / norm
        if abs(quotient - prev) < tol * max(1.0, abs(quotient)):
            settled += 1
            if settled >= 3 and it >= 20:
                return quotient - 1.0
        else:
            settled = 0
        prev = quotient
    raise SpectralError("power iteration did not settle; fall back to dominant_root")


def entropy_lower(growth: float, sites_per_step: int) -> float:
    """ln(growth) spread over the lattice sites added per step."""
    if growth < 1.0:
        raise SpectralError("growth rate below 1 yields no entropy bound")
    if sites_per_step < 1:
        raise SpectralError("sites_per_step must be positive")
    return math.log(growth) / sites_per_step


def entropy_upper(tiles: TileSet) -> float:
    """Scanning bound: each area-a chunk of the plane offers at most
    |variants| choices, so sigma <= ln(|variants|) / a."""
    areas = {v.area for v in tiles.variants}
    if len(areas) != 1:
        raise SpectralError("scanning bound requires all variants to share one area")
    return math.log(len(tiles.variants)) / areas.pop()


def strip_entropy(g: RationalGF, width: int) -> EntropyReport:
    """Entropy bound carried by a strip generating function.

    One power of z covers g.step columns of a width-row strip, hence
    width * g.step sites per step.
    """
    root = dominant_root(g)
    sites = width * g.step
    return EntropyReport(
        lambda_=root,
        sites_per_step=sites,
        sigma_lower=entropy_lower(root, sites),
        residual=residual(g, root),
    )
