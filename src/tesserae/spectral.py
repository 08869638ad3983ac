"""Dominant growth rates and per-site entropy bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .automaton import TransferAutomaton
from .gf import RationalGF
from .poly import TileSet


# perron_root stops once its Collatz-Wielandt bracket [lo, hi] is within
# PERRON_TOL of hi (relative), or fails after PERRON_MAX_ITER steps
PERRON_TOL = 1e-13
PERRON_MAX_ITER = 200_000


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


def _value(p: tuple[int, ...], m: int, e: int) -> int:
    # 2^(e*d) * p(m / 2^e), by Horner's rule in the integers
    acc = 0
    for i, c in enumerate(reversed(p)):
        acc = acc * m + (c << (e * i))
    return acc


def _variations(p: tuple[int, ...], m: int, e: int) -> int:
    # sign changes of p(x + m / 2^e); the Taylor shift runs on the integer
    # coefficients of 2^(e*d) * p((y + m) / 2^e), which differ from those of
    # p(x + m / 2^e) by positive powers of two
    d = len(p) - 1
    a = [c << (e * (d - i)) for i, c in enumerate(p)]
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            a[j] += m * a[j + 1]
    signs = [c > 0 for c in a if c]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def dominant_root(g: RationalGF) -> float:
    """Growth rate per step: the rightmost root of x^d den(1/x), correctly rounded.

    A dyadic bracket [lo, hi] / 2^e, from [0, a power of two past Fujiwara's
    root bound], is halved by Descartes' rule of signs until it counts exactly
    one root above lo, then by exact signs until both ends round to one double.
    SpectralError when that root is not real, positive and simple: no positive
    root, a multiple one, or more roots counted at the end, as for a complex
    pair near the axis to its right.  A pair far off the axis escapes the count
    (x^4 - 3x^3 + 7x^2 + 21x - 26 gives 1.0 past roots 2 +- 3i).  For a strip gf
    the rightmost root is always real, positive and simple: Pringsheim's theorem
    puts it on the positive axis, Perron-Frobenius makes it simple, as every
    trimmed state lies on a start-to-start path.
    """
    den = g.den
    if len(den) < 2:
        raise SpectralError("constant denominator has no growth rate")
    p = _char_poly(den)
    # 2^k > 2 max |den[i]|^(1/i) >= every |root| (Fujiwara), as den[i] = p[d - i]
    k = 1 + max(-(-abs(c).bit_length() // i) for i, c in enumerate(den) if i)
    lo, hi, e = 0, 1 << k, 0
    above = _variations(p, 0, 0)
    if not above:
        raise SpectralError("no positive real root in the denominator spectrum")
    while lo / (1 << e) != hi / (1 << e):
        lo, mid, hi, e = 2 * lo, lo + hi, 2 * hi, e + 1
        if above > 1:
            count = _variations(p, mid, e)
        else:
            sign = _value(p, mid, e)
            if not sign:
                return mid / (1 << e)
            count = int(sign < 0)  # p rises through its one root above lo
        if count:
            lo, above = mid, count
        else:
            hi = mid
    if above > 1:
        raise SpectralError("rightmost root of the denominator spectrum is not real and simple")
    return lo / (1 << e)


def residual(g: RationalGF, root: float) -> float:
    """|p(root)| relative to the magnitude of p's terms at root.

    Summed in floats, or in the integers where the float sum overflows: the
    root is m / 2^e exactly, and both sums scale by the same 2^(e*d).
    """
    p = _char_poly(g.den)
    value = scale = 0.0
    power = 1.0
    try:
        for c in p:
            value += c * power
            scale += abs(c) * power
            power *= root
    except OverflowError:  # a coefficient past the float range
        scale = math.inf
    if not math.isfinite(scale):
        m, q = root.as_integer_ratio()
        e = q.bit_length() - 1
        value, scale = _value(p, m, e), _value(tuple(map(abs, p)), m, e)
    return abs(value) / scale if scale else 0.0


def perron_root(a: TransferAutomaton) -> float:
    """Per-column growth rate of the transfer matrix A, inside a shrinking bracket.

    For the strongly connected A that build_automaton returns and any positive
    v, min (Av)_i / v_i <= lambda <= max (Av)_i / v_i (Collatz-Wielandt).  The
    midpoint is returned once that bracket [lo, hi] is within PERRON_TOL of hi;
    until then v steps to (Av + v) / (hi + 1), a power step on A + I, which
    also converges on periodic automata (tiles that only complete every k-th
    column).  Each step touches the nonzero transitions only, as index arrays.
    """
    import numpy as np  # here, not at module level, so the CLI starts without it

    n = len(a.states)
    src = np.array([i for i, out in enumerate(a.edges) for _ in out], dtype=np.intp)
    dst = np.array([j for out in a.edges for j, _ in out], dtype=np.intp)
    ways = np.array([w for out in a.edges for _, w in out], dtype=float)
    v = np.ones(n)
    for _ in range(PERRON_MAX_ITER):
        w = np.bincount(src, weights=ways * v[dst], minlength=n)
        ratios = w / v
        lo, hi = float(ratios.min()), float(ratios.max())
        if hi - lo <= PERRON_TOL * hi:
            return (lo + hi) / 2
        v = (w + v) / (hi + 1.0)
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
