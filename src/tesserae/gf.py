"""Exact linear recurrences and rational generating functions.

Everything here is integer or rational arithmetic; no floating point.
Polynomials are tuples of coefficients in ascending powers of z.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .automaton import CountSeries, TransferAutomaton, series, trim_reachable


class RecurrenceError(ValueError):
    """No linear recurrence fits the supplied terms (series too short?)."""


class NoTilingsError(ValueError):
    """Every term beyond n = 0 is zero, so no length step exists."""


def _strip(p) -> tuple[int, ...]:
    i = len(p)
    while i and p[i - 1] == 0:
        i -= 1
    return tuple(p[:i])


def _sub(p, q) -> tuple[int, ...]:
    n = max(len(p), len(q))
    out = [0] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] -= c
    return _strip(out)


def _rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = a[:]
    db = len(b) - 1
    lead = b[-1]
    while len(a) - 1 >= db and a:
        shift = len(a) - 1 - db
        factor = a[-1] / lead
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
        while a and a[-1] == 0:
            a.pop()
    return a


def _primitive(p: list[Fraction]) -> tuple[int, ...]:
    scale = 1
    for c in p:
        scale = scale * c.denominator // gcd(scale, c.denominator)
    ints = [int(c * scale) for c in p]
    content = 0
    for c in ints:
        content = gcd(content, c)
    if ints[-1] < 0:
        content = -content
    return tuple(c // content for c in ints)


def poly_gcd(p, q) -> tuple[int, ...]:
    """Polynomial gcd over the rationals, as a primitive integer polynomial
    with positive leading coefficient."""
    a = [Fraction(c) for c in _strip(p)]
    b = [Fraction(c) for c in _strip(q)]
    if not a:
        return _primitive(b) if b else ()
    while b:
        a, b = b, _rem(a, b)
    return _primitive(a)


def _exact_div(p, g) -> tuple[int, ...]:
    # p / g with zero remainder guaranteed; integer result by Gauss's lemma
    rem = [Fraction(c) for c in p]
    div = [Fraction(c) for c in g]
    out = [Fraction(0)] * (len(rem) - len(div) + 1)
    lead = div[-1]
    for shift in range(len(out) - 1, -1, -1):
        factor = rem[shift + len(div) - 1] / lead
        out[shift] = factor
        for i, c in enumerate(div):
            rem[shift + i] -= factor * c
    assert all(c == 0 for c in rem), "non-exact polynomial division"
    return tuple(int(c) for c in out)


def _reduced(num, den) -> tuple[tuple[int, ...], tuple[int, ...]]:
    num = _strip(num)
    den = _strip(den)
    if not den or den[0] == 0:
        raise ValueError("denominator needs a nonzero constant term")
    if not num:
        return (0,), (1,)
    g = poly_gcd(num, den)
    if len(g) > 1:
        num = _exact_div(num, g)
        den = _exact_div(den, g)
    if den[0] == -1:
        num = tuple(-c for c in num)
        den = tuple(-c for c in den)
    return num, den


@dataclass(frozen=True)
class RationalGF:
    """A rational generating function num(z)/den(z), kept in lowest terms.

    den(0) is normalized to 1 and any common polynomial factor is divided
    out on construction.  step records how many strip columns one power of
    z stands for.
    """

    num: tuple[int, ...]
    den: tuple[int, ...]
    step: int = 1

    def __post_init__(self) -> None:
        if self.step < 1:
            raise ValueError("step must be positive")
        num, den = _reduced(tuple(self.num), tuple(self.den))
        if den[0] != 1:
            raise ValueError("denominator constant term must normalize to 1")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)


@dataclass(frozen=True)
class LinearRecurrence:
    """a[t] = coeffs[0] a[t-1] + ... + coeffs[order-1] a[t-order] for t >= valid_from."""

    order: int
    coeffs: tuple[int, ...]
    valid_from: int


def detect_step(s: CountSeries) -> int:
    """Gcd of all lengths n >= 1 with a nonzero count: the resampling unit."""
    k = 0
    for n, term in enumerate(s.terms):
        if n and term:
            k = gcd(k, n)
    if not k:
        raise NoTilingsError(f"width {s.width} admits no tiling of any positive length")
    return k


def resample(s: CountSeries, k: int) -> list[int]:
    """Every k-th count: a[t] = N(k t), the natural indexing for the tiles."""
    if k < 1:
        raise ValueError("step must be positive")
    return list(s.terms[::k])


def _solve(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    n = len(rhs)
    aug = [row[:] + [b] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [c * inv for c in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [c - f * d for c, d in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def _fit_order(a: list[int], order: int) -> tuple[tuple[int, ...], int] | None:
    n = len(a)
    if order == 0:
        start = n
        while start and a[start - 1] == 0:
            start -= 1
        return ((), start) if n - start >= 2 else None
    for shift in range(3):
        hi = n - shift
        lo = hi - order
        if lo < order:
            break
        rows = [[Fraction(a[t - j]) for j in range(1, order + 1)] for t in range(lo, hi)]
        rhs = [Fraction(a[t]) for t in range(lo, hi)]
        sol = _solve(rows, rhs)
        if sol is None:
            continue
        if sol[-1] == 0 or any(c.denominator != 1 for c in sol):
            continue
        coeffs = tuple(int(c) for c in sol)
        valid_from = order
        for t in range(n - 1, order - 1, -1):
            if a[t] != sum(coeffs[j] * a[t - 1 - j] for j in range(order)):
                valid_from = t + 1
                break
        if n - valid_from >= order + 2:
            return coeffs, valid_from
    return None


def infer_recurrence(terms) -> LinearRecurrence:
    """Minimal-order integer linear recurrence fitting a tail of the terms.

    For each candidate order, smallest first, the exact Hankel system built
    from the last terms is solved over the rationals; a candidate is
    accepted once the recurrence holds on every term from some index
    onward, with at least order + 2 verified positions.  Transients are
    allowed and reported through valid_from.
    """
    a = [int(x) for x in terms]
    n = len(a)
    for order in range(max(0, (n - 2) // 2) + 1):
        fit = _fit_order(a, order)
        if fit is not None:
            coeffs, valid_from = fit
            return LinearRecurrence(order=order, coeffs=coeffs, valid_from=valid_from)
    raise RecurrenceError(
        f"no recurrence of order <= {(n - 2) // 2} fits {n} terms; supply a longer series"
    )


def recurrence_to_gf(rec: LinearRecurrence, terms, step: int = 1) -> RationalGF:
    """Rebuild num/den from a recurrence and the initial terms it acts on.

    den = 1 - c1 z - ... - cd z^d; the numerator is the convolution of den
    with the terms, cut off where the recurrence takes over.
    """
    a = [int(x) for x in terms]
    need = rec.valid_from + rec.order
    if len(a) < need:
        raise ValueError(f"need at least {need} initial terms, got {len(a)}")
    den = (1,) + tuple(-c for c in rec.coeffs)
    num = [
        sum(den[j] * a[k - j] for j in range(min(k, rec.order) + 1))
        for k in range(need)
    ]
    return RationalGF(tuple(num) if num else (0,), den, step)


def expand(g: RationalGF, length: int) -> list[int]:
    """Power series coefficients 0..length of num/den, exactly."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    out: list[int] = []
    for k in range(length + 1):
        acc = g.num[k] if k < len(g.num) else 0
        for j in range(1, min(k, len(g.den) - 1) + 1):
            acc -= g.den[j] * out[k - j]
        out.append(acc)
    return out


def faultfree(g: RationalGF) -> RationalGF:
    """Generating function of fault-free blocks: G' = 1 - 1/G.

    A fault-free rectangle has straight interfaces only at its two ends;
    every tiling splits uniquely into a concatenation of fault-free blocks,
    which is what makes G = 1/(1 - G') hold.  G'(0) = 0 by construction.
    """
    if not g.num or g.num[0] != 1:
        raise ValueError("fault-free decomposition needs g(0) = 1")
    return RationalGF(_sub(g.num, g.den) or (0,), g.num, g.step)


def from_faultfree(g: RationalGF) -> RationalGF:
    """Reassemble the full generating function: G = 1/(1 - G')."""
    den = _sub(g.den, g.num)
    if not den or den[0] != 1:
        raise ValueError("reassembly needs g(0) = 0 against a unit denominator")
    return RationalGF(g.den, den, g.step)


def _period(a: TransferAutomaton) -> int:
    # gcd of closed-walk lengths through the start of a trimmed automaton (one
    # strongly connected component): gcd of level[i] + 1 - level[j] over edges
    level = [-1] * len(a.states)
    level[a.start] = 0
    queue = [a.start]
    for i in queue:
        for j, _ in a.edges[i]:
            if level[j] < 0:
                level[j] = level[i] + 1
                queue.append(j)
    k = 0
    for i in queue:
        for j, _ in a.edges[i]:
            k = gcd(k, level[i] + 1 - level[j])
    if not k:
        raise NoTilingsError(f"width {a.width} admits no tiling of any positive length")
    return k


def strip_gf(auto: TransferAutomaton, budget: int = 32, max_doublings: int = 4) -> RationalGF:
    """Generating function of a strip automaton in resampled indexing.

    Trims the automaton, takes the length step exactly as the period of its
    start state (so no series prefix has to reveal it), resamples the count
    series, and infers the minimal recurrence; the series budget doubles on
    failure, up to budget * 2**max_doublings resampled terms.
    """
    auto = trim_reachable(auto)
    k = _period(auto)
    t_terms = budget
    while True:
        a = resample(series(auto, k * (t_terms - 1)), k)
        try:
            rec = infer_recurrence(a)
        except RecurrenceError:
            if t_terms >= budget << max_doublings:
                raise
            t_terms *= 2
            continue
        return recurrence_to_gf(rec, a, step=k)
