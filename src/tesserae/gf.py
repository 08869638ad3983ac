"""Exact linear recurrences and rational generating functions.

Everything here is exact integer arithmetic; no floating point.
Polynomials are tuples of coefficients in ascending powers of z.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import mul

from . import automaton
# NoTilingsError: strip_gf raises it through _cyclic_classes, and callers import it from here
from .automaton import NoTilingsError, TransferAutomaton, _certified, _cyclic_classes, series


class RecurrenceError(ValueError):
    """No linear recurrence fits the supplied terms (series too short?)."""


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


def _primitive(p) -> tuple[int, ...]:
    content = 0
    for c in p:
        content = gcd(content, c)
    if p[-1] < 0:
        content = -content
    return tuple(c // content for c in p)


def _prem(a, b) -> tuple[int, ...]:
    # primitive part of the remainder of a by b, fraction-free: each step scales
    # a by lead(b)/g and cancels its lead with lead(a)/g times b
    a = list(a)
    while len(a) >= len(b):
        g = gcd(a[-1], b[-1])
        fa, fb, shift = b[-1] // g, a[-1] // g, len(a) - len(b)
        a = [fa * c for c in a]
        for i, c in enumerate(b):
            a[shift + i] -= fb * c
        while a and not a[-1]:
            a.pop()
    return _primitive(a) if a else ()


def poly_gcd(p, q) -> tuple[int, ...]:
    """Polynomial gcd over ℤ, fraction-free, by a primitive pseudo-remainder
    sequence: the gcd over the rationals as a primitive integer polynomial
    with positive leading coefficient."""
    a, b = _strip(p), _strip(q)
    if not a:
        return _primitive(b) if b else ()
    while b:
        a, b = b, _prem(a, b)
    return _primitive(a)


def _exact_div(p, g) -> tuple[int, ...]:
    # p / g with zero remainder guaranteed; integer result by Gauss's lemma,
    # as g is primitive
    rem = list(p)
    out = [0] * (len(rem) - len(g) + 1)
    for shift in range(len(out) - 1, -1, -1):
        factor = out[shift] = rem[shift + len(g) - 1] // g[-1]
        for i, c in enumerate(g):
            rem[shift + i] -= factor * c
    assert not any(rem), "non-exact polynomial division"
    return tuple(out)


def _reduced(num, den) -> tuple[tuple[int, ...], tuple[int, ...]]:
    num = _strip(num)
    den = _strip(den)
    if not den or den[0] == 0:
        raise ValueError("denominator needs a nonzero constant term")
    if not num:
        return (0,), (1,)
    g = poly_gcd(num, den)  # (1,) when they are coprime, which divides nothing
    num = _exact_div(num, g)
    den = _exact_div(den, g)
    if den[0] == -1:
        num = tuple(-c for c in num)
        den = tuple(-c for c in den)
    return num, den


@dataclass(frozen=True)
class RationalGF:
    """A rational generating function num(z)/den(z), kept in lowest terms.

    A caller's num and den are reduced on construction, den(0) normalized to
    1 and any common factor divided out; strip_gf, faultfree and from_faultfree
    build theirs coprime.  step is the number of strip columns per power of z.
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


def _coprime(num, den, step: int) -> RationalGF:
    # RationalGF without the gcd, for a num and den already coprime with den(0) = 1
    g = object.__new__(RationalGF)
    for field, value in ("num", _strip(num) or (0,)), ("den", _strip(den)), ("step", step):
        object.__setattr__(g, field, value)
    return g


@dataclass(frozen=True)
class LinearRecurrence:
    """a[t] = coeffs[0] a[t-1] + ... + coeffs[order-1] a[t-order] for t >= valid_from."""

    order: int
    coeffs: tuple[int, ...]
    valid_from: int


def infer_recurrence(terms) -> LinearRecurrence:
    """Minimal integer linear recurrence of the terms, by Berlekamp-Massey.

    The shortest linear feedback shift register that generates every term
    has length L, the linear complexity, and connection polynomial C = 1 -
    c1 z - ... - cd z^d, d <= L: a[t] = c1 a[t-1] + ... + cd a[t-d] holds
    for t >= L, reported as valid_from.  It is accepted only when C is
    integral and order + 2 terms lie past L, as always when L <= len(terms)
    / 2 - 1.  C is lifted from a word prime, with rho = n max|a| for n
    terms: once n - L >= d, c1..cd are the one solution at t = L..n-1
    (Massey's lemma), so by Cramer and Hadamard an integral |ci| <= rho^d.
    With none accepted, the error reads L and the order off the longer of the
    registers mod the first two word primes.
    """
    a = [int(x) for x in terms]
    n, c, lift = len(a), [[1], *automaton._registers(a, automaton._PRIMES[0])][-1], None
    if n - len(c) >= len(_strip(c)):  # the margin on the residues, before any lift
        lift = automaton._lift(a, c, n * max(map(abs, a)))
    if lift is None:  # one prime dividing the terms can cut its register short
        primes = automaton._primes()
        next(primes)
        c = max(c, [[1], *automaton._registers(a, next(primes))][-1],
                key=lambda r: (len(r), len(_strip(r))))
    coeffs = c[1:] if lift is None else lift
    length, order = len(coeffs), len(_strip(coeffs))
    if lift is None or n - length < order + 2:
        raise RecurrenceError(
            f"{n} terms leave {n - length} past the linear complexity {length}, "
            f"too few to check an order-{order} integer recurrence; supply a longer series"
        )
    return LinearRecurrence(order, lift[:order], length)


def _fraction(coeffs, a, m: int) -> tuple[list[int], tuple[int, ...]]:
    # num = den a mod z^m over den = 1 - c1 z - ... - cd z^d, from the terms a[0..m-1]
    den = (1, *(-c for c in coeffs))
    return [sum(map(mul, den, a[t::-1])) for t in range(m)], den


def recurrence_to_gf(rec: LinearRecurrence, terms, step: int = 1) -> RationalGF:
    """Rebuild num/den from a recurrence and the initial terms it acts on.

    den = 1 - c1 z - ... - cd z^d; the numerator is the convolution of den
    with the terms, cut off where the recurrence takes over.
    """
    a = [int(x) for x in terms]
    need = rec.valid_from + rec.order
    if len(a) < need:
        raise ValueError(f"need at least {need} initial terms, got {len(a)}")
    return RationalGF(*_fraction(rec.coeffs, a, need), step)


def expand(g: RationalGF, length: int) -> list[int]:
    """Power series coefficients 0..length of num/den, exactly."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    heads = [*g.num[:length + 1], *[0] * (length + 1 - len(g.num))]
    return list(automaton._extended([-c for c in g.den[1:]], [0] * (len(g.den) - 1), heads))


def faultfree(g: RationalGF) -> RationalGF:
    """Generating function of fault-free blocks: G' = 1 - 1/G.

    A fault-free rectangle has straight interfaces only at its two ends;
    every tiling splits uniquely into a concatenation of fault-free blocks,
    which is what makes G = 1/(1 - G') hold.  G'(0) = 0 by construction, and
    gcd(num - den, num) = gcd(den, num) = 1 keeps it coprime, as from_faultfree.
    """
    if not g.num or g.num[0] != 1:
        raise ValueError("fault-free decomposition needs g(0) = 1")
    return _coprime(_sub(g.num, g.den), g.num, g.step)


def from_faultfree(g: RationalGF) -> RationalGF:
    """Reassemble the full generating function: G = 1/(1 - G')."""
    den = _sub(g.den, g.num)
    if not den or den[0] != 1:
        raise ValueError("reassembly needs g(0) = 0 against a unit denominator")
    return _coprime(g.den, den, g.step)


def strip_gf(auto: TransferAutomaton) -> RationalGF:
    """Generating function of a strip automaton in resampled indexing.

    Takes the length step k exactly as the period of state 0, the start.
    States at BFS level c mod k form cyclic class c, which a column step maps
    into class c + 1; a[t] = N(k t) is read off B = A^k restricted to the
    start's class of r0 states, so its linear complexity L is at most r0 by
    Cayley-Hamilton.  The certified sweep of automaton proves a recurrence
    a[t] = c1 a[t-1] + ... + cd a[t-d] for every t.  Then den = 1 - c1 z -
    ... - cd z^d and num = den (a[0] + a[1] z + ...) mod z^d are coprime:
    the gf in lowest terms has an integral den (Fatou's lemma), a recurrence
    of the least length L_Q, which reduces mod p, so the register mod p has
    d = L_p <= L_Q, and the proved recurrence gives L_Q <= d; a common factor
    of degree e would generate the counts with complexity d - e.  At 2 r0 +
    2 counts with none proved, or below r0 = 16 through series, the same
    register and lift, in infer_recurrence, and recurrence_to_gf take them.
    """
    classes = _cyclic_classes(auto)
    k, r0 = len(classes), len(classes[0])
    sweep = _certified(auto, classes)
    a = series(auto, k * (2 * r0 + 1)).terms[::k] if r0 < 16 else []  # all, or none yet
    try:
        while len(a) < 2 * r0 + 2:
            a.append(next(sweep))
    except StopIteration as proof:
        coeffs = proof.value[0]
        return _coprime(*_fraction(coeffs, a, len(coeffs)), k)
    return recurrence_to_gf(infer_recurrence(a), a, step=k)
