"""Column-step transfer automata over boundary profiles, with exact counting.

A partial tiling of a width-m strip, filled column by column, leaves behind
a boundary profile: the set of cells in the next few columns already covered
by tiles protruding past the current column.  Treating profiles as automaton
states and single-column fills as transitions turns exact tiling counts into
powers of a nonnegative integer matrix.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from contextlib import suppress
from dataclasses import dataclass
from itertools import cycle, islice, repeat
from math import gcd
from operator import itemgetter, mul

from .poly import TileSet


class AutomatonError(ValueError):
    """No tile variant fits within the requested strip width."""


class OracleLimitError(ValueError):
    """Brute-force request exceeds the oracle's cell or partial-filling budget."""


class StateBudgetError(ValueError):
    """The automaton for this width would exceed MAX_STATES profiles."""


class NoTilingsError(ValueError):
    """No closed walk returns to the start: every term past n = 0 is zero, so no step exists."""


# Checked as each profile is found, both profiles of a mirror pair when the build lumps
# them.  tetromino-L width 9 (23728 states) builds in 0.2-0.3 s on one Xeon core
# (CPython 3.11); domino width 18 would be 48620, 2.3-2.9 s, 200 MB.
MAX_STATES = 25_000
# build_automaton's fill recurses once per placement in a column, brute_force_count
# once per tile placed: wider strips, or rectangles of more cells, are refused
# well inside CPython's default recursion limit of 1000.
MAX_WIDTH = 512
# brute_force_count's memo of partial fillings, checked before each is searched: domino
# 16x16 fills it in 0.8 s and 44 MB on one Xeon core, the 12 pentominoes (63 variants) in 9 s.
MAX_ORACLE_STATES = 1 << 18
_PRIMES = [2147483647]  # 2^31 - 1 and the primes below it that _primes has drawn, descending


@dataclass(frozen=True)
class TransferAutomaton:
    """Counts strip tilings one column step at a time.

    states[i] is a boundary profile packed into an integer, column-major: bit
    (j * width + row) is set when the cell j+1 columns past the boundary in
    that row is already covered.  State 0 is the empty start profile; every
    state lies on a start-to-start path, so the automaton is strongly
    connected.  edges[i] holds the (j, ways) pairs, j ascending and ways > 0,
    for the ways to fill one column from states[i] to states[j]: the nonzero
    entries of the transfer matrix A, and (A^n)[0][0] counts m x n rectangles.

    sizes is empty unless the build lumped mirror pairs (build_automaton's mirror):
    then state i stands for sizes[i] profiles, states[i] and its mirror image when
    that differs, and edges[i] holds one (j, ways) pair for each profile that
    states[i] steps to, so a target j can repeat.  The quotient's entry Q[i][j], the
    ways from either profile of state i into the profiles of state j, is the same from
    both, so e0 A^n summed over the profiles of each state is e0 Q^n: it keeps every
    N(n), the step and the Perron root.  The full automaton has sum(sizes) states and
    the sum of sizes[i] * len(edges[i]) nonzeros.
    """

    width: int
    reach: int
    states: tuple[int, ...]
    edges: tuple[tuple[tuple[int, int], ...], ...]
    sizes: tuple[int, ...] = ()


@dataclass(frozen=True)
class CountSeries:
    """Exact tiling counts N(0..L) of width x n rectangles."""

    width: int
    terms: tuple[int, ...]


def _profile_label(packed: int, width: int, reach: int) -> str:
    if reach == 0:
        return "flush"
    # cell (row i, column j) is character j * width + i, least significant bit first
    cells = format(packed, "b").zfill(width * reach)[::-1].replace("0", ".").replace("1", "#")
    return "/".join(cells[i::width] for i in range(width))


def build_automaton(tiles: TileSet, width: int, mirror: bool = False) -> TransferAutomaton:
    """Compile a tile set and strip width into a transfer automaton.

    One transition fills the leftmost incomplete column cell by cell, top to
    bottom; every placement is anchored at the topmost cell of its leftmost
    column, so each tiling is generated exactly once.  The working window of
    reach + 1 columns is one integer, column j at bits j*width.., and each
    placement is one mask over it, tested and set in single AND/OR steps: a
    variant's placements are its mask at row 0 shifted down the strip, one row
    per anchor, for the width - height + 1 anchors where it fits.
    Profiles are discovered lazily from the all-empty start profile, never
    enumerated wholesale; finding more than MAX_STATES raises StateBudgetError,
    as does a width past MAX_WIDTH, before any placement is built.
    Variants taller than the strip are dropped; the result is trimmed as it is built.

    With mirror set, and the fitting variants closed under the row flip r -> height - 1 - r,
    the transfer matrix commutes with the mirror across the strip's midline, which fixes
    the start: each profile found is lumped with its mirror image into one state, and only
    the first found of the two is filled (an exact lumping, see TransferAutomaton).
    MAX_STATES still counts both, so a refusal comes exactly where the full build's does.
    """
    if width < 1:
        raise AutomatonError("strip width must be at least 1")
    if width > MAX_WIDTH:
        raise StateBudgetError(f"width {width} exceeds the {MAX_WIDTH}-row strip budget")
    variants = [(v.cells, h) for v in tiles.variants if (h := v.height) <= width]
    if not variants:
        raise AutomatonError(f"no tile variant fits in a strip of width {width}")
    reach = max(c for cells, _ in variants for _, c in cells)

    placements: list[list[int]] = [[] for _ in range(width)]
    masks, flips = set(), set()  # each variant's mask at row 0, and its row flip's
    for cells, height in variants:
        lead = min(r for r, c in cells if c == 0)  # anchor row when the variant touches row 0
        mask = sum(1 << (c * width + r) for r, c in cells)
        for s in range(width - height + 1):
            placements[lead + s].append(mask << s)
        if mirror:
            masks.add(mask)
            flips.add(sum(1 << (c * width + height - 1 - r) for r, c in cells))
    mirror = mirror and flips == masks
    if mirror:
        # in a profile's binary digits, each run of width is one column: cut each one reversed
        spec = f"0{reach * width}b"
        cuts = [slice(width * (j + 1) - 1, width * j - 1 if j else None, -1)
                for j in range(reach)]

        def flip(profile: int) -> int:  # each column's rows reversed
            bits = format(profile, spec)
            return int("".join([bits[cut] for cut in cuts]), 2)

    full = (1 << width) - 1
    index = {0: 0}  # leaving profile (window >> width) -> state number, ~number for a mirror twin
    profiles, sizes = [0], [1]
    rows: list[dict[int, int]] = []

    def fill(window: int) -> None:
        col0 = window & full
        if col0 == full:
            j = index.get(window >> width)
            if j is None:
                leaving = window >> width
                j = index[leaving] = len(profiles)
                profiles.append(leaving)
                if mirror:
                    twin = flip(leaving)
                    sizes.append(1 + (twin != leaving))
                    index.setdefault(twin, ~j)
                if len(index) > MAX_STATES:
                    raise StateBudgetError(f"width {width} needs over {MAX_STATES} states")
            counts[j] = counts.get(j, 0) + 1
            return
        for mask in placements[((col0 + 1) & ~col0).bit_length() - 1]:  # first empty row
            if not mask & window:
                fill(window | mask)

    for profile in profiles:  # grows while it is walked
        counts: dict[int, int] = {}
        fill(profile)
        rows.append(counts)

    return _trimmed(width, reach, tuple(profiles), rows, tuple(sizes) if mirror else ())


def _sweep(a: TransferAutomaton, classes: list) -> Iterator[list[int]]:
    # e0 A^t for t = 0, 1, ...; column t steps from the states in classes[t % len(classes)]
    # only, which must hold every i with a nonzero entry
    edges, n = a.edges, len(a.states)
    x = [1] + [0] * (n - 1)
    for sources in cycle(classes):
        yield x
        out = [0] * n
        for i in sources:
            v = x[i]
            if v:
                for j, w in edges[i]:
                    out[j] += v if w == 1 else v * w  # nearly every w is 1: no big product
        x = out


def _cyclic_classes(a: TransferAutomaton) -> list[list[int]]:
    # class c: the states at BFS level c mod k from the start, state 0, ascending, which a
    # column step maps into class c + 1.  k is the gcd of level[i] + 1 - level[j] over the
    # edges from reached states, each BFS tree edge adding 0: for a trimmed automaton, the
    # gcd of closed-walk lengths
    level = [0] + [-1] * (len(a.states) - 1)
    queue, k = [0], 0
    for i in queue:
        for j, _ in a.edges[i]:
            if level[j] < 0:
                level[j] = level[i] + 1
                queue.append(j)
            else:
                k = gcd(k, level[i] + 1 - level[j])
        if k == 1:
            return [list(range(len(a.states)))]
    if not k:
        raise NoTilingsError(f"width {a.width} admits no tiling of any positive length")
    classes = [[] for _ in range(k)]
    for i, v in enumerate(level):
        classes[v % k].append(i)
    return classes


def _vanishes(xs: list[list[int]], coeffs: tuple[int, ...]) -> bool:
    # whether x_t - c1 x_{t-1} - ... - cd x_{t-d} = 0, xs ending at x_t; stops at a nonzero entry
    rows = xs[len(xs) - len(coeffs) - 1:][::-1]
    return all(col[0] == sum(map(mul, coeffs, col[1:])) for col in zip(*rows))


def _registers(terms: list[int], p: int) -> Iterator[list[int]]:
    # Berlekamp-Massey mod p: after each term, c = [1, -c1, ..., -cL] of the shortest
    # recurrence a[t] = c1 a[t-1] + ... + cL a[t-L] of the terms so far; terms may grow
    # between reads, one term each
    a, c, b, gap, b_disc = [], [1], [1], 1, 1
    for n, x in enumerate(terms):
        a.append(x % p)
        disc = sum(map(mul, reversed(c), a[n + 1 - len(c):])) % p
        if disc:
            f, nxt = disc * pow(b_disc, -1, p), c + [0] * (gap + len(b) - len(c))
            for j, y in enumerate(b, gap):
                nxt[j] = (nxt[j] - f * y) % p
            if 2 * len(c) <= n + 2:  # 2 L <= n: L becomes n + 1 - L
                b, b_disc, gap = c, disc, 0
            c = nxt[:max(len(c), n + 3 - len(c))]  # deg c <= L: the cut drops zeros only
        gap += 1
        yield c


def _primes() -> Iterator[int]:
    # _PRIMES, then each next prime below its last, appended as it is drawn: an odd q that is a
    # strong probable prime to bases 2, 7 and 61, which is exact below 4 759 123 141 (Jaeschke)
    for n, p in enumerate(_PRIMES):  # grows while it is walked
        yield p
        q = p
        while n + 1 == len(_PRIMES):
            q -= 2
            s = ((q - 1) & (1 - q)).bit_length() - 1  # q - 1 = d 2^s, d = q >> s odd
            if all(pow(b, q >> s, q) == 1 or q - 1 in [pow(b, q >> s << i, q) for i in range(s)]
                   for b in (2, 7, 61)):
                _PRIMES[n + 1:n + 2] = [q]  # not append: racing threads store one q in one slot


def _lift(terms: list[int], c: list[int], rho: int) -> tuple[int, ...] | None:
    # (c1, ..., cL) from c, the register of the terms mod _PRIMES[0], lifted by symmetric CRT with
    # the register mod each further prime, one with another L starting over; checked on every term
    # at its first prime, when two lifts agree and past the caller's cap 2 (1 + rho)^L: None there
    # once the run holds two primes, as one prime dividing the terms can cut its register short
    lift, modulus = [], 1
    for i, p in enumerate(_primes()):
        if i:
            c = deque(_registers(terms, p), maxlen=1)[0]
        if len(c) != len(lift):
            lift, modulus, cap = [0] * len(c), 1, 2 * (1 + rho) ** (len(c) - 1)
        inv, m = pow(modulus, -1, p), modulus * p
        new = [(u + modulus * inv * (v - u) + m // 2) % m - m // 2 for u, v in zip(lift, c)]
        coeffs = tuple(-x for x in new[1:])
        if (modulus == 1 or new == lift or m > cap) and _vanishes(
                [terms[s:s + len(terms) + 1 - len(c)] for s in range(len(c))], coeffs):
            return coeffs
        if m > cap and modulus > 1:
            return None
        lift, modulus = new, m


def _certified(a: TransferAutomaton, classes: list, n: int | None = None,
               most: int | None = None) -> Iterator[int]:
    # N(k t) = x_t[0] for t = 0..n, without end when n is None, from the sweep x_t = e0 B^t,
    # B = A^k, k = len(classes): the one loop of series, count_rect and strip_gf.  The counts'
    # register mod _PRIMES[0] goes to _lift, which checks every count, once its length L has
    # 2 L <= t, and again when it has changed or t + 1 has doubled; the lift holds for every t,
    # and is returned with the counts, once its residual x_t - c1 x_{t-1} - ... - cd x_{t-d} over
    # the start class is zero, as each later one is this one times B^s.  Tries stop once 2 t >= n
    # or L > most.  The cap: den divides det(I - z B) on the start class, so it is d <= L factors
    # 1 - m z, m an eigenvalue of B, |m| <= rho = (max row sum of A)^k, and |ci| < (1 + rho)^L
    k, start = len(classes), classes[0]
    sweep = islice(_sweep(a, classes), 0, None if n is None else k * n + 1, k)
    terms, window, tried, since, rho = [], [], None, 0, None
    registers = _registers(terms, _PRIMES[0])
    for t, x in enumerate(sweep):
        yield x[0]
        terms.append(x[0])
        window.append([x[i] for i in start])
        c = next(registers)
        if n is not None and 2 * t >= n or most is not None and len(c) > most + 1:
            break
        del window[:-len(c) - 1]  # x_{t-L-1}..x_t
        if 2 * len(c) <= t + 2 and (c is not tried or t + 1 >= 2 * since):  # 2 L <= t
            tried, since = c, t + 1
            rho = rho or max(sum(w for _, w in row) for row in a.edges) ** k
            coeffs = _lift(terms, c, rho)
            if coeffs is not None and len(coeffs) < len(window) and _vanishes(window, coeffs):
                return coeffs, terms
    del terms, window, registers  # for count_rect, which then holds one vector at any length
    yield from map(itemgetter(0), sweep)


def _extended(coeffs, last, heads) -> Iterator[int]:
    # a[t] = head + c1 a[t-1] + ... + cd a[t-d] for each head in turn, after the d terms in last
    last = deque(last, maxlen=len(coeffs))
    for head in heads:
        x = head + sum(map(mul, coeffs, reversed(last)))
        last.append(x)
        yield x


def _sampled(a: TransferAutomaton, classes: list, n: int) -> Iterator[int]:
    # N(k t) for t = 0..n from _certified, with no try when n <= 32; a proved recurrence
    # of order d gives the later counts at d multiply-adds each, so it is tried only where
    # that is cheaper than the e additions of a sweep step: 2 d <= e
    proof = yield from _certified(a, classes, n, sum(map(len, a.edges)) // 2 if n > 32 else 0)
    if proof:
        coeffs, terms = proof  # d >= 1, as N(0) = 1
        yield from _extended(coeffs, terms[-len(coeffs):], repeat(0, n + 1 - len(terms)))


def _jumped(coeffs: tuple[int, ...], last: list[int], m: int) -> int:
    # a[s + m] from last = a[s-d+1..s], d >= 1, where a[t] = c1 a[t-1] + ... + cd a[t-d]: last
    # dotted with x^(d-1+m) mod x^d - c1 x^(d-1) - ... - cd (Fiduccia), by squaring and, where
    # the exponent's next bit is set, a shift, each product reduced from its top power down
    d, taps = len(coeffs), [(j, c) for j, c in enumerate(coeffs, 1) if c]
    r = [1] + [0] * (d - 1)
    for bit in bin(d - 1 + m)[2:]:
        sq = [0] * (2 * d - 1)
        for i, u in enumerate(r):
            if u:
                for j, v in enumerate(r):
                    sq[i + j] += u * v
        if bit == "1":
            sq.insert(0, 0)
        while len(sq) > d:  # x^i = c1 x^(i-1) + ... + cd x^(i-d)
            u, i = sq.pop(), len(sq)
            for j, c in taps:
                sq[i - j] += c * u
        r = sq
    return sum(map(mul, r, last))


def _classes(a: TransferAutomaton, length: int) -> list:
    # the cyclic classes, or one class of every state when no closed walk passes the start
    if length < 0:
        raise ValueError("length must be nonnegative")
    with suppress(NoTilingsError):
        return _cyclic_classes(a)
    return [range(len(a.states))]


def count_rect(a: TransferAutomaton, length: int) -> int:
    """Exact number of tilings of the width x length rectangle: the last count of series.

    Past 32 counts N(k t), once the certified loop proves a recurrence of any order d, the
    count m steps on comes from x^(d-1+m) mod the recurrence's characteristic polynomial, in
    O(d^2 log m) big-integer products.  Its memory does not grow with m.
    """
    classes = _classes(a, length)
    n, rest = divmod(length, len(classes))
    if rest:
        return 0
    sweep = _certified(a, classes, n, None if n > 32 else 0)
    try:
        while True:
            x = next(sweep)
    except StopIteration as stop:
        if not stop.value:
            return x
        coeffs, terms = stop.value
        return _jumped(coeffs, terms[-len(coeffs):], n + 1 - len(terms))


def series(a: TransferAutomaton, length: int) -> CountSeries:
    """Exact counts N(0..length): a sparse sweep of e0 A^n, one cyclic class a column,
    read through the certified loop that strip_gf also reads.  Past 32 swept counts N(k t),
    while fewer are swept than left, a recurrence proposed mod word primes and proved by
    the sweep gives the rest where it is the cheaper; a failed candidate leaves the sweep on.
    """
    classes = _classes(a, length)
    k = len(classes)
    terms = [0] * (length + 1)
    terms[::k] = _sampled(a, classes, length // k)
    return CountSeries(width=a.width, terms=tuple(terms))


def _closure(adj: list) -> set[int]:
    seen, stack = {0}, [0]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def _trimmed(width: int, reach: int, states: tuple, rows: list, sizes: tuple) -> TransferAutomaton:
    # rows[i] is state i's {target: ways}, each state with a row reached from state 0, where with
    # sizes the ways into a target's mirror twin are keyed ~target: keeps the states that reach it
    # again, by one backward search, renumbered ascending, and sorts their rows, one (target, ways)
    # pair a profile reached
    back: list[list[int]] = [[] for _ in rows]
    if sizes:
        back += back[::-1]  # back[~j] is back[j]
    for i, row in enumerate(rows):
        for j in row:
            back[j].append(i)
    keep = sorted(_closure(back))
    if len(keep) < len(rows):
        renumber = dict(zip(keep, range(len(keep))))
        if sizes:
            renumber.update({~j: ~k for j, k in renumber.items()})
        rows = [{renumber[j]: w for j, w in rows[i].items() if j in renumber} for i in keep]
        states = tuple(states[i] for i in keep)
        sizes = tuple(sizes[i] for i in keep) if sizes else ()
    if sizes:
        rows = [[(j if j >= 0 else ~j, w) for j, w in r.items()] for r in rows]
        return TransferAutomaton(width, reach, states, tuple(tuple(sorted(r)) for r in rows), sizes)
    return TransferAutomaton(width, reach, states, tuple(tuple(sorted(r.items())) for r in rows))


def trim_reachable(a: TransferAutomaton) -> TransferAutomaton:
    """Drop the states of a hand-built automaton that lie on no start-to-start path.

    Keeps the states reachable from state 0, the start, and co-reachable back to it, renumbered
    ascending, or a itself when that is all; N(n) is unchanged.  build_automaton trims as it builds.
    A repeated target's ways are summed, or, in a mirror quotient, kept one pair a profile.
    """
    reached = _closure([[j for j, _ in out] for out in a.edges])
    rows: list[dict[int, int]] = [{} for _ in a.edges]
    for i in reached:
        row = rows[i]
        for j, w in a.edges[i]:
            j = ~j if a.sizes and j in row else j  # a twin's pair, keyed as the build keys it
            row[j] = row.get(j, 0) + w
    trimmed = _trimmed(a.width, a.reach, a.states, rows, a.sizes)
    return a if len(trimmed.states) == len(a.states) else trimmed


def brute_force_count(tiles: TileSet, width: int, length: int) -> int:
    """Count tilings by a memoized search over the partial fillings of the rectangle.

    Independent oracle: shares nothing with build_automaton.  It returns 0 at
    once when the area is not a multiple of the gcd of the tile areas.  The
    grid is scanned row-major along its short side, and each step covers the
    first empty cell with every variant whose scan-first cell lands on it.
    The count below a partial filling depends only on its occupied cells, so
    each filling is searched once; a rectangle longer than wide is transposed
    together with the variants, which keeps the filled frontier, and so the
    memo, small.  OracleLimitError past MAX_WIDTH cells or past
    MAX_ORACLE_STATES partial fillings.
    """
    if width < 1 or length < 0:
        raise ValueError("need width >= 1 and length >= 0")
    rect = f"{width}x{length} rectangle"
    if width * length > MAX_WIDTH:
        raise OracleLimitError(f"{rect} exceeds the {MAX_WIDTH}-cell oracle budget")
    if width * length % (gcd(*(v.area for v in tiles.variants)) or 1):  # gcd() = 0: no tiles
        return 0
    variants = [v.cells for v in tiles.variants]
    if length > width:
        width, length = length, width
        variants = [[(c, r) for r, c in cells] for cells in variants]
    shifted = []
    for cells in variants:
        lead_col = min(c for r, c in cells if r == 0)
        shifted.append(sorted((r, c - lead_col) for r, c in cells))
    memo = {(1 << (width * length)) - 1: 1}  # occupied cells -> tilings that complete them

    def count(occupied: int) -> int:
        if occupied in memo:
            return memo[occupied]
        if len(memo) >= MAX_ORACLE_STATES:  # >=: entries land as calls return
            raise OracleLimitError(f"{rect} exceeds the {MAX_ORACLE_STATES}-filling oracle budget")
        free = ((occupied + 1) & ~occupied).bit_length() - 1
        r, c = divmod(free, length)
        total = 0
        for cells in shifted:
            mask = 0
            for dr, dc in cells:
                rr, cc = r + dr, c + dc
                if rr >= width or cc < 0 or cc >= length:
                    break
                bit = 1 << (rr * length + cc)
                if occupied & bit:
                    break
                mask |= bit
            else:
                total += count(occupied | mask)
        memo[occupied] = total
        return total

    return count(0)


def to_dot(a: TransferAutomaton) -> str:
    """Render the automaton as a DOT digraph.

    Nodes carry the profile bitmap, one strip row per '/'-separated group,
    '#' marking a protruding cell; edge labels carry multiplicities.
    """
    lines = ["digraph transfer {", "  rankdir=LR;"]
    for i, packed in enumerate(a.states):
        label = _profile_label(packed, a.width, a.reach)
        shape = ' shape="doublecircle"' if i == 0 else ""
        lines.append(f'  s{i} [label="{label}"{shape}];')
    for i, out in enumerate(a.edges):
        for j, ways in out:
            lines.append(f'  s{i} -> s{j} [label="{ways}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
