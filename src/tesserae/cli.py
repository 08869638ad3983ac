"""Command-line surface: counting, generating functions, entropy bounds.

Handlers reach the library as tesserae.<module>.<name>: the package imports
each submodule on its first read, so a command compiles only the modules it runs.
A command line in canonical form (the command, each of its flags in full with its
value as the next word, --json anywhere after the command) is read straight from
_COMMANDS; any other, help and usage errors included, goes to argparse, which this
module imports only then.
"""

from __future__ import annotations

import math
import os
import sys
import types

import tesserae

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BAD_TILES = 2
EXIT_NO_TILINGS = 3

# --length budget of count, series and faultfree: L columns over n states and
# e nonzeros cost L (n + e) (4096 + L b) bit operations, as a count gains at
# most b = bit_length(largest row weight sum) bits a column, plus 4096 for each
# multiply-add; one Xeon core (CPython 3.11): domino w16 L39 1.5 s, w12 L578 0.9 s.
# faultfree pays for strip_gf's sweep, 2 r0 + 2 steps of k columns over every state at most,
# and for L terms of at most r0 multiply-adds (k, r0: the start's period and class size).
# The counting commands sweep the mirror quotient (build_automaton's mirror) where the tiles
# allow it, and n, e and r0 are still the full automaton's, so every refusal is as before.
MAX_SWEEP_WORK = 5 * 10**10

# output budget: the sum of squared digits of the counts a command prints, as CPython's
# int -> str is quadratic, about 1.8e-11 s per squared digit on one Xeon core (CPython
# 3.11): faultfree domino w8 L5000 (2.6e10) 0.42 s, tromino-right w4 L8000 (1.0e11) 1.8 s,
# series domino w2 L20000 (1.16e11) 2.0 s; L30000 (3.9e11) would take 7.1 s.
MAX_DIGITS_WORK = 15 * 10**10


class UsageError(Exception):
    pass


def _tileset(spec: str):
    if spec in tesserae.poly.PRESETS:
        return tesserae.poly.preset(spec)
    if not os.path.isfile(spec):
        raise tesserae.poly.TileError(f"{spec!r} is neither a preset nor a tile file")
    try:
        with open(spec, encoding="utf-8-sig") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise tesserae.poly.TileError(f"cannot read tile file {spec!r}: {exc}") from exc
    return tesserae.poly.parse_tile_file(text)


def _check_sweep(auto, columns: int, steps: int | None = None, adds: int | None = None) -> None:
    # `steps` (default: columns) of `adds` multiply-adds each (default: n + e, one column
    # over every state of the full automaton), on counts of up to `columns` columns
    if adds is None:
        sizes = auto.sizes or [1] * len(auto.states)
        adds = sum(s * (1 + len(out)) for s, out in zip(sizes, auto.edges))
    b = max((sum(w for _, w in out) for out in auto.edges), default=0).bit_length()
    if (columns if steps is None else steps) * adds * (4096 + columns * b) > MAX_SWEEP_WORK:
        raise UsageError(f"{columns} columns exceed the sweep budget at width {auto.width}")


def _decimal(*counts: int) -> list[str]:
    """The counts in decimal at any length, priced first from their bit lengths."""
    digits = [n.bit_length() * 0.30103 for n in counts]  # log10(2) digits a bit
    if sum(d * d for d in digits) > MAX_DIGITS_WORK:
        raise UsageError(f"{len(counts)} counts of up to {math.ceil(max(digits))} digits "
                         "exceed the output budget")
    # lift CPython's 4300-digit cap for this conversion only (none before 3.10.7)
    cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        return [str(n) for n in counts]
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


def _parse_beta(text: str) -> float:
    cleaned = text.replace(" ", "").lower()
    if cleaned in ("ln2/2", "ln(2)/2", "(ln2)/2", "0.5*ln2", "0.5ln2"):
        return tesserae.ising.BETA_TILING
    try:
        return float(cleaned)
    except ValueError:
        raise UsageError(f"cannot parse --beta {text!r}") from None


def _count(tiles, width: int, length: int) -> int:
    auto = tesserae.automaton.build_automaton(tiles, width, mirror=True)
    _check_sweep(auto, length)
    return tesserae.automaton.count_rect(auto, length)


def _cmd_count(args) -> dict:
    tiles, n = _tileset(args.tiles), None
    if 1 <= args.length < args.width <= tesserae.automaton.MAX_WIDTH and any(
            v.height <= args.width for v in tiles.variants):
        # length x width with the variants transposed: 0 when none fits in length columns, and
        # the width side after all when over a budget here, as the transposed reach can be longer
        flipped = tesserae.poly.make_tileset(
            [tesserae.poly.Polyomino(frozenset((c, r) for r, c in v.cells))
             for v in tiles.variants if v.width <= args.length], False, False)
        try:
            n = _count(flipped, args.length, args.width) if flipped.variants else 0
        except (tesserae.automaton.StateBudgetError, UsageError):
            pass
    if n is None:
        n = _count(tiles, args.width, args.length)
    return {"command": "count", "tiles": args.tiles, "width": args.width,
            "length": args.length, "count": _decimal(n)[0]}


def _cmd_series(args) -> dict:
    auto = tesserae.automaton.build_automaton(_tileset(args.tiles), args.width, mirror=True)
    _check_sweep(auto, args.length)
    s = tesserae.automaton.series(auto, args.length)
    return {"command": "series", "tiles": args.tiles, "width": args.width,
            "length": args.length, "series": _decimal(*s.terms)}


def _cmd_oracle(args) -> dict:
    n = tesserae.automaton.brute_force_count(_tileset(args.tiles), args.width, args.length)
    return {"command": "oracle", "tiles": args.tiles, "width": args.width,
            "length": args.length, "count": _decimal(n)[0]}


def _cmd_gf(args) -> dict:
    auto = tesserae.automaton.build_automaton(_tileset(args.tiles), args.width, mirror=True)
    g = tesserae.gf.strip_gf(auto)
    return {"command": "gf", "tiles": args.tiles, "width": args.width,
            "num": list(g.num), "den": list(g.den), "step": g.step}


def _cmd_faultfree(args) -> dict:
    auto = tesserae.automaton.build_automaton(_tileset(args.tiles), args.width, mirror=True)
    classes = tesserae.automaton._cyclic_classes(auto)
    k, r0 = len(classes), len(classes[0])
    if auto.sizes:  # the full automaton's class: the profiles its states stand for
        r0 = sum(auto.sizes[i] for i in classes[0])
    _check_sweep(auto, k * args.length, args.length, r0)  # the expansion, checked first
    _check_sweep(auto, k * (2 * r0 + 2), 2 * r0 + 2)  # strip_gf
    g = tesserae.gf.faultfree(tesserae.gf.strip_gf(auto))
    terms = tesserae.gf.expand(g, args.length)
    return {"command": "faultfree", "tiles": args.tiles, "width": args.width,
            "num": list(g.num), "den": list(g.den), "step": g.step,
            "terms": _decimal(*terms)}


def _cmd_entropy(args) -> dict:
    tiles = _tileset(args.tiles)
    g = tesserae.gf.strip_gf(tesserae.automaton.build_automaton(tiles, args.width, mirror=True))
    report = tesserae.spectral.strip_entropy(g, args.width)
    try:
        upper = tesserae.spectral.entropy_upper(tiles)
    except tesserae.spectral.SpectralError:
        upper = None  # mixed tile areas: the scanning bound is undefined
    return {"command": "entropy", "tiles": args.tiles, "width": args.width,
            "step": g.step, "lambda": report.lambda_, "sites_per_step": report.sites_per_step,
            "sigma_lower": report.sigma_lower, "sigma_upper": upper, "residual": report.residual}


def _cmd_upper(args) -> dict:
    sigma = tesserae.spectral.entropy_upper(_tileset(args.tiles))
    return {"command": "upper", "tiles": args.tiles, "sigma_upper": sigma}


def _cmd_ising(args) -> dict:
    beta = _parse_beta(args.beta)
    if beta == tesserae.ising.BETA_TILING:
        bound = tesserae.ising.t_tetromino_bound(args.grid)
        sigma, lower, err = bound.sigma_ising, bound.sigma_lower, bound.err_estimate
    else:  # no estimate at grid 64, whose half grid is below the smallest one
        sigma, err = tesserae.ising.onsager_estimate(beta, args.grid)
        lower, err = None, err if args.grid >= 128 else None
    return {"command": "ising-bound", "beta": beta, "grid": args.grid,
            "sigma_ising": sigma, "sigma_lower": lower, "err_estimate": err}


def _cmd_fylfot(args) -> dict:
    total = tesserae.ising.fylfot_sum(args.width, args.length)
    return {"command": "fylfot", "rows": args.width, "cols": args.length,
            "sum": _decimal(total)[0],
            "per_site_bound": math.log(total) / (16 * args.width * args.length)}


def _cmd_dot(args) -> dict:
    auto = tesserae.automaton.build_automaton(_tileset(args.tiles), args.width)
    return {"command": "automaton-dot", "tiles": args.tiles, "width": args.width,
            "states": len(auto.states), "dot": tesserae.automaton.to_dot(auto)}


# An argument: (flag, help line, default or None when required, type, least value or None).
# main refuses a value below its least one, in declared order, before the handler runs.
# _canonical and build_parser both read this table, so the two parse alike.
_TILES = ("--tiles", "preset name or tile file path", None, str, None)
_STRIP = (_TILES, ("--width", "strip width (rows)", None, int, 1))
_RECT = (*_STRIP, ("--length", "rectangle length (columns)", None, int, 0))

# name -> (handler, help line, arguments), in --help order
_COMMANDS = {
    "count": (_cmd_count, "tilings of one rectangle", _RECT),
    "series": (_cmd_series, "tiling counts for every length 0..L", _RECT),
    "oracle": (_cmd_oracle, "brute-force recount of one rectangle", _RECT),
    "gf": (_cmd_gf, "rational generating function of a strip", _STRIP),
    "faultfree": (_cmd_faultfree, "fault-free block generating function and counts",
                  (*_STRIP, ("--length", "number of expansion steps", 10, int, 0))),
    "entropy": (_cmd_entropy, "entropy bounds for a strip width", _STRIP),
    "upper": (_cmd_upper, "scanning upper bound for plane tilings", (_TILES,)),
    "ising-bound": (_cmd_ising, "Ising-model entropy bound for the T tetromino", (
        ("--beta", 'inverse temperature: "ln2/2" or a decimal', "ln2/2", str, None),
        ("--grid", "quadrature nodes per axis (power of two)", 1024, int, None))),
    "fylfot": (_cmd_fylfot, "exact fylfot-lattice weighted sum", (
        ("--width", "fylfot lattice rows", None, int, 1),
        ("--length", "fylfot lattice columns", None, int, 1))),
    "automaton-dot": (_cmd_dot, "transfer automaton as a DOT digraph", _STRIP),
}


def build_parser():
    """Parser with every subcommand, for the command lines that _canonical does not
    read: help, usage errors, abbreviated flags and --flag=value."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # argparse would exit(2); usage errors are exit 1 here
            raise UsageError(message)

    top = _Parser(
        prog="tesserae",
        description="Exact strip-tiling counts, generating functions, and entropy bounds.",
    )
    sub = top.add_subparsers(dest="command", metavar="COMMAND", parser_class=_Parser)
    for name, (_, help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit canonical JSON")
        for flag, help_line, default, kind, _ in arguments:
            p.add_argument(flag, type=kind, default=default, required=default is None,
                           help=help_line)
    return top


def _canonical(argv):
    """build_parser().parse_args(argv) for a canonical argv, None for any other.

    Canonical: a command, then each of its flags spelled in full with a value as the
    next word that does not start with "-" and that the flag's type takes, at least
    the required flags, and --json anywhere.  A repeated flag keeps its last value,
    and a string default passes through the type, as in argparse.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    arguments = _COMMANDS[argv[0]][2]
    kinds = {flag: kind for flag, _, _, kind, _ in arguments}
    args = {"command": argv[0], "json": False}
    words = iter(argv[1:])
    for word in words:
        if word == "--json":
            args["json"] = True
            continue
        value = next(words, "-")
        if word not in kinds or value.startswith("-"):
            return None
        try:
            args[word[2:]] = kinds[word](value)
        except ValueError:
            return None
    for flag, _, default, kind, _ in arguments:
        if flag[2:] not in args:
            if default is None:
                return None
            args[flag[2:]] = kind(default) if isinstance(default, str) else default
    return types.SimpleNamespace(**args)


def render_json(report: dict) -> str:
    import json

    # floats to 12 significant digits, the digits render_text prints
    report = {k: float(f"{v:.12g}") if isinstance(v, float) else v for k, v in report.items()}
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def render_text(report: dict) -> str:
    if report["command"] == "automaton-dot":
        return report["dot"]
    lines = []
    for key, value in report.items():
        if isinstance(value, list):
            value = " ".join(str(v) for v in value)
        elif isinstance(value, float):
            value = f"{value:.12g}"
        lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


# ValueErrors with an exit code of their own: (module, class, exit code, label).  Only
# loaded modules are looked in, as a module not loaded has raised nothing.
_FAILURES = (
    ("poly", "TileError", EXIT_BAD_TILES, "tile error"),
    ("automaton", "AutomatonError", EXIT_BAD_TILES, "tile error"),
    ("automaton", "NoTilingsError", EXIT_NO_TILINGS, "no tilings"),
)


def _failure(exc: ValueError) -> tuple[int, str]:
    for module, name, code, label in _FAILURES:  # isinstance(exc, ()) is False
        if isinstance(exc, getattr(sys.modules.get(f"{__package__}.{module}"), name, ())):
            return code, label
    return EXIT_USAGE, "error"  # budgets, recurrence, spectral and Ising errors


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _canonical(argv) or build_parser().parse_args(argv)
        if not args.command:
            raise UsageError("a command is required (try --help)")
        handler, _, arguments = _COMMANDS[args.command]
        for flag, _, _, _, least in arguments:
            if least is not None and getattr(args, flag[2:]) < least:
                bound = "nonnegative" if least == 0 else f"at least {least}"
                raise UsageError(f"{flag} must be {bound}")
        report = handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        code, label = _failure(exc)
        print(f"{label}: {exc}", file=sys.stderr)
        return code
    sys.stdout.write(render_json(report) if args.json else render_text(report))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
