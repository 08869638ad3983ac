"""Reference answers of the benchmark jobs and the checks that use them.

`refs.json` holds the `--json` report of every job, recorded once by
`record.py` from the commit that introduced the benchmark.  Windowed
`series` jobs are recorded at the top of their window and truncated here;
`automaton-dot` reports keep a SHA-256 of the DOT text instead of the text.
The file also holds `series` reports that exist only so the references can
be cross-checked by routes that share no code path with the job itself.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFS_PATH = Path(__file__).resolve().parent / "refs.json"

# Rectangles the exhaustive oracle recounts: at most 64 cells (its default
# budget) and few enough tilings that backtracking over each one is quick.
ORACLE_MAX_CELLS = 64
ORACLE_MAX_COUNT = 20000

# README reference values: (report key, field, expected).
README_VALUES = (
    ("gf --tiles tromino-right --width 4", "num", [1, -6]),
    ("gf --tiles tromino-right --width 4", "den", [1, -10, 22, 4]),
    ("gf --tiles tromino-right --width 4", "step", 3),
    ("faultfree --tiles tromino-right --width 4 --length 6", "terms",
     ["0", "4", "2", "8", "48", "288", "1728"]),
    ("entropy --tiles tromino-right --width 5", "lambda", 12.3636672246),
    ("entropy --tiles tromino-right --width 5", "sigma_lower", 0.167650807269),
    ("entropy --tiles tetromino-L --width 4", "lambda", 4.34601641142),
    ("entropy --tiles tetromino-L --width 4", "sigma_lower", 0.183657457255),
    ("gf --tiles tetromino-T --width 4", "num", [1, -1]),
    ("gf --tiles tetromino-T --width 4", "den", [1, -3]),
    ("gf --tiles tetromino-T --width 4", "step", 4),
    ("entropy --tiles tetromino-T --width 4", "sigma_lower", 0.0686632680418),
    ("entropy --tiles tromino-right --width 5", "sigma_upper", 0.462098120373),
    ("count --tiles tetromino-T --width 6 --length 8", "count", "0"),
    ("ising-bound --grid 64", "sigma_ising", 0.827026956718),
    ("ising-bound --grid 64", "sigma_lower", 0.0950108835799),
    ("fylfot --width 2 --length 2", "sum", "82"),
)
README_SERIES = (
    # (series key, step, leading resampled counts, last count)
    ("series --tiles tromino-right --width 4 --length 30", 3, ["1", "4", "18"], "26579488"),
    ("series --tiles tromino-right --width 5 --length 30", 3, ["1", "0", "72"], "25633231872"),
)
README_FAULTFREE_L = ("faultfree --tiles tetromino-L --width 4", ["2", "6", "10", "18", "38"])


def load_refs() -> dict:
    with open(REFS_PATH) as f:
        return json.load(f)


def canonical(report: dict) -> str:
    """The CLI's --json rendering: sorted keys, no spaces, one line."""
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def reference_form(report: dict) -> dict:
    """A report as stored: the DOT text of automaton-dot replaced by its hash."""
    if report.get("command") == "automaton-dot":
        report = dict(report)
        report["dot_sha256"] = hashlib.sha256(report.pop("dot").encode()).hexdigest()
    return report


def expected_report(refs: dict, argv: list[str]) -> dict | None:
    """The reference report for one command line, or None if none is stored."""
    reports = refs["reports"]
    key = " ".join(argv)
    if key in reports:
        return reports[key]
    if argv[0] == "series" and argv[-2] == "--length":
        length = int(argv[-1])
        prefix = " ".join(argv[:-1]) + " "
        tops = [int(k[len(prefix):]) for k in reports if k.startswith(prefix)]
        tops = [top for top in tops if top > length]
        if tops:
            wide = reports[prefix + str(min(tops))]
            return dict(wide, length=length, series=wide["series"][: length + 1])
    return None


def check_output(refs: dict, argv: list[str], text: str) -> str | None:
    """None if `text` is the right --json output for `argv`, else the reason."""
    try:
        report = json.loads(text)
    except ValueError:
        return "output is not JSON"
    if not isinstance(report, dict) or canonical(report) != text:
        return "output is not one canonical JSON object"
    expected = expected_report(refs, argv)
    if expected is None:
        return "no reference answer recorded"
    if reference_form(report) != expected:
        return "answer differs from the reference"
    return None


def _gf(report: dict, gf_cls):
    return gf_cls(tuple(report["num"]), tuple(report["den"]), report["step"])


def cross_check(refs: dict, tesserae, oracle_cells: int = ORACLE_MAX_CELLS) -> list[str]:
    """Check the stored references against each other and the README.

    `tesserae` is the package under test; only its exact algebra
    (RationalGF, expand, faultfree, from_faultfree) and its brute-force
    oracle are used, never the automaton sweep that produced the answers.
    The oracle recounts rectangles of at most `oracle_cells` cells.
    Returns one message per disagreement.
    """
    reports = refs["reports"]
    errors: list[str] = []

    def fail(message: str) -> None:
        errors.append(message)

    def close(x, y) -> bool:
        return isinstance(x, float) and abs(x - y) <= 1e-11 * max(1.0, abs(y))

    for key, field, want in README_VALUES:
        got = reports[key][field]
        if got != want and not close(got, want):
            fail(f"{key}: {field} is {got!r}, README says {want!r}")
    for key, step, lead, last in README_SERIES:
        terms = reports[key]["series"]
        if terms[::step][: len(lead)] != lead or terms[-1] != last:
            fail(f"{key}: README counts {lead} ... {last} not reproduced")
    key, lead = README_FAULTFREE_L
    if reports[key]["terms"][1 : 1 + len(lead)] != lead:
        fail(f"{key}: README fault-free counts {lead} not reproduced")

    everything = list(reports.values()) + list(refs["support"].values())
    series_refs: dict[tuple[str, int], list[int]] = {}
    for r in everything:
        key = (r.get("tiles"), r.get("width"))
        if r["command"] == "series" and len(r["series"]) > len(series_refs.get(key, ())):
            series_refs[key] = [int(t) for t in r["series"]]

    # expand(gf) against the independently swept series, resampled at step
    for key, r in reports.items():
        if r["command"] != "gf":
            continue
        terms = series_refs.get((r["tiles"], r["width"]))
        if terms is None:
            fail(f"{key}: no series to expand against")
            continue
        sampled = terms[:: r["step"]]
        if tesserae.expand(_gf(r, tesserae.RationalGF), len(sampled) - 1) != sampled:
            fail(f"{key}: expand(gf) disagrees with the series")

    # faultfree: reassembly gives back the gf, expansion gives the terms
    gfs = {(r["tiles"], r["width"]): r for r in everything if r["command"] == "gf"}
    for key, r in reports.items():
        if r["command"] != "faultfree":
            continue
        ff = _gf(r, tesserae.RationalGF)
        whole = gfs.get((r["tiles"], r["width"]))
        if whole is None:
            fail(f"{key}: no gf to reassemble against")
        elif tesserae.from_faultfree(ff) != _gf(whole, tesserae.RationalGF):
            fail(f"{key}: from_faultfree(faultfree(g)) != g")
        if [str(t) for t in tesserae.expand(ff, len(r["terms"]) - 1)] != r["terms"]:
            fail(f"{key}: expand(faultfree) disagrees with its terms")

    # each count against the matching series term
    for key, r in reports.items():
        if r["command"] != "count":
            continue
        terms = series_refs.get((r["tiles"], r["width"]))
        if terms is None or len(terms) <= r["length"]:
            fail(f"{key}: no series term to compare with")
        elif int(r["count"]) != terms[r["length"]]:
            fail(f"{key}: count disagrees with series term {r['length']}")

    # small rectangles against the exhaustive oracle
    for (tiles, width), terms in sorted(series_refs.items()):
        for length, n in enumerate(terms):
            if 0 < width * length <= oracle_cells and n <= ORACLE_MAX_COUNT:
                got = tesserae.brute_force_count(tesserae.preset(tiles), width, length)
                if got != n:
                    fail(f"{tiles} {width}x{length}: oracle {got}, series {n}")
    return errors
