import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tesserae
from tesserae import cli
from tesserae.cli import UsageError, build_parser, main, render_json

SRC = str(Path(tesserae.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


class TestCommands:
    def test_count_t_tetromino_width6(self, capsys):
        report = run_json(capsys, "count", "--tiles", "tetromino-T", "--width", "6", "--length", "8")
        assert report["count"] == "0"

    def test_series_contains_big_term(self, capsys):
        report = run_json(
            capsys, "series", "--tiles", "tromino-right", "--width", "4", "--length", "30"
        )
        assert "26579488" in report["series"]
        assert report["series"][0] == "1"

    def test_gf_t_tetromino(self, capsys):
        report = run_json(capsys, "gf", "--tiles", "tetromino-T", "--width", "4")
        assert report["num"] == [1, -1]
        assert report["den"] == [1, -3]
        assert report["step"] == 4

    def test_faultfree_terms(self, capsys):
        report = run_json(
            capsys, "faultfree", "--tiles", "tromino-right", "--width", "4", "--length", "6"
        )
        assert report["terms"] == ["0", "4", "2", "8", "48", "288", "1728"]

    def test_entropy_report_fields(self, capsys):
        report = run_json(capsys, "entropy", "--tiles", "tromino-right", "--width", "5")
        assert report["sites_per_step"] == 15
        assert abs(report["lambda"] - 12.36366722456) < 1e-9
        assert abs(report["sigma_lower"] - 0.1676508) < 1e-6
        assert abs(report["sigma_upper"] - 0.462098120373) < 1e-9

    def test_upper(self, capsys):
        report = run_json(capsys, "upper", "--tiles", "tetromino-L")
        assert abs(report["sigma_upper"] - 0.519860385420) < 1e-9

    def test_ising_bound_default(self, capsys):
        report = run_json(capsys, "ising-bound")
        assert abs(report["sigma_lower"] - 0.09501088358) < 1e-9
        assert report["grid"] == 1024

    def test_ising_bound_beta_expression(self, capsys):
        report = run_json(capsys, "ising-bound", "--beta", "ln2/2", "--grid", "256")
        assert abs(report["sigma_ising"] - 0.8270269567) < 1e-8

    def test_ising_bound_generic_beta(self, capsys):
        report = run_json(capsys, "ising-bound", "--beta", "0.2", "--grid", "256")
        assert report["sigma_lower"] is None
        assert report["sigma_ising"] > 0

    def test_fylfot(self, capsys):
        report = run_json(capsys, "fylfot", "--width", "2", "--length", "2")
        assert report["sum"] == "82"

    def test_oracle(self, capsys):
        report = run_json(capsys, "oracle", "--tiles", "tromino-right", "--width", "4", "--length", "6")
        assert report["count"] == "18"

    def test_oracle_domino_8x8(self, capsys):
        start = time.perf_counter()
        argv = ("oracle", "--tiles", "domino", "--width", "8", "--length", "8")
        assert run_json(capsys, *argv)["count"] == "12988816"
        assert time.perf_counter() - start < 2.0

    def test_automaton_dot_text(self, capsys):
        code, out, _ = run(capsys, "automaton-dot", "--tiles", "domino", "--width", "1")
        assert code == 0
        assert out.startswith("digraph")
        assert "s0 -> s1" in out

    def test_count_text_output(self, capsys):
        code, out, _ = run(capsys, "count", "--tiles", "domino", "--width", "2", "--length", "4")
        assert code == 0
        assert "count: 5" in out


class TestCountOnTheShortSide:
    @pytest.mark.parametrize("tiles, width, length, count", [
        ("domino", 20, 2, "10946"),  # 184756 states at width 20, past MAX_STATES
        ("tetromino-L", 12, 4, "3432"),
    ])
    def test_wide_rectangle_counts_as_its_transpose(self, capsys, tiles, width, length, count):
        for w, n in ((width, length), (length, width)):
            argv = ("count", "--tiles", tiles, "--width", str(w), "--length", str(n))
            assert run_json(capsys, *argv)["count"] == count

    def test_no_variant_fits_the_short_side(self, capsys):
        argv = ("count", "--tiles", "tetromino-L", "--width", "5", "--length", "1")
        assert run_json(capsys, *argv)["count"] == "0"

    def test_no_variant_fits_the_width(self, capsys, tmp_path):
        path = tmp_path / "bar.tiles"
        path.write_text("@symmetry: none\n#\n#\n#\n#\n#\n")
        assert run(capsys, "count", "--tiles", str(path), "--width", "3", "--length", "2") == (
            2, "", "tile error: no tile variant fits in a strip of width 3\n")

    def test_short_side_over_budget_falls_back_to_the_width(self, capsys, tmp_path):
        # upright, the 8-bar and the monomino have reach 0; transposed, reach 7 at width 10
        # is past MAX_STATES.  Each column has 6 tilings (12 = 1 + ... + 1, or an 8-bar + 4 ones)
        path = tmp_path / "bars.tiles"
        path.write_text("@symmetry: none\n" + "#\n" * 8 + "\n#\n")
        argv = ("count", "--tiles", str(path), "--width", "12", "--length", "10")
        assert run_json(capsys, *argv)["count"] == str(6**10)


class TestTileFiles:
    def test_tile_file_path(self, capsys, tmp_path):
        path = tmp_path / "ell.tiles"
        path.write_text("@symmetry: all\n#.\n#.\n##\n")
        report = run_json(capsys, "gf", "--tiles", str(path), "--width", "4")
        assert report["den"] == [1, -4, -2, 1, 4, 4, 2]

    def test_long_bar_step_beyond_series_prefix(self, capsys, tmp_path):
        # a 1x33 bar tiles the width-1 strip only at multiples of 33 columns
        path = tmp_path / "bar.tiles"
        path.write_text("@symmetry: none\n" + "#" * 33 + "\n")
        report = run_json(capsys, "gf", "--tiles", str(path), "--width", "1")
        assert (report["num"], report["den"], report["step"]) == ([1], [1, -1], 33)
        report = run_json(capsys, "count", "--tiles", str(path), "--width", "1", "--length", "33")
        assert report["count"] == "1"

    def test_bad_tile_file(self, capsys, tmp_path):
        path = tmp_path / "bad.tiles"
        path.write_text("#?\n")
        code, _, err = run(capsys, "count", "--tiles", str(path), "--width", "2", "--length", "2")
        assert code == 2
        assert "tile" in err.lower()

    @pytest.mark.parametrize("text", ["#.\n.#\n", "@symmetry: mirror\n##\n", "\n \n"])
    def test_malformed_tile_file_exits_2(self, capsys, tmp_path, text):
        # cells touching only at a corner, an unknown symmetry, no shape at all
        path = tmp_path / "malformed.tiles"
        path.write_text(text)
        code, out, err = run(capsys, "gf", "--tiles", str(path), "--width", "2", "--json")
        assert (code, out) == (2, "")
        assert "tile" in err.lower()

    def test_tile_file_with_byte_order_mark(self, capsys, tmp_path):
        path = tmp_path / "bar.tiles"
        path.write_bytes(b"##\n")
        argv = ("gf", "--tiles", str(path), "--width", "2", "--json")
        plain = run(capsys, *argv)
        path.write_bytes(b"\xef\xbb\xbf##\n")
        assert run(capsys, *argv) == plain
        assert plain[0] == 0

    def test_mixed_areas_have_no_scanning_bound(self, capsys, tmp_path):
        path = tmp_path / "mixed.tiles"
        path.write_text("##\n\n#\n")
        argv = ("entropy", "--tiles", str(path), "--width", "2")
        report = run_json(capsys, *argv)
        assert (report["sigma_upper"], report["lambda"], report["sigma_lower"]) == (
            None, 3.21431974338, 0.583807873464)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "\nsigma_upper: None\n" in out
        assert run(capsys, "upper", "--tiles", str(path)) == (
            1, "", "error: scanning bound requires all variants to share one area\n")

    def test_tile_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "binary.tiles"
        path.write_bytes(b"\xff\xfe#\n")
        code, _, err = run(capsys, "count", "--tiles", str(path), "--width", "2", "--length", "2")
        assert code == 2
        assert "tile" in err.lower()


class TestExitCodes:
    def test_usage_missing_command(self, capsys):
        assert run(capsys, )[0] == 1

    def test_usage_missing_flag(self, capsys):
        assert run(capsys, "count", "--tiles", "domino", "--width", "2")[0] == 1

    def test_usage_bad_width(self, capsys):
        assert run(capsys, "count", "--tiles", "domino", "--width", "0", "--length", "2")[0] == 1

    def test_unknown_tiles(self, capsys):
        assert run(capsys, "count", "--tiles", "heptomino", "--width", "2", "--length", "2")[0] == 2

    def test_no_variant_fits(self, capsys):
        assert run(capsys, "count", "--tiles", "tetromino-T", "--width", "1", "--length", "4")[0] == 2

    def test_no_tilings_exit3(self, capsys):
        # T tetromino variants fit in width 2 but never complete a rectangle
        assert run(capsys, "gf", "--tiles", "tetromino-T", "--width", "2")[0] == 3
        assert run(capsys, "entropy", "--tiles", "tetromino-T", "--width", "2")[0] == 3
        # before the length budget: no length of width 6 is tiled at all
        argv = ("faultfree", "--tiles", "tetromino-T", "--width", "6", "--length", "1000000")
        assert run(capsys, *argv)[0] == 3

    def test_oracle_past_budget(self, capsys, tmp_path):
        # the I pentomino and the domino need 723773 partial fillings at 8x8
        path = tmp_path / "bars.tiles"
        path.write_text("##\n\n#####\n")
        argv = ["oracle", "--tiles", str(path), "--width", "8", "--length", "8"]
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "tesserae.cli", *argv], cwd=SRC,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert "budget" in proc.stderr and "Traceback" not in proc.stderr
        assert time.perf_counter() - start < 5.0
        # 72 cells: the budget counts partial fillings, not cells
        argv = ["oracle", "--tiles", "domino", "--width", "8", "--length", "9"]
        assert run_json(capsys, *argv)["count"] == "108435745"

    def test_bad_beta(self, capsys):
        assert run(capsys, "ising-bound", "--beta", "two")[0] == 1

    def test_beta_past_criticality(self, capsys):
        assert run(capsys, "ising-bound", "--beta", "0.9")[0] == 1

    def test_grid_past_budget(self, capsys):
        # 65536 is past MAX_GRID; refused before numpy runs
        assert run(capsys, "ising-bound", "--grid", "65536")[0] == 1

    def test_fylfot_past_budget(self, capsys):
        code, _, err = run(capsys, "fylfot", "--width", "14", "--length", "14")
        assert code == 1
        assert "budget" in err

    def test_states_past_budget(self, capsys):
        # 184756 states in all; the build stops at the budget, well short of them
        # (series always builds on --width; count would sweep the 2-row side)
        start = time.perf_counter()
        code, _, err = run(capsys, "series", "--tiles", "domino", "--width", "20", "--length", "2")
        assert code == 1
        assert "states" in err
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--tiles", "monomino", "--width", "1200", "--length", "1"),
            ("series", "--tiles", "monomino", "--width", "1200", "--length", "1"),
            ("oracle", "--tiles", "monomino", "--width", "1200", "--length", "1"),
            ("gf", "--tiles", "monomino", "--width", "1200"),
            ("faultfree", "--tiles", "monomino", "--width", "1200"),
            ("entropy", "--tiles", "domino", "--width", "1200"),
            ("automaton-dot", "--tiles", "monomino", "--width", "1200"),
        ],
    )
    def test_width_past_budget(self, capsys, argv):
        # a recursion per row would overflow the stack: refused before the build
        start = time.perf_counter()
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "budget" in err
        assert time.perf_counter() - start < 1.0

    def test_width_past_budget_no_traceback(self):
        argv = ["count", "--tiles", "monomino", "--width", "1200", "--length", "1"]
        proc = subprocess.run([sys.executable, "-m", "tesserae.cli", *argv], cwd=SRC,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert "budget" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--tiles", "domino", "--width", "2", "--length", "1000000000"),
            ("count", "--tiles", "domino", "--width", "16", "--length", "40"),
            ("series", "--tiles", "domino", "--width", "12", "--length", "579"),
            ("faultfree", "--tiles", "domino", "--width", "2", "--length", "1000000"),
            ("faultfree", "--tiles", "tetromino-L", "--width", "7", "--length", "1000000"),
        ],
    )
    def test_length_past_budget(self, capsys, argv):
        # refused before strip_gf, the sweep or the expansion; the two middle lengths are
        # one past the largest the MAX_SWEEP_WORK comment names
        start = time.perf_counter()
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "budget" in err
        assert time.perf_counter() - start < 2.0

    def test_faultfree_prices_its_expansion(self, capsys):
        # 5000 terms against a degree-14 denominator, once refused as a 5000-column sweep
        argv = ("faultfree", "--tiles", "domino", "--width", "8", "--length", "5000")
        auto = tesserae.build_automaton(tesserae.preset("domino"), 8)
        g = tesserae.faultfree(tesserae.strip_gf(auto))
        assert run_json(capsys, *argv)["terms"] == [str(t) for t in tesserae.expand(g, 5000)]

    def test_faultfree_prices_the_bound_of_strip_gf(self, capsys):
        # charged for strip_gf's bound, 2 r0 + 2 steps or 1180 columns on L w8, though strip_gf
        # proves that gf in under a second
        start = time.perf_counter()
        assert run(capsys, "faultfree", "--tiles", "tetromino-L", "--width", "8") == (
            1, "", "usage error: 1180 columns exceed the sweep budget at width 8\n")
        assert time.perf_counter() - start < 2.0


class TestLongCounts:
    def test_count_past_the_4300_digit_conversion_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        argv = ("count", "--tiles", "domino", "--width", "2", "--length", "21000")
        count = run_json(capsys, *argv)["count"]
        assert (len(count), count[-12:]) == (4389, "882974286001")
        assert sys.get_int_max_str_digits() == limit

    def test_faultfree_past_the_4300_digit_conversion_limit(self, capsys):
        argv = ("faultfree", "--tiles", "tromino-right", "--width", "4", "--length", "8000")
        assert len(run_json(capsys, *argv)["terms"][-1]) == 6224

    def test_count_holds_one_column_vector(self):
        # 230 MB when count kept every term of the series.  A fresh interpreter runs the count
        # and reads RUSAGE_CHILDREN: here that keeps the largest earlier child, such as the
        # refusal below, and on Linux a child's RUSAGE_SELF starts from this process's peak
        code = ("import resource, subprocess, sys; "
                "status = subprocess.run([sys.executable, '-m', 'tesserae.cli', *sys.argv[1:]]); "
                "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr); "
                "sys.exit(status.returncode)")
        argv = ["count", "--tiles", "domino", "--width", "2", "--length", "69000", "--json"]
        proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=SRC,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        count = json.loads(proc.stdout)["count"]
        assert (len(count), count[-12:]) == (14421, "901452654001")
        assert int(proc.stderr) < 64 * 1024  # KiB

    def test_output_past_budget(self):
        # the sweep is inside its budget; converting the counts would take minutes
        argv = ["series", "--tiles", "domino", "--width", "2", "--length", "69000"]
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "tesserae.cli", *argv], cwd=SRC,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert "budget" in proc.stderr and "Traceback" not in proc.stderr
        assert time.perf_counter() - start < 2.0


COMMANDS = ("count", "series", "oracle", "gf", "faultfree", "entropy", "upper",
            "ising-bound", "fylfot", "automaton-dot")
CHOICES = ", ".join(repr(c) for c in COMMANDS)

# SHA-256 of each --help text at 80 columns, recorded when every call built
# all ten subcommands
HELP_DIGESTS = {
    (): "9c2ee05e7ee6a3e68bd367e678dd522428a214162d0705efee0b628d31481410",
    ("count",): "c66995252f76b22586cd74eea39836a9a99049daa223954a419de763f815dd74",
    ("series",): "d8e411155ea2664df3006b34f529bb1d91753f4ef82646ee72b613da71fc265f",
    ("oracle",): "7f7638f9e36c0a5077d7e1755db4fbe3fab17249fcc3041b2d0d1a17bf035a7e",
    ("gf",): "fd9fa5ee6759d22cc95100b0077c15dff317a286c22cc00e2c85f970d4b338fc",
    ("faultfree",): "9575f70364620adc2224b97d39326baa7fa12a3b2c485001f7fc355decb52ae9",
    ("entropy",): "919a76ce85be100343aa0e04b92162fbf180d0f610a8f52449a6039fb6ea935a",
    ("upper",): "2fb5b52c27804af5d09b0247f3ddea030f485c3660884d270994a9482b5c3f68",
    ("ising-bound",): "56088189d656ca5c6601a85b5553e0cbf7382b8ac67ddc7495d399ab189b6c77",
    ("fylfot",): "eeb5f766985766644033c348727b2b9eb58fae490e8560337fbfade78a759a9c",
    ("automaton-dot",): "eedac1074a3f12c2c2793b8358947b4977a6adbe4e46d3797d7a315d54cc7129",
}
# one accepted argv per command
COMMAND_ARGVS = [
    ("count", "--tiles", "domino", "--width", "2", "--length", "3", "--json"),
    ("series", "--tiles", "domino", "--width", "2", "--length", "3"),
    ("oracle", "--tiles", "domino", "--width", "2", "--length", "3"),
    ("gf", "--tiles", "domino", "--width", "2", "--json"),
    ("faultfree", "--tiles", "domino", "--width", "2"),
    ("entropy", "--tiles", "domino", "--width", "2"),
    ("upper", "--tiles", "domino"),
    ("ising-bound", "--beta", "0.2", "--grid", "64"),
    ("fylfot", "--width", "2", "--length", "2"),
    ("automaton-dot", "--tiles", "domino", "--width", "2", "--json"),
]


class TestSurface:
    @pytest.mark.parametrize("command", HELP_DIGESTS)
    def test_help_text_pinned(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "--help"])
        out, err = capsys.readouterr()
        assert (exit_info.value.code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == HELP_DIGESTS[command]

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("bogus", f"argument COMMAND: invalid choice: 'bogus' (choose from {CHOICES})"),
            ("gf --tiles domino", "the following arguments are required: --width"),
            ("gf --tiles domino --width x", "argument --width: invalid int value: 'x'"),
            ("gf gf --tiles domino --width 2", "unrecognized arguments: gf"),
            *[(f"{c} --tiles domino --width 0 --length 2", "--width must be at least 1")
              for c in ("count", "series", "oracle", "faultfree")],
            *[(f"{c} --tiles domino --width 0", "--width must be at least 1")
              for c in ("gf", "entropy", "automaton-dot")],
            ("fylfot --width 0 --length 2", "--width must be at least 1"),
            *[(f"{c} --tiles domino --width 2 --length -1", "--length must be nonnegative")
              for c in ("count", "series", "oracle", "faultfree")],
            ("fylfot --width 2 --length 0", "--length must be at least 1"),
            # bounds are checked in declared order, before the tiles are read
            ("count --tiles nope --width 0 --length -1", "--width must be at least 1"),
            ("count --tiles nope --width 2 --length -1", "--length must be nonnegative"),
        ],
    )
    def test_usage_errors_pinned(self, capsys, argv, message):
        assert run(capsys, *argv.split()) == (1, "", f"usage error: {message}\n")

    def test_full_parser_offers_every_command(self):
        assert [a[0] for a in COMMAND_ARGVS] == list(COMMANDS)
        with pytest.raises(UsageError) as full:
            build_parser().parse_args(["bogus"])
        assert str(full.value).endswith(f"(choose from {CHOICES})")


# flag -> (values a handler answers quickly, odd ones: refused by the type or a bound, starting
# with "-", or numbers spelled as int() still reads them)
FLAG_VALUES = {
    "--tiles": (["domino", "tromino-right", "monomino", "tetromino-T"],
                ["heptomino", "", "-x", "--json", "-h"]),
    "--width": (["1", "2", "3"], [" 2", "0_2", "0", "-1", "", "x", "2.5", "--", "--length"]),
    "--length": (["0", "2", "4"], ["4_0", " 3", "-1", "", "three", "-", "--width"]),
    "--beta": (["0.2", "ln2/2", "0.3"], [" 0.3", "-0.1", "0.9", "two", "", "-h"]),
    "--grid": (["64", "128"], [" 64", "6_4", "100", "-64", "", "--json"]),
}
ODD_WORDS = ["-h", "--help", "--", "-x", "--js", "bogus", "gf", "-1", ""]


@st.composite
def command_lines(draw):
    """Canonical argvs, and as many in which one choice in five goes odd: a bogus command, a
    flag left out, abbreviated, joined to its value by "=" or without a value, an odd value,
    --json first or a stray word."""
    wild = draw(st.booleans())

    def odd():
        return wild and draw(st.sampled_from((False, False, False, False, True)))

    command = draw(st.sampled_from(["bogus", "", "--json", "-h", "GF"] if odd() else COMMANDS))
    declared = ([flag for flag, *_ in cli._COMMANDS[command][2]] if command in cli._COMMANDS
                else list(FLAG_VALUES))
    argv = [command]
    repeats = draw(st.lists(st.sampled_from(declared), max_size=2))
    for flag in draw(st.permutations(declared)) + repeats:
        if odd():
            continue
        good, bad = FLAG_VALUES[flag]
        value = draw(st.sampled_from(bad if odd() else good))
        spelling = draw(st.sampled_from(["abbreviated", "joined", "bare", "swapped"])) if odd() \
            else "full"
        argv += {"full": [flag, value], "abbreviated": [flag[:-2], value],
                 "joined": [f"{flag}={value}"], "bare": [flag], "swapped": [value, flag]}[spelling]
    for _ in range(draw(st.integers(0, 2))):
        word = draw(st.sampled_from(ODD_WORDS)) if odd() else "--json"
        argv.insert(draw(st.integers(0 if odd() else 1, len(argv))), word)
    return argv


def outcome(argv):
    """(exit status or SystemExit code, stdout, stderr) of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return code, out.getvalue(), err.getvalue()


class TestCanonicalParse:
    @settings(max_examples=300, deadline=None)
    @given(argv=command_lines())
    def test_table_parse_agrees_with_argparse(self, argv):
        fast = cli._canonical(argv)
        if fast is not None:
            assert vars(fast) == vars(build_parser().parse_args(argv))
        with mock.patch.object(cli, "_canonical", lambda argv: None):
            parsed_by_argparse = outcome(argv)
        assert outcome(argv) == parsed_by_argparse

    @pytest.mark.parametrize("argv", [
        *COMMAND_ARGVS,
        ("ising-bound",),
        ("faultfree", "--tiles", "domino", "--width", "2", "--width", "3", "--json"),
        ("gf", "--json", "--width", " 4_0", "--tiles", "domino", "--json"),
    ])
    def test_canonical_lines_skip_argparse(self, argv):
        assert cli._canonical(argv) is not None

    @pytest.mark.parametrize("argv", [
        "", "bogus", "--json gf --tiles domino --width 2", "gf --help", "gf -h --tiles domino --width 2",
        "gf --tiles=domino --width 2", "gf --tiles domino --wid 2", "gf --tiles domino --width 2 --",
        "gf --tiles domino --width -2", "gf --tiles -x --width 2", "gf --tiles domino --width x",
        "gf --tiles domino", "gf --tiles domino --width", "gf domino --tiles domino --width 2",
        "gf --tiles domino --width 2 --length 3", "ising-bound --grid 64 --beta",
    ])
    def test_other_lines_go_to_argparse(self, argv):
        assert cli._canonical(argv.split()) is None

    def test_abbreviated_and_joined_flags_still_parse(self, capsys):
        canonical = run(capsys, "gf", "--tiles", "domino", "--width", "2", "--json")
        assert run(capsys, "gf", "--tiles=domino", "--wid", "2", "--json") == canonical
        assert canonical[0] == 0


def test_cli_import_leaves_numpy_unloaded():
    code = "import sys; import tesserae.cli; sys.exit('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=SRC, timeout=60)
    assert proc.returncode == 0


COMPUTE = ("poly", "automaton", "gf", "spectral", "ising")
ARGPARSE = {"argparse", "gettext", "locale"}


def loaded_after(code: str) -> set[str]:
    """The tesserae submodules and dataclasses, json, pathlib, numpy, argparse, gettext and
    locale loaded once code has run in a fresh interpreter started with -S, so that site
    preloads nothing."""
    watched = [f"tesserae.{m}" for m in COMPUTE] + ["dataclasses", "json", "pathlib", "numpy",
                                                    *ARGPARSE]
    script = (f"import sys; sys.path.insert(0, {SRC!r})\n{code}\n"
              f"print('loaded:', *[m for m in {watched!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split()[1:])


def test_parser_loads_no_compute_module():
    assert loaded_after("import tesserae.cli; tesserae.cli.build_parser()") == ARGPARSE


@pytest.mark.parametrize("argv", [
    ["fylfot", "--width", "2", "--length", "2", "--json"],
    ["gf", "--tiles", "domino", "--width", "2"],
    ["series", "--tiles", "domino", "--width", "3", "--length", "4", "--json"],
])
def test_canonical_command_loads_no_argparse(argv):
    assert not loaded_after(f"import tesserae.cli as c; assert c.main({argv!r}) == 0") & ARGPARSE


def test_help_and_usage_errors_load_argparse():
    code = ("import tesserae.cli as c\n"
            "try:\n    c.main(['gf', '--help'])\nexcept SystemExit as exc:\n    assert exc.code == 0")
    assert loaded_after(code) >= ARGPARSE
    assert loaded_after("import tesserae.cli as c; assert c.main(['gf', '--tiles', 'x']) == 1") \
        >= ARGPARSE


@pytest.mark.parametrize("argv, status", [
    (["fylfot", "--width", "2", "--length", "2", "--json"], 0),
    (["fylfot", "--width", "2", "--length", "0"], 1),
])
def test_fylfot_loads_no_tiling_module(argv, status):
    loaded = loaded_after(f"import tesserae.cli as c; assert c.main({argv!r}) == {status}")
    assert not loaded & {f"tesserae.{m}" for m in ("poly", "automaton", "gf", "spectral")}


def test_gf_loads_neither_ising_nor_spectral():
    loaded = loaded_after("import tesserae.cli as c\n"
                          "assert c.main(['gf', '--tiles', 'domino', '--width', '2']) == 0")
    assert "tesserae.gf" in loaded and not loaded & {"tesserae.ising", "tesserae.spectral"}


@pytest.mark.parametrize("argv", [
    ["count", "--tiles", "domino", "--width", "3", "--length", "4"],
    ["series", "--tiles", "domino", "--width", "3", "--length", "4", "--json"],
    ["oracle", "--tiles", "domino", "--width", "3", "--length", "4"],
    ["automaton-dot", "--tiles", "domino", "--width", "3"],
])
def test_automaton_commands_load_no_gf_spectral_ising_or_numpy(argv):
    loaded = loaded_after(f"import tesserae.cli as c; assert c.main({argv!r}) == 0")
    assert "tesserae.automaton" in loaded
    assert not loaded & {"tesserae.gf", "tesserae.spectral", "tesserae.ising", "numpy"}


def test_package_dir_lists_exports_and_submodules():
    assert set(tesserae.__all__) | set(COMPUTE) <= set(dir(tesserae))


def test_package_names_resolve_on_first_use():
    code = """
import tesserae
assert not [m for m in sys.modules if m.startswith("tesserae.")]
assert set(tesserae.__all__) <= set(dir(tesserae))
star = {}
exec("from tesserae import *", star)
for name in tesserae.__all__:
    assert star[name] is getattr(tesserae, name) is not None, name
assert star["series"] is tesserae.automaton.series and tesserae.ising.MAX_GRID
"""
    assert loaded_after(code) >= {f"tesserae.{m}" for m in COMPUTE}


# SHA-256 of the text output of each README reference command, recorded while every
# handler rounded its own floats
README_TEXT_DIGESTS = {
    "series --tiles tromino-right --width 4 --length 30":
        "9c0a42d8b0c4dd9cbac1f93408df400eb563cc329f2af3e761515ff6c01d8de1",
    "gf --tiles tromino-right --width 4":
        "9460b47e4c055c77a3cbc523b004954ecc78759b8b11ccaeb77f78c7061c662f",
    "faultfree --tiles tromino-right --width 4 --length 6":
        "85cae834b443b2f4c04d82a051dd9e5e3b3d7abdc0e3179c7229cbce3ee5bd0b",
    "series --tiles tromino-right --width 5 --length 30":
        "8335c76d76231d294da83aed14c1e31970da23f2b18e923e289e221b2241b66f",
    "entropy --tiles tromino-right --width 5":
        "bf3f1ecdfa4ebd16d2d714d022098041a035f93db292fda242a2822aadd3407d",
    "entropy --tiles tetromino-L --width 4":
        "c5e08cf41198b50ab064de63917b0c627618b2f5221a2ae0f50b0d1d57c03b41",
    "faultfree --tiles tetromino-L --width 4":
        "140b55fd2ec9f72d883b8596c655f49d7543116ec84cc28523f4f0b96fb855dc",
    "gf --tiles tetromino-T --width 4":
        "a68578033a1599669c6d98c09285a203358423b3bd18c66f4dbe9dc84f537ead",
    "entropy --tiles tetromino-T --width 4":
        "165375533eaead05daf826878f5c40a14a30a2e3b0d26d2dfe410baf0f0c0148",
    "count --tiles tetromino-T --width 6 --length 8":
        "3365327559e7a3e1b1e77117339c15d22c426f334bc35fca7407e76325292062",
    "upper --tiles tromino-right":
        "4c7b8df806ddd31f717c8f1a9d3e29c8c3f9df0024d18a0c76d127b6d408bef2",
    "upper --tiles tetromino-L":
        "a07d7075e6b88ba51df5919cee000465f1ece07a0cf44106dd7c8ad0c01dea9e",
    "upper --tiles tetromino-T":
        "01e28a70a4e5bf939c197c9522f062acfa9614edd3f620a1de4002873ed85355",
    "ising-bound": "f927d4a249c18ba2d403fc76ac1096010b4059886b212195f26aa22c8ad7c592",
    "fylfot --width 2 --length 2":
        "9463533d0c0f3e6a11f2acede62a0b9d91e9c59ad20da798c509d4f25370ae50",
}


@pytest.mark.parametrize("argv", README_TEXT_DIGESTS)
def test_readme_text_reports_pinned(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == README_TEXT_DIGESTS[argv]


# SHA-256 of the --json reports, recorded before the gf layer became
# integer-only.  These run recurrence orders 10-36 on 138-506 resampled terms,
# with coefficients of up to 72 bits, beyond every README case.
LARGER_GF_DIGESTS = [
    ("gf", "tromino-right", 8,
     "75e77714a891da420d3deb773d903d56cd606958a7c124d208084a2cf25735c1"),
    ("faultfree", "tromino-right", 8,
     "cc69b7159583bbaaaa24e9908313940bc1f20c537c20e87d49617fcded1f148d"),
    ("entropy", "tromino-right", 8,
     "fae3ce75e51b5eaa77745e67033b4e28bd963b85ba1bd17cf3854e03c8419044"),
    ("gf", "tetromino-L", 6,
     "44eda4ae7b1c044c01b0e1941517827ce22e553e27cee3cd423fa3a0d9c670b0"),
    ("faultfree", "tetromino-L", 6,
     "d889fbe721ca754d152a3ddf6759fc7d0673a32a8bb3b800235a26a91ccd6eca"),
    ("entropy", "tetromino-L", 6,
     "745dc0ccabc1ccbf06b13355ad624e16a7127382ebe84c18be3ee86bd2d36f5d"),
    ("gf", "domino", 10,
     "4b37d156134b9bf48f512e60b8ae9c609cf87adeb50682bbe971e42fd9a47632"),
    ("faultfree", "domino", 10,
     "a26af21225b07eb9d3c28abc898903b0ea0789181768c78b6cf86e9e33389acc"),
    ("entropy", "domino", 10,
     "2d5204790dedda7e5e028e2b9d477f849b380168a21b243329904fb182fb3a7c"),
    ("gf", "tetromino-T", 16,
     "ab04ed45d04c6c8d36d712503a98f541ad37fefdd69f4770c5ae4e52cae759f8"),
    ("faultfree", "tetromino-T", 16,
     "35ea03e7505bf950df8afb810a12b3e9bf33e74b111a8f31e28e565de16f39b5"),
    ("entropy", "tetromino-T", 16,
     "0ed72bd41a58c8d31e49185c837d77b66228e711bd87a1a4195205d50f570eab"),
    # wall rows of the r0 path, recorded with it (11 s and 57 s for the
    # first two); tromino-right width 8 is the first entry above
    ("gf", "domino", 12,
     "bde2b54d2911122bff042e40898734e75a562c7ee5283874c37610211468067e"),
    ("gf", "tetromino-T", 20,
     "35519e964ea853652f50a7ba0e28f16afe8094cb507175ec5e2535ee86d98a02"),
    ("gf", "tromino-right", 9,
     "2b8eab38897a0aac9c739f8cad4eab211cfbcf8a652f14249e6c4ac64df1021d"),
]


@pytest.mark.parametrize(
    "command, tiles, width, digest",
    LARGER_GF_DIGESTS,
    ids=[f"{c}-{t}-{w}" for c, t, w, _ in LARGER_GF_DIGESTS],
)
def test_larger_gf_reports_pinned(capsys, command, tiles, width, digest):
    code, out, err = run(capsys, command, "--tiles", tiles, "--width", str(width), "--json")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of the ising-bound --json reports, recorded while the quadrature
# still built the full grid x grid node mesh; beta None is the tiling default.
ISING_DIGESTS = {
    (64, None): "51af87d2a7995431c4f3efd95c1b060c0e3fcdd6ab375d84469a2773a55fa4b9",
    (64, "0.3"): "eddf9d0400f4c8daa3d335067b454321a9538c610f60a81629b3497a5df20683",
    (64, "0.44"): "020c5375b0309d103efd7134d68bc9bac24b503f485c185a6b860e9cc558f6b3",
    (64, "0"): "55995af309fb6c4f99fe2f7dfa3a9f162f93c1977a2c87b6c76f9cf0c6bf7ec3",
    (128, None): "7553ee65a2014737df6e36500e723ed86916e3f4200c0ea6196d2290f3505c2e",
    (128, "0.3"): "6aa92ca2d64caa2a18568fd8428fc2181e6a1b5c68848c6bd0cf99275acfffc7",
    (128, "0.44"): "1bf606cd8e6bc7b9b3d40483cd36135efcd00de047d7a79701855f3114ccac28",
    (128, "0"): "173f952c8724cf0a4f029aabdb1a1e968f5a13f265f3b2f302691c5eab3b067a",
    (2048, None): "b6e88ce379aa237da15c6e8ca07ea5619433d23b25d3abeb3d02ba67d30b3743",
    (2048, "0.3"): "3231825c244cba1a1a91024ea169ea5347386fee993ed273e89aa1aa08a4dd0a",
    (2048, "0.44"): "aa9f1bc23e847b017bcfab0649180b561adb7b69552eba91b0150cd1a28f558e",
    (2048, "0"): "cc1167425e0bdc014c4d83ab46b889e1a75c1642f9bc8609660de19dab043b50",
    (4096, None): "0e84eefe1a8fc429373a819e4611d246857d6790f304a7673fbaebe3f6533c51",
    (4096, "0.3"): "ea8f25b51d53514393002013b1b5d813f942216dcfceb640d087a9b9c1ae6562",
    (4096, "0.44"): "c3ffc24d8ff8e6f54ac3f4402113a754056ad957fcf109fcb1b4fa160bc1c709",
    (4096, "0"): "f644d6846e01ca7b269abed852ae8ef2b330fccc743e99c7514ac708a7f15f53",
    (8192, None): "9dc33ccfb4d46016413bdb8a357b6a5f088273579f68fdb9611e5a20f33fb9c2",
    (8192, "0.3"): "cc3893688e891ad21a146d3df4b39a2ab914159c93937ee8632aa2f0e3a9f0e8",
    (8192, "0.44"): "a477255e965a83e8f264555c5c4941a346c9b0e438aa48a014c1fec1bbd0aa1c",
    (8192, "0"): "4c35222e54d27b8d68081239314a97fc4de45ebf122d49076e21968ebdf92d4b",
}


@pytest.mark.parametrize("grid, beta", ISING_DIGESTS, ids=[f"{g}-{b}" for g, b in ISING_DIGESTS])
def test_ising_reports_pinned(capsys, grid, beta):
    extra = () if beta is None else ("--beta", beta)
    code, out, err = run(capsys, "ising-bound", "--grid", str(grid), *extra, "--json")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == ISING_DIGESTS[grid, beta]


BETA_RANGE = "error: beta must lie in [0, ln(1 + sqrt 2)/2): integrand stays positive\n"
GRID_RANGE = "error: grid must be a power of two from 64 to 8192\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        ("--beta 0.9", BETA_RANGE),
        ("--beta 0.4406867935097715", BETA_RANGE),  # BETA_CRITICAL itself
        ("--beta -0.1", BETA_RANGE),
        ("--beta 0.9 --grid 100", BETA_RANGE),  # beta is checked first
        ("--grid 65536", GRID_RANGE),
        ("--grid 100", GRID_RANGE),
        ("--grid 32", GRID_RANGE),
        ("--beta ln2/2 --grid 100", GRID_RANGE),
        ("--beta 0.2 --grid 16384", GRID_RANGE),
    ],
)
def test_ising_refusals_pinned(capsys, argv, message):
    assert run(capsys, "ising-bound", *argv.split()) == (1, "", message)


class TestJsonRoundTrip:
    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--tiles", "domino", "--width", "2", "--length", "6"),
            ("series", "--tiles", "tetromino-T", "--width", "4", "--length", "12"),
            ("gf", "--tiles", "tromino-right", "--width", "4"),
            ("entropy", "--tiles", "tetromino-L", "--width", "4"),
            ("ising-bound",),
            ("fylfot", "--width", "3", "--length", "3"),
        ],
    )
    def test_parse_and_reserialize_is_identical(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        assert render_json(json.loads(out)) == out


@pytest.mark.parametrize("command", ["count", "series", "gf", "faultfree", "entropy",
                                     "automaton-dot"])
def test_counting_commands_build_the_mirror_quotient(capsys, monkeypatch, command):
    # automaton-dot prints the full automaton; the commands that count sweep the quotient
    build, seen = tesserae.automaton.build_automaton, []

    def spy(tiles, width, mirror=False):
        seen.append(mirror)
        return build(tiles, width, mirror)

    monkeypatch.setattr(tesserae.automaton, "build_automaton", spy)
    lengths = ("--length", "6") if command in ("count", "series") else ()
    assert run(capsys, command, "--tiles", "tromino-right", "--width", "4", *lengths)[0] == 0
    assert seen == [command != "automaton-dot"]


def full_route(capsys, monkeypatch, *argv):
    # the command with every build the full automaton
    build = tesserae.automaton.build_automaton
    with monkeypatch.context() as m:
        m.setattr(tesserae.automaton, "build_automaton",
                  lambda tiles, width, mirror=False: build(tiles, width))
        return run(capsys, *argv)


@pytest.mark.parametrize("tiles, width", [
    (t, w) for t in ("domino", "tromino-right", "tetromino-L", "tetromino-T") for w in range(2, 7)])
def test_sweep_budget_prices_the_full_automaton(capsys, monkeypatch, tiles, width):
    # n + e, b, and faultfree's r0 are the full automaton's: at each charge it prices, and one
    # below, the quotient's answer or refusal is the full build's, byte for byte
    auto = tesserae.build_automaton(tesserae.preset(tiles), width)
    adds = len(auto.states) + sum(map(len, auto.edges))
    b = max((sum(w for _, w in out) for out in auto.edges), default=0).bit_length()
    length = width + 2  # past the width: count sweeps this strip
    charges = {(cmd, "--length", str(length)): [length * adds * (4096 + length * b)]
               for cmd in ("count", "series")}
    try:
        classes = tesserae.automaton._cyclic_classes(auto)
    except tesserae.NoTilingsError:
        pass
    else:
        k, r0 = len(classes), len(classes[0])
        charges["faultfree", "--length", "5"] = [
            5 * r0 * (4096 + k * 5 * b), (2 * r0 + 2) * adds * (4096 + k * (2 * r0 + 2) * b)]
    for (command, *rest), prices in charges.items():
        argv = (command, "--tiles", tiles, "--width", str(width), *rest)
        for budget in sorted({p - d for p in prices for d in (0, 1)}):
            monkeypatch.setattr(tesserae.cli, "MAX_SWEEP_WORK", budget)
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == full_route(capsys, monkeypatch, *argv), (argv, budget)
            assert (code == 0) == (budget >= max(prices)), (argv, budget)
            assert code == 0 or "sweep budget" in err
