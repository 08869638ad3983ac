"""Tests of the benchmark itself: answer checks, cross-checks and tracing."""

import copy
import json
import random
from pathlib import Path

import pytest

import calibration
import run
from answers import check_output, cross_check, expected_report, load_refs
from tracing import TIMES, Tracer, layer_metrics
from workloads import README_CASES, README_REPEATS, REACH, WORKLOADS, seeded_argvs

cli = run.import_cli()
import tesserae  # noqa: E402  (the copy import_cli put first on the path)

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def refs():
    return load_refs()


def output(argv):
    status, text, _ = run.run_job(cli, argv)
    assert status == 0
    return text


def test_stored_references_pass_every_cross_check(refs):
    # record.py runs the oracle up to 64 cells; 36 keeps this test quick
    assert cross_check(refs, tesserae, oracle_cells=36) == []


def test_every_job_has_a_reference(refs):
    for workload in WORKLOADS:
        for job in WORKLOADS[workload] + README_CASES:
            for length in job.lengths():
                assert expected_report(refs, job.argv(length)) is not None, job
    for job, _ in REACH.values():
        assert expected_report(refs, job.argv()) is not None, job


@pytest.mark.parametrize("argv", [
    "gf --tiles tromino-right --width 4".split(),
    "series --tiles tetromino-T --width 16 --length 12".split(),
    "automaton-dot --tiles tromino-right --width 4".split(),
])
def test_right_answer_passes_and_corrupted_answer_is_caught(refs, argv):
    text = output(argv)
    assert check_output(refs, argv, text) is None
    report = json.loads(text)
    field = {"gf": "den", "series": "series", "automaton-dot": "dot"}[argv[0]]
    if field == "dot":
        report[field] = report[field].replace('label="1"', 'label="2"', 1)
    else:
        report[field][-1] = str(int(report[field][-1]) + 1)
        if argv[0] == "gf":
            report[field][-1] = int(report[field][-1])
    corrupted = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    assert corrupted != text
    assert check_output(refs, argv, corrupted) == "answer differs from the reference"
    assert check_output(refs, argv, text.replace(":", ": ")) is not None
    assert check_output(refs, argv, "") == "output is not JSON"


def test_workload_counts_wrong_and_inconsistent_answers_as_failed(refs):
    work = run.Workload(cli, refs, "certify", seed=3)
    argv = "count --tiles tetromino-T --width 6 --length 8".split()
    text = output(argv)
    work.judge(argv, 0, text)
    work.judge(argv, 0, text.replace('"0"', '"1"'))   # wrong, and differs from pass 1
    work.judge(argv, 3, "")                           # nonzero exit
    assert (work.attempted, work.failed) == (3, 2)


@pytest.mark.parametrize("mutate", [
    lambda r: r["reports"]["gf --tiles domino --width 8"]["den"].__setitem__(-1, 7),
    lambda r: r["reports"]["count --tiles domino --width 8 --length 601"].__setitem__("count", "5"),
    lambda r: r["reports"]["faultfree --tiles tetromino-L --width 4"]["terms"].__setitem__(3, "11"),
    lambda r: r["reports"]["series --tiles tetromino-L --width 7 --length 21"]["series"]
    .__setitem__(4, "1"),
    lambda r: r["reports"]["entropy --tiles tetromino-L --width 4"].__setitem__("lambda", 4.35),
])
def test_corrupted_reference_fails_a_cross_check(refs, mutate):
    bad = copy.deepcopy(refs)
    mutate(bad)
    assert cross_check(bad, tesserae, oracle_cells=36)


def test_seeded_lengths_stay_in_their_windows():
    for workload in WORKLOADS:
        a = seeded_argvs(workload, random.Random(7))
        assert a == seeded_argvs(workload, random.Random(7))
        assert len(a) == len(WORKLOADS[workload]) + README_REPEATS * len(README_CASES)
        for job, argv in zip(WORKLOADS[workload], a):
            if job.base is not None:
                assert job.base <= int(argv[-1]) < job.base + job.window


def test_tracer_sees_calls_between_layers_and_restores_bindings():
    original = tesserae.gf.series
    tracer = Tracer()
    tracer.install()
    try:
        assert tesserae.gf.series is not original
        assert tesserae.gf.series is tesserae.automaton.series is tesserae.series
        tracer.job = 0
        tesserae.strip_gf(tesserae.build_automaton(tesserae.preset("domino"), 2))
    finally:
        tracer.remove()
    assert tesserae.gf.series is original
    names = {s[0]: i for i, s in enumerate(tracer.spans)}
    parent_of = {s[0]: tracer.spans[s[3]][0] for s in tracer.spans if s[3] >= 0}
    assert parent_of["automaton.series"] == "gf.strip_gf"
    assert parent_of["gf.infer_recurrence"] == "gf.strip_gf"
    assert parent_of["gf.poly_gcd"] == "gf.recurrence_to_gf"
    assert "automaton.build_automaton" in names


def test_traced_pass_reports_every_per_layer_metric_with_identical_output(refs):
    work = run.Workload(cli, refs, "certify", seed=1)
    work.argvs = [job.argv() for job in README_CASES]
    work.one_pass()
    tracer = Tracer()
    tracer.install()
    try:
        work.one_pass(tracer)
    finally:
        tracer.remove()
    assert work.failed == 0, work.problems   # traced output equals untraced output
    shapes = {j: run.automaton_shape(tesserae, argv[2], int(argv[4]))
              for j, argv in enumerate(work.job_argv) if "--tiles" in argv}
    metrics = layer_metrics(tracer.since(0), shapes)
    metrics["trace.overhead_s"] = 0.0
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert set(TIMES) <= set(metrics)
    assert metrics["cli.self_s"] > 0 and metrics["gf.infer_calls"] > 0
    assert 0 < metrics["automaton.useful_ratio"] <= 1


def test_job_times_are_scaled_to_the_reference_kernel_speed():
    ref = calibration.REFERENCE_S
    assert calibration.scaled(1.0, ref, ref) == pytest.approx(1.0)
    # the machine ran at half speed around the job: it counts half
    assert calibration.scaled(1.0, 1.5 * ref, 2.5 * ref) == pytest.approx(0.5)
    assert 0 < calibration.kernel_seconds() < 1
