#!/usr/bin/env python3
"""Benchmark of the tesserae command line, one workload per run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports `tesserae` from `src/` there.
Workloads are listed in `workloads.py` and explained in `README.md`.

One client runs the workload's jobs one after another through
`tesserae.cli.main([..., "--json"])`, in this process, and repeats the
pass a fixed number of times (a closed loop): as many passes as fill
`--seconds` on the baseline machine, whatever the speed of the code.
The seed picks the windowed lengths once and shuffles the job order of
every pass.  Each answer is checked against `refs.json` and against the
same command's output in every other pass.

Every job is timed between two executions of a calibration kernel
(`calibration.py`) and scaled to the kernel's speed on the baseline
machine, so a slow stretch of the shared machine does not read as a slow
program.

With `--trace 0` the result holds the end-to-end metrics of
`BENCHMARK.json`: job times (each job's median scaled execution in the
run) summed per pass and per command, the median of fresh-interpreter
start-ups spread between the passes, and the time of the one
over-the-wall job, run in a child process and killed at its deadline.
With `--trace 1` untraced and traced passes alternate; the result holds
the per-layer metrics (medians over traced passes) and the spans go to
`perfbench/out/`.

The last line printed is the JSON result; the lines before it repeat each
metric by name and unit.  Exit status 2, with no result, when the checkout
has no `src/tesserae` or no recorded reference answers.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from answers import REFS_PATH, check_output, load_refs
from calibration import kernel_seconds, scaled
from tracing import Tracer, layer_metrics
from workloads import PASS_SECONDS, REACH, seeded_argvs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 15
# A run stops early only past this many times --seconds, which takes code
# (or a machine) half again as slow as the baseline; it keeps every run
# inside its limit.
CAP = 1.5

# Runs in a fresh interpreter: the user-visible start-up cost.
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import tesserae.cli as c; c.build_parser()"
JOB_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import tesserae.cli as c; sys.exit(c.main(sys.argv[2:]))"

COMMAND_METRIC = {
    "series": "series_s",
    "count": "count_s",
    "automaton-dot": "dot_s",
    "gf": "gf_s",
    "faultfree": "faultfree_s",
    "entropy": "entropy_s",
    "ising-bound": "ising_s",
    "fylfot": "fylfot_s",
}


class SetupError(Exception):
    """The checkout cannot be benchmarked."""


def import_cli():
    """tesserae.cli from this checkout's src/, never from anywhere else."""
    package = SRC / "tesserae"
    if not (package / "cli.py").is_file():
        raise SetupError(f"no tesserae sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tesserae.cli as cli

    if Path(cli.__file__).resolve().parent != package.resolve():
        raise SetupError(f"imported tesserae from {cli.__file__}, not from {package}")
    return cli


def pin_malloc_threshold() -> None:
    """Hold glibc's mmap threshold where a fresh process's settles.

    glibc raises the threshold to the size of each mmapped block freed, up
    to 32 MiB, and the trim threshold to twice that.  Left adaptive in this
    long-lived process, the cost of numpy's 8-32 MB temporaries depends on
    which jobs ran before (fylfot 3x7 took 0.30 s or 0.45 s by job order).
    Pinned at the top of that range, every job meets the allocator a
    `tesserae` process has after its first large temporary: blocks under
    32 MiB come from the heap, larger ones are mmapped.  No-op without glibc.
    """
    libc = ctypes.CDLL(None)
    if hasattr(libc, "mallopt"):
        M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
        libc.mallopt(M_MMAP_THRESHOLD, 32 << 20)
        libc.mallopt(M_TRIM_THRESHOLD, 64 << 20)


def run_job(cli, argv: list[str]) -> tuple[int | None, str, float]:
    """(exit status or None if it raised, stdout, seconds) of one command."""
    out = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            status = cli.main([*argv, "--json"])
    except Exception:  # a crash is a failed job, not a failed benchmark
        status = None
    return status, out.getvalue(), perf_counter() - start


def child_seconds(code: str, args: list[str], deadline: float | None = None):
    """Wall time of a fresh interpreter running `code`; kill it at `deadline`.

    Returns (seconds, exit status or None if killed, stdout).
    """
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code, str(SRC), *args], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        out, _ = proc.communicate(timeout=deadline)
        status = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        status = None
    return perf_counter() - start, status, out


def job_times(passes: list[list[tuple[str, float]]]) -> dict[str, float]:
    """Each command line's median scaled time over its executions in the run."""
    times: dict[str, list[float]] = {}
    for timings in passes:
        for key, seconds in timings:
            times.setdefault(key, []).append(seconds)
    return {key: statistics.median(values) for key, values in times.items()}


def command_sums(times: dict[str, float]) -> dict[str, float]:
    """wall_s (every job once) and the per-command sums from job times."""
    sums = dict.fromkeys(COMMAND_METRIC.values(), 0.0)
    for key, seconds in times.items():
        sums[COMMAND_METRIC[key.split()[0]]] += seconds
    return {"wall_s": sum(times.values()), **sums}


class Workload:
    """The jobs of one seeded run, with answer checking and bookkeeping."""

    def __init__(self, cli, refs: dict, name: str, seed: int) -> None:
        self.cli, self.refs = cli, refs
        self.rng = random.Random(seed)
        self.argvs = seeded_argvs(name, self.rng)
        self.first_output: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.job_argv: list[list[str]] = []  # job id -> command line
        self.kernel_times: list[float] = []  # calibration kernel, between jobs

    def judge(self, argv: list[str], status: int | None, text: str) -> None:
        self.attempted += 1
        key = " ".join(argv)
        if status != 0:
            problem = f"exit status {status}"
        elif self.first_output.setdefault(key, text) != text:
            problem = "output differs from an earlier pass"
        else:
            problem = check_output(self.refs, argv, text)
        if problem:
            self.failed += 1
            self.problems.append(f"{key}: {problem}")

    def one_pass(self, tracer=None) -> list[tuple[str, float]]:
        """Run the pass's jobs in a seeded order; (command line, scaled seconds) each."""
        order = list(range(len(self.argvs)))
        self.rng.shuffle(order)
        results, kernel = [], [kernel_seconds()]
        for i in order:
            argv = self.argvs[i]
            if tracer is not None:
                tracer.job = len(self.job_argv)
            self.job_argv.append(argv)
            results.append((argv, *run_job(self.cli, argv)))
            kernel.append(kernel_seconds())
        self.kernel_times += kernel
        for argv, status, text, _ in results:
            self.judge(argv, status, text)
        return [(" ".join(argv), scaled(seconds, kernel[k], kernel[k + 1]))
                for k, (argv, _, _, seconds) in enumerate(results)]


def automaton_shape(tesserae, tiles: str, width: int) -> tuple[int, int, int]:
    """(raw states, trimmed states, nonzero entries) of a job's automaton."""
    raw = tesserae.build_automaton(tesserae.preset(tiles), width)
    trimmed = tesserae.trim_reachable(raw)
    return len(raw.states), len(trimmed.states), tesserae.to_dot(raw).count(" -> ")


def pass_count(workload: str, seconds: float) -> int:
    return max(3, round(seconds / PASS_SECONDS[workload]))


def setup_time() -> float:
    """Wall time of one fresh interpreter start-up, not scaled: it is mostly
    process creation, file reads and shared-library loading, which the
    calibration kernel does not track (README.md, "Calibration")."""
    elapsed, status, _ = child_seconds(SETUP_CODE, [])
    if status != 0:
        raise SetupError("a fresh interpreter could not import tesserae.cli")
    return elapsed


def measure(work: Workload, workload: str, seconds: float) -> dict[str, float]:
    passes, setups = [], []
    count = pass_count(workload, seconds)
    stop = perf_counter() + CAP * seconds
    while len(passes) < count and (not passes or perf_counter() < stop):
        passes.append(work.one_pass())
        # start-ups spread over the run, so they sample all of its conditions
        while len(setups) * count < SETUP_RUNS * len(passes):
            setups.append(setup_time())
    metrics = {"setup_s": statistics.median(setups)}
    metrics.update(command_sums(job_times(passes)))

    job, limit = REACH[workload]
    argv = job.argv()
    reach, status, text = child_seconds(JOB_CODE, [*argv, "--json"], deadline=limit)
    metrics["reach_s"] = reach
    if status is not None:  # it finished in time: its answer counts
        work.judge(argv, status, text)
    else:
        work.attempted += 1
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["failed_share"] = work.failed / work.attempted
    metrics["kernel_ms"] = statistics.median(work.kernel_times) * 1e3
    return metrics


def trace(work: Workload, workload: str, seed: int, seconds: float) -> dict[str, float]:
    import tesserae

    tracer = Tracer()
    plain, traced, pass_spans = [], [], []
    stop = perf_counter() + CAP * seconds
    while len(traced) < max(2, pass_count(workload, seconds) // 2) and (
            not traced or perf_counter() < stop):
        plain.append(work.one_pass())
        begin = len(tracer.spans)
        tracer.install()
        try:
            traced.append(work.one_pass(tracer))
        finally:
            tracer.remove()
        pass_spans.append(tracer.since(begin))

    shapes, cache = {}, {}
    for job, argv in enumerate(work.job_argv):
        if "--tiles" in argv:
            key = argv[argv.index("--tiles") + 1], int(argv[argv.index("--width") + 1])
            if key not in cache:
                cache[key] = automaton_shape(tesserae, *key)
            shapes[job] = cache[key]
    per_pass = [layer_metrics(spans, shapes) for spans in pass_spans]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    # each traced pass against the untraced pass just before it, which ran
    # in nearly the same machine state
    metrics["trace.overhead_s"] = statistics.median(
        sum(s for _, s in t) - sum(s for _, s in p) for p, t in zip(plain, traced))

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    tracer.dump(out / f"spans-{workload}-{seed}.json")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise SetupError(f"unknown workload {args.workload!r}")
        if not REFS_PATH.is_file():
            raise SetupError(f"no reference answers at {REFS_PATH}")
        work = Workload(import_cli(), load_refs(), args.workload, args.seed)
        pin_malloc_threshold()
        if args.trace:
            metrics = trace(work, args.workload, args.seed, args.seconds)
        else:
            metrics = measure(work, args.workload, args.seconds)
    except (SetupError, OSError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    units["failed_share"] = "ratio"  # 0 when all is well, so not a gated metric
    units["kernel_ms"] = "ms"  # the calibration kernel: the machine's state, not a metric
    for problem in work.problems:
        print(f"FAILED {problem}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units.get(name, '')}")
    result = {
        "correct": work.failed == 0,
        "attempted": work.attempted,
        "failed": work.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
