#!/usr/bin/env python3
"""Record the reference answers of every benchmark job into refs.json.

    python3 perfbench/record.py

Run from the repository root, once, on the commit whose answers are
trusted; it takes a few minutes because the over-the-wall jobs run to
completion.  Every job runs through the CLI at each length its window
allows (`series` only at the top), plus the support reports the
cross-checks need: a longer series behind every `gf` and `count`, and the
`gf` behind every `faultfree`.  Nothing is written unless every
cross-check in `answers.cross_check` passes.
"""

from __future__ import annotations

import json
import platform
import sys

import numpy

from answers import REFS_PATH, cross_check, reference_form
from run import import_cli, run_job
from workloads import README_CASES, REACH, WORKLOADS

SUPPORT_TERMS = 60  # resampled terms behind each gf check


def main() -> int:
    cli = import_cli()
    import tesserae

    def report(argv: list[str]) -> dict:
        status, text, seconds = run_job(cli, argv)
        if status != 0:
            raise SystemExit(f"{' '.join(argv)} exited with {status}")
        print(f"{seconds:8.2f}s  {' '.join(argv)}", flush=True)
        return reference_form(json.loads(text))

    jobs = {job for jobs in WORKLOADS.values() for job in jobs}
    jobs |= set(README_CASES) | {job for job, _ in REACH.values()}
    argvs = []
    for job in sorted(jobs, key=lambda j: j.args):
        lengths = job.lengths()
        if job.command == "series":
            lengths = lengths[-1:]
        argvs += [job.argv(length) for length in lengths]
    reports = {" ".join(argv): report(argv) for argv in argvs}

    needed: dict[tuple, int] = {}  # (command, tiles, width) -> series length
    for r in reports.values():
        if r["command"] == "gf":
            key = ("series", r["tiles"], r["width"])
            needed[key] = max(needed.get(key, 0), r["step"] * SUPPORT_TERMS)
        elif r["command"] == "count":
            key = ("series", r["tiles"], r["width"])
            needed[key] = max(needed.get(key, 0), r["length"])
        elif r["command"] == "faultfree":
            needed.setdefault(("gf", r["tiles"], r["width"]), 0)
    support = {}
    for (command, tiles, width), length in sorted(needed.items()):
        argv = [command, "--tiles", tiles, "--width", str(width)]
        argv += ["--length", str(length)] if command == "series" else []
        if " ".join(argv) not in reports:
            support[" ".join(argv)] = report(argv)

    refs = {
        "recorded_with": {"python": platform.python_version(), "numpy": numpy.__version__},
        "reports": reports,
        "support": support,
    }
    errors = cross_check(refs, tesserae)
    for error in errors:
        print(f"cross-check failed: {error}", file=sys.stderr)
    if errors:
        return 1
    with open(REFS_PATH, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(reports)} reports and {len(support)} support reports to {REFS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
