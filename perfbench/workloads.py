"""Job lists of the three benchmark workloads.

A job is one `tesserae` command line, written without `--json`.  Some jobs
end in a length that the workload seed picks from a small window; the
reference answers are recorded at the top of each window (`record.py`), so
every pick can be checked.

Each workload puts most of its time in one layer and little in the others:

* `sweep`   - the `automaton` layer: dense matrix-vector sweeps over
  924-2710 states (`series`), long big-integer sweeps on a 70-state
  automaton (`count`), and build plus trim with no sweep (`automaton-dot`).
* `certify` - the `gf` layer: exact Hankel solves and polynomial gcds at
  recurrence orders 1-17 on small automata, plus `spectral.dominant_root`.
* `lattice` - the `ising` layer: the O(grid^2) quadrature and the 2^(pq)
  spin enumeration, the only floating-point and memory-heavy path.

Every workload also runs the README reference cases, README_REPEATS times
per pass.  They are small, so each command is timed on every workload and a
change that slows small inputs shows on the workloads it was not aimed at;
the repeats give their millisecond timings enough samples to be steady.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

README_REPEATS = 3


@dataclass(frozen=True)
class Job:
    """One command line; `base` is set when the seed picks its --length.

    The seed picks the length from base .. base + window - 1.  Windows are
    sized so that the longest pick costs at most about 4 % more than the
    shortest (README.md, "Seed windows"), so the seed moves job times little.
    """

    args: str
    base: int | None = None
    window: int = 1

    @property
    def command(self) -> str:
        return self.args.split()[0]

    def lengths(self) -> list[int | None]:
        """Every --length a seed can give this job (None: fixed job)."""
        if self.base is None:
            return [None]
        return list(range(self.base, self.base + self.window))

    def argv(self, length: int | None = None) -> list[str]:
        argv = self.args.split()
        if length is not None:
            argv += ["--length", str(length)]
        return argv


# The README's reference values, one command each (ising at grid 64, which
# already reproduces the published digits).
README_CASES = (
    Job("series --tiles tromino-right --width 4 --length 30"),
    Job("gf --tiles tromino-right --width 4"),
    Job("faultfree --tiles tromino-right --width 4 --length 6"),
    Job("series --tiles tromino-right --width 5 --length 30"),
    Job("entropy --tiles tromino-right --width 5"),
    Job("entropy --tiles tetromino-L --width 4"),
    Job("faultfree --tiles tetromino-L --width 4"),
    Job("gf --tiles tetromino-T --width 4"),
    Job("entropy --tiles tetromino-T --width 4"),
    Job("count --tiles tetromino-T --width 6 --length 8"),
    Job("ising-bound --grid 64"),
    Job("fylfot --width 2 --length 2"),
    Job("automaton-dot --tiles tromino-right --width 4"),
)

WORKLOADS = {
    "sweep": (
        # one more step of these sweeps adds 3-4 % to the job: two lengths each
        Job("series --tiles tetromino-T --width 16", base=12, window=2),
        Job("series --tiles tetromino-L --width 7", base=20, window=2),
        Job("series --tiles domino --width 12", base=30, window=2),
        Job("count --tiles domino --width 8", base=600, window=4),
        Job("count --tiles tetromino-T --width 12", base=100, window=4),
        Job("automaton-dot --tiles tetromino-T --width 16"),
    ),
    "certify": (
        Job("gf --tiles domino --width 8"),
        Job("gf --tiles tetromino-T --width 12"),
        Job("faultfree --tiles domino --width 9"),
        Job("entropy --tiles tromino-right --width 7"),
        Job("entropy --tiles tetromino-L --width 5"),
    ),
    "lattice": (
        Job("ising-bound --grid 4096"),
        Job("ising-bound --beta 0.3 --grid 2048"),
        Job("fylfot --width 4 --length 5"),
        Job("fylfot --width 3 --length 7"),
    ),
}

# Seconds one untraced pass, calibration kernels included, takes on the
# baseline machine in its fast state.  A run makes round(--seconds /
# PASS_SECONDS) passes, so the number of samples per job is fixed by the
# benchmark, not by how fast the code under test is.
PASS_SECONDS = {"sweep": 4.8, "certify": 4.0, "lattice": 1.35}

# One job per workload that today's code cannot finish in time.  It runs
# once per run in a child process that is killed at the deadline, which
# sits far from both today's time and the time the ROADMAP fixes predict.
REACH = {
    "sweep": (Job("series --tiles tetromino-T --width 16 --length 400"), 4.0),
    "certify": (Job("gf --tiles domino --width 10"), 4.0),
    "lattice": (Job("fylfot --width 3 --length 8"), 1.5),
}


def seeded_argvs(workload: str, rng: random.Random) -> list[list[str]]:
    """The command lines of one pass, each windowed length picked once."""
    argvs = [job.argv(rng.choice(job.lengths())) for job in WORKLOADS[workload]]
    return argvs + [job.argv() for job in README_CASES] * README_REPEATS
