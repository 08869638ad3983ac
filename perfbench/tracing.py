"""Spans around the public functions of `tesserae`, added from outside.

`Tracer.install` replaces every binding of each public function object in
every loaded `tesserae` module namespace with one timing wrapper per
object.  Wrapping by identity makes the calls between layers visible too
(`gf.strip_gf` reaching `series` through the name it imported,
`RationalGF` reaching `poly_gcd`).  Only names that exist are wrapped, so
a refactor that adds or removes functions needs no change here.

A span is (name, start, end, parent, job, note): `name` is
`<module>.<function>`, `parent` indexes the enclosing span (-1 at top),
`job` is the id the caller set before the call, and `note` holds counts
read off the call's arguments and result (see NOTES).  Spans stay in
memory until `dump`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "tesserae"


def _grid_nodes(call: dict) -> dict:
    grid = call["grid"]
    return {"nodes": grid * grid, "mb": grid * grid * 8 / 1e6}


# Counts recorded per call, from arguments and results (not from timing).
NOTES = {
    "poly.make_tileset": lambda c: {"variants": len(c["result"].variants)},
    "automaton.series": lambda c: {"terms": len(c["result"].terms)},
    "automaton.count_rect": lambda c: {"bits": c["result"].bit_length()},
    "gf.infer_recurrence": lambda c: {"terms": len(c["terms"]), "order": c["result"].order},
    "gf.strip_gf": lambda c: {
        "bits": max(abs(x).bit_length() for x in c["result"].num + c["result"].den)
    },
    "spectral.residual": lambda c: {"value": c["result"]},
    "ising.onsager_entropy": _grid_nodes,
    # t_tetromino_bound also evaluates the half grid for its error estimate
    "ising.t_tetromino_bound": lambda c: {
        "nodes": c["grid"] ** 2 + (c["grid"] // 2) ** 2, "mb": c["grid"] ** 2 * 8 / 1e6
    },
    "ising.spin_weight_sum": lambda c: {
        "states": 1 << (c["p"] * c["q"]), "mb": (1 << (c["p"] * c["q"])) * 8 / 1e6
    },
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.job: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._wrappers: dict[int, object] = {}

    def _ours(self, obj) -> bool:
        module = getattr(obj, "__module__", None) or ""
        return (
            inspect.isfunction(obj)
            and not obj.__name__.startswith("_")
            and (module == PACKAGE or module.startswith(PACKAGE + "."))
        )

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        note = NOTES.get(name)
        signature = inspect.signature(fn) if note else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job, None)
            if note is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                spans[index] = spans[index][:5] + (note(dict(bound.arguments, result=result)),)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module in modules:
            for name, obj in list(vars(module).items()):
                if self._ours(obj):
                    wrapper = self._wrappers.get(id(obj))
                    if wrapper is None:
                        wrapper = self._wrappers[id(obj)] = self._wrap(obj)
                    self._patches.append((module, name, obj))
                    setattr(module, name, wrapper)

    def remove(self) -> None:
        for module, name, obj in reversed(self._patches):
            setattr(module, name, obj)
        self._patches.clear()

    def since(self, begin: int) -> list[tuple]:
        """The spans recorded from index `begin` on, parents re-based to match."""
        return [(n, s, e, p - begin if p >= 0 else -1, j, note)
                for n, s, e, p, j, note in self.spans[begin:]]

    def dump(self, path) -> None:
        """Write every span, times in seconds from the first span."""
        t0 = min((s[1] for s in self.spans if s), default=0.0)
        rows = [[s[0], s[1] - t0, s[2] - t0, s[3], s[4], s[5]] for s in self.spans if s]
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "job", "note"],
                       "spans": rows}, f)


# Per-layer time metrics: summed span durations of these functions, each
# call counted once even when nested in another call of the same group.
TIMES = {
    "poly.tileset_s": ("poly.preset", "poly.parse_tile_file", "poly.make_tileset"),
    "automaton.build_s": ("automaton.build_automaton",),
    "automaton.trim_s": ("automaton.trim_reachable",),
    "automaton.dot_s": ("automaton.to_dot",),
    "automaton.series_s": ("automaton.series",),
    "automaton.count_s": ("automaton.count_rect",),
    "gf.step_s": ("gf.detect_step",),
    "gf.infer_s": ("gf.infer_recurrence",),
    "gf.to_gf_s": ("gf.recurrence_to_gf",),
    "gf.gcd_s": ("gf.poly_gcd",),
    "gf.faultfree_s": ("gf.faultfree", "gf.from_faultfree"),
    "gf.expand_s": ("gf.expand",),
    "spectral.root_s": ("spectral.dominant_root",),
    "ising.quadrature_s": ("ising.onsager_entropy", "ising.t_tetromino_bound"),
    "ising.spin_sum_s": ("ising.spin_weight_sum",),
}


def layer_metrics(spans: list[tuple], shapes: dict) -> dict[str, float]:
    """Per-layer metrics of one pass.

    `spans` are the pass's spans (parents index into the same list);
    `shapes[job]` is (raw states, trimmed states, nonzeros) of the
    automaton the job builds, computed outside the spans.
    """
    names = [s[0] for s in spans]
    duration = [s[2] - s[1] for s in spans]
    children = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]] += duration[i]

    def outermost(i: int, group: tuple) -> bool:
        p = spans[i][3]
        while p >= 0:
            if names[p] in group:
                return False
            p = spans[p][3]
        return True

    m: dict[str, float] = {}
    for metric, group in TIMES.items():
        m[metric] = sum(duration[i] for i in range(len(spans))
                        if names[i] in group and outermost(i, group))
    m["cli.self_s"] = sum(duration[i] - children[i] for i in range(len(spans))
                          if names[i].startswith("cli."))

    notes = defaultdict(list)
    for s in spans:
        if s[5] is not None:
            notes[s[0]].append(s[5])
    m["poly.variants"] = sum(n["variants"] for n in notes["poly.make_tileset"])
    m["automaton.series_calls"] = names.count("automaton.series")
    m["automaton.series_terms"] = sum(n["terms"] for n in notes["automaton.series"])
    m["automaton.count_bits"] = sum(n["bits"] for n in notes["automaton.count_rect"])
    m["gf.infer_calls"] = names.count("gf.infer_recurrence")
    m["gf.order"] = sum(n["order"] for n in notes["gf.infer_recurrence"])
    m["gf.terms_in"] = sum(n["terms"] for n in notes["gf.infer_recurrence"])
    m["gf.coeff_bits"] = max((n["bits"] for n in notes["gf.strip_gf"]), default=0)
    m["spectral.residual_max"] = max((n["value"] for n in notes["spectral.residual"]),
                                     default=0.0)
    quadrature = notes["ising.onsager_entropy"] + notes["ising.t_tetromino_bound"]
    m["ising.quadrature_nodes"] = sum(n["nodes"] for n in quadrature)
    m["ising.quadrature_mb"] = max((n["mb"] for n in quadrature), default=0.0)
    m["ising.spin_states"] = sum(n["states"] for n in notes["ising.spin_weight_sum"])
    m["ising.spin_mb"] = max((n["mb"] for n in notes["ising.spin_weight_sum"]), default=0.0)

    built = [shapes[s[4]] for s in spans if s[0] == "automaton.build_automaton"]
    m["automaton.states_raw"] = sum(b[0] for b in built)
    m["automaton.states_trimmed"] = sum(b[1] for b in built)
    m["automaton.nonzeros"] = sum(b[2] for b in built)
    swept = [shapes[s[4]] for s in spans
             if s[0] in ("automaton.series", "automaton.count_rect")]
    dense = sum(b[0] ** 2 for b in swept)
    m["automaton.useful_ratio"] = sum(b[2] for b in swept) / dense if dense else 0.0
    return m
