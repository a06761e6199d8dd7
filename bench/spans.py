"""Span recorders patched around the package's layer boundaries.

Each wrapped function records, per (span name, parent span name), the number
of calls, the total time and the self time (total minus the time of child
spans).  Spans are aggregated in memory as they close instead of being kept
one by one: the 1D workload opens several hundred thousand of them.

The wrapper replaces the name where the caller looks it up (a class
attribute for methods, the calling module's global for imported functions),
so the package itself is not modified.  A target that no longer exists raises
AttributeError: a renamed function fails the traced run instead of reporting
zero.
"""

from __future__ import annotations

import functools
import importlib
import time

# span name -> targets "module:attribute" or "module:Class.method"
TARGETS = {
    "cli": ["cli:main"],
    "params.classify": ["params:ParamTable.classify"],
    "params.parse_rational": ["params:parse_rational",
                              "generators:parse_rational",
                              "boundcert:parse_rational"],
    "generators.generate": ["generators:generate"],
    "harmonic.insert": ["harmonic:HarmonicPacker.insert"],
    "superharmonic.insert": ["superharmonic:ShState.insert"],
    "superharmonic.check_feasibility": ["superharmonic:ShState.check_feasibility"],
    "weighting.bound_check": ["cli:bound_check"],
    "weighting.weight_set": ["weighting:WeightFunctionSet.__init__"],
    "pack2d.insert": ["pack2d:TensorRun.insert"],
    "pack2d.tinygrid_class_of": ["pack2d:TinyGrid.class_of"],
    "pack2d.validate_geometry": ["cli:validate_geometry"],
    "boundcert.build_f": ["boundcert:build_f"],
    "boundcert.build_g": ["boundcert:build_g"],
    "boundcert.pattern_max": ["boundcert:pattern_max"],
    "boundcert.validate_cut": ["boundcert:validate_cut"],
    "boundcert.cut_max_lhs": ["boundcert:cut_max_lhs"],
}


class Recorder:
    """Aggregated spans plus the objects the counters are read from."""

    def __init__(self):
        self._stack = []  # [name, time covered by child spans]
        self.stats = {}  # (name, parent) -> [calls, total_s, self_s]
        self.sh_states = []  # ShState objects passed to bound_check
        self.runs_2d = []  # TensorRun objects passed to validate_geometry
        self.tiny_depth = -1  # deepest class index TinyGrid.class_of returned

    def wrap(self, name, fn):
        stack, stats, clock = self._stack, self.stats, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = stats.get((name, parent))
                if rec is None:
                    rec = stats[(name, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            self._observe(name, args, result)
            return result

        return traced

    def _observe(self, name, args, result):
        if name == "weighting.bound_check":
            self.sh_states.append(args[0])
        elif name == "pack2d.validate_geometry":
            self.runs_2d.append(args[0])
        elif name == "pack2d.tinygrid_class_of":
            if result > self.tiny_depth:
                self.tiny_depth = result

    def install(self) -> None:
        for name, targets in TARGETS.items():
            for target in targets:
                mod_name, attr = target.split(":")
                owner = importlib.import_module(f"harmonicpack.{mod_name}")
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                setattr(owner, leaf, self.wrap(name, getattr(owner, leaf)))

    def span(self, name, fn, *args):
        """Call ``fn(*args)`` inside a span of its own (benchmark-side steps)."""
        return self.wrap(name, fn)(*args)

    def edges(self) -> list:
        """[name, parent, calls, total_s, self_s] for every pair that fired."""
        return [[name, parent, *rec] for (name, parent), rec in self.stats.items()]

    def summary(self) -> dict:
        """name -> [calls, total_s, self_s], summed over parents."""
        out = {}
        for (name, _), (calls, total, own) in self.stats.items():
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        return out

    def counts(self) -> dict:
        """Deterministic counters read from the objects the command built."""
        out = {}
        for st in self.sh_states:
            census = st.group_census()
            out["superharmonic.bins"] = census.cost
            out["superharmonic.pair_bins"] = sum(census.pairs.values())
            out["superharmonic.nf_bins"] = census.nf_bins
            out["superharmonic.final_case"] = st.final_case().case_id
        for run in self.runs_2d:
            out[f"pack2d.slices_{run.orientation}"] = len(run.slices)
        if self.tiny_depth >= 0:
            out["pack2d.tinygrid_steps"] = self.tiny_depth + 1
        return out
