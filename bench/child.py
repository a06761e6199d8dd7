"""One benchmark step in a fresh interpreter; prints one JSON line.

    python3 -I bench/child.py setup [--cpu N]
    python3 -I bench/child.py cli [--trace] [--cpu N] -- <harmonicpack arguments>
    python3 -I bench/child.py audit [--trace] [--cpu N]

``setup`` imports the package and builds the built-in table and its weight
functions.  ``cli`` runs ``cli.main(argv)`` with stdout and stderr captured.
``audit`` runs ``cut_max_lhs`` and ``validate_cut`` over every built-in
model constraint.  ``--cpu N`` pins the process to CPU N and ``--trace``
installs the span recorders of ``spans.py`` before the step.

The step is timed together with a speed probe: a fixed arithmetic loop run ten
times before the step, every 25 ms during it (from a SIGALRM handler, whose
time is subtracted from the step) and ten times after it.  The parent scales
the step's time by the probe's mean, which removes most of the drift in CPU
speed on a shared machine (see NOTES.md).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import pathlib
import resource
import signal
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

PROBE_EVERY_S = 0.025
PROBES_AROUND = 10


def probe() -> float:
    """Seconds of a fixed loop of big-integer products, gcds and divisions.

    This is the arithmetic inside ``Fraction``, so its speed follows the
    package's.  It uses no package code and allocates no objects the garbage
    collector tracks, so running it inside a step triggers no collections.
    """
    t0 = time.perf_counter()
    x, y = 10 ** 17 + 3, 10 ** 18 + 7
    for i in range(400):
        n, d = x * y + i, y * 3 + 1
        x = (n // math.gcd(n, d)) % 10 ** 19 + 1
    return time.perf_counter() - t0


def timed(step):
    """Run ``step()``; returns (result, seconds without probes, probe times)."""
    before = [probe() for _ in range(PROBES_AROUND)]
    during = []
    previous = signal.signal(signal.SIGALRM, lambda *_: during.append(probe()))
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    t0 = time.perf_counter()
    try:
        result = step()
    finally:
        elapsed = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    after = [probe() for _ in range(PROBES_AROUND)]
    return result, elapsed - sum(during), before + during + after


def setup_step() -> dict:
    from harmonicpack.params import builtin_shplus
    from harmonicpack.weighting import WeightFunctionSet

    WeightFunctionSet(builtin_shplus())
    return {"rc": 0, "stdout": "", "stderr": ""}


def cli_step(argv):
    from harmonicpack import cli

    def step():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}

    return step


def audit_step(rec):
    from harmonicpack import boundcert
    from harmonicpack.params import builtin_shplus

    def audit():
        table = builtin_shplus()
        model = boundcert.shplus_pattern_model(table)
        peaks, refuted = {}, []
        for cut in boundcert.builtin_model_constraints(table):
            peak, _ = boundcert.cut_max_lhs(cut, model)
            peaks[cut.name] = str(peak)
            if boundcert.validate_cut(cut, model) is not None:
                refuted.append(cut.name)
        return peaks, refuted

    def step():
        peaks, refuted = rec.span("boundcert.cut_audit", audit) if rec else audit()
        return {"rc": 0, "stderr": "", "stdout": json.dumps(
            {"peaks": peaks, "refuted": refuted}, sort_keys=True)}

    return step


def main(argv) -> int:
    mode, rest = argv[0], argv[1:]
    cut = rest.index("--") if "--" in rest else len(rest)
    opts, argv_cli = rest[:cut], rest[cut + 1:]
    if "--cpu" in opts:
        os.sched_setaffinity(0, {int(opts[opts.index("--cpu") + 1])})
    rec = None
    if "--trace" in opts:
        from spans import Recorder

        rec = Recorder()
        rec.install()
    if mode == "setup":
        step = setup_step  # the import is part of the measured work
    elif mode == "cli":
        step = cli_step(argv_cli)
    elif mode == "audit":
        step = audit_step(rec)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result, seconds, probes = timed(step)
    result.update(seconds=seconds, probes=probes,
                  maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if rec is not None:
        result["spans"] = rec.summary()
        result["edges"] = rec.edges()
        result["counts"] = rec.counts()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
