"""Seeded end-to-end benchmark of the harmonicpack command line.

    python3 bench/run.py --workload pack1d-mixed --seed 1 --seconds 30 --trace 0

Each workload writes exact ``p/q`` input files from ``--seed`` and runs its
``harmonicpack`` commands one at a time, each in a fresh interpreter
(``child.py``), timing ``cli.main(argv)`` with its output captured and
hashed.  A run has two parts:

1. an untimed check pass: every command once, with the extra outputs the
   correctness gate hashes, compared against ``references.json`` and
   re-checked through the public API;
2. timed passes over the workload's commands until ``--seconds`` is spent,
   each with one set-up sample: a fresh interpreter that imports the package
   and builds the built-in table and its weight functions.  With
   ``--trace 1`` every timed pass is followed by a traced pass whose span
   recorders (``spans.py``) give the per-layer metrics.

Times are scaled to a reference CPU speed measured by a probe inside each
child (``child.py``).

Every metric is printed by name with its unit; the last line of stdout is
one JSON object.  The exit code is 1 when any command failed or any check
did not hold, and 2 when the package sources are missing.  See NOTES.md for
why each workload exists and which layers it bypasses.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

N_1D = 30_000
N_2D = 5_000
DELTA = Fraction(1, 10000)  # the CLI's default --delta
SETUP_MIN = 5  # set-up samples before the timed passes add one each
# fixed reference time of child.probe(): step times are reported as if the
# probe had taken this long (it took 0.4-0.6 ms on the 2-core test machine)
PROBE_REF_S = 0.0003
RUN_LIMIT_S = 170  # every child is stopped before a run could exceed this
REFERENCES = HERE / "references.json"


@dataclass
class Cmd:
    """One CLI invocation; ``slot`` names the end-to-end metric it feeds."""

    label: str
    slot: str  # "a" -> cmd_a_s, "b" -> cmd_b_s, "" -> traced passes only
    args: list  # child.py arguments
    files: dict = field(default_factory=dict)  # output kind -> path to hash
    fixed: bool = False  # output does not depend on the seed


@dataclass
class Plan:
    inputs: list  # input files, hashed into the references
    check: list  # Cmd list of the untimed check pass
    timed: list  # Cmd list of one timed pass
    recheck: object  # callable(check results by label) -> [(ok, message)]
    # workload-specific names of cmd_a_s / cmd_b_s: name -> (slot, items per
    # command), printed as items per second, or as seconds when items is None
    derived: dict


def _cli(label, slot, argv, fixed=False, **files) -> Cmd:
    return Cmd(label, slot, ["cli", "--", *argv], files, fixed)


# -- workloads ----------------------------------------------------------------

def plan_pack1d_mixed(work: pathlib.Path, seed: int) -> Plan:
    sizes = inputs.mixed_sizes(seed, N_1D)
    path = work / "sizes.txt"
    inputs.write_sizes(path, sizes)
    trace = work / "sh-trace.csv"
    sh = ["pack1d", "--algorithm", "sh+", "--verify", "--input", str(path)]
    hm = ["pack1d", "--algorithm", "harmonic", "--k", "38", "--input", str(path)]
    return Plan(
        inputs=[path],
        check=[_cli("sh", "a", sh + ["--trace-out", str(trace)], trace=trace),
               _cli("harmonic", "b", hm)],
        timed=[_cli("sh", "a", sh), _cli("harmonic", "b", hm)],
        recheck=lambda res: recheck_1d(sizes, res),
        derived={"sh_items_per_s": ("a", N_1D),
                 "harmonic_items_per_s": ("b", N_1D)})


def plan_slice2d_thin(work: pathlib.Path, seed: int) -> Plan:
    rects = inputs.thin_rects(seed, N_2D)
    path = work / "rects.txt"
    inputs.write_rects(path, rects)
    verified = ["pack2d", "--orientation", "tensor-avg", "--verify",
                "--input", str(path)]
    plain = ["pack2d", "--orientation", "tensor-avg", "--input", str(path)]
    timed = [_cli("verified", "a", verified), _cli("plain", "b", plain)]
    return Plan(inputs=[path], check=timed, timed=timed,
                recheck=lambda res: recheck_2d(rects, res),
                derived={"rects_per_s": ("a", N_2D),
                         "unverified_rects_per_s": ("b", N_2D)})


def plan_certify_lambda(work: pathlib.Path, seed: int) -> Plan:
    lam = work / "lambda.json"
    with open(lam, "w", encoding="utf-8") as fh:
        json.dump(inputs.perturbed_lambda(seed), fh)
    timed = []
    for mode, slot in (("paper-compat", "a"), ("exact", "b")):
        for which, extra in (("tuned", []), ("seeded", ["--lambda-file", str(lam)])):
            label = f"{mode}-{which}"
            wit = work / f"{label}.witness.json"
            timed.append(_cli(label, slot, ["bound", "--mode", mode, *extra,
                                            "--witness", str(wit)],
                              fixed=not extra, witness=wit))
    audit = Cmd("cut-audit", "", ["audit"], fixed=True)
    return Plan(inputs=[lam], check=timed + [audit], timed=timed + [audit],
                recheck=lambda res: [],
                derived={"bound_compat_s": ("a", None),
                         "bound_exact_s": ("b", None)})


WORKLOADS = {
    "pack1d-mixed": plan_pack1d_mixed,
    "slice2d-thin": plan_slice2d_thin,
    "certify-lambda": plan_certify_lambda,
}


# -- exact re-checks through the public API ------------------------------------

def _report(res: dict) -> dict:
    return json.loads(res["stdout"])


def harmonic_cost(sizes, k: int) -> int:
    """Harmonic(k) bin count computed independently of the package."""
    per_type = [0] * k
    nf_bins, fill = 0, None
    for s in sizes:
        if s * k <= 1:
            if fill is not None and fill + s <= 1:
                fill += s
            else:
                nf_bins, fill = nf_bins + 1, s
        else:
            per_type[s.denominator // s.numerator] += 1
    return nf_bins + sum(-(-c // i) for i, c in enumerate(per_type) if c)


def recheck_1d(sizes, res: dict) -> list:
    from harmonicpack.params import builtin_shplus
    from harmonicpack.superharmonic import ShState
    from harmonicpack.weighting import bound_check, slack_allowance

    table = builtin_shplus()
    st = ShState(table).pack(sizes)
    rep = bound_check(st)
    sh, hm = _report(res["sh"]), _report(res["harmonic"])
    allowance = slack_allowance(table)
    return [
        ((int(sh["cost"]), Fraction(sh["weight_slack"]), sh["final_case"])
         == (st.cost, rep.slack, rep.case_id),
         "sh+ report equals the public-API run"),
        (rep.slack <= allowance,
         f"sh+ slack {float(rep.slack):.3f} <= slack_allowance {allowance}"),
        (int(hm["cost"]) == harmonic_cost(sizes, 38),
         f"harmonic cost {hm['cost']} equals the independent count"),
    ]


def recheck_2d(rects, res: dict) -> list:
    from harmonicpack.pack2d import Item2D, tensor_cost
    from harmonicpack.params import builtin_shplus
    from harmonicpack.weighting import WeightFunctionSet

    table = builtin_shplus()
    wset = WeightFunctionSet(table)
    tc, hxb, bxh = tensor_cost([Item2D(w, h) for w, h in rects], table, DELTA)
    want = [{"orientation": r.orientation, "bins": r.cost, "slices": len(r.slices),
             "weight_bound": f"{float(r.max_weight_bound(wset)):.6f}"}
            for r in (hxb, bxh)]
    out = []
    for label in ("verified", "plain"):
        rep = _report(res[label])
        out.append((rep["runs"] == want and Fraction(rep["cost"]) == tc.avg,
                    f"{label} report equals the public-API run"))
    # the averaged-weight inequality in the form criterion 7 of the test
    # suite pins: avg <= (maxW(hxb) + maxW(bxh)) / (2 (1-d)) + 300
    slack = tc.avg - (hxb.max_weight_bound(wset) + bxh.max_weight_bound(wset)) \
        / (2 * (1 - DELTA))
    out.append((slack <= 300, f"2D averaged-weight slack {float(slack):.3f} <= 300"))
    return out


# -- running children ----------------------------------------------------------

class Runner:
    """Runs child processes and counts attempted and failed operations."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        # children take turns on the CPUs this process may use: on a shared
        # machine the speed of each CPU drifts on its own
        self._cpus = sorted(os.sched_getaffinity(0))
        self._turn = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAIL {message}", file=sys.stderr)

    def child(self, args, trace: bool = False) -> dict:
        cpu = self._cpus[self._turn % len(self._cpus)]
        self._turn += 1
        argv = [sys.executable, "-I", str(HERE / "child.py"), args[0],
                "--cpu", str(cpu), *(["--trace"] if trace else []), *args[1:]]
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"rc": -1, "stderr": "timed out"}
        try:
            return json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            return {"rc": proc.returncode or -1, "stderr": proc.stderr[-2000:]}

    def command(self, cmd: Cmd, trace: bool = False) -> dict:
        """Run one command; a nonzero exit or a validation line fails it."""
        self.attempted += 1
        res = self.child(cmd.args, trace)
        if res.get("rc") != 0 or "validation:" in res.get("stderr", ""):
            self.fail(f"{cmd.label}: exit {res.get('rc')}: "
                      f"{res.get('stderr', '').strip()[-500:]}")
            res["ok"] = False
            return res
        res["ok"] = True
        res["hashes"] = {"stdout": _sha(res["stdout"].encode())}
        for kind, path in cmd.files.items():
            res["hashes"][kind] = _sha(pathlib.Path(path).read_bytes())
        return res


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def speed_factor(res: dict) -> float:
    """How much faster the reference CPU is than the one the child saw."""
    return PROBE_REF_S / statistics.fmean(res["probes"])


def at_reference_speed(res: dict) -> float:
    """A child's step time scaled to the reference CPU speed."""
    return res["seconds"] * speed_factor(res)


def setup_sample(runner: Runner, samples: list) -> None:
    """A fresh interpreter that imports the package and builds the table."""
    runner.attempted += 1
    res = runner.child(["setup"])
    if res.get("rc") != 0:
        runner.fail(f"setup: {res.get('stderr', '').strip()[-500:]}")
    else:
        samples.append(res)


# -- the check pass ----------------------------------------------------------

def load_references() -> dict:
    with open(REFERENCES, "r", encoding="utf-8") as fh:
        return json.load(fh)


def input_hash(plan: Plan) -> str:
    return _sha(b"".join(pathlib.Path(p).read_bytes() for p in plan.inputs))


def check_pass(runner: Runner, plan: Plan) -> dict:
    """Run the check commands once and re-check them; returns their hashes."""
    results = {cmd.label: runner.command(cmd) for cmd in plan.check}
    hashes = {label: res["hashes"] for label, res in results.items() if res["ok"]}
    if len(hashes) == len(results):
        try:
            checks = plan.recheck(results)
        except (KeyError, TypeError, ValueError) as exc:
            checks = [(False, f"re-check could not read the reports: {exc!r}")]
        for ok, message in checks:
            runner.attempted += 1
            if ok:
                print(f"check {message}: ok")
            else:
                runner.fail(f"check {message}")
    return hashes


def reference_key(workload: str, seed: int, cmd: Cmd) -> tuple:
    """Where a command's hashes live in references.json."""
    return ("fixed", workload) if cmd.fixed else ("seeded", workload, str(seed))


def compare_references(runner: Runner, workload: str, seed: int, plan: Plan,
                       hashes: dict) -> str:
    """Compare output hashes with the stored ones; returns the coverage."""
    refs = load_references()
    seeded = refs["seeded"].get(workload, {}).get(str(seed))
    if seeded is not None:
        runner.attempted += 1
        if seeded["input"] != input_hash(plan):
            runner.fail(f"{workload} seed {seed}: inputs differ from the "
                        "ones the references were recorded with")
    for cmd in plan.check:
        node = refs
        for key in reference_key(workload, seed, cmd):
            node = node.get(key, {})
        want, got = node.get(cmd.label), hashes.get(cmd.label)
        if want is None or got is None:
            continue
        runner.attempted += 1
        if want != got:
            runner.fail(f"{cmd.label}: output hashes {got} differ from "
                        f"references {want}")
    return "seeded and fixed" if seeded is not None else "fixed only"


# -- timed and traced passes ----------------------------------------------------

def timed_pass(runner: Runner, plan: Plan, want: dict, trace: bool) -> list:
    out = []
    for cmd in plan.timed:
        if not (cmd.slot or trace):
            continue  # untimed steps only feed the traced per-layer metrics
        res = runner.command(cmd, trace)
        ref = want.get(cmd.label, {})
        if res["ok"] and any(ref.get(k) != v for k, v in res["hashes"].items()):
            runner.fail(f"{cmd.label}: output differs between repeats")
            res["ok"] = False
        res["cmd"] = cmd
        out.append(res)
    return out


def _slot_mean(pass_results: list, slot: str, key=at_reference_speed) -> float:
    vals = [key(r) for r in pass_results if r["cmd"].slot == slot]
    return sum(vals) / len(vals)


def _pass_seconds(pass_results: list) -> float:
    return sum(at_reference_speed(r) for r in pass_results if r["cmd"].slot)


# per-layer metrics: name -> (unit, span, statistic)
#   "self_us"/"self_ms": self time per call, "self_s": self time per pass,
#   "total_s": total time per pass, "calls": calls per pass
LAYER_SPANS = {
    "params.classify_us": ("us", "params.classify", "self_us"),
    "params.classify_calls": ("count", "params.classify", "calls"),
    "params.parse_rational_us": ("us", "params.parse_rational", "self_us"),
    "generators.generate_s": ("s", "generators.generate", "self_s"),
    "harmonic.insert_us": ("us", "harmonic.insert", "self_us"),
    "superharmonic.insert_us": ("us", "superharmonic.insert", "self_us"),
    "superharmonic.insert_calls": ("count", "superharmonic.insert", "calls"),
    "superharmonic.check_feasibility_s": ("s", "superharmonic.check_feasibility", "self_s"),
    "weighting.bound_check_s": ("s", "weighting.bound_check", "self_s"),
    "weighting.weight_set_s": ("s", "weighting.weight_set", "self_s"),
    "pack2d.insert_us": ("us", "pack2d.insert", "self_us"),
    "pack2d.tinygrid_class_of_us": ("us", "pack2d.tinygrid_class_of", "self_us"),
    "pack2d.tinygrid_calls": ("count", "pack2d.tinygrid_class_of", "calls"),
    "pack2d.validate_geometry_s": ("s", "pack2d.validate_geometry", "self_s"),
    "boundcert.build_f_ms": ("ms", "boundcert.build_f", "self_ms"),
    "boundcert.build_g_ms": ("ms", "boundcert.build_g", "self_ms"),
    "boundcert.pattern_max_ms": ("ms", "boundcert.pattern_max", "self_ms"),
    "boundcert.pattern_max_calls": ("count", "boundcert.pattern_max", "calls"),
    "boundcert.cut_audit_s": ("s", "boundcert.cut_audit", "total_s"),
}
COUNTS = ["superharmonic.bins", "superharmonic.pair_bins",
          "superharmonic.nf_bins", "superharmonic.final_case",
          "pack2d.slices_hxb", "pack2d.slices_bxh", "pack2d.tinygrid_steps",
          "boundcert.refuted_cuts"]

# traced-run self-test: spans that must record calls on a workload, and
# spans that must record none there
_ALL_SPANS = {span for _, span, _ in LAYER_SPANS.values()} | {"cli"}
_BOUNDCERT = {s for s in _ALL_SPANS if s.startswith("boundcert.")}
_PACK2D = {s for s in _ALL_SPANS if s.startswith("pack2d.")}
SPAN_EXPECT = {
    "pack1d-mixed": (
        {"cli", "params.classify", "params.parse_rational", "generators.generate",
         "harmonic.insert", "superharmonic.insert",
         "superharmonic.check_feasibility", "weighting.bound_check",
         "weighting.weight_set"},
        _BOUNDCERT | _PACK2D),
    "slice2d-thin": (
        {"cli", "params.classify", "params.parse_rational", "generators.generate",
         "superharmonic.insert", "weighting.weight_set"} | _PACK2D,
        _BOUNDCERT | {"harmonic.insert"}),
    "certify-lambda": (
        {"cli", "weighting.weight_set"} | _BOUNDCERT,
        _PACK2D | {"harmonic.insert", "superharmonic.insert",
                   "generators.generate"}),
}


def layer_metrics(traced: list) -> tuple:
    """Per-layer values of one traced pass, and its deterministic counts."""
    spans, counts = {}, {}
    for res in traced:
        factor = speed_factor(res)
        for name, (calls, total, own) in res.get("spans", {}).items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total * factor
            acc[2] += own * factor
        counts.update(res.get("counts", {}))
        if res["cmd"].label == "cut-audit" and res["ok"]:
            counts["boundcert.refuted_cuts"] = len(
                json.loads(res["stdout"])["refuted"])
    values = {}
    for metric, (_, span, stat) in LAYER_SPANS.items():
        calls, total, own = spans.get(span, (0, 0.0, 0.0))
        per_call = own / calls if calls else 0.0
        values[metric] = {"self_us": per_call * 1e6, "self_ms": per_call * 1e3,
                          "self_s": own, "total_s": total, "calls": calls}[stat]
    for slot in ("a", "b"):
        values[f"cli.cmd_{slot}_self_s"] = _slot_mean(
            traced, slot, key=lambda r: r["spans"]["cli"][2] * speed_factor(r))
    return values, spans, {c: counts.get(c, 0) for c in COUNTS}


def span_self_test(runner: Runner, workload: str, spans: dict) -> None:
    fire, silent = SPAN_EXPECT[workload]
    runner.attempted += 1
    problems = [f"span {s} recorded no call" for s in sorted(fire)
                if spans.get(s, (0,))[0] == 0]
    problems += [f"span {s} fired {spans[s][0]} times" for s in sorted(silent)
                 if spans.get(s, (0,))[0] > 0]
    if problems:
        runner.fail(f"trace self-test on {workload}: " + "; ".join(problems))


# -- environment and output ------------------------------------------------------

def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu_model(), "commit": git_commit(), "seed": seed}


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "harmonicpack" / "cli.py").is_file():
        print(f"error: package sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    started = time.monotonic()
    runner = Runner(deadline=started + RUN_LIMIT_S)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    work.mkdir(parents=True, exist_ok=True)
    plan = WORKLOADS[args.workload](work.relative_to(ROOT), args.seed)

    hashes = check_pass(runner, plan)
    coverage = compare_references(runner, args.workload, args.seed, plan, hashes)
    runner.child(["setup"])  # untimed: writes the bytecode caches
    setup = []
    for _ in range(SETUP_MIN):
        setup_sample(runner, setup)

    plain, traced = [], []
    t0 = time.perf_counter()
    while not plain or time.perf_counter() - t0 < args.seconds:
        if time.monotonic() > runner.deadline - 30:
            break
        setup_sample(runner, setup)
        plain.append(timed_pass(runner, plan, hashes, trace=False))
        if args.trace:
            traced.append(timed_pass(runner, plan, hashes, trace=True))

    good = [p for p in plain if all(r["ok"] for r in p)]
    e2e = {
        "setup_s": ("s", median([at_reference_speed(r) for r in setup])),
        "cmd_a_s": ("s", median([_slot_mean(p, "a") for p in good])),
        "cmd_b_s": ("s", median([_slot_mean(p, "b") for p in good])),
        "peak_rss_mb": ("MB", max((r["maxrss_kb"] for p in good for r in p),
                                  default=0) / 1024),
    }
    layers = {}
    if args.trace:
        good_traced = [p for p in traced if all(r["ok"] for r in p)]
        per_pass = [layer_metrics(p) for p in good_traced]
        if per_pass:
            span_self_test(runner, args.workload, per_pass[0][1])
            counts = per_pass[0][2]
            runner.attempted += 1
            if any(c != counts for _, _, c in per_pass):
                runner.fail("deterministic counts differ between traced passes")
            for metric, (unit, _, _) in LAYER_SPANS.items():
                layers[metric] = (unit, median([v[metric] for v, _, _ in per_pass]))
            for slot in ("a", "b"):
                name = f"cli.cmd_{slot}_self_s"
                layers[name] = ("s", median([v[name] for v, _, _ in per_pass]))
            for name, value in counts.items():
                layers[name] = ("count", value)
        overhead = [_pass_seconds(t) / _pass_seconds(p) - 1
                    for p, t in zip(plain, traced) if p in good and t in good_traced]
        layers["trace.overhead_share"] = ("share", median(overhead))

    fail_share = runner.failed / max(1, runner.attempted)
    env = environment(args.seed)
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload}: {len(plain)} timed passes, "
          f"{len(traced)} traced passes, reference hashes: {coverage}")
    for name, (unit, value) in {**e2e, **layers}.items():
        print(f"{name} {value:.6g} {unit}")
    for name, (slot, items) in plan.derived.items():
        secs = e2e[f"cmd_{slot}_s"][1]
        if items is None:
            print(f"{name} {secs:.6g} s")
        elif secs:
            print(f"{name} {items / secs:.6g} 1/s")
    print(f"fail_share {fail_share:.6g} share "
          f"({runner.failed} of {runner.attempted} operations failed)")

    chosen = layers if args.trace else e2e
    summary = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (unit, value) in chosen.items()},
    }
    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "workload": args.workload, "summary": summary,
                   "hashes": hashes, "end_to_end": e2e, "per_layer": layers,
                   "setup_samples": [[r["seconds"], at_reference_speed(r)]
                                     for r in setup],
                   "passes": [{r["cmd"].label: [r["seconds"], at_reference_speed(r)]
                               for r in p if r["ok"]}
                              for p in plain],
                   # [name, parent, calls, total_s, self_s] per command of the
                   # first traced pass, in raw seconds
                   "span_edges": {r["cmd"].label: r.get("edges")
                                  for r in (traced[0] if traced else [])}},
                  fh, indent=2, sort_keys=True)
    print(json.dumps(summary))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
