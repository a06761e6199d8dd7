"""Every package name the benchmark reaches for still exists.

The benchmark under ``bench/`` wraps functions by their dotted names and
imports others directly; a renamed or deleted function would only show when
the benchmark runs.  The check pass of each workload, and the timed pass of
the 1D workload, are run here as the benchmark runs them, traced.  These
tests read ``bench/`` and change nothing there.
"""

import ast
import importlib
import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _tree(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _resolves(module: str, name: str) -> bool:
    """``from module import name`` works: an attribute or a submodule."""
    owner = importlib.import_module(module)
    if hasattr(owner, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_span_targets_resolve():
    tree = _tree(BENCH / "spans.py")
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(isinstance(t, ast.Name) and t.id == "TARGETS"
                           for t in node.targets))
    missing = []
    for target in (t for group in targets.values() for t in group):
        mod_name, attr = target.split(":")
        owner = importlib.import_module(f"harmonicpack.{mod_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(target)
    assert targets and missing == []


def test_bench_package_imports_resolve():
    found, missing = 0, []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if not (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "harmonicpack"):
                continue
            for alias in node.names:
                found += 1
                if not _resolves(node.module, alias.name):
                    missing.append(f"{path.name}:{node.lineno}: "
                                   f"from {node.module} import {alias.name}")
    assert found and missing == []


def _bench_run():
    """bench/run.py as a module, imported without writing bytecode under
    bench/ and with sys.path restored afterwards."""
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
    return module


def _traced_cli(cmd) -> dict:
    """One check command of a workload plan, run as the benchmark runs it: a
    fresh isolated interpreter in bench/child.py, with the span recorders on."""
    argv = [sys.executable, "-B", "-I", str(BENCH / "child.py"), cmd.args[0],
            "--trace", *cmd.args[1:]]
    proc = subprocess.run(argv, cwd=BENCH.parent, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    res = json.loads(proc.stdout.splitlines()[-1])
    assert res["rc"] == 0 and "validation:" not in res["stderr"], res["stderr"]
    return res


def _traced_check_pass(tmp_path, workload: str, seed: int = 7):
    """(plan, results, fire) of a workload's seed-``seed`` check pass with
    --trace, whose outputs hash to the stored references (the seeded ones, or
    the fixed ones for a command whose output does not depend on the seed)
    and whose spans fire or stay silent as SPAN_EXPECT's self-test demands;
    ``fire`` is the workload's set of spans that must fire."""
    bench = _bench_run()
    plan = bench.WORKLOADS[workload](tmp_path, seed)
    results = {cmd.label: _traced_cli(cmd) for cmd in plan.check}
    refs = bench.load_references()
    assert refs["seeded"][workload][str(seed)]["input"] == bench.input_hash(plan)
    for cmd in plan.check:
        want = refs
        for key in bench.reference_key(workload, seed, cmd):
            want = want[key]
        got = {"stdout": bench._sha(results[cmd.label]["stdout"].encode())}
        got.update((kind, bench._sha(pathlib.Path(path).read_bytes()))
                   for kind, path in cmd.files.items())
        assert got == want[cmd.label], cmd.label
    return plan, results, _span_contract(bench, workload, results)


def _span_contract(bench, workload: str, results: dict) -> set:
    """Assert that the traced ``results`` of a pass over a workload's
    commands fire or leave silent the spans SPAN_EXPECT names, as the
    benchmark's self-test demands; return the set of spans that must fire."""
    calls = {}
    for res in results.values():
        for name, (n, _, _) in res["spans"].items():
            calls[name] = calls.get(name, 0) + n
    fire, silent = bench.SPAN_EXPECT[workload]
    assert sorted(s for s in fire if not calls.get(s)) == []
    assert sorted(s for s in silent if calls.get(s)) == []
    return fire


@pytest.mark.parametrize("workload", ["pack1d-mixed", "slice2d-thin"])
def test_traced_commands_keep_the_benchmark_contract(tmp_path, workload):
    # the seed-7 check pass of a packing workload with --trace: the outputs
    # hash to the stored references, the spans of SPAN_EXPECT fire or stay
    # silent as its self-test demands, and the public-API re-check holds
    plan, results, fire = _traced_check_pass(tmp_path, workload)
    assert "params.parse_rational" in fire
    checks = plan.recheck(results)
    assert checks and all(ok for ok, _ in checks), checks


def test_traced_timed_pass_keeps_the_span_contract(tmp_path):
    # the timed pass of pack1d-mixed, traced as --trace 1 runs it: its spans
    # fire or stay silent as SPAN_EXPECT demands.  The check pass reaches
    # classify through traced_insert (--trace-out); the timed sh+ command has
    # no trace, and ShState.insert types each item by calling classify
    bench = _bench_run()
    plan = bench.WORKLOADS["pack1d-mixed"](tmp_path, 7)
    results = {cmd.label: _traced_cli(cmd) for cmd in plan.timed}
    assert "--trace-out" not in plan.timed[0].args
    _span_contract(bench, "pack1d-mixed", results)
    spans = results["sh"]["spans"]
    assert spans["params.classify"][0] >= spans["superharmonic.insert"][0] >= bench.N_1D


def test_traced_certificate_keeps_the_benchmark_contract(tmp_path):
    # the seed-7 check pass of certify-lambda with --trace: the four bound
    # commands (both modes, tuned and seeded lambda) with their witnesses and
    # the cut audit; the tuned runs and the audit hash to the fixed
    # references, the seeded runs to seed 7's, and every boundcert span fires
    plan, _, fire = _traced_check_pass(tmp_path, "certify-lambda")
    fixed = sorted(cmd.label for cmd in plan.check if cmd.fixed)
    assert fixed == ["cut-audit", "exact-tuned", "paper-compat-tuned"]
    assert len(plan.check) == 5
    assert {"boundcert.build_f", "boundcert.build_g", "boundcert.pattern_max",
            "boundcert.cut_audit"} <= fire
