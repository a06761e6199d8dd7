"""Every package name the benchmark reaches for still exists.

The benchmark under ``bench/`` wraps functions by their dotted names and
imports others directly; a renamed or deleted function would only show when
the benchmark runs.  These tests read ``bench/`` and change nothing there.
"""

import ast
import importlib
import pathlib

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
