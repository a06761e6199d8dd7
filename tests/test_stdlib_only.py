"""The runtime depends on the standard library alone."""

import ast
import pathlib
import sys

import harmonicpack

PACKAGE = pathlib.Path(harmonicpack.__file__).parent


def test_modules_import_only_stdlib_or_the_package():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    bad = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or relative (inside the package)
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top != "harmonicpack":
                    bad.append(f"{path.name}:{node.lineno}: import {name}")
    assert bad == []


def _package_imports(tree) -> set:
    """Package modules imported by a module, relatively or absolutely."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.partition(".")[2] or alias.name
                         for alias in node.names
                         if alias.name.split(".")[0] == "harmonicpack")
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "harmonicpack":
                    continue
                module = module.partition(".")[2]
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_generators_sit_below_the_packers():
    # the instance layer needs the parameter parser and nothing else
    path = PACKAGE / "generators.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _package_imports(tree) == {"params"}
    probe = ast.parse("from . import pack2d\nimport harmonicpack.cli\n"
                      "from harmonicpack.weighting import bound_check\n")
    assert _package_imports(probe) == {"pack2d", "cli", "weighting"}
