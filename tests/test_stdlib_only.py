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
