"""The runtime depends on the standard library alone, importing one module
loads only the package modules it imports, and no parameter default is kept
for callers that do not exist."""

import ast
import json
import pathlib
import subprocess
import sys

import pytest

import harmonicpack

PACKAGE = pathlib.Path(harmonicpack.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parent.parent


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


# math functions that take and return integers only
INTEGER_MATH = {"gcd", "lcm"}


def test_no_float_decides_a_placement():
    # the packers, the weights and the instances are exact: no math import
    # beyond INTEGER_MATH and no float(...) call (isinstance(x, float) is a
    # check, not a call)
    bad = []
    for name in ("params", "harmonic", "superharmonic", "weighting", "pack2d",
                 "generators"):
        path = PACKAGE / f"{name}.py"
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                used = any(a.name.split(".")[0] == "math" for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                used = (node.level == 0 and node.module.split(".")[0] == "math"
                        and not {a.name for a in node.names} <= INTEGER_MATH)
            else:
                used = (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "float")
            if used:
                bad.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert bad == []


def test_pattern_max_search_is_integer():
    # the branch and bound is one loop in pattern_max itself and keeps the
    # objective in integers: pattern_max defines no nested function, and
    # Fraction is named only in its final return, which builds the value
    path = PACKAGE / "boundcert.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outer = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                 and node.name == "pattern_max")
    nested = [f"{node.lineno}" for node in ast.walk(outer) if node is not outer
              and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    assert nested == []
    final = outer.body[-1]
    assert isinstance(final, ast.Return)
    named = [node for node in ast.walk(outer) if isinstance(node, (ast.Name, ast.Attribute))
             and (node.id if isinstance(node, ast.Name) else node.attr) == "Fraction"]
    inside = {id(node) for node in ast.walk(final)}
    assert named and [node.lineno for node in named if id(node) not in inside] == []
    assert any(isinstance(node, ast.While) for node in ast.walk(outer))


def test_weights_have_one_home():
    # weighting alone turns a table's red and blue parameters into weights:
    # boundcert and pack2d read none of them.  No module memoises process-wide
    # with functools' caches, which would keep every argument they saw alive
    params = {"alpha", "beta", "gamma", "phi", "varphi", "Delta"}
    memo = {"lru_cache", "cache"}
    bad = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                bad += [f"{path.name}:{node.lineno}: {a.name}" for a in node.names
                        if a.name in memo]
            elif isinstance(node, ast.Attribute) and (
                    node.attr in memo and getattr(node.value, "id", None) == "functools"
                    or node.attr in params and path.stem in ("boundcert", "pack2d")):
                bad.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert bad == []


def test_rational_tokens_have_one_reader():
    # params.parse_pair alone holds the digits[/digits] rule that spares a
    # token Fraction's regex: str.isdecimal is read in no other function, and
    # outside every function in none (listed by its line)
    where = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defs = [node for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "isdecimal":
                where.update([f"{path.stem}.{fn.name}" for fn in defs
                              if fn.lineno <= node.lineno <= fn.end_lineno]
                             or [f"{path.stem}:{node.lineno}"])
    assert sorted(where) == ["params.parse_pair"]


def _homes(pick) -> list:
    """Where the syntax nodes ``pick`` accepts lie in the package: the
    innermost def holding each, as "module.Class.function", or "module:line"
    outside every def; sorted, each once."""
    found = set()

    def visit(node, scope, in_def):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{scope}.{child.name}",
                      in_def or not isinstance(child, ast.ClassDef))
                continue
            if pick(child):
                found.add(scope if in_def else f"{scope}:{child.lineno}")
            visit(child, scope, in_def)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)),
              path.stem, False)
    return sorted(found)


def test_ladders_have_one_home():
    # the tiny-width ladder depends on (eps, d) alone: the per-(eps, d) store
    # in TensorRun.__init__ alone builds a TinyGrid and sets a run's grid
    # (by assignment, deletion or setattr), and a "bxh" run turns its own
    # rectangles, so TensorRun.insert alone turns one
    def name(node):
        return getattr(node, "id", None) or getattr(node, "attr", None)

    def sets_grid(node):
        return (isinstance(node, ast.Attribute) and node.attr == "grid"
                and not isinstance(node.ctx, ast.Load)
                or isinstance(node, ast.Call) and name(node.func) in ("setattr", "delattr")
                and any(isinstance(a, ast.Constant) and a.value == "grid"
                        for a in node.args))

    store = ["pack2d.TensorRun.__init__"]
    assert _homes(lambda node: isinstance(node, ast.Call)
                  and name(node.func) == "TinyGrid") == store
    assert _homes(sets_grid) == store
    assert _homes(_turns_a_rectangle) == ["pack2d.TensorRun.insert"]
    probe = ast.parse("(it[2], it[3], it[0], it[1])\nit[2:] + it[:2]\n(it[0], it[1])\n")
    assert [_turns_a_rectangle(node.value) for node in probe.body] == [True, True, False]


def _turns_a_rectangle(node) -> bool:
    """Whether ``node`` swaps the sides of a rectangle tuple (wp, wq, hp, hq):
    the display (x[2], x[3], x[0], x[1]) or the sum x[2:] + x[:2]."""
    def index(e):
        return e.slice.value if isinstance(e, ast.Subscript) and isinstance(
            e.slice, ast.Constant) else None

    def bounds(e):
        return (getattr(e.slice.lower, "value", None), getattr(e.slice.upper, "value", None)) \
            if isinstance(e, ast.Subscript) and isinstance(e.slice, ast.Slice) else None

    return (isinstance(node, ast.Tuple) and [index(e) for e in node.elts] == [2, 3, 0, 1]
            or isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and (bounds(node.left), bounds(node.right)) == ((2, None), (None, 2)))


def test_rectangle_sides_have_one_rule():
    # generators.rectangle alone holds the (0,1]^2 rule on a rectangle's
    # sides, its test (two chains 0 < p <= q over four names) and its error
    # text, and every reader and generator of rectangles hands it their pairs
    def chain(node):
        return (isinstance(node, ast.Compare) and getattr(node.left, "value", None) == 0
                and [type(op) for op in node.ops] == [ast.Lt, ast.LtE]
                and all(isinstance(c, ast.Name) for c in node.comparators))

    def side_rule(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return "(0,1]^2" in node.value
        chains = [v for v in getattr(node, "values", []) if chain(v)]
        return isinstance(node, ast.BoolOp) and len({c.id for v in chains
                                                     for c in v.comparators}) == 4

    assert _homes(side_rule) == ["generators.rectangle"]
    assert _homes(lambda node: isinstance(node, ast.Name) and node.id == "rectangle") == [
        "generators.Item2D", "generators._read_lines", "generators._read_plain",
        "generators.generate"]


def test_bins_enter_use_in_one_place():
    # ShState._claim alone opens an SH+ bin (a Bin(...) call) and converts
    # one (a pool's .popleft), for red, blue and Next-Fit items alike
    claim = ["superharmonic.ShState._claim"]
    assert _homes(lambda node: isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) == "Bin") == claim
    assert _homes(lambda node: isinstance(node, ast.Attribute)
                  and node.attr == "popleft") == claim


def test_buckets_are_read_in_one_place():
    # ParamTable.classify is the one typing implementation: no other code
    # reads its bucket table, and the SH+ packer types an item by calling it
    assert _homes(lambda node: isinstance(node, ast.Attribute)
                  and node.attr == "_buckets") == ["params.ParamTable.classify"]
    assert "superharmonic.ShState.insert" in _homes(_calls("classify"))


def test_read_time_has_one_home():
    # every instance is a stream that times its own reads, and one function
    # takes that time out of a run's wall time
    assert [home for home in _homes(lambda node: isinstance(node, ast.Attribute)
                                    and node.attr == "read_s")
            if home.startswith("cli")] == ["cli._report_common"]


def _calls(name):
    """A pick for ``_homes``: a call of the function ``name``, bare or as an
    attribute."""
    return lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def test_trace_rows_have_one_home():
    # the SH+ packer keeps no trace: traced_insert alone builds a trace row and
    # names groups, ShState takes its table alone and names no colour
    home = ["superharmonic.traced_insert"]
    assert _homes(_calls("PlacementTrace")) == home
    assert _homes(_calls("_group_name")) == home
    tree = ast.parse((PACKAGE / "superharmonic.py").read_text(encoding="utf-8"))
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "ShState")
    assert not [node.lineno for node in ast.walk(cls) if isinstance(node, ast.Constant)
                and node.value in ("red", "blue", "tiny")]
    init = next(node for node in cls.body
                if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    assert ast.unparse(init.args) == "self, table: ParamTable"


def test_paper_compat_has_one_home():
    # the six-decimal data and the pinned tail are applied, and the mode is
    # read, in ratio_certificate alone (the CLI only names the choices)
    home = ["boundcert.ratio_certificate"]
    assert _homes(_calls("quantized_fn")) == home
    assert _homes(_calls("quantized_model")) == home
    assert [h for h in _homes(lambda node: isinstance(node, ast.Constant)
                              and node.value in ("paper-compat", "exact"))
            if not h.startswith("cli.")] == home


def test_ratio_hull_has_one_home():
    # f's ratio hull is built in ratio_hull alone, once per (i, lam), on the
    # points' own integers: no lcm puts them on a common scale there
    assert _homes(_calls("_upper_right_hull")) == ["boundcert.ratio_hull"]
    assert not {"boundcert.ratio_hull", "boundcert._upper_right_hull"} & set(
        _homes(_calls("lcm")))


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


def test_submodule_import_loads_no_other_module():
    # the package re-exports resolve on first access, not at import time, and
    # the CLI's imports load none of the slow helpers of code generation and
    # typing, which every command would pay for at start-up.  -I -S: no
    # environment variable or site hook imports anything first
    probe = (f"import json, sys; sys.path.insert(0, {str(PACKAGE.parent)!r})\n"
             "import harmonicpack.params\n"
             "print(json.dumps(sorted(m for m in sys.modules"
             " if m.startswith('harmonicpack'))))\n"
             "import harmonicpack.cli\n"
             "print(json.dumps(sorted({'dataclasses', 'inspect', 'typing'}"
             " & set(sys.modules))))\n")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", probe], capture_output=True,
                         text=True, check=True)
    assert [json.loads(line) for line in out.stdout.splitlines()] == [
        ["harmonicpack", "harmonicpack.params"], []]


def test_package_exports_resolve():
    for name in harmonicpack.__all__:
        value = getattr(harmonicpack, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
    with pytest.raises(AttributeError):
        harmonicpack.no_such_name


def _namedtuple_defaults(name, node) -> list:
    """(name, field, position) of each field that ``node``, when it is a
    ``namedtuple(typename, fields, defaults=...)`` call, gives a default: the
    last len(defaults) fields.  ``name`` is the record's callee name."""
    if not (isinstance(node, ast.Call) and _calls("namedtuple")(node)):
        return []
    defaults = next((kw.value for kw in node.keywords if kw.arg == "defaults"), None)
    if defaults is None:
        return []
    fields = ast.literal_eval(node.args[1])
    if isinstance(fields, str):
        fields = fields.replace(",", " ").split()
    first = len(fields) - len(defaults.elts)
    return [(name, fields[k], k) for k in range(first, len(fields))]


def _defaulted_parameters(tree):
    """(callee name, parameter, position) of every parameter with a default.
    A method's position skips self, ``__init__`` is called by its class name,
    and a keyword-only parameter has no position.  A namedtuple's defaulted
    fields count too, called by the name it is assigned to or, as a class
    base, by the class's name."""
    found = []

    def visit(node, cls=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Assign) and len(child.targets) == 1 \
                    and isinstance(child.targets[0], ast.Name):
                found.extend(_namedtuple_defaults(child.targets[0].id, child.value))
            if isinstance(child, ast.ClassDef):
                for base in child.bases:
                    found.extend(_namedtuple_defaults(child.name, base))
                visit(child, cls=child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                skip = 1 if cls and not static else 0
                name = cls if child.name == "__init__" else child.name
                first = len(positional) - len(args.defaults)
                found.extend((name, positional[k].arg, k - skip)
                             for k in range(first, len(positional)))
                found.extend((name, arg.arg, None) for arg, default
                             in zip(args.kwonlyargs, args.kw_defaults) if default)
                visit(child)
            else:
                visit(child, cls)

    visit(tree)
    return found


def _references() -> tuple:
    """(trees, refs) of the package and the benchmark: ``trees`` maps each
    module's path to its syntax tree, and ``refs`` maps a name to one
    (path, node, call) per variable ``name`` or attribute ``x.name`` read
    there, ``call`` being the call it is the callee of, or None."""
    paths = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "bench").glob("*.py"))]
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in paths}
    refs = {}
    for path, tree in trees.items():
        calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                refs.setdefault(name, []).append((path, node, calls.get(id(node))))
    return trees, refs


def _sets(call, param, pos) -> bool:
    """Whether ``call`` passes ``param``, by keyword or at position ``pos``
    (None for a keyword-only parameter)."""
    npos = (float("inf") if any(isinstance(a, ast.Starred) for a in call.args)
            else len(call.args))
    kws = {kw.arg for kw in call.keywords}
    return param in kws or None in kws or (pos is not None and npos > pos)


def test_namedtuple_defaults_are_read():
    # the default guard sees a namedtuple's defaulted fields, with their
    # positions, as it sees a def's defaulted parameters
    path = PACKAGE / "generators.py"
    found = _defaulted_parameters(ast.parse(path.read_text(encoding="utf-8")))
    assert {("InstanceSpec", "n", 1), ("InstanceSpec", "seed", 2),
            ("InstanceSpec", "dims", 3), ("InstanceSpec", "bins", 4),
            ("InstanceSpec", "path", 5), ("Instance", "known_opt", 2)} <= set(found)
    probe = ast.parse("class R(namedtuple('R', 'a b c', defaults=(1,))):\n    pass\n")
    assert _defaulted_parameters(probe) == [("R", "c", 2)]


def test_every_default_is_passed_by_some_caller():
    # a default that no call in the package or the benchmark overrides is
    # an option only tests can set: a module constant says the same
    trees, refs = _references()
    unused = [f"{path.name}: {name}({param}=)"
              for path in sorted(PACKAGE.glob("*.py"))
              for name, param, pos in _defaulted_parameters(trees[path])
              if not any(call and _sets(call, param, pos)
                         for _, _, call in refs.get(name, []))]
    assert unused == []


def _public_defs(tree, package_classes):
    """(qualified name, node) of each public class and function of a module,
    and of each public method and property of its classes.  A class with a
    base outside the package adds none: its methods override that base's."""
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef) and all(
                isinstance(b, ast.Name) and b.id in package_classes for b in node.bases):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item
                elif (isinstance(item, ast.Assign) and isinstance(item.value, ast.Call)
                      and getattr(item.value.func, "id", None) == "property"):
                    yield from ((f"{node.name}.{t.id}", item) for t in item.targets)


def test_every_public_name_has_a_caller():
    # a public name that nothing in the package or the benchmark reads,
    # outside its own def, is surface kept for tests alone.  A name in
    # harmonicpack._EXPORTS is declared API, and an attribute of a stdlib
    # module (json.load, say) reads no package name
    trees, refs = _references()
    paths = sorted(PACKAGE.glob("*.py"))
    package_classes = {node.name for path in paths for node in ast.walk(trees[path])
                       if isinstance(node, ast.ClassDef)}

    def read_outside(path, node, name) -> bool:
        return any(not (at == path and node.lineno <= ref.lineno <= node.end_lineno)
                   and not (isinstance(ref, ast.Attribute) and isinstance(ref.value, ast.Name)
                            and ref.value.id in sys.stdlib_module_names)
                   for at, ref, _ in refs.get(name, []))

    unread = [f"{path.name}: {qualname}" for path in paths
              for qualname, node in _public_defs(trees[path], package_classes)
              if harmonicpack._EXPORTS.get(qualname) != path.stem
              and not read_outside(path, node, qualname.rpartition(".")[2])]
    assert unread == []
