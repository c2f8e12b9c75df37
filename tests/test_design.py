"""Checks on the package source itself."""
import ast
import importlib
from pathlib import Path

import dualmc
from dualmc import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dualmc"
CACHES = {"lru_cache", "cache", "cached_property"}


def _cache_name(decorator: ast.expr) -> str | None:
    """The functools cache a decorator applies, if any: `lru_cache`,
    `lru_cache(...)`, `functools.cache` and so on."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    if isinstance(decorator, ast.Attribute):
        owner = decorator.value
        name = decorator.attr if isinstance(owner, ast.Name) and owner.id == "functools" else None
    else:
        name = decorator.id if isinstance(decorator, ast.Name) else None
    return name if name in CACHES else None


def _cached(tree: ast.AST) -> list[str]:
    """Names of the functions and methods in tree with a cache decorator."""
    return [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_cache_name(d) for d in node.decorator_list)
    ]


def test_decorator_scan_finds_every_cache_form():
    text = (
        "import functools\nfrom functools import cache, lru_cache\n"
        "@lru_cache(maxsize=None)\ndef a(): pass\n@functools.cache\ndef b(): pass\n"
        "@cache\ndef c(): pass\nclass K:\n    @functools.lru_cache\n    def d(self): pass\n"
        "@staticmethod\ndef e(): pass\n@other.cache\ndef f(): pass\n"
    )
    assert sorted(_cached(ast.parse(text))) == ["a", "b", "c", "d"]


def test_own_decompose_is_the_only_process_wide_cache():
    """No function of the package keeps a functools cache, which lives
    as long as the process, except own_decompose's; every other memo is
    owned by one search."""
    found = [
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _cached(ast.parse(path.read_text(), str(path)))
    ]
    assert found == ["ordering.own_decompose"]


KERNEL = {"rule_preds", "buffer_preds"}


def _name(node: ast.AST) -> str | None:
    """The name a plain name or an attribute refers to, else None."""
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def _scopes(tree: ast.AST, hit, scope: str = "") -> set[str]:
    """Dotted names of the functions in tree holding a node that
    hit(node) accepts; a nested function is named under its outer one
    and its nodes are its own, and a node outside any function is
    under ''."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found |= _scopes(node, hit, f"{scope}.{node.name}" if scope else node.name)
            continue
        if hit(node):
            found.add(scope)
        found |= _scopes(node, hit, scope)
    return found


def _users(tree: ast.AST, names: set[str]) -> set[str]:
    """The functions in tree that refer to one of `names`, by plain
    name or as an attribute."""
    return _scopes(tree, lambda node: _name(node) in names)


def _callers(tree: ast.AST, name: str) -> set[str]:
    """The functions in tree that call `name`, by plain name or as an
    attribute; annotations and other references do not count."""
    return _scopes(tree, lambda node: isinstance(node, ast.Call) and _name(node.func) == name)


def test_reference_scan_names_the_innermost_function():
    text = (
        "from m import rule_preds\ndef a():\n    return rule_preds(1)\n"
        "def b():\n    def c():\n        return m.buffer_preds\n    return c\n"
        "class K:\n    def d(self):\n        return map(rule_preds, [])\n"
        "def rule_preds(): pass\n"
    )
    assert _users(ast.parse(text), KERNEL) == {"a", "b.c", "K.d"}


def test_only_the_kernel_and_its_oracle_call_the_rule_and_buffer_moves():
    """Both engines read their per-process moves through
    backward.local_preds; param.predecessor_candidates, the reference
    the parameterized tables are tested against, is the one other
    function that calls rule_preds or buffer_preds."""
    found = {
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _users(ast.parse(path.read_text(), str(path)), KERNEL)
    }
    assert found == {"backward.local_preds", "param.predecessor_candidates"}


def test_call_scan_ignores_annotations_and_plain_references():
    text = (
        "from m import MinorSet\ndef a() -> MinorSet:\n    return MinorSet(1)\n"
        "def b(x: MinorSet):\n    def c():\n        return m.MinorSet(2)\n    return MinorSet\n"
        "class K:\n    def d(self):\n        return [MinorSet]\n"
        "E = MinorSet(3)\n"
    )
    assert _callers(ast.parse(text), "MinorSet") == {"a", "b.c", ""}


def test_each_engine_builds_the_one_antichain_it_searches():
    """The fixed-size engine builds its antichain in backward_reach and
    the parameterized one through param_antichain, and both put their
    seeds straight into it; oracle.minpre_config, the one-step
    reference, is the only other function that makes a MinorSet."""
    found = {
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _callers(ast.parse(path.read_text(), str(path)), "MinorSet")
    }
    assert found == {"backward.backward_reach", "oracle.minpre_config", "param.param_antichain"}


def test_one_group_search_serves_both_engines():
    """Only backward.automorphisms, the one group search, matches
    automata under renamings (_renamings), and both engines take their
    group from it."""
    tree = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    found = {f"{stem}.{name}" for stem, t in tree.items() for name in _callers(t, "_renamings")}
    assert found == {"backward.automorphisms", "backward.automorphisms.options"}
    found = {f"{stem}.{name}" for stem, t in tree.items() for name in _callers(t, "automorphisms")}
    assert found == {"backward.backward_reach", "param.param_backward_reach"}


def _imported(tree: ast.AST) -> set[str]:
    """The package modules tree imports, by their name in the package:
    `from .m import x`, `from . import m`, `import dualmc.m`, `from
    dualmc.m import x` and `from dualmc import m` all give m."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            full = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["dualmc" if node.level else "", node.module]))
            full = [f"{module}.{a.name}" for a in node.names] if module == "dualmc" else [module]
        else:
            continue
        found |= {name.split(".")[1] for name in full if name.startswith("dualmc.")}
    return found


def test_import_scan_names_every_form():
    text = (
        "from .a import x\nfrom . import b, c\nimport dualmc.d\nfrom dualmc import e\n"
        "from dualmc.f import y\nimport os.path\nfrom os import g\n"
        "def h():\n    from .i import z\n"
    )
    assert _imported(ast.parse(text)) == {"a", "b", "c", "d", "e", "f", "i"}


def test_no_engine_imports_the_oracles():
    """dualmc.oracle reads the engines and no module of the package
    imports it, the package's __init__ included, so the public API
    exports none of its names."""
    importers = [
        path.stem
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "oracle" and "oracle" in _imported(ast.parse(path.read_text(), str(path)))
    ]
    assert importers == []
    assert {"backward", "param"} <= _imported(ast.parse((SRC / "oracle.py").read_text()))
    own = {name for name, f in vars(oracle).items() if getattr(f, "__module__", None) == oracle.__name__}
    assert own == {"minpre_config", "param_minpre", "param_covers_initial"}
    assert own.isdisjoint(dualmc.__all__) and "oracle" not in dualmc.__all__


def _traced_names() -> list[tuple[str, str]]:
    """The (module, attribute path) of every layer in perfbench's
    tracer LAYERS, read from the file, not imported."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets):
            return [(layer.elts[1].value, layer.elts[2].value) for layer in node.value.elts]
    raise AssertionError("perfbench/tracer.py has no LAYERS")


def test_every_name_the_benchmark_traces_resolves():
    """Every (module, path) the benchmark's tracer wraps, and the
    own_decompose cache its worker probes, names an attribute of the
    package: a name that went away would make the benchmark list it as
    missing and report its metrics as null."""
    names = _traced_names() + [("ordering", "own_decompose.cache_info")]
    missing = []
    for module, path in names:
        owner = importlib.import_module(f"dualmc.{module}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module}.{path}")
    assert len(names) > 10 and missing == []


def _self_callers(tree: ast.AST) -> list[str]:
    """Names of the functions in tree that call themselves: by plain
    name, or as an attribute of anything but super()."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call) or _name(call.func) != node.name:
                continue
            owner = getattr(call.func, "value", None)
            if not (isinstance(owner, ast.Call) and _name(owner.func) == "super"):
                found.append(node.name)
                break
    return found


def test_self_call_scan_skips_super():
    text = (
        "def a(n):\n    return a(n - 1)\n"
        "class K(B):\n    def __init__(self):\n        super().__init__()\n"
        "    def b(self):\n        return self.b()\n"
        "def c():\n    def d(k):\n        yield from d(k + 1)\n    return d(0)\n"
        "def e():\n    return f()\n"
    )
    assert _self_callers(ast.parse(text)) == ["a", "b", "d"]


def test_no_function_calls_itself():
    """No function of the package recurses: a search that held a Python
    frame per step would stop at the interpreter's recursion limit, about
    a thousand deep, with a RecursionError, not a verdict."""
    found = [
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _self_callers(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def _self_filling(tree: ast.AST) -> list[str]:
    """Names of the classes in tree that define __missing__, by a def or
    an assignment in the class body."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [item.name]
            elif isinstance(item, ast.Assign):
                names = [_name(t) for t in item.targets]
            else:
                continue
            if "__missing__" in names:
                found.append(node.name)
                break
    return found


def test_self_filling_scan_finds_defs_and_assignments():
    text = (
        "class A(dict):\n    def __missing__(self, k): pass\n"
        "class B(dict):\n    __missing__ = lambda self, k: k\n"
        "class C:\n    def get(self, k): pass\n"
        "def f():\n    class D(dict):\n        def __missing__(self, k): pass\n    return D\n"
        "def __missing__(k): pass\n"
    )
    assert sorted(_self_filling(ast.parse(text))) == ["A", "B", "D"]


def test_table_is_the_only_self_filling_dict():
    """runs.Table is the one class of the package that defines
    __missing__: every memo a search owns is a Table, so no second
    self-filling dict comes back beside it."""
    found = [
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _self_filling(ast.parse(path.read_text(), str(path)))
    ]
    assert found == ["runs.Table"]
