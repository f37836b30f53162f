"""Source hygiene checks. All but the exception lint, which imports the
package, need only the standard library."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for p in (ROOT / "src" / "rwslice").glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_imports_detected():
    assert unused_imports("import os\nfrom re import sub, match as m\nm('x', 'y')\n") == [
        "line 1: os",
        "line 2: sub",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


_ATTR_CALLS = {"getattr", "setattr", "hasattr", "delattr"}


def _referenced_names(tree: ast.AST) -> Counter:
    """Names read or looked up as attributes, and identifier strings given
    as arguments to getattr, setattr, hasattr or delattr (plain or as a
    method, such as monkeypatch.setattr). Other strings name nothing."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) in _ATTR_CALLS:
            for arg in node.args:
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str) and arg.value.isidentifier():
                    out[arg.value] += 1
    return out


def unreferenced_functions(defining: dict[str, str], others: list[str]) -> list[str]:
    """Functions and methods of the `defining` sources (name to text) that
    no source references by name outside their own body. Dunder methods
    are exempt."""
    trees = {name: ast.parse(text) for name, text in defining.items()}
    refs = sum((_referenced_names(t) for t in trees.values()), Counter())
    refs += sum((_referenced_names(ast.parse(text)) for text in others), Counter())
    out = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if refs[node.name] - _referenced_names(node)[node.name] == 0:
                out.append(f"{name}:{node.lineno}: {node.name}")
    return out


def test_unreferenced_functions_detected():
    src = "class P:\n    def is_root(self):\n        return self.is_root()\n    def __str__(self):\n        return ''\n"
    assert unreferenced_functions({"p.py": src}, []) == ["p.py:2: is_root"]
    assert unreferenced_functions({"p.py": src}, ["P().is_root()"]) == []
    # a string names a function only as an argument of an attribute call
    var = "def var(name):\n    return name\n"
    assert unreferenced_functions({"t.py": var}, ["if token == 'var':\n    pass\n"]) == ["t.py:1: var"]
    assert unreferenced_functions({"t.py": var}, ["getattr(t, 'var')"]) == []
    assert unreferenced_functions({"t.py": var}, ["monkeypatch.setattr(t, 'var', print)"]) == []


def test_every_function_is_referenced():
    package = sorted((ROOT / "src").rglob("*.py"))
    others = [p for d in ("tests", "bench") for p in sorted((ROOT / d).rglob("*.py"))]
    assert unreferenced_functions(
        {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in package},
        [p.read_text(encoding="utf-8") for p in others],
    ) == []


def self_calling_functions(source: str) -> list[str]:
    """The functions and nested functions that call themselves by name, as
    a plain call or as a method of `self`, each named by its enclosing
    classes and functions (`outer.inner`)."""
    out = []
    stack = [(ast.parse(source), "")]
    while stack:
        node, prefix = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef) and any(
                    isinstance(call, ast.Call) and _calls_by_name(call.func, child.name) for call in ast.walk(child)
                ):
                    out.append(name)
                stack.append((child, name + "."))
            else:
                stack.append((child, prefix))
    return sorted(out)


def _calls_by_name(func: ast.expr, name: str) -> bool:
    if isinstance(func, ast.Name):
        return func.id == name
    return isinstance(func, ast.Attribute) and func.attr == name and getattr(func.value, "id", None) == "self"


def test_self_calling_functions_detected():
    src = (
        "def f(n):\n    return f(n - 1)\n"
        "def g(t):\n    def walk(u):\n        return [walk(a) for a in u]\n    return walk(t)\n"
        "class S:\n    def apply(self, t):\n        return self.apply(t)\n"
        "    def get(self, v):\n        return self._d.get(v)\n"
        "class E(Exception):\n    def __init__(self):\n        super().__init__()\n"
    )
    assert self_calling_functions(src) == ["S.apply", "f", "g.walk"]


# recursive helpers left in the package; a deep enough term exhausts the
# interpreter's stack in each of them, so the list may only shrink
RECURSIVE = [
    "Substitution.apply",
    "_ac_args_match",
    "_seq_match",
]


def test_recursive_functions_are_the_pinned_ones():
    found = sorted(f for p in sorted((ROOT / "src").rglob("*.py")) for f in self_calling_functions(p.read_text(encoding="utf-8")))
    assert found == sorted(RECURSIVE)


def _is_dataclass(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def recursive_dataclass_equality(source: str) -> list[str]:
    """The dataclasses whose field annotations name their own class, as a
    name or inside a string, and whose body does not define both `__eq__`
    and `__hash__`: the generated ones compare and hash such a field by
    recursion, as deep as the value is."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef) or not any(map(_is_dataclass, node.decorator_list)):
            continue
        named = set()
        for stmt in node.body:
            for sub in ast.walk(stmt.annotation) if isinstance(stmt, ast.AnnAssign) else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    named |= {n.id for n in ast.walk(ast.parse(sub.value, mode="eval")) if isinstance(n, ast.Name)}
                elif isinstance(sub, ast.Name):
                    named.add(sub.id)
        defined = {stmt.name for stmt in node.body if isinstance(stmt, ast.FunctionDef)}
        if node.name in named and not {"__eq__", "__hash__"} <= defined:
            out.append(node.name)
    return out


def test_recursive_dataclass_equality_detected():
    src = (
        "@dataclass(frozen=True)\nclass T:\n    args: tuple['T', ...] = ()\n"
        "@dataclasses.dataclass\nclass L:\n    next: L | None\n    def __hash__(self):\n        return 0\n"
        "@dataclass\nclass N:\n    next: 'N'\n    def __eq__(self, other):\n        return False\n"
        "    def __hash__(self):\n        return 0\n"
        "@dataclass\nclass P:\n    path: tuple[int, ...]\n"
        "class Q:\n    next: 'Q'\n"
    )
    assert recursive_dataclass_equality(src) == ["T", "L"]


def test_no_recursive_dataclass_equality():
    found = {p.name: recursive_dataclass_equality(p.read_text(encoding="utf-8")) for p in sorted((ROOT / "src").rglob("*.py"))}
    assert {name: classes for name, classes in found.items() if classes} == {}


def dataclass_classes(source: str) -> list[str]:
    """The classes decorated with `dataclass`, plain, called or as an attribute."""
    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list))
    ]


def test_dataclass_classes_detected():
    src = (
        "@dataclass(frozen=True)\nclass A:\n    x: int\n"
        "@dataclasses.dataclass\nclass B:\n    pass\n"
        "@total_ordering\nclass C:\n    __slots__ = ()\n"
        "class D(NamedTuple):\n    x: int\n"
        "def make():\n    @dataclass\n    class E:\n        pass\n"
    )
    assert dataclass_classes(src) == ["A", "B", "E"]


# the classes that stay dataclasses, as callers copy them with
# `dataclasses.replace`; `dataclass` generates each class's methods with
# `exec` when the module is imported, which every run of the CLI pays, so
# the other value and record classes are written out (`terms._Record`)
REPLACEABLE = ["LabeledStep", "SlicedStep", "TraceSlice", "TraceStep"]


def test_only_the_replaceable_classes_are_dataclasses():
    found = sorted(c for p in sorted((ROOT / "src").rglob("*.py")) for c in dataclass_classes(p.read_text(encoding="utf-8")))
    assert found == REPLACEABLE


# exception classes that do not report an input error; the list may only shrink
NOT_INPUT_ERRORS = ["ReplayFailure"]


def test_exceptions_are_input_errors_but_the_pinned_ones():
    from rwslice import RwsliceError

    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        module = importlib.import_module(".".join(path.relative_to(ROOT / "src").with_suffix("").parts).removesuffix(".__init__"))
        found += [
            name
            for name, value in vars(module).items()
            if isinstance(value, type) and issubclass(value, BaseException) and value.__module__ == module.__name__
            and not issubclass(value, RwsliceError)
        ]
    assert sorted(found) == sorted(NOT_INPUT_ERRORS)


def blanket_handlers(source: str) -> list[str]:
    """The handlers that catch every exception: a bare `except:`, or one
    naming Exception or BaseException, alone or in a tuple."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(t is None or getattr(t, "id", None) in ("Exception", "BaseException") for t in caught):
                out.append(f"line {node.lineno}")
    return out


def test_blanket_handlers_detected():
    src = (
        "try:\n    f()\nexcept:\n    pass\n"
        "try:\n    f()\nexcept (ValueError, Exception) as e:\n    pass\n"
        "try:\n    f()\nexcept BaseException:\n    pass\n"
        "try:\n    f()\nexcept ValueError:\n    pass\n"
    )
    assert blanket_handlers(src) == ["line 3", "line 7", "line 11"]


def test_no_blanket_handlers():
    found = {str(p.relative_to(ROOT)): blanket_handlers(p.read_text(encoding="utf-8")) for p in sorted((ROOT / "src").rglob("*.py"))}
    assert {path: lines for path, lines in found.items() if lines} == {}


def step_makers(source: str) -> list[str]:
    """The calls of `TraceStep(...)` and the references to `replay_step`,
    as a name, an attribute or an imported name."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "TraceStep":
            out.append(f"line {node.lineno}: TraceStep(...)")
        elif getattr(node, "id", getattr(node, "attr", None)) == "replay_step" or (
            isinstance(node, ast.ImportFrom) and any(alias.name == "replay_step" for alias in node.names)
        ):
            out.append(f"line {node.lineno}: replay_step")
    return out


def test_step_makers_detected():
    src = (
        "from .engine import TraceStep, replay_step\n"
        "step = engine.TraceStep('flat', None, q, s, t, None)\n"
        "def load(step: TraceStep):\n    return engine.replay_step(step, th)\n"
    )
    assert step_makers(src) == ["line 1: replay_step", "line 2: TraceStep(...)", "line 4: replay_step"]


def test_only_the_engine_makes_steps():
    """`engine._Steps.add` makes every step of a run and of a load: no other
    module builds a `TraceStep` or replays one."""
    found = {p.name: step_makers(p.read_text(encoding="utf-8")) for p in sorted((ROOT / "src").rglob("*.py")) if p.name != "engine.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
