"""Static checks over the package and its tests."""

import ast
import importlib
import inspect
import pkgutil
import re
from collections import Counter
from pathlib import Path

import pytest

import sketchsim
from sketchsim.core import SketchError

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    [*ROOT.glob("src/sketchsim/*.py"), *ROOT.glob("tests/*.py"), *ROOT.glob("perfbench/*.py")]
)


def unused_imports(path: Path):
    """(line, name) of each import the module never reads.

    A name counts as read if it is used anywhere as a name or listed in
    ``__all__``. A line marked ``# noqa: F401`` keeps its import.
    """
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.lineno
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [
        (line, name)
        for name, line in imported.items()
        if name not in read and "noqa: F401" not in lines[line - 1]
    ]


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in SOURCES
        for line, name in unused_imports(path)
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def statement_names(node: ast.stmt):
    """The names a def, class or plain assignment statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def defined_names(path: Path):
    """Each top-level function, class and constant of a module, and each
    method and class-level assignment of its classes, once per definition."""
    names = []
    for node in ast.parse(path.read_text()).body:
        names += statement_names(node)
        if isinstance(node, ast.ClassDef):
            names += [name for n in node.body for name in statement_names(n)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def test_no_dead_names():
    # A name's definitions are occurrences too, so a live name occurs
    # more often than it is defined.
    defined = Counter(name for path in ROOT.glob("src/sketchsim/*.py") for name in defined_names(path))
    words = Counter(
        word
        for folder in ("src", "tests", "perfbench")
        for path in (ROOT / folder).rglob("*.py")
        for word in re.findall(r"\w+", path.read_text())
    )
    dead = sorted(name for name, count in defined.items() if words[name] <= count)
    assert not dead, "names defined but never used: " + ", ".join(dead)


def test_only_the_base_runs_the_sketch_protocol():
    # Read from the source, not the live classes: a traced benchmark run
    # restores each method it wrapped by setting it on the class, so after
    # one, a sketch class holds the base's insert_many in its own __dict__.
    classes = {
        node.name: node
        for path in ROOT.glob("src/sketchsim/*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.ClassDef)
    }

    def defines(name):
        """The names a class binds itself or through its package bases."""
        node = classes[name]
        names = {n for stmt in node.body for n in statement_names(stmt)}
        for base in node.bases:
            if isinstance(base, ast.Name) and base.id in classes:
                names |= defines(base.id)
        return names

    entry = [
        f"{name}.{attr}"
        for name, node in classes.items()
        if name != "_Sketch"
        for stmt in node.body
        for attr in statement_names(stmt)
        if attr in ("insert_many", "estimate_jaccard")
    ]
    assert not entry, "only _Sketch may define the entry points: " + ", ".join(entry)
    sketches = [
        name
        for name, node in classes.items()
        if any(isinstance(s, ast.Assign) and "ALGO" in statement_names(s) for s in node.body)
    ]
    assert len(sketches) == 8
    missing = [
        f"{name}.{attr}"
        for name in sketches
        for attr in ("_insert", "_jaccard")
        if attr not in defines(name)
    ]
    assert not missing, "sketches without their update or estimator: " + ", ".join(missing)


def test_ids_are_cast_to_uint64_only_by_the_id_rule():
    # A plain cast truncates float ids; core.item_ids refuses them first.
    casts = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in ROOT.glob("src/sketchsim/*.py")
        if path.name != "core.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) in ("np.asarray", "np.ascontiguousarray")
        and any(
            ast.unparse(dtype) == "np.uint64"
            for dtype in [*node.args[1:2], *(kw.value for kw in node.keywords if kw.arg == "dtype")]
        )
    ]
    assert not casts, "uint64 casts outside core.item_ids: " + ", ".join(casts)


def test_every_exception_is_a_sketch_error():
    # Every error the package defines is typed: a caller catches them all
    # as SketchError.
    modules = [
        sketchsim,
        *(
            importlib.import_module(f"sketchsim.{info.name}")
            for info in pkgutil.iter_modules(sketchsim.__path__)
        ),
    ]
    assert len(modules) == len(list(ROOT.glob("src/sketchsim/*.py")))
    untyped = [
        f"{module.__name__}.{name}"
        for module in modules
        for name, obj in inspect.getmembers(module, inspect.isclass)
        if obj.__module__ == module.__name__
        and issubclass(obj, BaseException)
        and not issubclass(obj, SketchError)
    ]
    assert not untyped, "exceptions outside SketchError: " + ", ".join(untyped)


def test_the_package_calls_no_one_item_hash_view():
    # Each hash has one implementation, its *_many form; the one-item
    # views exist for callers outside the package.
    views = {"index_hash", "sign_hash", "unit_hash", "unit_rank", "bit_hash"}
    calls = [
        f"{path.relative_to(ROOT)}:{node.lineno}: {ast.unparse(node.func)}"
        for path in ROOT.glob("src/sketchsim/*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in views
    ]
    assert not calls, "calls of a one-item hash view in the package: " + ", ".join(calls)


def test_budgets_are_checked_in_one_place():
    # core.check_budget judges every budget, and each sizing rule reads the
    # pair it returns. A second comparison could accept what it refuses.
    def reads_budget(node):
        return isinstance(node, ast.Compare) and any(
            getattr(n, "id", getattr(n, "attr", None)) == "memory_bytes" for n in ast.walk(node)
        )

    found = []
    for path in ROOT.glob("src/sketchsim/*.py"):
        tree = ast.parse(path.read_text())
        allowed = {
            id(n)
            for check in tree.body
            if path.name == "core.py" and getattr(check, "name", None) == "check_budget"
            for n in ast.walk(check)
        }
        found += [
            f"{path.relative_to(ROOT)}:{node.lineno}"
            for node in ast.walk(tree)
            if reads_budget(node) and id(node) not in allowed
        ]
    assert not found, "memory_bytes compared outside core.check_budget: " + ", ".join(found)


@pytest.mark.parametrize("rule,home", [("_integer", "core.py"), ("bucket_of", "hashing.py")])
def test_a_shared_rule_is_called_only_in_its_module(rule, home):
    # core.integer_arg applies _integer to every integer argument, and
    # HashFamily.slots is the one slot pass that reduces hashes to buckets;
    # a call elsewhere would be a second statement of the rule.
    calls = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in ROOT.glob("src/sketchsim/*.py")
        if path.name != home
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == rule
    ]
    assert not calls, f"{rule} called outside {home}: " + ", ".join(calls)
