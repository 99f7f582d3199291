"""Every public module-level name of `enfkit` is used somewhere.

A function, class or constant defined at the top level of a module under
`src/enfkit` must be referenced in `src/`, `tests/` or `perfbench/` beyond
its own definition; an export from `enfkit/__init__.py` alone does not
count.  A reference is a name read, an attribute, an import, or a string
literal that spells the name exactly (the benchmark tracer names the
functions it wraps by string); definitions, assignments, comments and
docstrings do not keep a name alive.

Every name a module under `src/enfkit` imports is also read in that module;
`enfkit/__init__.py` is exempt, since it imports to re-export.
"""
import ast
import os
from collections import Counter

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
PACKAGE = os.path.join(ROOT, "src", "enfkit")
SEARCHED = ("src", "tests", "perfbench")


def _public_definitions(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (name for name in names if not name.startswith("_"))


def _references(path) -> Counter:
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif isinstance(node, ast.alias):
            counts[node.name] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                counts[node.value] += 1
    return counts


def _python_files():
    for top in SEARCHED:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith((".", "__")))
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def unreferenced_names() -> list:
    """Public top-level names of the package that nothing else references."""
    defined = set()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py") and name != "__init__.py":
            defined.update(_public_definitions(os.path.join(PACKAGE, name)))
    referenced = Counter()
    exports = os.path.join(PACKAGE, "__init__.py")
    for path in _python_files():
        if path != exports:
            referenced.update(_references(path))
    return sorted(name for name in defined if not referenced[name])


def test_every_public_name_is_referenced():
    assert unreferenced_names() == []


def unused_imports() -> list:
    """`module.name` for every imported name its module never reads."""
    unused = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py") or name == "__init__.py":
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{name[:-3]}.{n}" for n in sorted(imported - read)]
    return unused


def test_every_import_is_used():
    assert unused_imports() == []
