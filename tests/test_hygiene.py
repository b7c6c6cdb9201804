"""Static hygiene of the package and its tests, checked with the stdlib ast
module: no unused imports, no function-local name that is assigned but
never read, and no module-level definition of the package, nor method of
one of its classes, that nothing refers to."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "loopfock").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for name, line in imported.items() if name not in used]


def own_scope(fn):
    """Nodes of a function body, not descending into nested scopes."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def unread_locals(tree):
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, declared = {}, set()
        for node in own_scope(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored.setdefault(node.id, node.lineno)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
        # reads in nested scopes count: closures read the enclosing locals
        read = {node.id for node in ast.walk(fn)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        found += [(line, f"{fn.name}: {name}") for name, line in stored.items()
                  if name not in read and name not in declared and not name.startswith("_")]
    return found


def defined_names(tree):
    """Module-level functions and classes, and the non-dunder methods of those
    classes, as (line, label, name a reference would use)."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name, node.name))
        if isinstance(node, ast.ClassDef):
            found += [(item.lineno, f"{node.name}.{item.name}", item.name) for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and not (item.name.startswith("__") and item.name.endswith("__"))]
    return found


def referenced_names(tree):
    """Every name a Name, an Attribute or an import alias refers to."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def dead_definitions(tree, referencing_trees):
    """Definitions of tree that none of referencing_trees refers to."""
    used = set().union(*(referenced_names(t) for t in referencing_trees))
    return [(line, label) for line, label, name in defined_names(tree) if name not in used]


def offenders(paths, finder):
    return [f"{path.relative_to(ROOT)}:{line} {what}"
            for path in paths for line, what in sorted(finder(parse(path)))]


def test_no_unused_imports():
    # the package __init__ imports names to re-export them
    paths = [p for p in PACKAGE if p.name != "__init__.py"] + TESTS
    assert offenders(paths, unused_imports) == []


def test_no_locals_assigned_but_never_read():
    assert offenders(PACKAGE + TESTS, unread_locals) == []


def test_no_dead_definitions():
    trees = [parse(path) for path in PACKAGE + TESTS]
    found = [f"{path.relative_to(ROOT)}:{line} {name}"
             for path in PACKAGE for line, name in dead_definitions(parse(path), trees)]
    assert found == []


def test_finders_flag_what_they_name():
    tree = ast.parse("import os\nimport a.b as c\n"
                     "def f(x):\n    y = 1\n    _z = 2\n    w = x\n"
                     "    def g():\n        return w\n    return g\n")
    assert sorted(unused_imports(tree)) == [(1, "os"), (2, "c")]
    assert unread_locals(tree) == [(4, "f: y")]
    module = ast.parse("def used():\n    pass\n\ndef unused():\n    return used()\n\n"
                       "class Called:\n    def __init__(self):\n        pass\n\n"
                       "    def method(self):\n        pass\n\n    def stale(self):\n        pass\n\n"
                       "class Dead:\n    pass\n")
    caller = ast.parse("import m\nfrom m import Called as C\nm.unused\nC().method()\n")
    assert dead_definitions(module, [module]) == [(4, "unused"), (7, "Called"), (11, "Called.method"),
                                                  (14, "Called.stale"), (17, "Dead")]
    assert dead_definitions(module, [module, caller]) == [(14, "Called.stale"), (17, "Dead")]
