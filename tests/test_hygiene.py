"""Static hygiene of the package and its tests, checked with the stdlib ast
module: no unused imports, no function-local name that is assigned but
never read, no module-level definition of the package, nor method of one
of its classes, that nothing refers to, none that the program's entry
points cannot reach, no method that only the tests refer to (the
reference routes the tests compare against live in tests/reference.py),
no worst residual kept by hand in a loop nor combined by the builtin max
or min in a dist method: linalg.worst and linalg.sup take them, and keep
a NaN, no if test that compares with > or >= against eq_tol or rank_tol,
a guard that a NaN residual passes, and no builtin max or min on the
residual side of a comparison with either."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "loopfock").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))
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


def sup_accumulators(tree):
    """Assignments x = max(x, ...), x a name or a subscript, anywhere in the
    body of a for loop: a running maximum kept by hand."""
    found = set()
    for loop in ast.walk(tree):
        if not isinstance(loop, (ast.For, ast.AsyncFor)):
            continue
        for node in (node for stmt in loop.body for node in ast.walk(stmt)):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], (ast.Name, ast.Subscript))
                    and isinstance(node.value, ast.Call) and getattr(node.value.func, "id", None) == "max"
                    and node.value.args
                    and ast.unparse(node.value.args[0]) == ast.unparse(node.targets[0])):
                found.add((node.lineno, ast.unparse(node.targets[0])))
    return found


def dist_maxima(tree):
    """Builtin max or min calls inside a method named dist: they drop a NaN
    that comes after a number, where linalg.sup keeps it."""
    return {(node.lineno, node.func.id)
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn.name == "dist"
            for node in ast.walk(fn)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("max", "min")}


def nan_passing_guards(tree):
    """Comparisons by > or >= with an eq_tol or rank_tol attribute on either
    side inside the test of an if statement: NaN compares false, so a guard
    written res > tol lets a NaN residual through, where not res <= tol
    stops it."""
    found = set()
    for stmt in ast.walk(tree):
        if not isinstance(stmt, ast.If):
            continue
        for node in ast.walk(stmt.test):
            if (isinstance(node, ast.Compare) and any(isinstance(op, (ast.Gt, ast.GtE)) for op in node.ops)
                    and any(isinstance(side, ast.Attribute) and side.attr in ("eq_tol", "rank_tol")
                            for side in [node.left, *node.comparators])):
                found.add((node.lineno, ast.unparse(node)))
    return found


def is_tolerance(node):
    return isinstance(node, ast.Attribute) and node.attr in ("eq_tol", "rank_tol")


def builtin_extrema_on_residuals(tree):
    """Builtin max or min calls on the residual side of a comparison with an
    eq_tol or rank_tol attribute: they drop a NaN that comes after a number,
    where linalg.sup keeps it.  The tolerance side, an operand holding the
    attribute, may take one, as in max(tol.eq_tol, 1e-8)."""
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        sides = [node.left, *node.comparators]
        if not any(is_tolerance(part) for side in sides for part in ast.walk(side)):
            continue
        for side in sides:
            if not any(is_tolerance(part) for part in ast.walk(side)):
                found |= {(call.lineno, ast.unparse(call)) for call in ast.walk(side)
                          if isinstance(call, ast.Call) and getattr(call.func, "id", None) in ("max", "min")}
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


def unreferenced_methods(tree, package_trees):
    """Methods of tree's classes whose name no module of package_trees
    refers to: a method that only the tests call."""
    return [(line, label) for line, label in dead_definitions(tree, package_trees) if "." in label]


def module_bindings(trees):
    """Name -> the module-level statements of trees that bind it: function
    and class definitions and assignments."""
    bound = {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                bound.setdefault(name, []).append(node)
    return bound


def reachable(trees, seeds):
    """The module-level names of trees that a walk over name references
    reaches from seeds.  As in dead_definitions a name stands for every
    binding of it, and a class is reached with all its methods."""
    bound = module_bindings(trees)
    seen, todo = set(), list(seeds)
    while todo:
        name = todo.pop()
        if name in bound and name not in seen:
            seen.add(name)
            todo += [ref for node in bound[name] for ref in referenced_names(node)]
    return seen


# cli.main and suites.run; perfbench adds the names it refers to
ENTRY_POINTS = {"main", "run"}


def offenders(paths, finder):
    return [f"{path.relative_to(ROOT)}:{line} {what}"
            for path in paths for line, what in sorted(finder(parse(path)))]


def test_no_unused_imports():
    # the package __init__ imports names to re-export them
    paths = [p for p in PACKAGE if p.name != "__init__.py"] + TESTS
    assert offenders(paths, unused_imports) == []


def test_no_locals_assigned_but_never_read():
    assert offenders(PACKAGE + TESTS, unread_locals) == []


def test_no_running_maximum_is_kept_by_hand():
    assert offenders(PACKAGE, sup_accumulators) == []


def test_no_distance_takes_a_builtin_maximum():
    assert offenders(PACKAGE, dist_maxima) == []


def test_no_guard_passes_a_nan():
    assert offenders(PACKAGE, nan_passing_guards) == []


def test_no_builtin_extremum_meets_a_tolerance():
    assert offenders(PACKAGE, builtin_extrema_on_residuals) == []


def test_no_dead_definitions():
    trees = [parse(path) for path in PACKAGE + TESTS]
    found = [f"{path.relative_to(ROOT)}:{line} {name}"
             for path in PACKAGE for line, name in dead_definitions(parse(path), trees)]
    assert found == []


def test_no_method_only_the_tests_call():
    trees = [parse(path) for path in PACKAGE]
    found = [f"{path.relative_to(ROOT)}:{line} {name}"
             for path, tree in zip(PACKAGE, trees) for line, name in unreferenced_methods(tree, trees)]
    assert found == []


def test_package_is_reached_from_its_entry_points():
    trees = [parse(path) for path in PACKAGE]
    seeds = ENTRY_POINTS.union(*(referenced_names(parse(path)) for path in PERFBENCH))
    reached = reachable(trees, seeds)
    unreached = {node.name for tree in trees for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                 and node.name not in reached}
    assert sorted(unreached) == []


def test_finders_flag_what_they_name():
    tree = ast.parse("import os\nimport a.b as c\n"
                     "def f(x):\n    y = 1\n    _z = 2\n    w = x\n"
                     "    def g():\n        return w\n    return g\n")
    assert sorted(unused_imports(tree)) == [(1, "os"), (2, "c")]
    assert unread_locals(tree) == [(4, "f: y")]
    loops = ast.parse("for _ in range(3):\n    w = max(w, f())\n    r['a'] = max(r['a'], 1)\n"
                      "    y = max(0, w)\n    for i in x:\n        if i:\n            w = max(w, i)\n"
                      "while w:\n    w = max(w, 2)\nw = max(w, 3)\n")
    assert sorted(sup_accumulators(loops)) == [(2, "w"), (3, "r['a']"), (7, "w")]
    groups = ast.parse("class G:\n    def dist(self, a, b):\n        return max(a, b)\n\n"
                       "    def mul(self, a, b):\n        return min(a, b)\n\n"
                       "class H:\n    def dist(self, a, b):\n        return sup((a, min(b, 1)))\n\n"
                       "def dist(a, b):\n    return max(a, b)\n")
    assert sorted(dist_maxima(groups)) == [(3, "max"), (10, "min")]
    guards = ast.parse("if res > tol.eq_tol:\n    pass\nif not res <= tol.eq_tol:\n    pass\n"
                       "if a and tol.rank_tol >= b:\n    pass\nelif c > tol.eq_tol:\n    pass\n"
                       "if res > eq_tol or res < tol.rank_tol:\n    pass\n"
                       "x = res > tol.eq_tol\nwhile res > tol.eq_tol:\n    pass\n")
    assert sorted(nan_passing_guards(guards)) == [(1, "res > tol.eq_tol"), (5, "tol.rank_tol >= b"),
                                                  (7, "c > tol.eq_tol")]
    extrema = ast.parse("ok = max(a, b) <= tol.eq_tol\nif x < y <= min(c, 2):\n    pass\n"
                        "ok = abs(d) <= max(tol.eq_tol, 1e-8)\nok = max(a, b) <= eq_tol\n"
                        "ok = tol.rank_tol < f(min(r, s))\n")
    assert sorted(builtin_extrema_on_residuals(extrema)) == [(1, "max(a, b)"), (6, "min(r, s)")]
    module = ast.parse("def used():\n    pass\n\ndef unused():\n    return used()\n\n"
                       "class Called:\n    def __init__(self):\n        pass\n\n"
                       "    def method(self):\n        pass\n\n    def stale(self):\n        pass\n\n"
                       "class Dead:\n    pass\n")
    caller = ast.parse("import m\nfrom m import Called as C\nm.unused\nC().method()\n")
    assert dead_definitions(module, [module]) == [(4, "unused"), (7, "Called"), (11, "Called.method"),
                                                  (14, "Called.stale"), (17, "Dead")]
    assert dead_definitions(module, [module, caller]) == [(14, "Called.stale"), (17, "Dead")]
    assert unreferenced_methods(module, [module]) == [(11, "Called.method"), (14, "Called.stale")]
    assert unreferenced_methods(module, [module, caller]) == [(14, "Called.stale")]
    graph = ast.parse("def a():\n    return b()\n\ndef b():\n    pass\n\ndef c():\n    pass\n\n"
                      "TABLE = [c]\n\ndef d():\n    return TABLE\n\nclass K:\n    def m(self):\n"
                      "        return a()\n")
    assert reachable([graph], {"a"}) == {"a", "b"}
    assert reachable([graph], {"d"}) == {"d", "TABLE", "c"}
    assert reachable([graph], {"K", "gone"}) == {"K", "a", "b"}
