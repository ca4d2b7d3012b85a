"""Every name a package module imports is used by that module, every
name it defines is used outside the tests, and no module asserts."""

import ast
from pathlib import Path

import ncpolytope

# Bound only so that the benchmark's tracer, which wraps functions at the
# names their callers import, can still find them there.
KEPT_FOR_TRACING = {("projection", "reduce_modulo"),
                    ("projection", "rref"),
                    ("projection", "solve_standard"),
                    ("symmetry", "reduce_modulo"),
                    ("symmetry", "rref")}

# Defined but never named by the package, the benchmark or the scripts.
KEPT_UNREFERENCED = {
    "cli._Parser.error",         # argparse calls it
    "linalg.reduce_modulo",      # traced at the names above; tests use it
    "symmetry.expand_orbit",     # the README documents it
}

PACKAGE = Path(ncpolytope.__file__).parent
REPO = PACKAGE.parent.parent


def modules():
    """Each package module but ``__init__``, with its parsed tree."""
    return [(path.stem, ast.parse(path.read_text()))
            for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py"]


def unused_imports(tree):
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return imported - used


def definitions(tree, prefix, in_class=False):
    """``(qualified name, name, is_method)`` of the functions, classes and
    methods in a tree; dunder methods are left out, since Python calls
    them."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield f"{prefix}.{node.name}", node.name, in_class
            yield from definitions(node, f"{prefix}.{node.name}",
                                   isinstance(node, ast.ClassDef))
        else:
            yield from definitions(node, prefix, in_class)


def referenced_names(trees):
    """The bare names, and the names after a dot, that the trees use."""
    names, attributes = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return names | attributes, attributes


def test_no_unused_imports():
    found = {(stem, name) for stem, tree in modules()
             for name in unused_imports(tree)}
    assert found == KEPT_FOR_TRACING


def test_no_library_only_names():
    """Each definition is named somewhere in the package, the benchmark
    (``perfbench/``) or the example scripts (``scripts/``), not only in
    the tests.

    A method counts as used only where some attribute access names it, so
    a function or variable of the same name does not keep it alive; an
    attribute of the same name on another class still does.
    """
    package = modules()
    trees = [tree for _, tree in package]
    trees += [ast.parse(path.read_text())
              for folder in ("perfbench", "scripts")
              for path in sorted((REPO / folder).glob("*.py"))]
    used, attributes = referenced_names(trees)
    unreferenced = {qualified for stem, tree in package
                    for qualified, name, is_method in definitions(tree, stem)
                    if name not in (attributes if is_method else used)}
    assert unreferenced == KEPT_UNREFERENCED


def test_no_assert_statements():
    """Invariants raise typed errors: ``python -O`` strips every assert."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
