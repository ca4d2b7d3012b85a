"""Every name a package module imports is used by that module."""

import ast
from pathlib import Path

import ncpolytope

# Bound only so that the benchmark's tracer, which wraps functions at the
# names their callers import, can still find them there.
KEPT_FOR_TRACING = {("projection", "solve_standard"),
                    ("symmetry", "reduce_modulo")}


def unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return imported - used


def test_no_unused_imports():
    package = Path(ncpolytope.__file__).parent
    found = {(path.stem, name)
             for path in sorted(package.glob("*.py"))
             if path.name != "__init__.py"
             for name in unused_imports(path)}
    assert found == KEPT_FOR_TRACING
