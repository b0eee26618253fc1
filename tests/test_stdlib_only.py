"""The runtime stays stdlib-only: every absolute import in the package names
a standard-library module.  Every import sits at module level, so no import
cycle between the package's modules can hide inside a function body.  Every
public name has a caller outside the tests."""

import ast
import sys
from pathlib import Path

import tighttri

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "tighttri"


def absolute_imports(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return {name.split(".")[0] for name in names}


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    seen = set()
    for path in sources:
        imported = absolute_imports(path)
        assert imported <= sys.stdlib_module_names, (path.name, imported - sys.stdlib_module_names)
        seen |= imported
    assert {"itertools", "multiprocessing"} <= seen


def test_no_import_inside_a_function():
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested = [node.lineno for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
                assert not nested, (path.name, fn.name, nested)


def used_names(path: Path) -> set:
    """The names a module reads, as a name, an attribute or an imported
    name, each counted only outside the function or class defining it."""
    used = set()

    def visit(node, defining: frozenset):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining |= {node.name}
        name = None
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            name = node.id
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        if name is not None and name not in defining:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(ast.parse(path.read_text(), str(path)), frozenset())
    return used


def test_every_public_name_has_a_caller_outside_the_tests():
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((REPO / "scripts").glob("*.py")) + sorted((REPO / "bench").glob("*.py"))
    used = set().union(*(used_names(path) for path in sources))
    assert sorted(set(tighttri.__all__) - used) == []
