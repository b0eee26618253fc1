"""The runtime stays stdlib-only: every absolute import in the package names
a standard-library module.  Every import sits at module level, so no import
cycle between the package's modules can hide inside a function body."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tighttri"


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
