"""The library API that the benchmark under ``bench/`` calls.

The benchmark scripts are read here, not run: every name they import from
``tighttri`` must exist, and the call chain of the traced scan replay,
``ChainData(y, F).boundary(k).left_nullspace()`` and ``.rank()``, must
still give the left null space and the rank.
"""

import ast
import importlib
import random
from pathlib import Path

import pytest

from oracle import entries, left_nullspace, rank, rref
from tighttri import ChainData, catalog, stacked_sphere
from tighttri.linalg import GF2, QQ, FieldSpec

BENCH = Path(__file__).resolve().parent.parent / "bench"


def tighttri_imports() -> list:
    """(file, module, name) of every ``from tighttri... import name`` in
    the benchmark's scripts."""
    out = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tighttri":
                out.extend((path.name, node.module, alias.name) for alias in node.names)
    return out


def test_every_name_the_benchmark_imports_resolves():
    imports = tighttri_imports()
    assert any(mod == "tighttri" for _, mod, _ in imports)
    for path, mod, name in imports:
        assert hasattr(importlib.import_module(mod), name), f"{path}: {mod}.{name}"


@pytest.mark.parametrize("field", [GF2, FieldSpec.gf(3), QQ], ids=str)
def test_scan_replay_call_chain(field):
    rng = random.Random(3)
    x = stacked_sphere(8, 3, seed=1)
    subcomplexes = [catalog.projective_plane_6(), x]
    subcomplexes += [x.induced(rng.sample(x.vertices, 5)) for _ in range(4)]
    for y in subcomplexes:
        cd = ChainData(y, field)
        for k in range(1, y.dim + 1):
            b = cd.boundary(k)
            assert b.rank() == rank(field, b.rows, b.ncols)
            want = rref(field, left_nullspace(field, b.rows, b.ncols), b.nrows)[1]
            assert entries(field, b.left_nullspace().rows, b.nrows) == entries(field, want, b.nrows)
