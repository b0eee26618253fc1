"""Shared fixtures: the deterministic corpus of small closed 3-manifolds,
the searched 9-vertex tight instance, and a bank of 2-sphere skeletons;
and the drawn small complexes.  The corpus itself is built by
``scripts/corpus.py``, which the scripts share."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import strategies as st

from corpus import closed_3_manifolds, subdivide_facet
from tighttri import Complex, catalog, search_tight, stacked_sphere
from tighttri.linalg import GF2


def cyclic_polytope_boundary(n: int, d: int) -> Complex:
    """The boundary of the cyclic d-polytope on n vertices, by Gale evenness."""
    facets = []
    for f in itertools.combinations(range(n), d):
        if all(sum(a < v < b for v in f) % 2 == 0
               for a, b in itertools.combinations(range(n), 2)
               if a not in f and b not in f):
            facets.append(f)
    return Complex.from_facets(facets)


@st.composite
def small_complexes(draw, max_vertices=6):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    facets = draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True),
        min_size=1, max_size=6))
    return Complex.from_facets(facets)


@pytest.fixture(scope="session")
def quotient_bank():
    """Ten searched 9-vertex handle quotients (with certificates), one per seed."""
    out = []
    for seed in range(10):
        res = search_tight(1, GF2, budget=2000, seed=seed)
        assert res is not None, f"search with seed {seed} found nothing"
        out.append(res)
    return out


@pytest.fixture(scope="session")
def tight9(quotient_bank):
    """The 9-vertex tight instance of the seed-0 search, with its certificate."""
    return quotient_bank[0]


@pytest.fixture(scope="session")
def corpus3(quotient_bank):
    """>= 50 closed 3-manifold triangulations on <= 12 vertices.

    Stacked spheres, tight handle quotients, their non-tight subdivisions,
    and a couple of deliberately non-tight suspensions.
    """
    quotients = [(f"quotient-{i}", m) for i, (m, _) in enumerate(quotient_bank)]
    quotients += [(f"quotient-{i}-subdivided", subdivide_facet(m, m.facets[0]))
                  for i, (m, _) in enumerate(quotient_bank[:8])]
    return closed_3_manifolds(quotients)


@pytest.fixture(scope="session")
def pinned_members(corpus3):
    """The corpus by name plus rp2-6: the complexes of the pinned witnesses."""
    out = dict(corpus3)
    out["rp2-6"] = catalog.projective_plane_6()
    return out


@pytest.fixture(scope="session")
def sphere_skeletons():
    """Fifty 2-sphere triangulations (stacked family plus the two prime types)."""
    out = [("tetrahedron", catalog.boundary_simplex(3)),
           ("icosahedron", catalog.icosahedron()),
           ("octahedron", catalog.suspension(catalog.cycle_complex(4)))]
    n, seed = 5, 0
    while len(out) < 50:
        out.append((f"stacked2-{n}-s{seed}", stacked_sphere(n, 2, seed=seed)))
        seed += 1
        if seed == 4:
            seed = 0
            n += 1
    return out
