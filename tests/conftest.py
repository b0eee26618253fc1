"""Shared fixtures: the deterministic corpus of small closed 3-manifolds,
the searched 9-vertex tight instance, and a bank of 2-sphere skeletons."""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

from tighttri import (Complex, catalog, connected_sum, search_tight,
                      stacked_sphere)
from tighttri.linalg import GF2


def subdivide_facet(x: Complex, facet) -> Complex:
    """Bistellar 0-move: replace a facet by the cone over its boundary."""
    w = max(x.vertex_set) + 1
    facets = [f for f in x.facets if f != tuple(sorted(facet))]
    base = tuple(sorted(facet))
    facets.extend(tuple(sorted(set(base) - {u} | {w})) for u in base)
    return Complex.from_facets(facets)


def cyclic_polytope_boundary(n: int, d: int) -> Complex:
    """The boundary of the cyclic d-polytope on n vertices, by Gale evenness."""
    facets = []
    for f in itertools.combinations(range(n), d):
        if all(sum(a < v < b for v in f) % 2 == 0
               for a, b in itertools.combinations(range(n), 2)
               if a not in f and b not in f):
            facets.append(f)
    return Complex.from_facets(facets)


def random_ti_sum(rng: random.Random, max_summands: int = 6):
    """A connected sum of tetrahedron/icosahedron boundaries, with its recipe."""
    kinds = [rng.choice("TI") for _ in range(rng.randint(1, max_summands))]
    pieces = {"T": catalog.boundary_simplex(3), "I": catalog.icosahedron()}
    x = pieces[kinds[0]]
    for kind in kinds[1:]:
        y = pieces[kind]
        fx = rng.choice(sorted(x.facets))
        fy = rng.choice(sorted(y.facets))
        perm = list(fx)
        rng.shuffle(perm)
        x = connected_sum(x, y, fx, fy, dict(zip(fy, perm)))
    return x, Counter(kinds)


@pytest.fixture(scope="session")
def tight9():
    """The 9-vertex tight instance produced by the seeded search."""
    result = search_tight(1, GF2, budget=2000, seed=0)
    assert result is not None, "seeded search failed to find the 9-vertex instance"
    return result  # (complex, certificate)


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
def corpus3(quotient_bank):
    """>= 50 closed 3-manifold triangulations on <= 12 vertices.

    Stacked spheres, tight handle quotients, their non-tight subdivisions,
    and a couple of deliberately non-tight suspensions.
    """
    corpus = [("boundary-delta4", catalog.boundary_simplex(4))]
    for n in range(5, 13):
        for seed in range(4):
            corpus.append((f"stacked-{n}-s{seed}", stacked_sphere(n, 3, seed=seed)))
    for i, (m, _) in enumerate(quotient_bank):
        corpus.append((f"quotient-{i}", m))
    for i, (m, _) in enumerate(quotient_bank[:8]):
        corpus.append((f"quotient-{i}-subdivided", subdivide_facet(m, m.facets[0])))
    corpus.append(("susp-delta3", catalog.suspension(catalog.boundary_simplex(3))))
    corpus.append(("susp-octahedron", catalog.suspension(catalog.suspension(catalog.cycle_complex(4)))))
    return corpus


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
