"""The closed-manifold and 2-sphere corpora that the tests and the scripts
share, and the moves that build them.

The scripts import this module from their own directory; the tests reach
it through pytest's ``pythonpath`` setting.  Every function is seeded, so a
corpus is the same on every run.
"""

import random
from collections import Counter

from tighttri import (Complex, catalog, connected_sum, find_admissible_handle, handle_addition,
                      stacked_sphere)
from tighttri.construct import _grow_search_sphere


def subdivide_facet(x: Complex, facet) -> Complex:
    """Bistellar 0-move: replace a facet by the cone over its boundary."""
    w = max(x.vertex_set) + 1
    base = tuple(sorted(facet))
    facets = [f for f in x.facets if f != base]
    facets.extend(tuple(sorted(set(base) - {u} | {w})) for u in base)
    return Complex.from_facets(facets)


def subdivide_edges(s: Complex) -> Complex:
    """Split each triangle of a 2-complex into four at its edge midpoints;
    the midpoint of the i-th edge in lexicographic order gets the label
    i + 1 above the largest vertex."""
    mid = {e: max(s.vertex_set) + 1 + i for i, e in enumerate(s.faces(1))}
    facets = []
    for a, b, c in s.faces(2):
        ab, ac, bc = mid[a, b], mid[a, c], mid[b, c]
        facets += [(a, ab, ac), (b, ab, bc), (c, ac, bc), (ab, ac, bc)]
    return Complex.from_facets(facets)


def glue(x: Complex, y: Complex, rng: random.Random) -> Complex:
    """The connected sum of x and y at a random facet of each, along a
    random bijection."""
    fx = rng.choice(sorted(x.facets))
    fy = rng.choice(sorted(y.facets))
    perm = list(fx)
    rng.shuffle(perm)
    return connected_sum(x, y, fx, fy, dict(zip(fy, perm)))


def ti_sum(kinds, rng: random.Random) -> Complex:
    """The connected sum of tetrahedron ("T") and icosahedron ("I")
    boundaries in the order of ``kinds``, glued by :func:`glue`."""
    pieces = {"T": catalog.boundary_simplex(3), "I": catalog.icosahedron()}
    x = pieces[kinds[0]]
    for kind in kinds[1:]:
        x = glue(x, pieces[kind], rng)
    return x


def random_ti_sum(rng: random.Random, max_summands: int = 6):
    """A T/I sum of 1 to ``max_summands`` drawn kinds, with its recipe."""
    kinds = [rng.choice("TI") for _ in range(rng.randint(1, max_summands))]
    return ti_sum(kinds, rng), Counter(kinds)


def two_handle_quotient(seed=1) -> Complex:
    """Two random admissible handles on the 21-vertex search sphere of the
    seed, drawn as the search draws them.  With the default seed it has f =
    (13, 62, 98, 49) and beta_1 = 2 over every field; it is orientable over
    GF(2) only, with beta = (1, 2, 2, 1) there and (1, 2, 1, 0) over GF(3)
    and Q."""
    rng = random.Random(seed)
    x = Complex.from_facets(_grow_search_sphere(21, rng))
    for _ in range(2):
        x = handle_addition(x, *find_admissible_handle(x, rng))
    return x


def closed_3_manifolds(quotients) -> list:
    """(name, complex) pairs: the boundary of the 4-simplex, stacked
    3-spheres on 5 to 12 vertices with seeds 0 to 3, the caller's
    ``quotients`` pairs in their order, and two suspensions, which are
    not tight."""
    corpus = [("boundary-delta4", catalog.boundary_simplex(4))]
    for n in range(5, 13):
        for seed in range(4):
            corpus.append((f"stacked-{n}-s{seed}", stacked_sphere(n, 3, seed=seed)))
    corpus.extend(quotients)
    corpus.append(("susp-delta3", catalog.suspension(catalog.boundary_simplex(3))))
    corpus.append(("susp-octahedron",
                   catalog.suspension(catalog.suspension(catalog.cycle_complex(4)))))
    return corpus
