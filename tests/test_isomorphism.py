"""``is_isomorphic`` against pinned bijections, and on two large inputs,
one with more vertices than the default recursion limit.

``iso_mappings.json`` holds, for every pair of :func:`iso_pairs`, the
bijection (or null) that the backtracking search returned when it was
recorded.  The search must keep returning exactly that first bijection.
To record the file from the code under ``src``::

    PYTHONPATH=src python3 tests/test_isomorphism.py > tests/iso_mappings.json
"""

import json
import pathlib
import random
import sys

import pytest

from tighttri import Complex, catalog, is_isomorphic, search_tight, stacked_sphere
from tighttri.linalg import GF2

PINS = pathlib.Path(__file__).with_name("iso_mappings.json")

# (d, n, s, t): stacked d-spheres on n vertices, seeds s and t, whose vertex
# signatures agree, so the search itself decides; four pairs are isomorphic
# (seeds 0, 152 and 7, 33 in dimension 2; 0, 1 and 1, 60 in dimension 3)
SAME_SIGNATURES = [(2, 9, 6, 36), (2, 9, 0, 152), (2, 12, 2, 11), (2, 12, 7, 33),
                   (2, 16, 3, 188), (2, 24, 7, 264), (3, 9, 0, 1), (3, 12, 0, 12),
                   (3, 12, 1, 60), (3, 16, 4, 48)]


def shuffled(x: Complex, seed) -> Complex:
    """``x`` with its vertex labels permuted by a seeded shuffle."""
    perm = list(x.vertices)
    random.Random(seed).shuffle(perm)
    image = dict(zip(x.vertices, perm))
    return Complex.from_facets([[image[v] for v in f] for f in x.facets])


def catalog_members() -> list:
    """Every catalog constructor, plus the empty complex, a point and a
    non-pure complex."""
    return [(f"boundary-delta{d}", catalog.boundary_simplex(d)) for d in range(1, 5)] + [
        ("icosahedron", catalog.icosahedron()),
        ("rp2-6", catalog.projective_plane_6()),
        ("moebius-5", catalog.moebius_band_5()),
        ("torus-7", catalog.torus_7()),
        ("cycle-3", catalog.cycle_complex(3)),
        ("cycle-8", catalog.cycle_complex(8)),
        ("complete-5", catalog.complete_graph(5)),
        ("complete-bipartite-3-3", catalog.complete_bipartite(3, 3)),
        ("subdivided-k33", catalog.subdivided_k33_graph()),
        ("octahedron", catalog.suspension(catalog.cycle_complex(4))),
        ("suspended-icosahedron", catalog.suspension(catalog.icosahedron())),
        ("empty", Complex.from_facets([])),
        ("point", Complex.from_facets([[5]])),
        ("non-pure", Complex.from_facets([(0, 1, 2), (1, 2, 3), (3, 4), (5,)]))]


def prism_graph() -> Complex:
    """The triangular prism's graph: 3-regular on 6 vertices, like K_{3,3}."""
    return Complex.from_facets([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                                (0, 3), (1, 4), (2, 5)])


def iso_pairs(quotients) -> list:
    """``(name, x, y)`` for every pinned pair; ``quotients`` are the 9-vertex
    complexes of ``search_tight(1, GF2, budget=2000, seed=s)``, s = 0, 1, 2."""
    pairs = [(f"catalog/{name}", x, shuffled(x, f"catalog:{name}"))
             for name, x in catalog_members()]
    for d in (2, 3):
        for n in (8, 20, 40, 60):
            for s in range(3):
                x = stacked_sphere(n, d, seed=s)
                tag = f"stacked/{d}/{n}/{s}"
                pairs += [(f"{tag}/shuffled", x, shuffled(x, tag)),
                          (f"{tag}/itself", x, x),
                          (f"{tag}/seed-{(s + 1) % 3}", x, stacked_sphere(n, d, seed=(s + 1) % 3))]
    pairs += [(f"same-signatures/{d}/{n}/{s}/seed-{t}",
               stacked_sphere(n, d, seed=s), stacked_sphere(n, d, seed=t))
              for d, n, s, t in SAME_SIGNATURES]
    for s, m in enumerate(quotients):
        pairs += [(f"quotient/{s}/shuffled", m, shuffled(m, f"quotient:{s}")),
                  (f"quotient/{s}/itself", m, m)]
    pairs += [("octahedron/stacked-6", catalog.suspension(catalog.cycle_complex(4)),
               stacked_sphere(6, 2, seed=1)),
              ("k33/prism", catalog.complete_bipartite(3, 3), prism_graph()),
              ("cycle-6/two-triangles", catalog.cycle_complex(6),
               Complex.from_facets([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]))]
    return pairs


def maps_facets_onto(mapping: dict, x: Complex, y: Complex) -> bool:
    return {tuple(sorted(mapping[v] for v in f)) for f in x.facets} == set(y.facets)


def test_pinned_bijections(quotient_bank):
    pins = json.loads(PINS.read_text())
    pairs = iso_pairs([m for m, _ in quotient_bank[:3]])
    assert [name for name, _, _ in pairs] == list(pins)
    for name, x, y in pairs:
        mapping = is_isomorphic(x, y)
        got = None if mapping is None else sorted(map(list, mapping.items()))
        assert got == pins[name], name
        assert mapping is None or maps_facets_onto(mapping, x, y), name
    assert pins["octahedron/stacked-6"] is None


@pytest.mark.parametrize("x", [catalog.cycle_complex(1200), stacked_sphere(300, 3, seed=1)],
                         ids=["cycle-1200", "stacked-3-sphere-300"])
def test_large_shuffled_copy(x):
    y = shuffled(x, "large")
    mapping = is_isomorphic(x, y)
    assert mapping is not None and maps_facets_onto(mapping, x, y)


if __name__ == "__main__":
    quotients = [search_tight(1, GF2, budget=2000, seed=s)[0] for s in range(3)]
    pins = {}
    for name, x, y in iso_pairs(quotients):
        mapping = is_isomorphic(x, y)
        pins[name] = None if mapping is None else sorted(map(list, mapping.items()))
    lines = (f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}" for k, v in pins.items())
    sys.stdout.write("{\n" + ",\n".join(lines) + "\n}\n")
