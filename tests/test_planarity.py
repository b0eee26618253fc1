import random

import pytest

from tighttri import (Complex, InternalInconsistencyError, PreconditionError, catalog,
                      find_kuratowski_subdivision, is_planar_graph, planarity)


def petersen():
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((i, i + 5))
        edges.append((5 + i, 5 + ((i + 2) % 5)))
    return Complex.from_facets(edges)


def assert_valid_witness(g, w):
    edges = set(g.one_skeleton().faces(1))
    if w.pattern == "K5":
        branch = set(w.branch_vertices)
        assert len(branch) == 5
        endpoint_pairs = {frozenset((p[0], p[-1])) for p in w.paths}
        assert len(endpoint_pairs) == 10
    else:
        part1, part2 = w.branch_vertices
        branch = set(part1) | set(part2)
        assert len(branch) == 6
        endpoint_pairs = {frozenset((p[0], p[-1])) for p in w.paths}
        assert endpoint_pairs == {frozenset((a, b)) for a in part1 for b in part2}
    interiors = []
    for p in w.paths:
        for t in range(len(p) - 1):
            assert tuple(sorted((p[t], p[t + 1]))) in edges
        assert p[0] in branch and p[-1] in branch
        interiors.append(set(p[1:-1]))
    for i, pi in enumerate(interiors):
        assert not pi & branch
        for pj in interiors[i + 1:]:
            assert not pi & pj


class TestWitnesses:
    def test_k33_itself(self):
        w = find_kuratowski_subdivision(catalog.complete_bipartite(3, 3))
        assert w.pattern == "K33"
        assert all(len(p) == 2 for p in w.paths)
        assert_valid_witness(catalog.complete_bipartite(3, 3), w)

    def test_k5_itself(self):
        w = find_kuratowski_subdivision(catalog.complete_graph(5))
        assert w.pattern == "K5"
        assert_valid_witness(catalog.complete_graph(5), w)

    def test_subdivided_k33_example(self):
        g = catalog.subdivided_k33_graph()
        w = find_kuratowski_subdivision(g)
        assert w.pattern == "K33"
        assert_valid_witness(g, w)
        assert {frozenset(w.branch_vertices[0]), frozenset(w.branch_vertices[1])} == \
            {frozenset((10, 2, 8)), frozenset((1, 3, 9))}
        long_paths = [p for p in w.paths if len(p) > 2]
        assert long_paths == [(10, 11, 1)] or long_paths == [(1, 11, 10)]

    def test_petersen_graph(self):
        w = find_kuratowski_subdivision(petersen())
        assert w.pattern == "K33"  # max degree 3 rules out K5
        assert_valid_witness(petersen(), w)

    def test_icosahedron_plus_one_edge(self):
        # a triangulated-sphere skeleton plus any diagonal is non-planar
        edges = list(catalog.icosahedron().one_skeleton().faces(1)) + [(0, 6)]
        g = Complex.from_facets(edges)
        w = find_kuratowski_subdivision(g)
        assert w is not None
        assert_valid_witness(g, w)


class TestPlanarSide:
    def test_sphere_skeletons_have_no_witness(self, sphere_skeletons):
        for name, s in sphere_skeletons[:10]:
            assert find_kuratowski_subdivision(s.one_skeleton()) is None, name

    def test_cycles_and_trees(self):
        assert find_kuratowski_subdivision(catalog.cycle_complex(9)) is None
        path = Complex.from_facets([(i, i + 1) for i in range(6)])
        assert find_kuratowski_subdivision(path) is None

    def test_k4_is_planar(self):
        assert find_kuratowski_subdivision(catalog.complete_graph(4)) is None

    def test_disconnected_mixed(self):
        edges = list(catalog.cycle_complex(5).faces(1))
        edges += [(a + 10, b + 10) for a, b in catalog.complete_graph(5).faces(1)]
        g = Complex.from_facets(edges)
        w = find_kuratowski_subdivision(g)
        assert w is not None and w.pattern == "K5"
        assert all(v >= 10 for v in w.branch_vertices)

    def test_vertex_cap(self):
        with pytest.raises(PreconditionError):
            find_kuratowski_subdivision(catalog.cycle_complex(61))

    def test_non_planar_verdict_without_witness_is_internal(self, monkeypatch):
        # A wrong "non-planar" verdict is a bug, not bad input, so it must not
        # surface as a ValueError.  The witness search on the icosahedron's
        # graph runs for minutes; the octahedron's (planar, every degree 4)
        # takes both pattern searches to their end in milliseconds.
        monkeypatch.setattr(planarity, "_is_planar", lambda adj: False)
        octahedron = catalog.suspension(catalog.cycle_complex(4))
        with pytest.raises(InternalInconsistencyError):
            find_kuratowski_subdivision(octahedron.one_skeleton())


class TestPlanarityFilter:
    def test_against_networkx_on_random_graphs(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(424242)
        for _ in range(300):
            n = rng.randrange(4, 13)
            p = rng.choice([0.2, 0.3, 0.4, 0.5, 0.7])
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < p]
            if not edges:
                continue
            g = Complex.from_facets(edges)
            assert is_planar_graph(g) == nx.check_planarity(nx.Graph(edges))[0], edges

    def test_known_families(self):
        assert is_planar_graph(catalog.icosahedron())
        assert is_planar_graph(catalog.complete_graph(4))
        assert not is_planar_graph(catalog.complete_graph(5))
        assert not is_planar_graph(catalog.complete_bipartite(3, 3))
        assert is_planar_graph(catalog.complete_bipartite(2, 7))
        assert not is_planar_graph(petersen())
