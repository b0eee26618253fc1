import itertools
import random
import time

import pytest

from tighttri import (Complex, InternalInconsistencyError, PreconditionError, catalog,
                      find_kuratowski_subdivision, planarity, stacked_sphere)


def petersen():
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((i, i + 5))
        edges.append((5 + i, 5 + ((i + 2) % 5)))
    return Complex.from_facets(edges)


def plus_edges(g, extra):
    return Complex.from_facets(list(g.one_skeleton().faces(1)) + list(extra))


def seeded_non_edges(g, count, seed):
    edges = set(g.one_skeleton().faces(1))
    non_edges = [e for e in itertools.combinations(sorted(g.vertex_set), 2) if e not in edges]
    return random.Random(seed).sample(non_edges, count)


def relabel(edges, offset):
    return [(a + offset, b + offset) for a, b in edges]


def clique(vertices):
    return list(itertools.combinations(vertices, 2))


def k33(part1, part2):
    return [(a, b) for a in part1 for b in part2]


def structured_graphs():
    """Graphs whose blocks meet at cut vertices or bridges, or lie in other
    components, so that the filter tests a piece hanging at one vertex, or
    at none, on its own.  The planar skeleton is a stacked 2-sphere's on
    vertices 0-19, and the K5 and K33 are put on it or on fresh labels."""
    sphere = list(stacked_sphere(20, 2, seed=0).one_skeleton().faces(1))
    tree = [(random.Random(v).randrange(v), v) for v in range(1, 30)]
    triangles = [e for i in range(29) for e in clique((2 * i, 2 * i + 1, 2 * i + 2))]
    k4s = [e for i in range(19) for e in clique(range(3 * i, 3 * i + 4))]
    icosahedron = list(catalog.icosahedron().faces(1))
    octahedron = list(catalog.suspension(catalog.cycle_complex(4)).faces(1))
    graphs = {
        "sphere+K5-at-cut-vertex": sphere + clique((7, 20, 21, 22, 23)),
        "sphere+K33-at-cut-vertex": sphere + k33((7, 20, 21), (22, 23, 24)),
        "sphere+K5-behind-bridge": sphere + [(7, 20)] + clique(range(20, 25)),
        "sphere+K33-behind-bridge": sphere + [(7, 20)] + k33((20, 21, 22), (23, 24, 25)),
        "K5-at-cut-vertex+sphere": clique(range(5)) + relabel(sphere, 4),
        "cycle+K33-apart": [(i, (i + 1) % 6) for i in range(6)] + k33((10, 11, 12), (13, 14, 15)),
        "sphere+K5-apart": sphere + clique(range(30, 35)),
        "isolated-least+K5": [(0,)] + clique(range(1, 6)),
        "isolated-least+sphere": [(0,)] + relabel(sphere, 1),
        "leaf-least+K33": [(0, 1)] + k33((1, 2, 3), (4, 5, 6)),
        "leaf-least+sphere": [(0, 5)] + relabel(sphere, 1),
        "tree": tree,
        "forest": tree + relabel(tree[:20], 30) + [(55, 56)],
        "star": [(0, v) for v in range(1, 25)],
        "two-icosahedra-at-cut-vertex": icosahedron + relabel(icosahedron, 11),
        "two-K4s-at-cut-vertex": clique(range(4)) + clique(range(3, 7)),
        "sphere+octahedron-at-cut-vertex": sphere + relabel(octahedron, 19),
        "triangle-necklace-60": triangles + [(58, 59)],
        "K4-necklace-58": k4s,
        "K4-necklace+K5-at-the-end": k4s[:-6] + clique(range(54, 59)),
        "K4-necklace+K33-in-the-middle": k4s[:-12] + k33((30, 52, 53), (54, 55, 56)),
    }
    return {name: Complex.from_facets(edges) for name, edges in graphs.items()}


STRUCTURED = structured_graphs()


def assert_valid_witness(g, w):
    edges = set(g.one_skeleton().faces(1))
    if w.pattern == "K5":
        branch = set(w.branch_vertices)
        assert len(branch) == 5
        endpoint_pairs = {frozenset((p[0], p[-1])) for p in w.paths}
        assert len(endpoint_pairs) == 10
    else:
        part1, part2 = w.branch_vertices
        assert len(part1) == len(part2) == 3
        branch = set(part1) | set(part2)
        assert len(branch) == 6
        endpoint_pairs = {frozenset((p[0], p[-1])) for p in w.paths}
        assert endpoint_pairs == {frozenset((a, b)) for a in part1 for b in part2}
    assert len(w.paths) == len(endpoint_pairs)
    interiors = []
    for p in w.paths:
        assert len(set(p)) == len(p)
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

    def test_k5_with_a_pendant_edge(self):
        # the chain out of 4 along (4, 5) ends at a vertex of degree 1
        g = plus_edges(catalog.complete_graph(5), [(4, 5)])
        w = find_kuratowski_subdivision(g)
        assert (w.pattern, w.branch_vertices) == ("K5", (0, 1, 2, 3, 4))
        assert_valid_witness(g, w)

    def test_petersen_graph(self):
        w = find_kuratowski_subdivision(petersen())
        assert w.pattern == "K33"  # max degree 3 rules out K5
        assert w.branch_vertices == ((0, 2, 8), (1, 3, 5))
        assert_valid_witness(petersen(), w)

    def test_icosahedron_plus_one_edge(self):
        # a triangulated-sphere skeleton plus any diagonal is non-planar
        g = plus_edges(catalog.icosahedron(), [(0, 6)])
        w = find_kuratowski_subdivision(g)
        assert (w.pattern, w.branch_vertices) == ("K33", ((0, 3, 5), (1, 4, 6)))
        assert_valid_witness(g, w)

    def test_bounded_work_on_large_non_planar_graphs(self):
        # Each witness costs at most n + m + 1 filter calls, up to the cap.
        graphs = [plus_edges(stacked_sphere(20, 2, seed=0), [(3, 12)])]
        for seed in range(6):
            s = stacked_sphere(20, 2, seed=seed)
            graphs += [plus_edges(s, [e]) for e in seeded_non_edges(s, 4, seed)]
        for seed in range(3):
            s = stacked_sphere(60, 2, seed=seed)
            graphs.append(plus_edges(s, seeded_non_edges(s, 1, seed)))
        graphs += [catalog.complete_graph(60), catalog.complete_bipartite(30, 30)]
        for g in graphs:
            start = time.perf_counter()
            w = find_kuratowski_subdivision(g)
            assert time.perf_counter() - start < 0.5
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

    @pytest.mark.parametrize("edges", [
        # K5 minus {4, 5}, with 4 and 5 made degree 4 again by pendant edges
        [e for e in itertools.combinations(range(1, 6), 2) if e != (4, 5)] + [(4, 6), (0, 5)],
        # a 5-cycle with every edge doubled by a path of length 2
        [(i, (i + 1) % 5) for i in range(5)] + [(i, 5 + i) for i in range(5)]
        + [(5 + i, (i + 1) % 5) for i in range(5)],
    ], ids=["pendant-chains", "doubled-cycle"])
    def test_five_degree_4_vertices_without_k5(self, edges):
        assert find_kuratowski_subdivision(Complex.from_facets(edges)) is None

    @pytest.mark.parametrize("edges", [
        # K1,5 with every edge tripled by two extra paths of length 2
        [(0, i) for i in range(1, 6)]
        + [e for i in range(1, 6)
           for e in ((0, 5 + 2 * i), (5 + 2 * i, i), (0, 6 + 2 * i), (6 + 2 * i, i))],
        # K2,4 with the edges at 0 doubled by paths of length 2
        [(a, j) for a in (0, 1) for j in range(2, 6)]
        + [e for j in range(2, 6) for e in ((0, 4 + j), (4 + j, j))],
    ], ids=["multi-chain-K15", "multi-chain-K24"])
    def test_six_branch_vertices_without_k33(self, edges):
        # six branch vertices whose chains join one part to all the rest,
        # but with the parts not of size 3
        assert find_kuratowski_subdivision(Complex.from_facets(edges)) is None

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

    @pytest.mark.parametrize("graph", [
        catalog.suspension(catalog.cycle_complex(4)),
        catalog.icosahedron(),
        # six vertices of degree 3 and nine edges, but not bipartite
        Complex.from_facets([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                             (0, 3), (1, 4), (2, 5)]),
    ], ids=["octahedron", "icosahedron", "prism"])
    def test_non_planar_verdict_without_witness_is_internal(self, monkeypatch, graph):
        # A wrong "non-planar" verdict is a bug, not bad input, so it must not
        # surface as a ValueError, and it must not cost more than the n + m
        # deletions: here every deletion stays and nothing is left to read.
        monkeypatch.setattr(planarity, "_is_planar", lambda adj: False)
        start = time.perf_counter()
        with pytest.raises(InternalInconsistencyError):
            find_kuratowski_subdivision(graph.one_skeleton())
        assert time.perf_counter() - start < 0.5


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
            planar = nx.check_planarity(nx.Graph(edges))[0]
            w = find_kuratowski_subdivision(g)
            assert (w is None) == planar, edges
            if w is not None:
                assert_valid_witness(g, w)

    @pytest.mark.parametrize("name", list(STRUCTURED))
    def test_blocks_at_cut_vertices_and_apart(self, name):
        nx = pytest.importorskip("networkx")
        g = STRUCTURED[name]
        graph = nx.Graph(g.faces(1))
        graph.add_nodes_from(g.vertices)
        w = find_kuratowski_subdivision(g)
        assert (w is None) == nx.check_planarity(graph)[0]
        if w is not None:
            assert_valid_witness(g, w)

    def test_known_families(self):
        assert find_kuratowski_subdivision(catalog.icosahedron()) is None
        assert find_kuratowski_subdivision(catalog.complete_graph(4)) is None
        assert find_kuratowski_subdivision(catalog.complete_graph(5)) is not None
        assert find_kuratowski_subdivision(catalog.complete_bipartite(3, 3)) is not None
        assert find_kuratowski_subdivision(catalog.complete_bipartite(2, 7)) is None
        assert find_kuratowski_subdivision(petersen()) is not None
