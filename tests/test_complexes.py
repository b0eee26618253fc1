import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_complexes
from tighttri import (Complex, MalformedComplexError, PreconditionError,
                      UnknownVertexError, UnsupportedDimensionError, Verdict, catalog,
                      connected_sum, is_isomorphic,
                      stacked_sphere, verify_closed_manifold)
from tighttri.complexes import vertex_links


def maximal_faces(x):
    """Faces of x in no larger face, by descending size then label."""
    faces = [f for k in range(x.dim + 1) for f in x.faces(k)]
    maximal = [f for f in faces if not any(set(f) < set(g) for g in faces)]
    return tuple(sorted(maximal, key=lambda f: (-len(f), f)))


class TestFromFacets:
    def test_three_cycle(self):
        x = Complex.from_facets([[1, 2], [2, 3], [1, 3]])
        assert x.f_vector == (3, 3)

    def test_icosahedron_f_vector(self):
        assert catalog.icosahedron().f_vector == (12, 30, 20)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_non_maximal_input_absorbed(self, data):
        """``facets`` against the subsumption definition, in (-len, label)
        order, whether kept from pure input or derived for anything else."""
        assert Complex.from_facets([[1, 2, 3], [1, 2]]) == Complex.from_facets([[1, 2, 3]])
        facets = data.draw(st.lists(
            st.lists(st.integers(0, 7), min_size=1, max_size=5, unique=True),
            min_size=1, max_size=8))
        subfaces = [data.draw(st.lists(st.sampled_from(f), min_size=1, max_size=len(f),
                                       unique=True))
                    for f in data.draw(st.lists(st.sampled_from(facets), max_size=8))]
        mixed = data.draw(st.permutations(facets + subfaces))
        x = Complex.from_facets(mixed)
        assert x == Complex.from_facets(facets)
        size = data.draw(st.integers(1, 4))
        pure = Complex.from_facets(data.draw(st.lists(
            st.lists(st.integers(0, 7), min_size=size, max_size=size, unique=True),
            min_size=1, max_size=8)))
        derived = [x.induced(data.draw(st.sets(st.sampled_from(x.vertices), min_size=1))),
                   x.link(data.draw(st.sampled_from(x.vertices))), x.one_skeleton()]
        derived += list(vertex_links(pure).values())
        t = catalog.boundary_simplex(3)
        derived += [connected_sum(t, t, (0, 1, 2), (0, 1, 2), {0: 0, 1: 1, 2: 2}),
                    connected_sum(stacked_sphere(8, 3, seed=3), catalog.boundary_simplex(4),
                                  (0, 1, 2, 3), (0, 1, 2, 3), {i: i for i in range(4)})]
        for y in [x, pure] + derived:
            assert y.facets == maximal_faces(y)
        assert set(x.facets) == {tuple(sorted(f)) for f in facets
                                 if not any(set(f) < set(g) for g in facets)}

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(MalformedComplexError):
            Complex.from_facets([[1, 1, 2]])

    def test_negative_label_rejected(self):
        with pytest.raises(MalformedComplexError):
            Complex.from_facets([[-1, 0]])

    def test_facets_above_sixteen_vertices_rejected(self):
        assert Complex.from_facets([range(16)]).f_vector[-1] == 1
        with pytest.raises(MalformedComplexError, match="a facet has 17 vertices"):
            Complex.from_facets([[0, 1], range(17)])

    def test_empty_facet_rejected(self):
        with pytest.raises(MalformedComplexError, match="faces must be nonempty"):
            Complex.from_facets([[]])

    def test_direct_construction_refused(self):
        with pytest.raises(TypeError, match="use Complex.from_facets"):
            Complex(())

    def test_input_order_irrelevant(self):
        a = Complex.from_facets([[3, 1, 2], [4, 2, 1]])
        b = Complex.from_facets([[1, 2, 4], [1, 2, 3]])
        assert a == b and hash(a) == hash(b)


class TestFVector:
    def test_boundary_delta4(self):
        assert catalog.boundary_simplex(4).f_vector == (5, 10, 10, 5)

    def test_projective_plane(self):
        assert catalog.projective_plane_6().f_vector == (6, 15, 10)

    def test_moebius(self):
        assert catalog.moebius_band_5().f_vector == (5, 10, 5)


class TestLink:
    def test_link_in_boundary_delta4_is_sphere(self):
        x = catalog.boundary_simplex(4)
        for v in x.vertices:
            assert is_isomorphic(x.link(v), catalog.boundary_simplex(3)) is not None

    def test_icosahedron_link_of_0(self):
        lk = catalog.icosahedron().link(0)
        assert lk.vertex_set == {1, 2, 3, 4, 5}
        assert is_isomorphic(lk, catalog.cycle_complex(5)) is not None

    def test_cycle_link_is_two_points(self):
        lk = catalog.cycle_complex(6).link(0)
        assert lk.f_vector == (2,)

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertexError):
            catalog.cycle_complex(4).link(99)
        with pytest.raises(UnknownVertexError, match="vertex 99 is not in the complex"):
            catalog.cycle_complex(4).neighbors(99)


def antistar(x, v):
    """Induced subcomplex on all vertices except v."""
    return x.induced(x.vertex_set - {v})


class TestAntistarInduced:
    def test_antistar_of_boundary_delta3_is_solid_triangle(self):
        ast = antistar(catalog.boundary_simplex(3), 0)
        assert ast.f_vector == (3, 3, 1)
        assert ast.has_face((1, 2, 3))

    def test_antistar_in_projective_plane_is_moebius(self):
        ast = antistar(catalog.projective_plane_6(), 0)
        assert is_isomorphic(ast, catalog.moebius_band_5()) is not None

    def test_antistar_of_cycle_is_path(self):
        ast = antistar(catalog.cycle_complex(5), 0)
        assert ast.f_vector == (4, 3)
        assert not ast.has_face((1, 4))

    def test_induced_full_set_is_identity(self):
        x = catalog.icosahedron()
        assert x.induced(x.vertex_set) == x

    def test_induced_five_cycle_in_icosahedron(self):
        # the pentagon on 0, 2, 4', 3', 5 (primes are labels +6)
        sub = catalog.icosahedron().induced({0, 2, 10, 9, 5})
        assert sub.f_vector == (5, 5)
        assert is_isomorphic(sub, catalog.cycle_complex(5)) is not None

    def test_induced_singleton(self):
        sub = catalog.icosahedron().induced({7})
        assert sub.f_vector == (1,)

    def test_induced_unknown_vertex(self):
        with pytest.raises(UnknownVertexError):
            catalog.icosahedron().induced({0, 99})


class TestOneSkeletonNeighbourly:
    def test_skeleton_of_boundary_delta3_is_k4(self):
        sk = catalog.boundary_simplex(3).one_skeleton()
        assert is_isomorphic(sk, catalog.complete_graph(4)) is not None

    def test_skeleton_of_icosahedron(self):
        assert catalog.icosahedron().one_skeleton().f_vector == (12, 30)

    def test_skeleton_of_cycle_is_itself(self):
        c = catalog.cycle_complex(8)
        assert c.one_skeleton() == c

    def test_neighbourly(self):
        assert catalog.boundary_simplex(4).is_neighbourly()
        assert not catalog.icosahedron().is_neighbourly()
        assert catalog.projective_plane_6().is_neighbourly()


class TestConnectedSum:
    def test_two_tetrahedra(self):
        t = catalog.boundary_simplex(3)
        s = connected_sum(t, t, (0, 1, 2), (0, 1, 2), {0: 0, 1: 1, 2: 2})
        assert s.f_vector == (5, 9, 6)

    def test_two_boundary_delta4(self):
        b = catalog.boundary_simplex(4)
        s = connected_sum(b, b, (0, 1, 2, 3), (0, 1, 2, 3), {i: i for i in range(4)})
        assert s.f_vector == (6, 14, 16, 8)
        assert s.f_vector[1] == 4 * s.f_vector[0] - 10

    def test_three_tetrahedra(self):
        t = catalog.boundary_simplex(3)
        s = connected_sum(t, t, (0, 1, 2), (0, 1, 2), {0: 0, 1: 1, 2: 2})
        f = s.facets[2]
        s = connected_sum(s, t, f, (0, 1, 2), {0: f[0], 1: f[1], 2: f[2]})
        assert s.f_vector == (6, 12, 8)

    def test_dimension_mismatch(self):
        with pytest.raises(PreconditionError):
            connected_sum(catalog.boundary_simplex(3), catalog.boundary_simplex(4),
                          (0, 1, 2), (0, 1, 2, 3), {i: i for i in range(4)})

    def test_not_a_facet(self):
        t = catalog.boundary_simplex(3)
        with pytest.raises(PreconditionError):
            connected_sum(t, t, (0, 1), (0, 1, 2), {0: 0, 1: 1, 2: 2})
        with pytest.raises(PreconditionError, match="not a facet of the second complex"):
            connected_sum(t, t, (0, 1, 2), (0, 1), {0: 0, 1: 1})

    def test_bad_bijection(self):
        t = catalog.boundary_simplex(3)
        with pytest.raises(PreconditionError):
            connected_sum(t, t, (0, 1, 2), (0, 1, 2), {0: 0, 1: 0, 2: 2})

    def test_d3_f_vector_arithmetic(self):
        b = catalog.boundary_simplex(4)
        x = stacked_sphere(8, 3, seed=3)
        fx = x.facets[4]
        s = connected_sum(x, b, fx, (0, 1, 2, 3), {i: v for i, v in zip(range(4), fx)})
        assert s.f_vector == (x.f_vector[0] + 5 - 4, x.f_vector[1] + 10 - 6,
                              x.f_vector[2] + 10 - 4, x.f_vector[3] + 5 - 2)


class TestVerifyClosedManifold:
    def test_boundary_delta4(self):
        v = verify_closed_manifold(catalog.boundary_simplex(4))
        assert v.ok and catalog.boundary_simplex(4).dim == 3

    def test_icosahedron(self):
        assert verify_closed_manifold(catalog.icosahedron()).ok

    def test_two_solid_tetrahedra_sharing_a_triangle(self):
        x = Complex.from_facets([(0, 1, 2, 3), (1, 2, 3, 4)])
        v = verify_closed_manifold(x)
        assert not v.ok
        assert v.witness in x.vertex_set

    def test_cycles_are_closed_1_manifolds(self):
        assert verify_closed_manifold(catalog.cycle_complex(5)).ok
        two = Complex.from_facets([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert verify_closed_manifold(two).ok

    def test_path_is_not_closed(self):
        assert not verify_closed_manifold(Complex.from_facets([(0, 1), (1, 2)])).ok

    def test_dimension_cap(self):
        with pytest.raises(UnsupportedDimensionError):
            verify_closed_manifold(Complex.from_facets([range(6)]))

    def test_non_pure_rejected(self):
        x = Complex.from_facets([(0, 1, 2), (2, 3)])
        assert not verify_closed_manifold(x).ok


class TestIsomorphism:
    def test_relabelled_tetrahedron(self):
        t = catalog.boundary_simplex(3)
        t2 = Complex.from_facets([tuple(v + 10 for v in f) for f in t.facets])
        m = is_isomorphic(t, t2)
        assert m is not None
        assert all(m[v] == v + 10 for v in t.vertices)

    def test_different_f_vectors(self):
        assert is_isomorphic(catalog.boundary_simplex(3), catalog.cycle_complex(4)) is None

    def test_permuted_icosahedron(self):
        ico = catalog.icosahedron()
        perm = list(range(12))
        random.Random(7).shuffle(perm)
        shuffled = Complex.from_facets([tuple(perm[v] for v in f) for f in ico.facets])
        m = is_isomorphic(ico, shuffled)
        assert m is not None
        mapped = {tuple(sorted(m[v] for v in f)) for f in ico.facets}
        assert mapped == set(shuffled.facets)

    def test_same_f_vector_different_complex(self):
        # stacked 6-vertex sphere vs octahedron: both (6, 12, 8)
        octa = catalog.suspension(catalog.cycle_complex(4))
        stacked6 = stacked_sphere(6, 2, seed=1)
        assert octa.f_vector == stacked6.f_vector == (6, 12, 8)
        assert is_isomorphic(octa, stacked6) is None


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(small_complexes())
    def test_downward_closure(self, x):
        for k in range(x.dim + 1):
            for f in x.faces(k):
                for size in range(1, len(f)):
                    for sub in itertools.combinations(f, size):
                        assert x.has_face(sub)

    @settings(max_examples=40, deadline=None)
    @given(small_complexes(), st.data())
    def test_induced_idempotent_monotone(self, x, data):
        a = data.draw(st.sets(st.sampled_from(sorted(x.vertex_set)),
                              min_size=1, max_size=x.num_vertices))
        b = data.draw(st.sets(st.sampled_from(sorted(a)), min_size=1, max_size=len(a)))
        assert x.induced(a).induced(b) == x.induced(b)

    @settings(max_examples=40, deadline=None)
    @given(small_complexes(), st.data())
    def test_star_decomposition(self, x, data):
        v = data.draw(st.sampled_from(sorted(x.vertex_set)))
        link, ast = x.link(v), antistar(x, v)
        assert link.vertex_set <= ast.vertex_set | set()
        for k in range(x.dim + 1):
            cone_faces = 1 if k == 0 else len(link.faces(k - 1))
            assert len(x.faces(k)) == len(ast.faces(k)) + cone_faces

    @settings(max_examples=40, deadline=None)
    @given(small_complexes())
    def test_facets_are_maximal_and_generate(self, x):
        for f in x.facets:
            for g in x.facets:
                assert f == g or not set(f) < set(g)
        assert Complex.from_facets(x.facets) == x


class TestSmallCatalogEntries:
    def test_simplex_boundary_needs_a_positive_dimension(self):
        with pytest.raises(MalformedComplexError, match="boundary_simplex needs d >= 1"):
            catalog.boundary_simplex(0)

    def test_complete_graph_on_one_vertex_is_a_point(self):
        assert catalog.builtin("complete:1").f_vector == (1,)


def test_a_verdict_is_true_exactly_when_ok():
    assert Verdict(True) and not Verdict(False, witness=0, detail="no")
