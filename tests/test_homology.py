import itertools
import json
import random
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import small_complexes
from corpus import subdivide_facet, two_handle_quotient
from oracle import entries, is_zero, library_rows, matmul, rank
from tighttri import (Complex, InternalInconsistencyError, PreconditionError, betti,
                      catalog, chain_data, complexes, cross_validate, homology,
                      induced_map_injective, is_orientable, is_tight_bruteforce,
                      stacked_sphere, verify_closed_manifold)
from tighttri.complexes import _spanning_forest, bit_positions
from tighttri.homology import ChainData, _faces_inside
from tighttri.linalg import GF2, QQ, FMatrix, FieldSpec, row_basis

FIELDS = [QQ, GF2, FieldSpec.gf(3), FieldSpec.gf(5)]


def is_composite_zero(dk: FMatrix, dk1: FMatrix) -> bool:
    """d_k followed by d_{k-1} is the zero map."""
    return is_zero(dk.field, matmul(dk.field, dk.rows, dk1.rows, dk1.ncols), dk1.ncols)


@st.composite
def complexes_with_loose_parts(draw):
    """A drawn complex, often beside isolated vertices and edges on fresh
    labels, so that it is disconnected."""
    facets = list(draw(small_complexes()).facets)
    loose = draw(st.lists(st.integers(1, 2), max_size=3))
    for i, size in enumerate(loose):
        facets.append(tuple(range(10 + 2 * i, 10 + 2 * i + size)))
    return Complex.from_facets(facets)


def oracle_boundary(x: Complex, k: int) -> list:
    """Dense integer rows of d_k: dropping vertex i of a face carries (-1)**i."""
    if k == 0:
        return [[] for _ in x.faces(0)]
    cols = {f: j for j, f in enumerate(x.faces(k - 1))}
    rows = []
    for f in x.faces(k):
        row = [0] * len(cols)
        for i in range(len(f)):
            row[cols[f[:i] + f[i + 1:]]] = (-1) ** i
        rows.append(row)
    return rows


@lru_cache(maxsize=None)
def oracle_rank(x: Complex, k: int, field: FieldSpec) -> int:
    """Rank of d_k by the dense oracle's elimination, kept: the Betti number
    and cocycle tests ask for the same ranks of the same complexes."""
    ncols = len(x.faces(k - 1)) if k else 0
    return rank(field, library_rows(field, oracle_boundary(x, k)), ncols)


class TestBoundaryMatrix:
    def test_single_edge_signs(self):
        x = Complex.from_facets([(3, 7)])
        m = chain_data(x, QQ).boundary(1)
        # columns follow the sorted vertex order (3), (7); dropping the first
        # vertex carries the positive sign
        assert entries(QQ, m.rows, 2) == [[-1, 1]]
        assert entries(GF2, chain_data(x, GF2).boundary(1).rows, 2) == [[1, 1]]

    def test_boundary_of_boundary_is_zero(self):
        x = catalog.boundary_simplex(3)
        for field in FIELDS:
            cd = chain_data(x, field)
            assert is_composite_zero(cd.boundary(2), cd.boundary(1))

    def test_projective_plane_d2_rank_over_gf2(self):
        # chi = 1 with beta_0 = beta_2 = 1 over GF(2) forces rank 9
        assert chain_data(catalog.projective_plane_6(), GF2).boundary(2).rank() == 9

    @pytest.mark.parametrize("field", [GF2, FieldSpec.gf(3), QQ], ids=str)
    def test_degree_zero_has_no_columns(self, field):
        m = chain_data(catalog.boundary_simplex(3), field).boundary(0)
        assert (m.nrows, m.ncols, m.rank()) == (4, 0, 0)

    def test_degree_out_of_range(self):
        cd = chain_data(catalog.boundary_simplex(3), QQ)
        for k in (3, 4, -1):
            with pytest.raises(ValueError):
                cd.boundary(k)

    @settings(max_examples=40, deadline=None)
    @given(small_complexes(), st.sampled_from(FIELDS))
    def test_chain_complex_identity(self, x, field):
        cd = chain_data(x, field)
        for k in range(2, x.dim + 1):
            assert is_composite_zero(cd.boundary(k), cd.boundary(k - 1))


class TestBetti:
    def test_three_sphere(self):
        assert betti(catalog.boundary_simplex(4), QQ) == (1, 0, 0, 1)
        assert betti(catalog.boundary_simplex(4), GF2) == (1, 0, 0, 1)

    def test_projective_plane(self):
        rp2 = catalog.projective_plane_6()
        assert betti(rp2, GF2) == (1, 1, 1)
        assert betti(rp2, QQ) == (1, 0, 0)
        assert betti(rp2, FieldSpec.gf(3)) == (1, 0, 0)

    def test_torus(self):
        assert betti(catalog.torus_7(), QQ) == (1, 2, 1)

    def test_icosahedron_is_a_2_sphere(self):
        assert betti(catalog.icosahedron(), QQ) == (1, 0, 1)

    def test_moebius_band_is_a_circle(self):
        assert betti(catalog.moebius_band_5(), QQ) == (1, 1, 0)

    def test_tight_quotient_beta1(self, tight9):
        m9, _ = tight9
        b = betti(m9, GF2)
        assert b[1] == 1
        assert (9 - 4) * (9 - 5) == 20 * b[1]

    @settings(max_examples=40, deadline=None)
    @given(small_complexes(), st.sampled_from(FIELDS))
    def test_euler_poincare(self, x, field):
        b = betti(x, field)
        f = x.f_vector
        assert sum((-1) ** k * b[k] for k in range(len(b))) == \
            sum((-1) ** k * f[k] for k in range(len(f)))

    @settings(max_examples=60, deadline=None)
    @given(complexes_with_loose_parts(), st.sampled_from([QQ, GF2, FieldSpec.gf(3)]))
    @example(Complex.from_facets([(0, 1, 2), (3, 4), (5,)]), QQ)
    def test_ranks_match_an_elimination_oracle(self, x, field):
        """beta_k = f_k - rank d_k - rank d_{k+1}, with every rank taken by
        plain elimination here; the Euler-Poincare sum cannot see a wrong
        rank, because it telescopes."""
        ranks = [oracle_rank(x, k, field) for k in range(x.dim + 1)] + [0]
        f = x.f_vector
        assert betti(x, field) == tuple(f[k] - ranks[k] - ranks[k + 1] for k in range(x.dim + 1))

    @settings(max_examples=25, deadline=None)
    @given(small_complexes(), st.sampled_from(FIELDS), st.randoms(use_true_random=False))
    def test_relabel_invariance(self, x, field, rnd):
        labels = sorted(x.vertex_set)
        shuffled = list(labels)
        rnd.shuffle(shuffled)
        perm = dict(zip(labels, shuffled))
        y = Complex.from_facets([tuple(perm[v] for v in f) for f in x.facets])
        assert betti(x, field) == betti(y, field)


class TestOrientability:
    def test_three_sphere(self):
        assert is_orientable(catalog.boundary_simplex(4), QQ)

    def test_projective_plane(self):
        rp2 = catalog.projective_plane_6()
        assert not is_orientable(rp2, QQ)
        assert is_orientable(rp2, GF2)

    def test_requires_closed_manifold(self):
        with pytest.raises(PreconditionError):
            is_orientable(catalog.moebius_band_5(), QQ)

    def test_mod2_fundamental_class_on_corpus(self, corpus3):
        for name, x in corpus3:
            assert is_orientable(x, GF2), name

    def test_poincare_duality_mod2_on_corpus(self, corpus3):
        for name, x in corpus3:
            b = betti(x, GF2)
            assert b[0] == 1 and b[3] == 1 and b[1] == b[2], name


def oracle_betti(x: Complex, field: FieldSpec) -> tuple:
    """Betti numbers with every rank d_k by the dense oracle's elimination."""
    ranks = [oracle_rank(x, k, field) for k in range(x.dim + 1)] + [0]
    f = x.f_vector
    return tuple(f[k] - ranks[k] - ranks[k + 1] for k in range(x.dim + 1))


def shifted(x: Complex, offset: int) -> Complex:
    return Complex.from_facets([tuple(v + offset for v in f) for f in x.facets])


class TestTopFlood:
    """``betti`` reads beta_dim of a closed 2- or 3-manifold off a flood
    over the facets and eliminates everywhere else; both must agree with
    plain elimination on every input."""

    @pytest.fixture(scope="class")
    def closed(self, quotient_bank):
        out = [("rp2-6", catalog.projective_plane_6()), ("torus-7", catalog.torus_7()),
               ("torus-7+rp2-6", Complex.from_facets(list(catalog.torus_7().facets) +
                                             list(shifted(catalog.projective_plane_6(), 7).facets)))]
        out += [(f"quotient-{i}", m) for i, (m, _) in enumerate(quotient_bank)]
        out += [(f"quotient-{i}-subdivided", subdivide_facet(m, m.facets[-1]))
                for i, (m, _) in enumerate(quotient_bank[:3])]
        for d in (2, 3):
            for n in (d + 2, 7, 10):
                s = stacked_sphere(n, d, seed=n)
                out += [(f"stacked-{d}-{n}", s),
                        (f"stacked-{d}-{n}-subdivided", subdivide_facet(s, s.facets[0]))]
        return out

    @pytest.mark.parametrize("field", [GF2, FieldSpec.gf(3), QQ], ids=str)
    def test_closed_manifolds_match_the_oracle(self, closed, field):
        orientable = set()
        for name, x in closed:
            assert verify_closed_manifold(x).ok, name
            want = oracle_betti(x, field)
            assert betti(x, field) == want, name
            assert is_orientable(x, field) == (want[-1] > 0), name
            if want[-1]:
                orientable.add(name)
        # both branches of the flood are reached over the odd fields
        assert ("quotient-0" in orientable) == (field == GF2)
        assert "torus-7" in orientable

    @pytest.mark.parametrize("field", [GF2, FieldSpec.gf(3), QQ], ids=str)
    def test_disjoint_union_counts_oriented_components(self, field):
        x = Complex.from_facets(list(catalog.torus_7().facets) +
                        list(shifted(catalog.projective_plane_6(), 7).facets))
        assert betti(x, field)[2] == (2 if field == GF2 else 1)

    @pytest.mark.parametrize("field", [GF2, FieldSpec.gf(3), QQ], ids=str)
    def test_non_manifolds_and_other_dimensions_match_the_oracle(self, field):
        tetra = catalog.boundary_simplex(3)
        cases = [
            ("delta5-2-skeleton", Complex.from_facets(itertools.combinations(range(6), 3))),
            ("delta5-3-skeleton", Complex.from_facets(itertools.combinations(range(6), 4))),
            ("moebius-5", catalog.moebius_band_5()),
            # every ridge on two facets, but the shared vertex's link is two circles
            ("wedge-of-2-spheres",
             Complex.from_facets(list(tetra.facets) + list(shifted(tetra, 3).facets))),
            ("cycle-5", catalog.cycle_complex(5)),
            ("two-cycles", Complex.from_facets(list(catalog.cycle_complex(4).facets) +
                                               list(shifted(catalog.cycle_complex(3), 10).facets))),
            ("graph", Complex.from_facets([(0, 1), (1, 2), (2, 0), (2, 3), (5,)])),
            ("boundary-delta5", catalog.boundary_simplex(5)),
        ]
        for name, x in cases:
            assert betti(x, field) == oracle_betti(x, field), name
            if x.dim in (2, 3):
                with pytest.raises(PreconditionError):
                    is_orientable(x, field)
        # closed curves, whose top Betti number comes from elimination, not a flood
        for name, beta1 in (("cycle-5", 1), ("two-cycles", 2)):
            x = dict(cases)[name]
            assert oracle_betti(x, field)[1] == beta1, name
            assert chain_data(x, field).top_betti == beta1 and is_orientable(x, field), name

    def test_a_second_call_eliminates_nothing(self, monkeypatch):
        calls = []
        basis = ChainData.basis
        monkeypatch.setattr(ChainData, "basis", lambda self, k: calls.append(k) or basis(self, k))
        # fresh labels, so no earlier test has filled the cache; a closed
        # 3-manifold eliminates only what its collapse leaves, not d_2
        cases = [(shifted(stacked_sphere(9, 3, seed=4), 500), []),
                 (shifted(catalog.projective_plane_6(), 500), []),
                 (Complex.from_facets(itertools.combinations(range(500, 506), 4)), [2, 3])]
        for x, first in cases:
            for field in (GF2, QQ):
                del calls[:]
                b = betti(x, field)
                assert calls == first
                assert betti(x, field) == b and calls == first


@pytest.fixture(scope="module")
def closed3(corpus3, quotient_bank):
    """The corpus, the two-handle quotient and a disjoint union of two closed
    3-manifolds, so that the collapse starts from two tetrahedra."""
    two = two_handle_quotient()
    union = Complex.from_facets(list(two.facets) + list(shifted(quotient_bank[0][0], 100).facets))
    return list(corpus3) + [("two-handle", two), ("two-handle+quotient-0", union)]


class TestCollapse:
    """Betti numbers of a closed 3-manifold come from its collapse along the
    dual tree and then through free edges, which leaves a 2-complex K to
    eliminate: against the dense oracle, and the collapse replayed step by
    step."""

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_betti_numbers_match_the_oracle(self, closed3, field):
        components = set()
        for name, x in closed3:
            assert betti(x, field) == oracle_betti(x, field), name
            components.add(len(x.components()))
        assert components == {1, 2}

    @pytest.mark.parametrize("field", [GF2, QQ], ids=str)
    def test_the_collapse_replays(self, closed3, field):
        remainders = set()
        for name, x in closed3:
            cd = chain_data(x, field)
            f = x.f_vector
            c = len(x.components())
            ridges, crossed, _ = x._dual_tree
            assert sorted(ridges) == list(x.faces(2)), name
            # the crossed triangles join the tetrahedra into a spanning tree of
            # the dual graph in each component
            on: dict = {}
            for i, t in enumerate(x.faces(3)):
                for r in itertools.combinations(t, 3):
                    on.setdefault(r, []).append(i)
            root = list(range(f[3]))

            def find(i):
                while root[i] != i:
                    i = root[i]
                return i
            for r, cross in zip(ridges, crossed):
                if cross:
                    a, b = (find(i) for i in on[r])
                    assert a != b, name
                    root[a] = b
            assert sum(crossed) == f[3] - c, name
            col = {e: j for j, e in enumerate(x.faces(1))}
            left = {(col[b, cc], col[a, cc], col[a, b])
                    for (a, b, cc), cross in zip(ridges, crossed) if not cross}
            pairs, kept, basis = cd._collapse
            for e, tri in pairs:
                assert tri in left and e in tri, name
                assert sum(e in t for t in left) == 1, name
                left.remove(tri)
            collapsed = {e for e, _ in pairs}
            assert len(collapsed) == len(pairs), name
            assert kept == [e for e in range(f[1]) if e not in collapsed], name
            # the greedy collapse ran to the end: no kept edge is free
            assert all(sum(e in t for t in left) != 1 for e in kept), name
            rows = []
            for t in left:
                row = [0] * f[1]
                for e, sign in zip(t, (1, -1, 1)):
                    row[e] = sign
                rows.append(row)
            assert basis.dim == rank(field, library_rows(field, rows), f[1]), name
            assert len(kept) - (f[0] - c) - basis.dim == betti(x, field)[1], name
            remainders.add(bool(left))
        assert remainders == {False, True}

    def test_no_basis_of_d2_for_beta_1(self, monkeypatch, quotient_bank):
        calls = []
        basis = ChainData.basis
        monkeypatch.setattr(ChainData, "basis", lambda self, k: calls.append(k) or basis(self, k))
        # fresh labels, so no earlier test has filled the cache; the quotient
        # is tight over GF(2), so no subset reaches the meet
        x = shifted(quotient_bank[0][0], 700)
        assert cross_validate(x, GF2).verdict
        s = stacked_sphere(1000, 3, seed=0)
        v = induced_map_injective(s, s.vertices[:500], GF2)
        # beta_1 = 0 from the collapse; the witness still needs the basis of d_3
        assert not v.ok and v.witness[0] == 2
        assert calls == [3]

    def test_the_flood_and_the_collapse_are_built_once_per_complex(self, monkeypatch, quotient_bank):
        # only the remainder's basis and what is read off it depend on the field
        calls = []
        for name in ("_dual_tree", "_collapse", "_spanning_forest"):
            build = getattr(complexes, name)
            monkeypatch.setattr(complexes, name, lambda *a, name=name, build=build: calls.append(name) or build(*a))
        # fresh labels, so no earlier test has filled the cache
        x = shifted(quotient_bank[0][0], 900)
        for field in (GF2, FieldSpec.gf(3), QQ):
            cd = chain_data(x, field)
            assert cd.betti == oracle_betti(x, field) and cd._cocycles
            assert is_orientable(x, field) == (field.char == 2)
        assert calls == ["_collapse", "_dual_tree", "_spanning_forest"]


class TestCocycles:
    """The basis of H^1(X) that the degree-1 test evaluates, against the
    dense oracle: beta_1 cocycles, vanishing on every triangle boundary and
    on a spanning forest of the edges the collapse keeps, and independent
    modulo the coboundaries."""

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_cocycles_are_a_basis_of_h1(self, closed3, field):
        p = field.char
        betas = set()
        for name, x in closed3:
            cocycles = chain_data(x, field)._cocycles
            f1 = len(x.faces(1))
            betas.add(len(cocycles))
            assert len(cocycles) == f1 - oracle_rank(x, 1, field) - oracle_rank(x, 2, field), name
            values = entries(field, cocycles, f1)
            for row in oracle_boundary(x, 2):
                for phi in values:
                    value = sum(a * b for a, b in zip(row, phi))
                    assert (value % p if p else value) == 0, name
            kept = chain_data(x, field)._collapse[1]
            forest = _spanning_forest(x, kept)
            spanned = Complex.from_facets([x.faces(1)[e] for e in forest] + [(v,) for v in x.vertices])
            assert set(forest) <= set(kept), name
            assert len(forest) == x.num_vertices - len(x.components()), name
            assert spanned.components() == x.components(), name
            assert all(phi[e] == 0 for phi in values for e in forest), name
            coboundaries = library_rows(field, [list(c) for c in zip(*oracle_boundary(x, 1))])
            assert rank(field, cocycles + coboundaries, f1) == \
                len(cocycles) + rank(field, coboundaries, f1), name
        assert betas == {0, 1, 2, 3}


class TestInducedMapInjective:
    def test_full_vertex_set(self):
        x = catalog.projective_plane_6()
        assert induced_map_injective(x, x.vertex_set, GF2).ok

    def test_three_vertices_of_tetrahedron_boundary(self):
        # every 3-subset induces a solid triangle (the 2-face is a face), so
        # the map is injective; the boundary of the tetrahedron is tight
        x = catalog.boundary_simplex(3)
        for w in itertools.combinations(range(4), 3):
            assert induced_map_injective(x, w, QQ).ok

    def test_empty_triangle_fails_over_q(self):
        # {0,1,3} spans no triangle of the projective plane: a hollow 3-cycle
        # whose cycle bounds ambiently over Q (H_1 = 0) but not inside itself
        x = catalog.projective_plane_6()
        assert not x.has_face((0, 1, 3))
        v = induced_map_injective(x, (0, 1, 3), QQ)
        assert not v.ok
        degree, chain = v.witness
        assert degree == 1
        faces = [f for f, _ in chain]
        assert set(faces) == {(0, 1), (0, 3), (1, 3)}

    def test_empty_triangle_survives_over_gf2(self):
        x = catalog.projective_plane_6()
        assert induced_map_injective(x, (0, 1, 3), GF2).ok

    def test_witness_chain_bounds_ambiently_but_not_locally(self):
        x = catalog.projective_plane_6()
        v = induced_map_injective(x, (0, 1, 3), QQ)
        degree, chain = v.witness
        cd = chain_data(x, QQ)
        vec = [0] * len(x.faces(degree))
        for f, c in chain:
            vec[x.faces(degree).index(f)] = c
        amb = cd.boundary(degree + 1).rowspace_basis()
        assert not amb.reduce(library_rows(QQ, [vec])[0])  # bounds in the ambient complex
        y = x.induced((0, 1, 3))
        assert y.dim == 1  # no triangles: nothing bounds inside

    def test_missing_witness_cycle_is_an_internal_error(self, monkeypatch):
        # the dimension count says a witness exists; a meet that yields no
        # vector is a bug, reported even under python -O
        monkeypatch.setattr(homology, "kernel_rows", lambda *args: [])
        with pytest.raises(InternalInconsistencyError, match="despite the dimension gap"):
            induced_map_injective(catalog.projective_plane_6(), (0, 1, 3), QQ)

    def test_meet_smaller_than_subcomplex_boundaries_is_an_internal_error(self, monkeypatch):
        # B_k(Y) lies in C_k(Y) n B_k(X); with no ambient boundaries the
        # count contradicts that on the Moebius band rp2-6 minus a vertex star.
        # The cocycles come from the same basis, so they are read first
        rp2 = catalog.projective_plane_6()
        assert not induced_map_injective(rp2, range(5), QQ).ok
        monkeypatch.setattr(ChainData, "basis",
                            lambda self, k: row_basis(self.field, len(self.complex.faces(k - 1))))
        with pytest.raises(InternalInconsistencyError, match=r"dimension 0 < dim B\(Y\) = 5"):
            induced_map_injective(rp2, range(5), QQ)

    def test_meet_without_a_gap_in_degree_1_is_an_internal_error(self, tight9, monkeypatch):
        # with H_1(Y) -> H_1(X) taken to have rank 0, a subset of the GF(2)
        # quotient whose H_1 injects seems to fail; the meet then finds no
        # witness, which is a bug, not an injective map
        monkeypatch.setattr(homology, "_h1_rank", lambda *args: 0)
        with pytest.raises(InternalInconsistencyError, match="but the meet equals B"):
            is_tight_bruteforce(tight9[0], GF2, jobs=1)

    def test_disconnected_subset_of_connected_complex(self):
        x = catalog.cycle_complex(6)
        v = induced_map_injective(x, (0, 3), QQ)
        assert not v.ok and v.witness[0] == 0

    def test_disconnected_ambient_complex(self):
        hexagons = [(i, (i + 1) % 6) for i in range(6)]
        x = Complex.from_facets(hexagons + [(a + 10, b + 10) for a, b in hexagons])
        # components of the subset landing in distinct ambient components: fine
        assert induced_map_injective(x, (0, 10), QQ).ok
        # two separated vertices of the same hexagon: both 0-cycles bound there
        assert not induced_map_injective(x, (0, 3), QQ).ok
        # one component in each ambient component passes degree 0, and the
        # empty triangle of rp2-6 must still fail in degree 1 over Q
        rp2 = catalog.projective_plane_6()
        two = Complex.from_facets(list(rp2.facets) + [tuple(v + 10 for v in f) for f in rp2.facets])
        v = induced_map_injective(two, (0, 1, 3, 10), QQ)
        assert v.witness == induced_map_injective(rp2, (0, 1, 3), QQ).witness

    def test_unknown_vertices_rejected(self):
        with pytest.raises(ValueError):
            induced_map_injective(catalog.cycle_complex(3), (0, 9), QQ)

    def test_projective_plane_all_subsets_tight_over_gf2(self):
        x = catalog.projective_plane_6()
        for size in range(2, 6):
            for w in itertools.combinations(range(6), size):
                assert induced_map_injective(x, w, GF2).ok, w

    @settings(max_examples=40, deadline=None)
    @given(small_complexes(), st.sampled_from(FIELDS), st.data())
    def test_homologically_trivial_connected_subcomplexes_inject(self, x, field, data):
        if x.num_vertices < 2:
            return
        w = data.draw(st.sets(st.sampled_from(sorted(x.vertex_set)),
                              min_size=2, max_size=x.num_vertices))
        y = x.induced(w)
        if y.dim < 0 or not y.is_connected():
            return
        b = betti(y, field)
        if all(b[k] == 0 for k in range(1, len(b))):
            assert induced_map_injective(x, w, field).ok

    @settings(max_examples=40, deadline=None)
    @given(small_complexes(max_vertices=7))
    def test_faces_inside_are_the_faces_inside_the_mask(self, x):
        """Y's faces by the per-vertex incidence masks are the ambient faces
        whose vertex masks lie inside W, in the ambient order, in every
        degree."""
        cd = chain_data(x, GF2)
        n = x.num_vertices
        offsets = itertools.accumulate(x.f_vector, initial=0)
        windows = [(off, (1 << fk) - 1) for off, fk in zip(offsets, x.f_vector)]
        for w in range(1, 1 << n):
            inside = {v for i, v in enumerate(x.vertices) if w >> i & 1}
            want = [[i for i, f in enumerate(x.faces(k)) if inside.issuperset(f)]
                    for k in range(x.dim + 1)]
            faces = _faces_inside(cd, w)
            got = [list(bit_positions(faces >> off & ones)) for off, ones in windows]
            assert got == want, w

    def test_degree_zero_matches_linear_algebra_oracle(self):
        # on graphs only degree 0 matters (no 2-faces, nothing bounds), so the
        # component fast path must agree with the rank formula
        rng = random.Random(99)
        for _ in range(40):
            n = rng.randrange(4, 9)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.35]
            if not edges:
                continue
            x = Complex.from_facets(edges + [(v,) for v in range(n)])
            verts = sorted(x.vertex_set)
            w = tuple(sorted(rng.sample(verts, rng.randrange(2, len(verts) + 1))))
            got = induced_map_injective(x, w, GF2).ok
            y = x.induced(w)
            cdx, cdy = chain_data(x, GF2), chain_data(y, GF2)
            # every 0-chain of y is a cycle: the unit rows of y's vertices
            emb = FMatrix(GF2, y.num_vertices, x.num_vertices,
                          [1 << x.faces(0).index(f) for f in y.faces(0)])
            b0x = cdx.boundary(1) if x.dim >= 1 else None
            stacked = FMatrix(GF2, emb.nrows + b0x.nrows, emb.ncols, emb.rows + b0x.rows)
            inter = emb.nrows + b0x.rank() - stacked.rank()
            assert got == (inter == cdy.boundary(1).rank() if y.dim >= 1 else inter == 0)


PINNED = {QQ: "q_witnesses.json", GF2: "gf2_witnesses.json", FieldSpec.gf(3): "gf3_witnesses.json"}


@pytest.mark.parametrize("field", list(PINNED), ids=str)
def test_witness_chains_are_pinned(pinned_members, field):
    """Witnesses of ``induced_map_injective`` recorded with the earlier
    decider, which intersected the subcomplex's cycle space with the ambient
    boundaries: under a member's name, its first failing subset in scan
    order; under ``name/degK``, its first subset failing in degree K >= 1;
    under ``name/<subset>``, every subset of rp2-6 and of the seed-0
    quotient failing in degree >= 1.  The witnesses must not change: same
    degree, faces, order and coefficients."""
    pins = json.loads((Path(__file__).parent / PINNED[field]).read_text())
    for key, rec in pins.items():
        x = pinned_members[key.split("/")[0]]
        v = induced_map_injective(x, rec["subset"], field)
        assert not v.ok, key
        degree, chain = v.witness
        want = [(tuple(f), Fraction(c)) for f, c in rec["chain"]]
        assert (degree, list(chain)) == (rec["degree"], want), key
        if "/" not in key:
            scan = is_tight_bruteforce(x, field, jobs=1)
            assert scan.witness == (tuple(rec["subset"]), rec["degree"]), key
