"""Differential tests for the mask-based subset test and the duality scan.

The oracle is the plain definitional scan: ``induced_map_injective`` on
every subset in enumeration order.  The per-degree oracle for the duality
itself is independent of the decider: it embeds the cycles of the induced
subcomplex into the ambient chains and compares ranks, taken by
``oracle.py`` and never by the library's elimination, on echelon rows of
B_k(X) computed once per complex, degree and field.
"""

import itertools
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cyclic_polytope_boundary
from corpus import subdivide_facet, two_handle_quotient
from oracle import echelon_rank, entries, left_nullspace, library_rows, matmul, rank, rref
from tighttri import (Complex, catalog, chain_data, induced_map_injective,
                      is_isomorphic, is_tight_bruteforce, stacked_sphere)
from tighttri.homology import injectivity_on_mask
from tighttri.complexes import PreconditionError, UnknownVertexError, Verdict
from tighttri.linalg import GF2, QQ, FieldSpec, row_basis
from tighttri import tightness

FIELDS = [GF2, FieldSpec.gf(3), QQ]


def oracle_scan(x: Complex, field: FieldSpec) -> tuple:
    """(verdict, witness, subsets_scanned) of the plain definitional scan."""
    n = x.num_vertices
    if not x.is_connected():
        return False, (x.vertices, 0), 0
    count = 0
    for size in range(2, n):
        for w in itertools.combinations(x.vertices, size):
            count += 1
            v = induced_map_injective(x, w, field)
            if not v.ok:
                return False, (w, v.witness[0]), count
    return True, None, (1 << n) - n - 2


def _zero_columns(field: FieldSpec, rows: list, cols) -> list:
    """The rows, in the library's format, with the columns ``cols`` zeroed."""
    if field.char == 2:
        mask = sum(1 << j for j in cols)
        return [r & ~mask for r in rows]
    cols = set(cols)
    return [{j: c for j, c in r.items() if j not in cols} for r in rows]


@lru_cache(maxsize=64)
def boundaries_rref(x: Complex, k: int, field: FieldSpec) -> tuple:
    """(pivots, rows) of the reduced echelon form of B_k(x), the row space
    of d_{k+1}, by the dense oracle; the rows in the library's format."""
    b = chain_data(x, field).boundary(k + 1)
    pivots, rows = rref(field, b.rows, b.ncols)
    return pivots, rows if field.char == 2 else library_rows(field, rows)


def failing_degrees(x: Complex, w, field: FieldSpec) -> frozenset:
    """Degrees k where H_k(x[w]) -> H_k(x) is not injective, that is where
    dim(C_k(Y) n B_k(X)) > dim B_k(Y).  The first is rank B_k(X) minus the
    rank of B_k(X) off Y's k-faces, the second the rank of the rows of
    d_{k+1} at Y's (k+1)-faces; degree 0 is not special."""
    cd = chain_data(x, field)
    sub = set(w)
    inside = [[i for i, f in enumerate(x.faces(k)) if sub.issuperset(f)]
              for k in range(x.dim + 1)]
    fails = set()
    for k in range(x.dim):
        _, bx = boundaries_rref(x, k, field)
        off = echelon_rank(field, _zero_columns(field, bx, inside[k]))
        rows = cd.rows(k + 1)
        if len(bx) - off > echelon_rank(field, [rows[i] for i in inside[k + 1]]):
            fails.add(k)
    return frozenset(fails)


def assert_per_degree_duality(x: Complex, field: FieldSpec) -> None:
    """The failing degrees of W are {dim - 1 - k} of those of V - W; the
    plain decision finds the least, and the duality scan's decision capped
    at dim - 2 the least up to dim - 2.  Degree dim - 1, which the scan
    leaves out, never fails on 2 vertices, nor anywhere on a neighbourly
    complex."""
    d = x.dim
    verts = x.vertex_set
    fails = {}
    for size in range(1, x.num_vertices):
        for w in itertools.combinations(x.vertices, size):
            fails[frozenset(w)] = failing_degrees(x, w, field)
    neighbourly = x.is_neighbourly()
    for w, ks in fails.items():
        assert ks == {d - 1 - k for k in fails[verts - w]}, (sorted(w), ks)
        v = induced_map_injective(x, w, field)
        assert (None if v.ok else v.witness[0]) == min(ks, default=None), sorted(w)
        mask = sum(1 << x.vertices.index(u) for u in w)
        capped = injectivity_on_mask(chain_data(x, field), mask, d - 2)
        assert (None if capped.ok else capped.witness[0]) == \
            min((k for k in ks if k <= d - 2), default=None), sorted(w)
        if len(w) == 2 or neighbourly:
            assert d - 1 not in ks, sorted(w)


def orientable(x: Complex, field: FieldSpec) -> bool:
    """beta_dim > 0, that is rank d_dim < f_dim, by the dense oracle: the
    library's top Betti number is what the duality gate reads."""
    d = x.dim
    return rank(field, chain_data(x, field).boundary(d).rows, len(x.faces(d - 1))) < x.f_vector[d]


# -- (a) per-degree duality ----------------------------------------------------

def one_per_class(members: list) -> list:
    """The members up to isomorphism: duality does not see the labels."""
    reps: list = []
    for x in members:
        if all(x.f_vector != r.f_vector or is_isomorphic(x, r) is None for r in reps):
            reps.append(x)
    return reps


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_per_degree_duality_on_orientable_corpus(corpus3, field):
    # every member on at most 9 vertices, and the 10-vertex subdivided
    # quotients; the 10-vertex stacked spheres are left to the drawn
    # subdivisions below, to keep the suite's time
    members = [x for name, x in corpus3
               if (x.num_vertices <= 9 or "subdivided" in name) and orientable(x, field)]
    reps = one_per_class(members)
    assert len(reps) >= 8
    for x in reps:
        assert_per_degree_duality(x, field)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_per_degree_duality_on_surfaces(field):
    octahedron = catalog.suspension(catalog.cycle_complex(4))
    for x in (catalog.torus_7(), octahedron, catalog.boundary_simplex(3)):
        assert_per_degree_duality(x, field)


@settings(max_examples=3, deadline=None)
@given(st.data())
def test_per_degree_duality_on_drawn_subdivisions(corpus3, data):
    field = data.draw(st.sampled_from(FIELDS))
    members = [x for _, x in corpus3 if x.num_vertices <= 9 and orientable(x, field)]
    x = data.draw(st.sampled_from(members))
    y = subdivide_facet(x, data.draw(st.sampled_from(x.facets)))
    assert orientable(y, field)
    assert_per_degree_duality(y, field)


def test_duality_fails_without_orientability():
    # rp2-6 is orientable over GF(2) only: elsewhere the pairing breaks,
    # which is why the scan gates duality on beta_dim > 0
    rp2 = catalog.projective_plane_6()
    assert_per_degree_duality(rp2, GF2)
    for field in (FieldSpec.gf(3), QQ):
        with pytest.raises(AssertionError):
            assert_per_degree_duality(rp2, field)


# -- (b) whole reports ---------------------------------------------------------

def report(x: Complex, field: FieldSpec, jobs: int = 1) -> tuple:
    r = is_tight_bruteforce(x, field, jobs=jobs)
    return r.verdict, r.witness, r.subsets_scanned


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_reports_match_the_plain_scan_on_the_corpus(corpus3, field):
    for name, x in corpus3:
        assert report(x, field) == oracle_scan(x, field), name


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_reports_match_the_plain_scan_on_surfaces_and_the_quotient(tight9, field):
    for x in (catalog.projective_plane_6(), catalog.torus_7(), catalog.icosahedron(),
              tight9[0]):
        assert report(x, field) == oracle_scan(x, field)


def test_duality_gate(tight9):
    m = tight9[0]
    assert tightness._duality_applies(m, GF2)
    assert not tightness._duality_applies(m, QQ)  # non-orientable over Q
    assert not tightness._duality_applies(catalog.projective_plane_6(), QQ)
    assert tightness._duality_applies(catalog.torus_7(), QQ)
    assert not tightness._duality_applies(catalog.cycle_complex(6), QQ)  # dimension 1
    skeleton = Complex.from_facets(itertools.combinations(range(6), 3))
    assert not tightness._duality_applies(skeleton, GF2)  # not a manifold


# -- (c) masks against the induced-subcomplex decider ---------------------------

def _rows_basis(cd, k: int, rows):
    """Reduced basis of the span of all the given rows of boundary(k): the
    decider's helper as it was, with first-column pivots, uncapped."""
    bk = cd.boundary(k)
    basis = row_basis(cd.field, bk.ncols)
    for i in rows:
        basis.add(bk.rows[i])
    return basis


def induced_reference(x: Complex, subset, field: FieldSpec) -> Verdict:
    """The decider as it was before the mask test: it builds x[subset] and
    reads its faces and components off that complex."""
    w = frozenset(subset)
    if not w <= x.vertex_set:
        raise UnknownVertexError(f"vertices {sorted(w - x.vertex_set)} are not in the complex")
    y = x.induced(w)
    if y.dim < 0:
        raise PreconditionError("the induced subcomplex is empty")
    ycomps = y.components()
    if len(ycomps) > 1:
        xcomp_of = {v: i for i, comp in enumerate(x.components()) for v in comp}
        seen: dict = {}
        for comp in ycomps:
            rep = min(comp)
            i = xcomp_of[rep]
            if i in seen:
                minus = 1 if field.char == 2 else -1
                return Verdict(False, witness=(0, (((seen[i],), 1), ((rep,), minus))))
            seen[i] = rep
    cd = chain_data(x, field)
    top = min(y.dim, x.dim - 1)
    rows_of = {}
    for k in range(1, top + 2):
        at = {f: i for i, f in enumerate(x.faces(k))}
        rows_of[k] = [at[f] for f in y.faces(k)]
    rank_k = y.f_vector[0] - len(ycomps)
    for k in range(1, top + 1):
        by = _rows_basis(cd, k + 1, rows_of[k + 1])
        cycles_dim, rank_k = len(rows_of[k]) - rank_k, by.dim
        if cycles_dim == by.dim:
            continue
        # the meet densely: combinations of the echelon rows of B_k(X) at
        # Y's faces whose parts off those faces cancel, applied to the rows
        pivots, bx = boundaries_rref(x, k, field)
        ycols = rows_of[k]
        meet_rows = [r for p, r in zip(pivots, bx) if p in ycols]
        n = len(x.faces(k))
        outside = _zero_columns(field, meet_rows, ycols)
        if len(meet_rows) - rank(field, outside, n) == by.dim:
            continue
        combos = left_nullspace(field, outside, n)
        for v in entries(field, rref(field, matmul(field, combos, meet_rows, n), n)[1], n):
            if by.reduce(library_rows(field, [v])[0]):
                faces = x.faces(k)
                return Verdict(False, witness=(k, tuple((faces[j], c) for j, c in enumerate(v) if c)))
    return Verdict(True)


@st.composite
def complexes_up_to_dim3(draw):
    n = draw(st.integers(1, 9))
    facets = draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True),
        min_size=1, max_size=10))
    return Complex.from_facets(facets)


@settings(max_examples=40, deadline=None)
@given(complexes_up_to_dim3(), st.sampled_from(FIELDS), st.data())
def test_mask_test_matches_the_induced_reference(x, field, data):
    subsets = data.draw(st.lists(st.sets(st.sampled_from(x.vertices), min_size=1),
                                 min_size=1, max_size=12))
    for w in subsets:
        got, want = induced_map_injective(x, w, field), induced_reference(x, w, field)
        assert (got.ok, got.witness) == (want.ok, want.witness), sorted(w)


def _skeleton(n: int, k: int) -> Complex:
    return Complex.from_facets(itertools.combinations(range(n), k + 1))


EVERY_SUBSET_INPUTS = {
    "d6-2skel": lambda request: _skeleton(7, 2),
    "d7-2skel": lambda request: _skeleton(8, 2),
    "d6-3skel": lambda request: _skeleton(7, 3),
    "rp2-6": lambda request: catalog.projective_plane_6(),
    "quotient-0": lambda request: request.getfixturevalue("tight9")[0],
    "stacked-9-s0": lambda request: stacked_sphere(9, 3, seed=0),
}


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", list(EVERY_SUBSET_INPUTS))
def test_mask_test_matches_the_induced_reference_on_every_subset(name, field, request):
    # the skeleta are dense: each subset's least vertex has a full star, so
    # the cone count decides every degree.  The projective plane fails in
    # degree 1 over GF(3) and Q; the seed-0 quotient and the stacked sphere
    # have subsets whose cones fall short, which go on to the per-subset
    # basis, the meet and, over Q and at the sphere's missing faces, the
    # witness
    x = EVERY_SUBSET_INPUTS[name](request)
    for size in range(1, x.num_vertices + 1):
        for w in itertools.combinations(x.vertices, size):
            got, want = induced_map_injective(x, w, field), induced_reference(x, w, field)
            assert (got.ok, got.witness) == (want.ok, want.witness), w


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_mask_test_matches_the_induced_reference_on_a_two_handle_quotient(field):
    # beta_1 = 2 over every field, so degree 1 evaluates two cocycles and
    # finds ranks 0, 1 and 2; over GF(3) and Q the quotient is not
    # orientable and degree 2 fails too.  Every subset on at most 5 of the
    # 13 vertices, 2,379 of them
    x = two_handle_quotient()
    assert x.f_vector == (13, 62, 98, 49)
    for size in range(1, 6):
        for w in itertools.combinations(x.vertices, size):
            got, want = induced_map_injective(x, w, field), induced_reference(x, w, field)
            assert (got.ok, got.witness) == (want.ok, want.witness), w


def test_degree0_witness_on_a_disconnected_ambient():
    # a path, an edge and a square: the witness pairs the least vertices of
    # the first two components of the subset that share an ambient component
    x = Complex.from_facets([(0, 1), (1, 2), (2, 3), (7, 8),
                             (10, 11), (11, 12), (12, 13), (10, 13)])
    cases = {(0, 2, 7): (0, 2), (0, 7, 10, 12): (10, 12), (0, 2, 7, 10, 12): (0, 2),
             (0, 7, 8, 10): None, (3, 8, 11, 13): (11, 13)}
    for field in FIELDS:
        minus = 1 if field.char == 2 else -1
        for w, pair in cases.items():
            got, want = induced_map_injective(x, w, field), induced_reference(x, w, field)
            assert (got.ok, got.witness) == (want.ok, want.witness)
            if pair is None:
                assert got.ok
            else:
                assert got.witness == (0, (((pair[0],), 1), ((pair[1],), minus)))


# -- (d) even vertex count: a first failure at exactly n/2 vertices ------------

@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_cyclic_polytope_fails_at_half_the_vertices(field):
    x = cyclic_polytope_boundary(6, 4)
    assert x.f_vector == (6, 15, 18, 9)
    assert orientable(x, field) and tightness._duality_applies(x, field)
    assert report(x, field) == (False, ((0, 2, 4), 1), 21)
    assert report(x, field) == oracle_scan(x, field)
