"""Differential tests of the closed-manifold check against the link-by-link
reference it replaced: every input must give the same (ok, witness, detail)."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tighttri import (GF2, Complex, PreconditionError, catalog, decompose_ti, handle_addition,
                      is_locally_stacked, is_stacked_sphere, is_tight_fast_3manifold,
                      is_tight_surface, stacked_sphere, verify_closed_manifold)
from tighttri import complexes
from tighttri.complexes import UnsupportedDimensionError, Verdict, vertex_links


# -- reference: one Complex.link call per vertex and per vertex of each link --

def _ref_is_single_cycle(g: Complex) -> bool:
    if g.dim != 1 or g.num_vertices < 3:
        return False
    if any(len(g.neighbors(v)) != 2 for v in g.vertices):
        return False
    return g.is_connected()


def _ref_two_sphere_check(s: Complex) -> tuple:
    if s.dim != 2:
        return False, "link is not 2-dimensional"
    if any(len(f) != 3 for f in s.facets):
        return False, "link is not pure"
    if not s.is_connected():
        return False, "link is disconnected"
    tri_count = {e: 0 for e in s.faces(1)}
    for t in s.faces(2):
        tri_count[t[:2]] += 1
        tri_count[t[::2]] += 1
        tri_count[t[1:]] += 1
    for e, c in tri_count.items():
        if c != 2:
            return False, f"edge {e} lies in {c} triangles"
    for v in s.vertices:
        if not _ref_is_single_cycle(s.link(v)):
            return False, f"link of {v} inside the link is not a single cycle"
    f = s.f_vector
    if f[0] - f[1] + f[2] != 2:
        return False, "Euler characteristic differs from 2"
    return True, ""


def reference_verify_closed_manifold(x: Complex) -> Verdict:
    d = x.dim
    if d > 3:
        raise UnsupportedDimensionError(f"closed-manifold check supports dimension <= 3, got {d}")
    if d < 0:
        return Verdict(False, detail="empty complex")
    if d == 0:
        return Verdict(True, detail="closed 0-manifold (finite point set)")
    for f in x.facets:
        if len(f) != d + 1:
            return Verdict(False, witness=f, detail=f"not pure: maximal face {f} has dimension {len(f) - 1}")
    if d == 1:
        for v in x.vertices:
            if len(x.neighbors(v)) != 2:
                return Verdict(False, witness=v, detail=f"vertex {v} does not lie on exactly two edges")
        return Verdict(True, detail="closed 1-manifold (disjoint union of cycles)")
    if d == 2:
        for v in x.vertices:
            if not _ref_is_single_cycle(x.link(v)):
                return Verdict(False, witness=v, detail=f"link of vertex {v} is not a single cycle")
        return Verdict(True, detail="closed 2-manifold")
    for v in x.vertices:
        ok, reason = _ref_two_sphere_check(x.link(v))
        if not ok:
            return Verdict(False, witness=v, detail=f"link of vertex {v} is not a 2-sphere: {reason}")
    return Verdict(True, detail="closed 3-manifold")


def check_against_reference(facets) -> Verdict:
    """Compare on fresh complexes, so neither side sees a kept verdict."""
    got = verify_closed_manifold(Complex.from_facets(facets))
    want = reference_verify_closed_manifold(Complex.from_facets(facets))
    assert (got.ok, got.witness, got.detail) == (want.ok, want.witness, want.detail)
    return got


def shifted(x: Complex, k: int) -> list:
    return [tuple(v + k for v in f) for f in x.facets]


def octahedron(vs) -> list:
    """Boundary of the octahedron with antipodal pairs (vs[0], vs[1]),
    (vs[2], vs[3]) and (vs[4], vs[5])."""
    return [tuple(sorted(t)) for t in itertools.product(vs[:2], vs[2:4], vs[4:])]


# One input per failure reason of the 3-dimensional check (the facet-level
# reasons are reached by the drawn complexes below).
PINNED = [
    ("two copies of the boundary of the 4-simplex sharing vertex 4",
     shifted(catalog.boundary_simplex(4), 0) + shifted(catalog.boundary_simplex(4), 4),
     4, "link of vertex 4 is not a 2-sphere: link is disconnected"),
    ("cone over two tetrahedron boundaries sharing vertex 4",
     [(0,) + f for f in shifted(catalog.boundary_simplex(3), 1) + shifted(catalog.boundary_simplex(3), 4)],
     0, "link of vertex 0 is not a 2-sphere: link of 4 inside the link is not a single cycle"),
    ("cone over the 7-vertex torus",
     [(0,) + f for f in shifted(catalog.torus_7(), 1)],
     0, "link of vertex 0 is not a 2-sphere: Euler characteristic differs from 2"),
    ("suspension of the 7-vertex torus",
     catalog.suspension(catalog.torus_7()).facets,
     7, "link of vertex 7 is not a 2-sphere: Euler characteristic differs from 2"),
    # the link is a tetrahedron boundary beside a torus, so its Euler
    # characteristic is 2 and only the connectivity test rejects it
    ("cone over a tetrahedron boundary and a disjoint 7-vertex torus",
     [(0,) + f for f in shifted(catalog.boundary_simplex(3), 1) + shifted(catalog.torus_7(), 5)],
     0, "link of vertex 0 is not a 2-sphere: link is disconnected"),
    ("two tetrahedra sharing a triangle",
     [(0, 1, 2, 3), (1, 2, 3, 4)],
     0, "link of vertex 0 is not a 2-sphere: edge (1, 2) lies in 1 triangles"),
    # the link of vertex 10 is two octahedra sharing vertex 12; vertices 0-9
    # pass, and vertex 0 sees the single-cycle link of the edge (0, 12)
    # before vertex 10 sees the two cycles of the link of (10, 12)
    ("suspension of two octahedron boundaries sharing vertex 12",
     [t + (a,) for t in octahedron([0, 1, 2, 3, 4, 12]) + octahedron([5, 6, 7, 8, 9, 12])
      for a in (10, 11)],
     10, "link of vertex 10 is not a 2-sphere: link of 12 inside the link is not a single cycle"),
    # vertex 0 passes, and the triangle on three tetrahedra is not the first
    # edge of the link of vertex 1
    ("boundary of the 4-simplex with a fifth tetrahedron on the triangle 123",
     list(catalog.boundary_simplex(4).facets) + [(1, 2, 3, 5)],
     1, "link of vertex 1 is not a 2-sphere: edge (2, 3) lies in 3 triangles"),
]


@pytest.mark.parametrize("facets,witness,detail", [p[1:] for p in PINNED],
                         ids=[p[0] for p in PINNED])
def test_pinned_three_dimensional_failures(facets, witness, detail):
    v = check_against_reference(facets)
    assert (v.ok, v.witness, v.detail) == (False, witness, detail)


def test_corpus_and_spheres(corpus3, sphere_skeletons):
    for _, x in corpus3 + sphere_skeletons:
        assert check_against_reference(x.facets).ok


@pytest.mark.parametrize("x", [catalog.torus_7(), catalog.projective_plane_6(),
                               catalog.moebius_band_5(), catalog.icosahedron()]
                         + [catalog.cycle_complex(n) for n in (3, 4, 7)]
                         + [Complex.from_facets([])],
                         ids=["torus-7", "rp2-6", "moebius-5", "icosahedron",
                              "cycle-3", "cycle-4", "cycle-7", "empty"])
def test_catalog_members(x):
    check_against_reference(x.facets)


@st.composite
def small_complexes(draw):
    """Complexes of dimension 1 to 3 on at most 9 vertices."""
    n = draw(st.integers(2, 9))
    d = draw(st.integers(1, min(3, n - 1)))
    facet = st.lists(st.integers(0, n - 1), min_size=1, max_size=d + 1, unique=True)
    facets = draw(st.lists(facet, min_size=1, max_size=24))
    facets.append(draw(st.lists(st.integers(0, n - 1), min_size=d + 1, max_size=d + 1, unique=True)))
    return facets


@settings(max_examples=300, deadline=None)
@given(small_complexes())
def test_drawn_complexes(facets):
    check_against_reference(facets)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 3), st.integers(0, 6), st.integers(0, 10**6))
def test_perturbed_stacked_spheres(d, extra, seed):
    """Stacked spheres with facets removed, added or relabelled, so that most
    of them fail somewhere inside the vertex links."""
    rng = random.Random(seed)
    n = d + 2 + extra
    facets = [list(f) for f in stacked_sphere(n, d, seed=seed).facets]
    for _ in range(rng.randint(1, 3)):
        move = rng.randrange(3)
        if move == 0 and len(facets) > 1:
            facets.pop(rng.randrange(len(facets)))
        elif move == 1:
            facets.append(rng.sample(range(n + 1), d + 1))
        else:
            f = rng.choice(facets)
            f[rng.randrange(d + 1)] = rng.choice([v for v in range(n + 1) if v not in f])
    check_against_reference(facets)


def face_scan_link(x: Complex, v: int) -> list:
    """The faces of the link of v by definition, per dimension: each face
    containing v, with v taken out."""
    faces = [sorted(tuple(u for u in f if u != v) for f in x.faces(k) if v in f)
             for k in range(1, x.dim + 1)]
    return [bucket for bucket in faces if bucket]


def test_vertex_links_match_link():
    for x in (catalog.boundary_simplex(4), catalog.torus_7(), catalog.cycle_complex(5),
              Complex.from_facets([(0, 1, 2, 3), (3, 4), (5,), (2, 6, 7)]),
              stacked_sphere(9, 3, seed=2)):
        links = vertex_links(x)
        assert list(links) == list(x.vertices)
        for v in x.vertices:
            want = face_scan_link(x, v)
            for lk in (links[v], x.link(v)):
                assert [list(lk.faces(k)) for k in range(lk.dim + 1)] == want


def test_verdict_is_kept_on_the_complex(monkeypatch):
    # built through from_facets: stacked_sphere records its verdict unchecked
    facets = stacked_sphere(8, 3, seed=1).facets
    x = Complex.from_facets(facets)
    first = verify_closed_manifold(x)

    def fail(_):
        raise AssertionError("the verdict was recomputed")

    monkeypatch.setattr(complexes, "_check_closed_manifold", fail)
    assert verify_closed_manifold(x) is first
    with pytest.raises(AssertionError):
        verify_closed_manifold(Complex.from_facets(facets))


def test_dimension_cap_is_raised_on_every_call():
    x = Complex.from_facets([range(5)])
    for _ in range(2):
        with pytest.raises(UnsupportedDimensionError):
            verify_closed_manifold(x)


# -- the closed-manifold precondition of the six entry points that need one --

def _two_copies(x: Complex) -> Complex:
    shift = max(x.vertices) + 1
    return Complex.from_facets(list(x.facets) + [tuple(v + shift for v in f) for f in x.facets])


# (entry point on a complex, its dimension, its message prefix, whether it
# needs a connected input)
PRECONDITION_SITES = {
    "is_stacked_sphere-2": (lambda x: is_stacked_sphere(x, 2), 2,
                            "not a closed 2-manifold", False),
    "is_stacked_sphere-3": (lambda x: is_stacked_sphere(x, 3), 3,
                            "not a closed 3-manifold", False),
    "is_locally_stacked": (is_locally_stacked, 3, "not a closed 3-manifold", False),
    "decompose_ti": (decompose_ti, 2, "not a triangulated 2-sphere", True),
    "handle_addition": (lambda x: handle_addition(x, (0, 1, 2, 3), (4, 5, 6, 7), {}), 3,
                        "handle addition needs a connected closed 3-manifold", True),
    "is_tight_fast_3manifold": (lambda x: is_tight_fast_3manifold(x, GF2), 3,
                                "the fast criterion applies to closed 3-manifolds only", False),
    "is_tight_surface": (lambda x: is_tight_surface(x, GF2), 2,
                         "the surface criterion applies to closed 2-manifolds only", False),
}

# a closed manifold of each dimension, and one that fails the check with the
# detail its message has always given
CLOSED = {2: catalog.icosahedron(), 3: catalog.boundary_simplex(4)}
NOT_CLOSED = {
    2: (Complex.from_facets([(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3), (1, 2, 3)]),
        "link of vertex 0 is not a single cycle"),
    3: (Complex.from_facets(catalog.boundary_simplex(4).facets[1:]),
        "link of vertex 0 is not a 2-sphere: edge (1, 2) lies in 1 triangles"),
}


@pytest.mark.parametrize("site", list(PRECONDITION_SITES))
def test_precondition_names_the_wrong_dimension(site):
    call, d, prefix, _ = PRECONDITION_SITES[site]
    # dimension 4 is compared before the manifold check could refuse it
    for x in (CLOSED[5 - d], catalog.boundary_simplex(5)):
        with pytest.raises(PreconditionError) as info:
            call(x)
        assert str(info.value) == f"{prefix}: dimension {x.dim}"


@pytest.mark.parametrize("site", list(PRECONDITION_SITES))
def test_precondition_names_a_disconnected_input_where_it_matters(site):
    call, d, prefix, connected = PRECONDITION_SITES[site]
    x = _two_copies(catalog.boundary_simplex(d + 1))
    if connected:
        with pytest.raises(PreconditionError) as info:
            call(x)
        assert str(info.value) == f"{prefix}: disconnected"
    else:
        call(x)


@pytest.mark.parametrize("site", list(PRECONDITION_SITES))
def test_precondition_keeps_the_manifold_detail(site):
    call, d, prefix, _ = PRECONDITION_SITES[site]
    x, detail = NOT_CLOSED[d]
    with pytest.raises(PreconditionError) as info:
        call(x)
    assert str(info.value) == f"{prefix}: {detail}"
