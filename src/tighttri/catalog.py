"""Built-in named complexes used by the CLI, the tests and the search corpus."""

from __future__ import annotations

import itertools

from .complexes import Complex, MalformedComplexError

# Boundary complex of the icosahedron.  Vertex labels 0..5 are the "unprimed"
# half, labels 6..11 the antipodal half (v' = v + 6); the vertex map v <-> v+6
# is the antipodal automorphism.
ICOSAHEDRON_FACETS = (
    (0, 1, 2), (0, 1, 5), (0, 2, 3), (0, 3, 4), (0, 4, 5),
    (1, 2, 10), (1, 5, 9), (1, 9, 10), (2, 3, 11), (2, 10, 11),
    (3, 4, 7), (3, 7, 11), (4, 5, 8), (4, 7, 8), (5, 8, 9),
    (6, 7, 8), (6, 7, 11), (6, 8, 9), (6, 9, 10), (6, 10, 11),
)

# The unique 6-vertex triangulation of the real projective plane, obtained
# from the icosahedron above by identifying v with v+6.
RP2_6_FACETS = (
    (0, 1, 2), (0, 1, 5), (0, 2, 3), (0, 3, 4), (0, 4, 5),
    (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5),
)

# 5-vertex Moebius band: boundary cycle (0,1,2,3,4), and for each boundary
# vertex the triangle through it and the opposite boundary edge.
MOEBIUS_5_FACETS = tuple(
    tuple(sorted((i, (i + 2) % 5, (i + 3) % 5))) for i in range(5)
)

# A 7-vertex homeomorph of K_{3,3}: parts {10, 2, 8} and {1, 3, 9}, with the
# 10--1 connection subdivided through 11.  Labels follow the icosahedron
# catalog entry; the graph arises inside a vertex link when an icosahedral
# summand is forced to propagate its triangles.
SUBDIVIDED_K33_EDGES = (
    (10, 11), (1, 11), (1, 2), (3, 8), (1, 8),
    (8, 9), (9, 10), (2, 3), (3, 10), (2, 9),
)


def boundary_simplex(d: int) -> Complex:
    """Boundary of the d-simplex on vertices 0..d (a triangulated (d-1)-sphere)."""
    if d < 1:
        raise MalformedComplexError("boundary_simplex needs d >= 1")
    verts = range(d + 1)
    return Complex.from_facets(itertools.combinations(verts, d))


def icosahedron() -> Complex:
    return Complex.from_facets(ICOSAHEDRON_FACETS)


def projective_plane_6() -> Complex:
    return Complex.from_facets(RP2_6_FACETS)


def moebius_band_5() -> Complex:
    return Complex.from_facets(MOEBIUS_5_FACETS)


def cycle_complex(n: int) -> Complex:
    if n < 3:
        raise MalformedComplexError("cycles need at least 3 vertices")
    return Complex.from_facets([(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Complex:
    if n < 1:
        raise MalformedComplexError("complete graphs need at least one vertex")
    if n == 1:
        return Complex.from_facets([(0,)])
    return Complex.from_facets(itertools.combinations(range(n), 2))


def complete_bipartite(m: int, n: int) -> Complex:
    if m < 1 or n < 1:
        raise MalformedComplexError("both parts must be nonempty")
    return Complex.from_facets([(i, m + j) for i in range(m) for j in range(n)])


def subdivided_k33_graph() -> Complex:
    return Complex.from_facets(SUBDIVIDED_K33_EDGES)


def torus_7() -> Complex:
    """The unique 7-vertex triangulation of the torus (neighbourly, orientable)."""
    facets = [tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))) for i in range(7)]
    facets += [tuple(sorted((i, (i + 2) % 7, (i + 3) % 7))) for i in range(7)]
    return Complex.from_facets(facets)


def suspension(x: Complex) -> Complex:
    """Join with two fresh apex vertices; sends a d-sphere to a (d+1)-sphere."""
    a = max(x.vertex_set) + 1
    b = a + 1
    facets = [f + (a,) for f in x.facets] + [f + (b,) for f in x.facets]
    return Complex.from_facets(facets)


def builtin(name: str) -> Complex:
    """Resolve a ``builtin:<name>`` complex reference used by the CLI."""
    if name == "boundary-delta3":
        return boundary_simplex(3)
    if name == "boundary-delta4":
        return boundary_simplex(4)
    if name == "icosahedron":
        return icosahedron()
    if name == "rp2-6":
        return projective_plane_6()
    if name == "moebius-5":
        return moebius_band_5()
    if name.startswith("cycle:"):
        return cycle_complex(_int_arg(name, name[len("cycle:"):]))
    if name.startswith("complete:"):
        return complete_graph(_int_arg(name, name[len("complete:"):]))
    if name.startswith("complete-bipartite:"):
        arg = name[len("complete-bipartite:"):]
        parts = arg.split(",")
        if len(parts) != 2:
            raise MalformedComplexError(f"expected complete-bipartite:<m>,<n>, got {name!r}")
        return complete_bipartite(_int_arg(name, parts[0]), _int_arg(name, parts[1]))
    raise MalformedComplexError(f"unknown builtin complex {name!r}")


def _int_arg(name: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise MalformedComplexError(f"bad numeric argument in builtin {name!r}") from None
