"""Stacked-sphere recognition, tetrahedron/icosahedron summand decomposition
and chordless-cycle machinery.

Stacked spheres are recognised by greedy reverse subdivisions: a d-sphere on
more than d+2 vertices is stacked iff some vertex link is the boundary of a
d-simplex and removing that vertex's star (replacing it with the single
facet over its link) leaves a stacked sphere.  Any eligible vertex works, so
the greedy lowest-label choice is complete; the removal sequence doubles as
a certificate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .complexes import (Complex, PreconditionError, UnsupportedDimensionError,
                        Verdict, verify_closed_manifold)


class HypothesisViolationError(ValueError):
    """Input violates the hypothesis the decomposition relies on (or a prime
    summand is neither the tetrahedron nor the icosahedron boundary)."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class CycleWitness:
    """A chordless cycle: consecutive pairs are edges, all other pairs are not."""

    vertices: tuple
    length: int
    residue: int  # length mod 3


@dataclass(frozen=True)
class SummandList:
    """Connected-sum decomposition of a 2-sphere into T and I summands.

    ``cuts`` records, per cut, the empty triangle and the two side vertex
    sets (both including the triangle), in the order the cuts were made.
    """

    tetrahedra: int
    icosahedra: int
    cuts: tuple

    def as_dict(self) -> dict:
        return {"T": self.tetrahedra, "I": self.icosahedra}


def _subdivide(facets: Set[tuple], target: tuple, w: int) -> None:
    """Stellar subdivision: replace the facet ``target`` by the cone from
    the new vertex ``w`` over its boundary.  ``w`` must exceed every label
    in use, so each new facet comes out sorted."""
    facets.remove(target)
    facets.update([target[:i] + target[i + 1:] + (w,) for i in range(len(target))])


def is_stacked_sphere(s: Complex, d: int) -> Verdict:
    """Greedy reverse-subdivision test; witness is the vertex-removal sequence.

    The removals run on neighbour sets alone; no complex is built.  Each is
    a bistellar move on a closed d-manifold (d <= 3): a vertex v with d+1
    neighbours has a (d-1)-sphere on them as its link, the boundary of
    their d-simplex, and the move replaces v's d+1 star facets by that
    simplex.  Only v leaves the neighbour sets.  The simplex is never
    already a face while more than d+2 vertices remain: it would be a
    facet, since a d-face of a pure d-complex is one, and with v's star it
    would make up the boundary of the (d+1)-simplex, every ridge of which
    lies in two of its facets; a connected closed manifold is connected
    across its ridges, so nothing else would remain.  So the lowest vertex
    of degree d+1 is removed.  The loop ends at a closed d-manifold on d+2
    vertices, the boundary of the (d+1)-simplex: the facet missing a vertex
    a shares its ridge without b with one other facet, which can only miss
    b.
    """
    if d not in (2, 3):
        raise UnsupportedDimensionError("stacked-sphere recognition supports d in {2, 3}")
    man = verify_closed_manifold(s)
    if not man.ok or s.dim != d:
        raise PreconditionError(f"not a closed {d}-manifold: {man.detail or 'wrong dimension'}")
    if not s.is_connected():
        return Verdict(False, detail="disconnected, hence not a sphere")
    # in ascending vertex order, which removals keep
    nbrs = {v: set(s.neighbors(v)) for v in s.vertices}
    removals: List[int] = []
    while len(nbrs) > d + 2:
        v = next((v for v, around in nbrs.items() if len(around) == d + 1), None)
        if v is None:
            return Verdict(False, witness=tuple(removals),
                           detail=f"no reverse-subdivision vertex at f0={len(nbrs)}")
        removals.append(v)
        for u in nbrs.pop(v):
            nbrs[u].discard(v)
    return Verdict(True, witness=tuple(removals))


def induced_cycles(g: Complex, max_len: int) -> List[CycleWitness]:
    """All chordless cycles of length <= max_len in a graph, once each.

    Canonical form: start at the least vertex of the cycle and run toward
    the smaller of its two cycle neighbours.  Depth-first extension prunes
    any path whose tip is adjacent to an interior vertex.
    """
    if g.dim > 1:
        raise PreconditionError("induced_cycles expects a graph (dimension <= 1)")
    if max_len < 3:
        raise PreconditionError(f"a cycle has at least 3 vertices, so max_len {max_len} < 3 is meaningless")
    adj: Dict[int, Set[int]] = {v: set(g.neighbors(v)) for v in g.vertices}
    found: List[CycleWitness] = []
    for s in g.vertices:
        higher = sorted(w for w in adj[s] if w > s)
        for v1 in higher:
            _extend_chordless(adj, s, [s, v1], {s, v1}, max_len, found)
    found.sort(key=lambda c: (c.length, c.vertices))
    return found


def _extend_chordless(adj, s: int, path: List[int], on_path: Set[int],
                      max_len: int, found: List[CycleWitness]) -> None:
    tip = path[-1]
    interior = path[1:-1]
    for u in sorted(adj[tip]):
        if u <= s or u in on_path:
            continue
        if any(u in adj[w] for w in interior):
            continue  # chord to the path interior
        if u in adj[s]:
            if len(path) >= 2 and path[1] < u:
                cyc = tuple(path) + (u,)
                found.append(CycleWitness(cyc, len(cyc), len(cyc) % 3))
            continue  # a longer cycle through u would have the chord {u, s}
        if len(path) + 1 < max_len:
            path.append(u)
            on_path.add(u)
            _extend_chordless(adj, s, path, on_path, max_len, found)
            path.pop()
            on_path.remove(u)


def mod3_obstruction(s: Complex) -> Verdict:
    """No chordless cycle of length = 1 (mod 3) in the 1-skeleton.

    Vertex links of tight complexes satisfy this, so a violation rules out
    appearing as such a link; the witness is the first violating cycle in
    (length, vertices) order.
    """
    g = s.one_skeleton()
    for cyc in induced_cycles(g, max_len=max(g.num_vertices, 3)):
        if cyc.residue == 1:
            return Verdict(False, witness=cyc,
                           detail=f"chordless {cyc.length}-cycle with length = 1 (mod 3)")
    return Verdict(True)


def _expected_moebius(cycle: Sequence[int]) -> Complex:
    tris = [tuple(sorted((cycle[i], cycle[(i + 2) % 5], cycle[(i + 3) % 5])))
            for i in range(5)]
    return Complex.from_facets(tris)


def verify_moebius(x: Complex, cycle: Sequence[int]) -> Verdict:
    """Does the 5-cycle bound the 5-vertex Moebius band inside ``x``?

    ``cycle`` must be five distinct vertices whose consecutive pairs are
    edges of ``x`` (chords in ``x`` are allowed; the band itself contains
    all ten edges).  True iff the induced subcomplex on the cycle's vertices
    is exactly the band whose triangles join each cycle vertex to the
    opposite cycle edge.
    """
    cyc = tuple(cycle)
    if len(cyc) != 5 or len(set(cyc)) != 5:
        raise PreconditionError("expected five distinct vertices")
    if not set(cyc) <= x.vertex_set:
        raise PreconditionError("cycle vertices must belong to the complex")
    for i in range(5):
        if not x.has_face((cyc[i], cyc[(i + 1) % 5])):
            raise PreconditionError(
                f"consecutive pair ({cyc[i]}, {cyc[(i + 1) % 5]}) is not an edge")
    induced = x.induced(cyc)
    expected = _expected_moebius(cyc)
    if induced == expected:
        return Verdict(True)
    return Verdict(False, witness=induced.f_vector,
                   detail="induced subcomplex is not the 5-vertex Moebius band")


def triangle_bound_check(x: Complex, cycle: Sequence[int]) -> Verdict:
    """Does a 3-cycle of the 1-skeleton bound an actual triangle of ``x``?"""
    cyc = tuple(cycle)
    if len(cyc) != 3 or len(set(cyc)) != 3:
        raise PreconditionError("expected three distinct vertices")
    for i in range(3):
        if not x.has_face(tuple(sorted((cyc[i], cyc[(i + 1) % 3])))):
            raise PreconditionError("the given vertices do not form a 3-cycle")
    face = tuple(sorted(cyc))
    if x.has_face(face):
        return Verdict(True)
    return Verdict(False, witness=face, detail="empty triangle")


def is_locally_stacked(m: Complex) -> Verdict:
    """Every vertex link is a stacked 2-sphere; witness is the first offender."""
    man = verify_closed_manifold(m)
    if not man.ok or m.dim != 3:
        raise PreconditionError(f"not a closed 3-manifold: {man.detail or 'wrong dimension'}")
    for v in m.vertices:
        if not is_stacked_sphere(m.link(v), 2).ok:
            return Verdict(False, witness=v, detail=f"link of vertex {v} is not stacked")
    return Verdict(True)


# -- summand decomposition ----------------------------------------------------

def _empty_triangle(s: Complex) -> Optional[tuple]:
    """Lexicographically first 3-clique of the skeleton that is not a face."""
    for a in s.vertices:
        na = s.neighbors(a)
        for b in sorted(na):
            if b <= a:
                continue
            for c in sorted(na & s.neighbors(b)):
                if c <= b:
                    continue
                if not s.has_face((a, b, c)):
                    return (a, b, c)
    return None


def _split_at_triangle(s: Complex, tri: tuple) -> Tuple[Complex, Complex]:
    """Cut a 2-sphere along an empty triangle into its two closed sides.

    Without the triangle's vertices the sphere falls into the interiors of
    the two disks the triangle bounds, ordered by least vertex; each side is
    the subcomplex induced on one interior and the triangle, plus the
    triangle as a facet.
    """
    interiors = s.induced(s.vertex_set - set(tri)).components()
    if len(interiors) != 2:
        raise HypothesisViolationError(
            f"empty triangle {tri} does not separate the sphere into two sides",
            witness=tri)
    left, right = (Complex._from_faces(s.induced(c | set(tri)).faces(2) + (tri,))
                   for c in interiors)
    return left, right


def decompose_ti(s: Complex) -> SummandList:
    """Decompose a 2-sphere into tetrahedron/icosahedron boundary summands.

    Cuts are made at the lexicographically first empty triangle until every
    piece is prime.  A chordless cycle of length >= 4 cannot cross an empty
    triangle (two triangle vertices on it would form a chord), and each
    piece's graph is induced from the sphere's, so the sphere's chordless
    cycles of length = 1 (mod 3) are exactly those of its prime pieces; T
    and I have none.  Only pieces that are neither are searched: the least
    such cycle in (length, vertices) order raises, and otherwise the first
    unrecognised piece does, since the decomposition theorem rules both out
    for admissible input.

    Each piece is a 2-sphere, recognised by counting.  It is T exactly when
    it has 4 vertices (by Euler's formula it has 4 triangles, all triples),
    and I exactly when every degree is 5: then 5 f0 = 2 f1 = 3 f2, so
    f0 / 6 = 2 and f0 = 12, and the icosahedron boundary is the only
    2-sphere with every degree 5 (around any vertex the degrees force a
    pentagon, a second pentagon and an antipode).
    """
    man = verify_closed_manifold(s)
    if not man.ok or s.dim != 2 or not s.is_connected():
        raise PreconditionError(f"not a triangulated 2-sphere: {man.detail or 'wrong dimension'}")
    f = s.f_vector
    if f[0] - f[1] + f[2] != 2:
        raise PreconditionError("not a 2-sphere: Euler characteristic differs from 2")
    counts: Counter = Counter()
    cuts: List[tuple] = []
    unrecognised: List[Complex] = []
    stack = [s]
    while stack:
        piece = stack.pop()
        tri = _empty_triangle(piece)
        if tri is None:
            if piece.num_vertices == 4:
                counts["T"] += 1
            elif all(len(piece.neighbors(v)) == 5 for v in piece.vertices):
                counts["I"] += 1
            else:
                unrecognised.append(piece)
            continue
        left, right = _split_at_triangle(piece, tri)
        cuts.append((tri, (tuple(sorted(left.vertex_set)), tuple(sorted(right.vertex_set)))))
        stack.append(right)
        stack.append(left)
    violations = [v.witness for v in map(mod3_obstruction, unrecognised) if not v.ok]
    if violations:
        witness = min(violations, key=lambda c: (c.length, c.vertices))
        raise HypothesisViolationError(
            f"sphere has a chordless cycle of length = 1 (mod 3): {witness.vertices}",
            witness=witness)
    if unrecognised:
        raise HypothesisViolationError(
            f"prime summand with f-vector {unrecognised[0].f_vector} is neither "
            "the tetrahedron nor the icosahedron boundary")
    return SummandList(counts["T"], counts["I"], tuple(cuts))
