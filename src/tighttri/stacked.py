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

import functools
import heapq
import operator
from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from .complexes import (Complex, PreconditionError, UnsupportedDimensionError, Verdict,
                        _require_closed_manifold, bit_positions, component_masks,
                        verify_closed_manifold)


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


def _subdivide(facets: List[tuple], target: tuple, w: int) -> None:
    """Stellar subdivision: replace the facet ``target`` of the sorted list
    ``facets`` by the cone from the new vertex ``w`` over its boundary,
    keeping the list sorted by bisection.  ``w`` must exceed every label in
    use, so each new facet comes out sorted."""
    del facets[bisect_left(facets, target)]
    for i in range(len(target)):
        insort(facets, target[:i] + target[i + 1:] + (w,))


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
    _require_closed_manifold(s, d, f"not a closed {d}-manifold")
    if not s.is_connected():
        return Verdict(False, detail="disconnected, hence not a sphere")
    nbrs = {v: set(s.neighbors(v)) for v in s.vertices}
    # a heap of the vertices of degree d+1, keyed by label, and sorted to
    # begin with; degrees only fall, so a vertex enters it once, when its
    # degree reaches d+1, and an entry is stale once the vertex is removed
    # or its degree falls below
    ready = [v for v, around in nbrs.items() if len(around) == d + 1]
    removals: List[int] = []
    while len(nbrs) > d + 2:
        while ready and len(nbrs.get(ready[0], ())) != d + 1:
            heapq.heappop(ready)
        if not ready:
            return Verdict(False, witness=tuple(removals),
                           detail=f"no reverse-subdivision vertex at f0={len(nbrs)}")
        v = heapq.heappop(ready)
        removals.append(v)
        for u in nbrs.pop(v):
            around = nbrs[u]
            around.discard(v)
            if len(around) == d + 1:
                heapq.heappush(ready, u)
    return Verdict(True, witness=tuple(removals))


def induced_cycles(g: Complex, max_len: int) -> List[CycleWitness]:
    """All chordless cycles of length <= max_len in a graph, once each, in
    (length, vertices) order."""
    if g.dim > 1:
        raise PreconditionError("induced_cycles expects a graph (dimension <= 1)")
    if max_len < 3:
        raise PreconditionError(f"a cycle has at least 3 vertices, so max_len {max_len} < 3 is meaningless")
    found = [_witness(g, cyc) for cyc in
             _chordless_cycles(g._neighbour_masks, (1 << g.num_vertices) - 1, 3, max_len)]
    return sorted(found, key=lambda c: (c.length, c.vertices))


def _chordless_cycles(nbr: Sequence[int], within: int, lo: int, hi: int) -> Iterator[tuple]:
    """Chordless cycles with lo to hi vertices in the graph on the vertex
    positions set in ``within``, whose neighbour masks are ``nbr``, once
    each: from the least position toward the smaller of its two cycle
    neighbours.  A path grows only through ``free`` positions, above its
    start, off the path and not adjacent to its interior, so it stays
    chordless; a step to a neighbour of the start closes it and goes no
    further, as a longer path would have a chord to the start.  The search
    is depth-first in ascending order, so cycles of one length come out in
    lexicographic order.  It keeps its own stack of path steps, so a long
    cycle needs no deep recursion."""
    for start in bit_positions(within):
        above = within >> start + 1 << start + 1
        ring = nbr[start] & above
        for first in bit_positions(ring):
            path = [start, first]
            free = above & ~(1 << first)
            steps = [(bit_positions(nbr[first] & free), free & ~nbr[first])]
            while steps:
                nexts, free = steps[-1]
                u = next(nexts, None)
                if u is None:
                    steps.pop()
                    path.pop()
                elif ring >> u & 1:
                    if len(path) >= lo - 1 and path[1] < u:
                        yield (*path, u)
                elif len(path) < hi - 1:
                    path.append(u)
                    steps.append((bit_positions(nbr[u] & free), free & ~nbr[u]))


def _witness(g: Complex, cyc: tuple) -> CycleWitness:
    vs = tuple(g.vertices[i] for i in cyc)
    return CycleWitness(vs, len(vs), len(vs) % 3)


def mod3_obstruction(s: Complex) -> Verdict:
    """No chordless cycle of length = 1 (mod 3) in the 1-skeleton.

    Vertex links of tight complexes satisfy this, so a violation rules out
    appearing as such a link; the witness is the first violating cycle in
    (length, vertices) order.  On a 2-sphere only the prime pieces that are
    neither T nor I are searched, as one graph: it is induced from the
    sphere's, so its chordless cycles are the sphere's inside it, and those
    of length = 1 (mod 3) are the pieces' (see :func:`decompose_ti`).
    """
    within = (1 << s.num_vertices) - 1
    if s.dim == 2 and s.is_connected() and verify_closed_manifold(s).ok \
            and s.f_vector[0] - s.f_vector[1] + s.f_vector[2] == 2:
        within = functools.reduce(operator.or_, _prime_pieces(s)[2], 0)
    cyc = _mod3_witness(s, within)
    if cyc is None:
        return Verdict(True)
    return Verdict(False, witness=cyc, detail=f"chordless {cyc.length}-cycle with length = 1 (mod 3)")


def _mod3_witness(s: Complex, within: int) -> Optional[CycleWitness]:
    """The least chordless cycle of length = 1 (mod 3) in (length, vertices)
    order in the graph of ``s`` on the positions in ``within``: the first
    found at the least of the lengths 4, 7, 10, ... that has one."""
    for length in range(4, within.bit_count() + 1, 3):
        cyc = next(_chordless_cycles(s._neighbour_masks, within, length, length), None)
        if cyc is not None:
            return _witness(s, cyc)
    return None


def is_locally_stacked(m: Complex) -> Verdict:
    """Every vertex link is a stacked 2-sphere; witness is the first offender."""
    _require_closed_manifold(m, 3, "not a closed 3-manifold")
    for v in m.vertices:
        if not is_stacked_sphere(m.link(v), 2).ok:
            return Verdict(False, witness=v, detail=f"link of vertex {v} is not stacked")
    return Verdict(True)


# -- summand decomposition ----------------------------------------------------

def _prime_pieces(s: Complex) -> Tuple[Counter, List[tuple], List[int]]:
    """Cut the 2-sphere ``s`` into prime pieces, as masks over its vertex
    positions: the counts of T and I pieces, the cuts, and the other
    pieces in cutting order.

    A piece is cut at its lexicographically first empty triangle, into the
    two interiors the triangle bounds, ordered by least vertex, each with
    the triangle.  A piece's graph is induced from the sphere's, and its
    triangles are the sphere's in it and the triangles cut at, which lie in
    no other pieces; so its empty triangles are the sphere's in it that are
    not cut at yet.
    """
    verts, nbr, pos = s.vertices, s._neighbour_masks, s._vertex_position
    empty = {(a, b, c): 1 << pos[a] | 1 << pos[b] | 1 << pos[c]
             for a, b in s.faces(1) for c in sorted(s.neighbors(a) & s.neighbors(b))
             if c > b and not s.has_face((a, b, c))}
    counts, cuts, others = Counter(), [], []
    stack = [(1 << len(verts)) - 1]
    while stack:
        piece = stack.pop()
        tri = next((t for t, m in empty.items() if m & piece == m), None)
        if tri is None:
            if piece.bit_count() == 4:
                counts["T"] += 1
            elif all((nbr[i] & piece).bit_count() == 5 for i in bit_positions(piece)):
                counts["I"] += 1
            else:
                others.append(piece)
            continue
        m = empty.pop(tri)
        interiors = component_masks(s, piece & ~m)
        if len(interiors) != 2:
            raise HypothesisViolationError(
                f"empty triangle {tri} does not separate the sphere into two sides",
                witness=tri)
        left, right = (c | m for c in interiors)
        cuts.append((tri, tuple(tuple(verts[i] for i in bit_positions(side)) for side in (left, right))))
        stack += [right, left]
    return counts, cuts, others


def decompose_ti(s: Complex) -> SummandList:
    """Decompose a 2-sphere into tetrahedron/icosahedron boundary summands.

    The cuts are those of :func:`_prime_pieces`.  A chordless cycle of
    length >= 4 cannot cross an empty triangle (two triangle vertices on it
    would form a chord), and each piece's graph is induced from the
    sphere's, so the sphere's chordless cycles of length = 1 (mod 3) are
    exactly those of its prime pieces; T and I have none.  Only pieces that
    are neither are searched: the least such cycle in (length, vertices)
    order raises, and otherwise the first unrecognised piece does, since
    the decomposition theorem rules both out for admissible input.

    Each piece is a 2-sphere, recognised by counting.  It is T exactly when
    it has 4 vertices (by Euler's formula it has 4 triangles, all triples),
    and I exactly when every degree is 5: then 5 f0 = 2 f1 = 3 f2, so
    f0 / 6 = 2 and f0 = 12, and the icosahedron boundary is the only
    2-sphere with every degree 5 (around any vertex the degrees force a
    pentagon, a second pentagon and an antipode).
    """
    _require_closed_manifold(s, 2, "not a triangulated 2-sphere", connected=True)
    f = s.f_vector
    if f[0] - f[1] + f[2] != 2:
        raise PreconditionError("not a 2-sphere: Euler characteristic differs from 2")
    counts, cuts, others = _prime_pieces(s)
    witness = _mod3_witness(s, functools.reduce(operator.or_, others, 0))
    if witness is not None:
        raise HypothesisViolationError(
            f"sphere has a chordless cycle of length = 1 (mod 3): {witness.vertices}",
            witness=witness)
    if others:
        n = others[0].bit_count()  # a 2-sphere on n vertices has f-vector (n, 3n - 6, 2n - 4)
        raise HypothesisViolationError(
            f"prime summand with f-vector {(n, 3 * n - 6, 2 * n - 4)} is neither "
            "the tetrahedron nor the icosahedron boundary")
    return SummandList(counts["T"], counts["I"], tuple(cuts))
