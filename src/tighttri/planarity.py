"""Planarity filter and Kuratowski-subdivision witnesses for small graphs.

The filter embeds the graph in the plane by Demoucron-Malgrange-Pertuiset
(DMP): it grows an embedded subgraph from one edge by routing one fragment
path into an admissible face at a time, and a completed embedding certifies
planarity.  A fragment attached at fewer than two vertices, a piece glued on
at a cut vertex or another component, is tested on its own, which stands in
for a block decomposition.  ``find_kuratowski_subdivision`` gets its witness
from the same filter: it deletes vertices, then edges, while the graph stays
non-planar, and reads the K5 or K33 subdivision off what is left.  That is
at most n + m + 1 filter calls, each polynomial; the entry point is capped at
60 vertices because it exists to mechanize small link graphs, not to be a
production planarity test.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .complexes import Complex, InternalInconsistencyError, PreconditionError

KURATOWSKI_VERTEX_CAP = 60


@dataclass(frozen=True)
class KuratowskiWitness:
    """A subdivided complete (bipartite) graph found inside a graph.

    ``branch_vertices`` is a 5-tuple for K5 and a pair of 3-tuples for K33;
    ``paths`` are internally-disjoint vertex paths joining each required
    branch pair, endpoints included.
    """

    pattern: str  # "K5" or "K33"
    branch_vertices: tuple
    paths: Tuple[tuple, ...]


def find_kuratowski_subdivision(g: Complex) -> Optional[KuratowskiWitness]:
    """A K5 or K33 subdivision in the 1-skeleton, or None if the graph is planar.

    The witness is what deletion leaves.  A graph whose branch vertices and
    chains already form one is read directly (see ``_read_subdivision``).
    Otherwise each vertex in descending label order, then each edge in
    descending (larger, smaller endpoint) order, is deleted whenever the
    graph stays non-planar.  The remainder is edge-minimal non-planar, so by
    Kuratowski's theorem it is a subdivision of K5 or K33.  That takes at
    most n + m + 1 filter calls.
    """
    if g.num_vertices > KURATOWSKI_VERTEX_CAP:
        raise PreconditionError(
            f"Kuratowski search is capped at {KURATOWSKI_VERTEX_CAP} vertices")
    adj = {v: set(ns) for v, ns in g._adjacency.items()}
    witness = _read_subdivision(adj)
    if witness is not None:
        return witness
    if _is_planar(adj):
        return None
    for v in sorted(adj, reverse=True):
        nbrs = adj.pop(v)
        for w in nbrs:
            adj[w].discard(v)
        if _is_planar(adj):
            adj[v] = nbrs
            for w in nbrs:
                adj[w].add(v)
    for b, a in sorted(((b, a) for b in adj for a in adj[b] if a < b), reverse=True):
        adj[a].discard(b)
        adj[b].discard(a)
        if _is_planar(adj):
            adj[a].add(b)
            adj[b].add(a)
    witness = _read_subdivision(adj)
    if witness is None:
        raise InternalInconsistencyError("internal inconsistency: graph judged non-planar "
                                         "but no Kuratowski subdivision found")
    return witness


# -- planar embedding (DMP) -------------------------------------------------

def _is_planar(adj: Dict[int, Set[int]]) -> bool:
    """Whether the graph embeds in the plane, by one DMP loop.

    A graph on at most 4 vertices or with no edge is planar, and one with
    more than 3n - 6 edges is not.  H starts as the edge from the least
    vertex with a neighbour to its least neighbour, one face ``[a, b]`` that
    the first routed path splits into the two faces of a cycle.  A fragment
    of G against H attached at fewer than two vertices meets the rest of G
    at one cut vertex or nowhere, so G is planar iff that piece and the rest
    both are: the piece is tested on its own and its inner vertices dropped.
    The other fragments lie in the block of G that holds H, where DMP
    decides: a fragment whose attachments lie on no face of H means G is not
    planar; otherwise a path through a fragment with the fewest admissible
    faces splits the first of them.
    """
    n, degrees = len(adj), sum(map(len, adj.values()))
    if n <= 4 or degrees == 0:
        return True
    if degrees > 2 * (3 * n - 6):
        return False
    a = min(v for v in adj if adj[v])
    b = min(adj[a])
    faces: List[List[int]] = [[a, b]]
    h_vertices: Set[int] = {a, b}
    h_edges: Set[FrozenSet[int]] = {frozenset((a, b))}
    while True:
        fragments = []
        for attachments, inner in _fragments(adj, h_vertices, h_edges):
            if len(attachments) >= 2:
                fragments.append((attachments, inner))
                continue
            piece = inner | attachments
            if not _is_planar({v: adj[v] & piece for v in piece}):
                return False
            adj = {v: ns - inner for v, ns in adj.items() if v not in inner}
        if not fragments:
            return True
        best = None
        for attachments, inner in fragments:
            admissible = [i for i, f in enumerate(faces) if attachments <= set(f)]
            if not admissible:
                return False
            if best is None or len(admissible) < len(best[2]):
                best = (attachments, inner, admissible)
            if len(admissible) == 1:
                break
        attachments, inner, admissible = best
        path = _fragment_path(adj, attachments, inner)
        face = faces.pop(admissible[0])
        a, b = path[0], path[-1]
        i, j = face.index(a), face.index(b)
        if i <= j:
            seg1 = face[i:j + 1]
            seg2 = face[j:] + face[:i + 1]
        else:
            seg1 = face[i:] + face[:j + 1]
            seg2 = face[j:i + 1]
        interior = path[1:-1]
        faces.append(seg1 + list(reversed(interior)))
        faces.append(seg2 + list(interior))
        h_vertices.update(path)
        for t in range(len(path) - 1):
            h_edges.add(frozenset((path[t], path[t + 1])))


def _fragments(adj, h_vertices: Set[int], h_edges: Set[FrozenSet[int]]):
    """Bridges of the embedded subgraph: chords, and components of G - H with
    their attachment vertices.  Returned as (attachments, inner_vertices)."""
    out = []
    for v in sorted(h_vertices):
        for w in sorted(adj[v]):
            if w in h_vertices and v < w and frozenset((v, w)) not in h_edges:
                out.append((frozenset((v, w)), frozenset()))
    seen: Set[int] = set()
    for v in sorted(adj):
        if v in h_vertices or v in seen:
            continue
        comp = {v}
        queue = [v]
        attach: Set[int] = set()
        while queue:
            u = queue.pop()
            for w in adj[u]:
                if w in h_vertices:
                    attach.add(w)
                elif w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        out.append((frozenset(attach), frozenset(comp)))
    return out


def _fragment_path(adj, attachments: FrozenSet[int], inner: FrozenSet[int]) -> List[int]:
    """A path between two attachment vertices through the fragment."""
    attach = sorted(attachments)
    if not inner:
        return attach[:2]
    start = attach[0]
    others = set(attach[1:])
    parent: Dict[int, Optional[int]] = {}
    queue = [w for w in sorted(adj[start]) if w in inner]
    for w in queue:
        parent[w] = None
    qi = 0
    while qi < len(queue):
        u = queue[qi]
        qi += 1
        for w in sorted(adj[u]):
            if w in others:
                path = [w, u]
                p = parent[u]
                while p is not None:
                    path.append(p)
                    p = parent[p]
                path.append(start)
                return list(reversed(path))
            if w in inner and w not in parent:
                parent[w] = u
                queue.append(w)
    raise InternalInconsistencyError("fragment with fewer than two reachable attachments")


# -- witness readout ---------------------------------------------------------

def _read_subdivision(adj: Dict[int, Set[int]]) -> Optional[KuratowskiWitness]:
    """The K5 or K33 subdivision formed by the graph's branch vertices, or None.

    Branch vertices are those of degree at least 3, and a path follows a
    chain of degree-2 vertices out of one.  They form a subdivision when
    every chain ends at a branch vertex and the chains join exactly the
    pairs of K5 or K33, with three branch vertices on each side of K33; a
    chain back to its start, a second chain between one pair and a
    component without a branch vertex are left out of it.
    """
    branch = sorted(v for v in adj if len(adj[v]) >= 3)
    if len(branch) not in (5, 6):
        return None
    paths: Dict[Tuple[int, int], tuple] = {}
    for a in branch:
        for w in adj[a]:
            path, prev = [a], a
            while len(adj[w]) == 2:
                path.append(w)
                prev, w = w, next(u for u in adj[w] if u != prev)
            if len(adj[w]) < 3:
                return None
            if a < w:
                paths[(a, w)] = tuple(path) + (w,)
    if len(branch) == 5:
        if len(paths) != 10:
            return None
        return KuratowskiWitness("K5", tuple(branch),
                                 tuple(paths[pair] for pair in itertools.combinations(branch, 2)))
    least = branch[0]
    part1 = tuple(sorted([least] + [v for v in branch[1:] if (least, v) not in paths]))
    part2 = tuple(v for v in branch if v not in part1)
    pairs = [(a, b) for a in part1 for b in part2]
    if len(part1) != 3 or set(paths) != {(min(p), max(p)) for p in pairs}:
        return None
    return KuratowskiWitness("K33", (part1, part2),
                             tuple(paths[(a, b)] if a < b else paths[(b, a)][::-1]
                                   for a, b in pairs))
