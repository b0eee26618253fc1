"""Immutable abstract simplicial complexes: face queries, subcomplexes, manifold checks.

A complex is stored as the full downward closure of its facets, one sorted
tuple per face.  All values are immutable after construction, so derived
complexes are fresh objects and instances can be shared freely across
threads and used as cache keys.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Collection, Iterable, Iterator, Optional


class MalformedComplexError(ValueError):
    """Facet input that does not describe a simplicial complex."""


class UnknownVertexError(ValueError):
    """An operation referenced a vertex that is not in the complex."""


class UnsupportedDimensionError(ValueError):
    """The requested decision procedure does not cover this dimension."""


class PreconditionError(ValueError):
    """An operation was called on input outside its stated domain."""


class InternalInconsistencyError(RuntimeError):
    """An internal invariant failed: a bug in tighttri, never bad input.

    When the two tightness deciders disagree, ``brute`` and ``fast`` hold
    their reports; otherwise both are ``None``.
    """

    def __init__(self, message: str, brute=None, fast=None):
        super().__init__(message)
        self.brute = brute
        self.fast = fast


@dataclass(frozen=True)
class Verdict:
    """A boolean decision together with a machine-checkable witness.

    ``witness`` is ``None`` on success unless the operation documents a
    success certificate (e.g. a vertex-removal sequence).
    """

    ok: bool
    witness: Any = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


Face = tuple  # sorted tuple of non-negative integer vertex labels

# the closure of a facet on m vertices has 2^m - 1 faces
MAX_FACET_VERTICES = 16


def _as_face(vertices: Iterable[int]) -> Face:
    vs = list(vertices)
    if not vs:
        raise MalformedComplexError("faces must be nonempty")
    if len(vs) > MAX_FACET_VERTICES:
        raise MalformedComplexError(
            f"a facet has {len(vs)} vertices, more than the {MAX_FACET_VERTICES} supported")
    for v in vs:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise MalformedComplexError(f"vertex labels must be non-negative integers, got {v!r}")
    face = tuple(sorted(vs))
    if len(set(face)) != len(face):
        raise MalformedComplexError(f"facet {tuple(vs)!r} contains a duplicate vertex")
    return face


def _closure_by_size(faces: Collection[Face]) -> list:
    """The downward closure of the given faces: for each size 1, 2, ... up
    to the largest face, the set of faces on that many vertices."""
    # a face with fewer than ``size`` vertices has no such subsets
    return [set(itertools.chain.from_iterable(map(itertools.combinations, faces, itertools.repeat(size))))
            for size in range(1, max(map(len, faces), default=0) + 1)]


class Complex:
    """A finite abstract simplicial complex.

    Construct with :meth:`from_facets`; the other constructors on this class
    and in this module all preserve closure, so faces never need re-deriving.
    """

    def __init__(self, faces_by_dim: tuple, _closed: bool = False):
        if not _closed:
            raise TypeError("use Complex.from_facets() to build a complex")
        self._faces = faces_by_dim  # tuple (per dim) of sorted tuples of faces
        self._hash: Optional[int] = None

    @classmethod
    def from_facets(cls, facets: Iterable[Iterable[int]]) -> "Complex":
        """Downward closure of the given facets; non-maximal inputs are absorbed.

        Distinct input faces of one size are all maximal, so they are kept as
        :attr:`facets`; any other input leaves ``facets`` to be derived.  A
        facet on more than :data:`MAX_FACET_VERTICES` vertices is refused.
        """
        return cls._from_faces({_as_face(f) for f in facets})

    @classmethod
    def _from_faces(cls, faces: Iterable[Face]) -> "Complex":
        """:meth:`from_facets` on faces the package built itself, which are
        sorted tuples of distinct non-negative ints and are not re-validated."""
        given = set(faces)
        return cls._from_closure(_closure_by_size(given), pure=len({len(f) for f in given}) == 1)

    @classmethod
    def _from_closure(cls, by_size: Iterable[set], pure: bool) -> "Complex":
        """The complex whose faces on 1, 2, ... vertices are the given sets,
        which are closed downward; if it is ``pure``, its largest faces are
        kept as its :attr:`facets`."""
        out = cls(tuple(tuple(sorted(faces)) for faces in by_size), _closed=True)
        if pure:
            out.facets = out._faces[-1]
        return out

    def _record_closed_manifold(self) -> "Complex":
        """Record the verdict of :func:`verify_closed_manifold` on a complex
        that is a closed 2- or 3-manifold by construction, instead of
        checking it; the verdict equals the one the check returns."""
        self._closed_manifold_verdict = _CLOSED_MANIFOLD[self.dim]
        return self

    # -- basic queries ------------------------------------------------------

    @property
    def dim(self) -> int:
        """Maximum face dimension; -1 for the empty complex."""
        return len(self._faces) - 1

    def faces(self, k: int) -> tuple:
        """All k-dimensional faces, sorted lexicographically."""
        if 0 <= k <= self.dim:
            return self._faces[k]
        return ()

    @property
    def f_vector(self) -> tuple:
        return tuple(len(bucket) for bucket in self._faces)

    @property
    def num_vertices(self) -> int:
        return len(self._faces[0]) if self._faces else 0

    @cached_property
    def vertices(self) -> tuple:
        return tuple(f[0] for f in self.faces(0))

    @cached_property
    def vertex_set(self) -> frozenset:
        return frozenset(self.vertices)

    @cached_property
    def _face_set(self) -> frozenset:
        return frozenset(itertools.chain.from_iterable(self._faces))

    def has_face(self, face: Iterable[int]) -> bool:
        return tuple(sorted(face)) in self._face_set

    @cached_property
    def _adjacency(self) -> dict:
        adj: dict = {v: set() for v in self.vertices}
        for a, b in self.faces(1):
            adj[a].add(b)
            adj[b].add(a)
        return {v: frozenset(nb) for v, nb in adj.items()}

    def neighbors(self, v: int) -> frozenset:
        try:
            return self._adjacency[v]
        except KeyError:
            raise UnknownVertexError(f"vertex {v} is not in the complex") from None

    @cached_property
    def _vertex_position(self) -> dict:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def _neighbour_masks(self) -> tuple:
        """Per vertex position, a bitmask over the positions of its neighbours."""
        pos = self._vertex_position
        out = [0] * self.num_vertices
        for a, b in self.faces(1):
            out[pos[a]] |= 1 << pos[b]
            out[pos[b]] |= 1 << pos[a]
        return tuple(out)

    @cached_property
    def facets(self) -> tuple:
        """Inclusion-maximal faces, sorted by descending dimension then label."""
        subsumed: set = set()
        maximal = []
        for k in range(self.dim, -1, -1):
            for f in self.faces(k):
                if f not in subsumed:
                    maximal.append(f)
            for f in self.faces(k):
                if len(f) > 1:
                    for i in range(len(f)):
                        subsumed.add(f[:i] + f[i + 1:])
        return tuple(sorted(maximal, key=lambda f: (-len(f), f)))

    # -- subcomplex constructors --------------------------------------------

    def induced(self, subset: Iterable[int]) -> "Complex":
        """Induced subcomplex on a vertex subset (all faces inside the subset)."""
        sub = frozenset(subset)
        if not sub <= self.vertex_set:
            missing = sorted(sub - self.vertex_set)
            raise UnknownVertexError(f"vertices {missing} are not in the complex")
        buckets = (tuple(f for f in bucket if sub.issuperset(f)) for bucket in self._faces)
        return Complex(tuple(b for b in buckets if b), _closed=True)

    @cached_property
    def _links(self) -> dict:
        return vertex_links(self)

    def link(self, v: int) -> "Complex":
        """Faces disjoint from v whose union with v is again a face, read
        off :func:`vertex_links`, which runs once per complex."""
        try:
            return self._links[v]
        except KeyError:
            raise UnknownVertexError(f"vertex {v} is not in the complex") from None

    def one_skeleton(self) -> "Complex":
        """The underlying graph: faces of dimension at most one."""
        return Complex(self._faces[:2], _closed=True)

    # -- predicates ----------------------------------------------------------

    def is_neighbourly(self) -> bool:
        """True iff every pair of vertices forms an edge."""
        n = self.num_vertices
        f1 = len(self.faces(1))
        return f1 == n * (n - 1) // 2

    @cached_property
    def _components(self) -> tuple:
        verts = self.vertices
        return tuple(frozenset(v for i, v in enumerate(verts) if m >> i & 1)
                     for m in component_masks(self, (1 << len(verts)) - 1))

    def components(self) -> tuple:
        """Connected components as frozensets of vertices, ordered by least vertex."""
        return self._components

    def is_connected(self) -> bool:
        return len(self._components) <= 1

    @cached_property
    def _closed_manifold_verdict(self) -> "Verdict":
        return _check_closed_manifold(self)

    @cached_property
    def _face_masks(self) -> tuple:
        """:func:`_face_masks`, kept here for the chain data of every field."""
        return _face_masks(self)

    @cached_property
    def _windows(self) -> tuple:
        """Per degree, where its window of the masks in :attr:`_face_masks`
        starts, and the mask that cuts it out."""
        f = self.f_vector
        return tuple((off, (1 << fk) - 1) for off, fk in zip(itertools.accumulate(f, initial=0), f))

    @cached_property
    def _dual_tree(self) -> tuple:
        """:func:`_dual_tree`, kept here for the chain data of every field."""
        return _dual_tree(self)

    @cached_property
    def _collapse(self) -> tuple:
        """:func:`_collapse`, kept here for the chain data of every field."""
        return _collapse(self)

    @cached_property
    def _forest(self) -> list:
        """A :func:`_spanning_forest` of the edges :func:`_collapse` keeps."""
        return _spanning_forest(self, self._collapse[1])

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Complex) and self._faces == other._faces

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._faces)
        return self._hash

    def __repr__(self) -> str:
        return f"Complex(f_vector={self.f_vector})"


def bit_positions(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def component_masks(x: Complex, mask: int) -> list:
    """Components of the induced subcomplex on the vertex positions set in
    ``mask``, as masks ordered by their lowest set bit, the least vertex."""
    nbrs = x._neighbour_masks
    comps = []
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = nbrs[low.bit_length() - 1] & mask & ~comp
            comp |= new
            frontier |= new
        comps.append(comp)
        mask &= ~comp
    return comps


def connected_sum(x: Complex, y: Complex, facet_x: Iterable[int],
                  facet_y: Iterable[int], glue: dict) -> Complex:
    """Glue two d-manifold triangulations along a shared facet and delete it.

    ``glue`` maps the vertices of ``facet_y`` bijectively onto those of
    ``facet_x``.  The remaining vertices of ``y`` are relabelled with fresh
    labels above everything in use, so the inputs need not be disjoint.
    """
    fx = tuple(sorted(facet_x))
    fy = tuple(sorted(facet_y))
    d = x.dim
    if d != y.dim:
        raise PreconditionError(f"dimension mismatch: {x.dim} vs {y.dim}")
    if fx not in x.facets or len(fx) != d + 1:
        raise PreconditionError(f"{fx} is not a facet of the first complex")
    if fy not in y.facets or len(fy) != d + 1:
        raise PreconditionError(f"{fy} is not a facet of the second complex")
    if set(glue.keys()) != set(fy) or set(glue.values()) != set(fx):
        raise PreconditionError("gluing map is not a bijection from the second facet onto the first")
    fresh = max(x.vertex_set | y.vertex_set) + 1
    rename = dict(glue)
    for v in sorted(y.vertex_set - set(fy)):
        rename[v] = fresh
        fresh += 1
    new_facets = [f for f in x.facets if f != fx]
    for f in y.facets:
        if f == fy:
            continue
        new_facets.append(tuple(sorted(rename[u] for u in f)))
    out = Complex._from_faces(new_facets)
    if out.num_vertices != x.num_vertices + y.num_vertices - (d + 1):
        raise InternalInconsistencyError(
            f"connected sum has {out.num_vertices} vertices, expected "
            f"{x.num_vertices} + {y.num_vertices} - {d + 1}")
    return out


def vertex_links(x: Complex) -> dict:
    """The link of every vertex, from one pass over the faces.

    A face with m vertices adds one (m-1)-vertex face to the link of each of
    its vertices: removing a vertex common to two sorted faces keeps their
    lexicographic order, so every link bucket comes out sorted.
    """
    by_vertex = {v: [[] for _ in range(x.dim)] for v in x.vertices}
    for k in range(1, x.dim + 1):
        for f in x.faces(k):
            # combinations(f, k) drops the vertices of f from the last to the first
            for v, rest in zip(reversed(f), itertools.combinations(f, k)):
                by_vertex[v][k - 1].append(rest)
    return {v: Complex(tuple(tuple(b) for b in buckets if b), _closed=True)
            for v, buckets in by_vertex.items()}


def _opposite_edges(s: Complex) -> dict:
    """For each vertex, the edge opposite it in each triangle containing it:
    the edges of its link, when ``s`` is pure of dimension 2."""
    opposite: dict = {v: [] for v in s.vertices}
    for a, b, c in s.faces(2):
        opposite[a].append((b, c))
        opposite[b].append((a, c))
        opposite[c].append((a, b))
    return opposite


def _walks_one_cycle(edges: list) -> bool:
    """Whether these edges of a simple graph form a single cycle through all
    their endpoints: every endpoint lies on exactly two edges, and the walk
    from one endpoint visits all before it returns."""
    nbrs: dict = {}
    for a, b in edges:
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)
    for n in nbrs.values():
        if len(n) != 2:
            return False
    start = edges[0][0]
    prev, cur, steps = start, nbrs[start][0], 1
    while cur != start:
        a, b = nbrs[cur]
        prev, cur = cur, (b if a == prev else a)
        steps += 1
    return steps == len(nbrs)


def verify_closed_manifold(x: Complex) -> Verdict:
    """Decide whether the complex triangulates a closed manifold (dimension <= 3).

    After a purity check on the facets, dimension 1 needs every vertex on
    exactly two edges.  Dimension 2 collects, in one pass over the
    triangles, the edges opposite each vertex, and needs them to form a
    single cycle through the vertex's neighbours.  Dimension 3 needs every
    vertex link to pass the combinatorial 2-sphere test: connected, each
    link edge in two link triangles, each link inside the link a single
    cycle, Euler characteristic 2.  It builds no link: one pass over the
    tetrahedra records the link of every edge, which is the link of a
    vertex inside a vertex link, and the tetrahedra on each triangle; each
    edge link is walked once.  The witness on failure is the offending
    vertex or facet.  The verdict is kept on the complex, which is
    immutable, so checking the same object again costs nothing.  The
    package's own constructors of closed manifolds (``stacked_sphere``, the
    search's spheres and ``handle_addition``) record the verdict instead of
    checking it.
    """
    return x._closed_manifold_verdict


def _closed_surface_or_3_manifold(x: Complex) -> bool:
    """Whether ``x`` is a closed 2- or 3-manifold."""
    return x.dim in (2, 3) and verify_closed_manifold(x).ok


def _require_closed_manifold(x: Complex, d: int, prefix: str, *, connected: bool = False) -> None:
    """Raise ``PreconditionError(f"{prefix}: {reason}")`` unless ``x`` is a
    closed d-manifold, connected if asked.  The reason is the first that
    applies of ``dimension k``, the manifold verdict's detail and
    ``disconnected``; the dimension comes first, so a complex of dimension
    above 3 never reaches the manifold check's dimension cap."""
    if x.dim != d:
        reason = f"dimension {x.dim}"
    elif not (man := verify_closed_manifold(x)).ok:
        reason = man.detail
    elif connected and not x.is_connected():
        reason = "disconnected"
    else:
        return
    raise PreconditionError(f"{prefix}: {reason}")


def _face_masks(x: Complex) -> tuple:
    """Per vertex position, the mask of the faces through that vertex in
    every degree at once: the k-faces take the bits from
    ``f_0 + ... + f_{k-1}`` on, and bit j of that window is set iff the
    j-th k-face contains the vertex."""
    pos = x._vertex_position
    masks = [0] * x.num_vertices
    bit = 1
    for k in range(x.dim + 1):
        for f in x.faces(k):
            for v in f:
                masks[pos[v]] |= bit
            bit <<= 1
    return tuple(masks)


def _dual_tree(x: Complex) -> tuple:
    """``(ridges, crossed, oriented)`` for the closed 2- or 3-manifold
    ``x``, by one flood over its facets from the least facet of each
    component: its ridges, ``crossed[r]`` set iff the flood first reached a
    facet through ``ridges[r]``, and the number of components whose facets
    can be oriented coherently, beta_dim over a field of characteristic
    other than 2.

    Every ridge of a closed manifold lies in exactly two facets, and each
    component is strongly connected, that is connected across its ridges:
    two facets through a vertex v are, since the link of v (a cycle, or a
    2-sphere, itself strongly connected by the same argument) is, and a
    path of edges joins any two vertices of the component.  So the crossed
    ridges form a spanning tree of the dual graph in each component.  There
    are no (dim+1)-faces, so H_dim = Z_dim.  A top cycle c on a component
    must have c(s) [s:r] + c(t) [t:r] = 0 on the two facets s, t of each
    ridge r, where [s:r] = (-1)**i when r is s without its i-th vertex: so
    c(t) = -[s:r][t:r] c(s), and one coefficient fixes all of them.  Over
    GF(2) the signs vanish and the constant chain is a cycle: one dimension
    per component.  Otherwise c exists, up to scale, iff the signs ±1
    carried along the ridges never contradict themselves, which is a
    coherent orientation; a contradiction forces c(s) = -c(s), and char !=
    2 makes that c = 0.
    """
    d = x.dim
    facets = x.faces(d)
    across: list = [[] for _ in facets]  # facet -> [(neighbour, sign flip, ridge index)]
    first: dict = {}                     # ridge -> 2 * (its first facet) + parity of the position dropped
    ridges = []
    # combinations drop the vertices of a face from the last to the first
    drops = range(d, -1, -1)
    for s, face in enumerate(facets):
        for i, ridge in zip(drops, itertools.combinations(face, d)):
            mine = 2 * s + (i & 1)
            t = first.setdefault(ridge, mine)
            if t == mine:
                continue
            # c(s) = -(-1)**(i + j) c(t): the sign flips iff i and j, whose
            # parity is t's low bit, have one parity
            flip = (i ^ t ^ 1) & 1
            r = len(ridges)
            ridges.append(ridge)
            across[s].append((t >> 1, flip, r))
            across[t >> 1].append((s, flip, r))
    sign = [-1] * len(facets)
    crossed = bytearray(len(ridges))
    oriented = 0
    for start in range(len(facets)):
        if sign[start] >= 0:
            continue
        sign[start] = 0
        stack = [start]
        coherent = True
        while stack:
            s = stack.pop()
            for t, flip, r in across[s]:
                if sign[t] < 0:
                    sign[t] = sign[s] ^ flip
                    crossed[r] = 1
                    stack.append(t)
                elif sign[t] != sign[s] ^ flip:
                    coherent = False
        oriented += coherent
    return ridges, crossed, oriented


def _collapse(x: Complex) -> tuple:
    """``(pairs, kept, triangles)``: a collapse of the closed 3-manifold X,
    with one open 3-cell per component removed, onto a 2-complex K.
    Removing an open 3-cell leaves H_1 and H^1 unchanged, and a collapse
    keeps the homotopy type, so K has X's H_1, H^1 and components.

    Each tetrahedron but the first of its component collapses through the
    triangle :func:`_dual_tree` reached it by.  Then each edge that lies in
    exactly one remaining triangle collapses through it, as long as there
    is one; ``pairs`` holds these (edge, triangle) pairs in collapse order,
    the triangle as the indices of its edges (b, c), (a, c), (a, b), which
    carry the signs +, -, +.  ``kept`` holds K's edges in ascending order,
    and ``triangles`` K's triangles like the pairs'.  On any other complex K
    is X, and ``triangles`` is None.
    """
    f1 = len(x.faces(1))
    if x.dim != 3 or not verify_closed_manifold(x).ok:
        return (), range(f1), None
    ridges, tree, _ = x._dual_tree
    col = dict(zip(x.faces(1), range(f1)))
    tris = [(col[b, c], col[a, c], col[a, b])
            for (a, b, c), crossed in zip(ridges, tree) if not crossed]
    count = [0] * f1  # remaining triangles on each edge
    last = [0] * f1   # the XOR of their indices: the triangle itself once count is 1
    for t, (e0, e1, e2) in enumerate(tris):
        count[e0] += 1
        count[e1] += 1
        count[e2] += 1
        last[e0] ^= t
        last[e1] ^= t
        last[e2] ^= t
    pairs = []
    gone = bytearray(len(tris))
    free = [e for e in range(f1) if count[e] == 1]
    while free:
        e = free.pop()
        if count[e] != 1:
            continue
        t = last[e]
        gone[t] = 1
        pairs.append((e, tris[t]))
        for g in tris[t]:
            count[g] -= 1
            last[g] ^= t
            if count[g] == 1:
                free.append(g)
    collapsed = bytearray(f1)
    for e, _ in pairs:
        collapsed[e] = 1
    kept = [e for e in range(f1) if not collapsed[e]]
    return pairs, kept, [t for t, g in zip(tris, gone) if not g]


def _spanning_forest(x: Complex, edges: Iterable[int]) -> list:
    """The indices, among ``edges`` (indices into ``x.faces(1)``), of the
    edges of a spanning forest of the graph they form on x's vertices: each
    edge that joins two trees of the ones before it, by union-find."""
    pos, faces = x._vertex_position, x.faces(1)
    root = list(range(x.num_vertices))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    forest = []
    for e in edges:
        a, b = (find(pos[v]) for v in faces[e])
        if a != b:
            root[a] = b
            forest.append(e)
    return forest


def _check_closed_manifold(x: Complex) -> Verdict:
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
        opposite = _opposite_edges(x)
        for v in x.vertices:
            if not _walks_one_cycle(opposite[v]):
                return Verdict(False, witness=v, detail=f"link of vertex {v} is not a single cycle")
        return _CLOSED_MANIFOLD[2]
    bad = _first_bad_vertex_link(x)
    if bad is not None:
        v, reason = bad
        return Verdict(False, witness=v, detail=f"link of vertex {v} is not a 2-sphere: {reason}")
    return _CLOSED_MANIFOLD[3]


_CLOSED_MANIFOLD = {2: Verdict(True, detail="closed 2-manifold"),
                    3: Verdict(True, detail="closed 3-manifold")}


def _first_bad_vertex_link(x: Complex) -> Optional[tuple]:
    """``(v, reason)`` for the first vertex v of the pure 3-complex ``x``
    whose link fails the combinatorial 2-sphere test, or None.

    The link of v has the neighbours of v as vertices, an edge uw for each
    triangle vuw and a triangle for each tetrahedron at v; inside it, the
    edges opposite u form the link of the edge vu in ``x``.  One pass over
    the tetrahedra records every edge link and the tetrahedra on each
    triangle.  The link of v is then tested, in this order, for
    connectivity, by a flood over the links of the edges at v; for a link
    edge in other than two link triangles, the first in lexicographic
    order; for a neighbour whose edge link is not a single cycle, each edge
    link walked once; and for Euler characteristic 2, read off the numbers
    of its vertices and triangles.
    """
    edge_link: dict = {e: [] for e in x.faces(1)}
    on_triangle = dict.fromkeys(x.faces(2), 0)
    for a, b, c, d in x.faces(3):
        edge_link[a, b].append((c, d))
        edge_link[a, c].append((b, d))
        edge_link[a, d].append((b, c))
        edge_link[b, c].append((a, d))
        edge_link[b, d].append((a, c))
        edge_link[c, d].append((a, b))
        on_triangle[a, b, c] += 1
        on_triangle[a, b, d] += 1
        on_triangle[a, c, d] += 1
        on_triangle[b, c, d] += 1
    # the edges come in lexicographic order, so each neighbour list ascends,
    # and removing v keeps the lexicographic order of the triangles at v
    nbrs: dict = {v: [] for v in x.vertices}
    for a, b in edge_link:
        nbrs[a].append(b)
        nbrs[b].append(a)
    odd = [(t, c) for t, c in on_triangle.items() if c != 2]
    is_cycle: dict = {}
    for v in x.vertices:
        edges = {u: (v, u) if v < u else (u, v) for u in nbrs[v]}
        start = nbrs[v][0]
        seen = {start}
        stack = [start]
        while stack:
            for e in edge_link[edges[stack.pop()]]:
                for w in e:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
        if len(seen) != len(edges):
            return v, "link is disconnected"
        for t, c in odd:
            if v in t:
                return v, f"edge {tuple(u for u in t if u != v)} lies in {c} triangles"
        for u, e in edges.items():
            if e not in is_cycle:
                is_cycle[e] = _walks_one_cycle(edge_link[e])
            if not is_cycle[e]:
                return v, f"link of {u} inside the link is not a single cycle"
        # a link triangle holds the edges opposite its three vertices, and
        # each link edge lies in two link triangles by now, so chi is
        # #vertices - #edges + #triangles = #vertices - #triangles / 2
        triangles = sum(len(edge_link[e]) for e in edges.values()) // 3
        if 2 * len(edges) - triangles != 4:
            return v, "Euler characteristic differs from 2"
    return None


def _vertex_signatures(x: Complex) -> dict:
    sig: dict = {v: [0] * (x.dim + 1) for v in x.vertices}
    for k in range(x.dim + 1):
        for f in x.faces(k):
            for v in f:
                sig[v][k] += 1
    return {v: tuple(s) for v, s in sig.items()}


def is_isomorphic(x: Complex, y: Complex) -> Optional[dict]:
    """A facet-preserving vertex bijection, or None.

    After equal f-vectors and equal multisets of vertex signatures (the
    number of faces of each dimension at a vertex), a backtracking search
    places the vertices of ``x`` one at a time.  It ranks them by how many
    vertices of ``y`` share their signature, then by label, and places next
    the first-ranked vertex adjacent to one already placed, or the
    first-ranked remaining vertex if there is none.  The candidates for v
    are the vertices of ``y`` with v's signature, ascending.  Each face of
    ``x`` of dimension >= 1 is checked at its last vertex in that order:
    v -> w is accepted iff those faces map onto faces of ``y``.  That
    rejects only partial maps that no isomorphism extends, so the result is
    the first isomorphism in the search's order.  A full map needs no final
    comparison: it is injective and sends every face of ``x`` to a face of
    ``y``, and with equal f-vectors that is onto in every dimension.  The
    search walks an explicit stack of candidate iterators, so the recursion
    limit does not bound the number of vertices.
    """
    if x.f_vector != y.f_vector:
        return None
    sig_x = _vertex_signatures(x)
    sig_y = _vertex_signatures(y)
    if sorted(sig_x.values()) != sorted(sig_y.values()):
        return None
    by_sig: dict = {}
    for w in y.vertices:
        by_sig.setdefault(sig_y[w], []).append(w)

    order: list = []
    placed: set = set()
    remaining = sorted(x.vertices, key=lambda v: (len(by_sig[sig_x[v]]), v))
    while remaining:
        pick = next((v for v in remaining if not x.neighbors(v).isdisjoint(placed)), remaining[0])
        order.append(pick)
        placed.add(pick)
        remaining.remove(pick)
    position = {v: i for i, v in enumerate(order)}
    checks: list = [[] for _ in order]
    for k in range(1, x.dim + 1):
        for f in x.faces(k):
            checks[max(map(position.__getitem__, f))].append(f)

    mapping: dict = {}
    used: set = set()
    stack: list = []  # stack[i] yields the untried candidates for order[i]
    i = 0
    while 0 <= i < len(order):
        v = order[i]
        if i == len(stack):
            stack.append(iter(by_sig[sig_x[v]]))
        else:  # back from order[i + 1]: free the image of v
            used.remove(mapping[v])
        for w in stack[i]:
            if w not in used:
                mapping[v] = w
                if all(y.has_face([mapping[u] for u in f]) for f in checks[i]):
                    used.add(w)
                    i += 1
                    break
        else:  # no candidate left for v: step back
            mapping.pop(v, None)
            stack.pop()
            i -= 1
    return mapping if i == len(order) else None
