"""Simplicial homology over an exact field, and the inclusion-injectivity test.

Boundary matrices have rows indexed by k-faces and columns by (k-1)-faces,
with alternating signs taken from the global ascending vertex order.  A
k-chain is a row vector, and the k-boundaries are the row space of the
next boundary matrix.  An induced subcomplex shares its faces, and so its
boundary matrices, with the ambient complex literally: they are the rows
of the ambient matrices at the subcomplex's faces, no sign correction
needed.  The injectivity test never builds the subcomplex: a vertex mask
selects its faces, those through no vertex outside it, as a mask over the
ambient faces of every degree read off per-vertex face masks in one pass,
and, by a flood over adjacency masks, its components.  In degree k it
first counts Y's (k+1)-faces through its least vertex v0: each such face
v0 + t has a ±1 entry at its own k-face t and no other face through v0 has
one there, so their boundaries are independent over every field, and since
B_k(Y) lies in Z_k(Y), a count equal to dim Z_k(Y) proves H_k(Y) = 0 with
no elimination.  In degree 1 a shortfall is measured against the rank r of
H_1(Y) -> H_1(X) instead, which X's cocycles give with no elimination
either (H^1(X) = Hom(H_1(X), F) over a field): the map is injective iff
rank B_1(Y) = dim Z_1(Y) - r.  Only a shortfall eliminates, on ambient
rows and on the kept bases Betti numbers share, and only a subset that
fails goes on to the meet C_k(Y) ∩ B_k(X) for its witness.  On a closed 2-
or 3-manifold the top Betti number comes from a flood over the facets
instead of elimination.  On a closed 3-manifold that flood's spanning tree
of the dual graph also collapses every tetrahedron but one per component,
and free edges collapse after it (Forman, "Morse theory for cell
complexes", 1998): H_1 and H^1 are read off the 2-complex that is left,
which is all that is eliminated, and d_2 is reduced only for a witness.
"""

from __future__ import annotations

import itertools
import operator
from functools import cached_property, lru_cache
from math import lcm
from typing import Iterable, Optional

from .complexes import (Complex, InternalInconsistencyError, PreconditionError,
                        UnknownVertexError, Verdict, _closed_surface_or_3_manifold,
                        bit_positions, component_masks, verify_closed_manifold)
from .linalg import FMatrix, FieldSpec, echelon_row, kernel_rows, row_basis


class ChainData:
    """Per-(complex, field) chain complex: boundary rows built on first use,
    the reduced bases of their row spaces, each eliminated once, and the
    Betti numbers, computed once: the complex is immutable, and so is this.

    Boundary rows are built straight from the faces in the row bases' own
    format: bit masks over GF(2), ``{column: ±1 mod p}`` dicts over GF(p)
    and ``{column: ±1}`` dicts over Q, with columns in ascending order.
    :meth:`boundary` is an :class:`~tighttri.linalg.FMatrix` view of them.
    :attr:`through` holds, per vertex, the mask of the faces through it,
    ``_collapse`` the basis of the 2-complex a closed 3-manifold collapses
    onto, and ``_cocycles`` a basis of H^1 read off that 2-complex.
    """

    def __init__(self, x: Complex, field: FieldSpec):
        self.complex = x
        self.field = field
        self._rows: dict = {}
        self._bases: dict = {}

    def rows(self, k: int) -> list:
        """The rows of boundary(k), sparse, in face order."""
        if k not in self._rows:
            self._rows[k] = _boundary_rows(self.complex, k, self.field)
        return self._rows[k]

    @cached_property
    def through(self) -> tuple:
        """Per vertex position, the mask of the faces through that vertex in
        every degree at once: the k-faces take the bits from
        ``f_0 + ... + f_{k-1}`` on, and bit j of that window is set iff the
        j-th k-face contains the vertex.  Built on first use."""
        x = self.complex
        pos = x._vertex_position
        masks = [0] * x.num_vertices
        bit = 1
        for k in range(x.dim + 1):
            for f in x.faces(k):
                for v in f:
                    masks[pos[v]] |= bit
                bit <<= 1
        return tuple(masks)

    @cached_property
    def _windows(self) -> tuple:
        """Per degree, where its window of the masks in :attr:`through`
        starts, and the mask that cuts it out."""
        f = self.complex.f_vector
        return tuple((off, (1 << fk) - 1) for off, fk in zip(itertools.accumulate(f, initial=0), f))

    def boundary(self, k: int) -> FMatrix:
        """The k-th boundary map over the field, for k in 0..dim."""
        if not 0 <= k <= self.complex.dim:
            raise ValueError(f"boundary degree {k} out of range for dimension {self.complex.dim}")
        rows = self.rows(k)
        return FMatrix(self.field, len(rows), len(self.complex.faces(k - 1)), rows)

    def basis(self, k: int):
        """Reduced basis of the row space of boundary(k), eliminated once."""
        if k not in self._bases:
            basis = row_basis(self.field, len(self.complex.faces(k - 1)))
            for r in self.rows(k):
                basis.add(r)
            self._bases[k] = basis
        return self._bases[k]

    @cached_property
    def betti(self) -> tuple:
        """See :func:`betti`."""
        x = self.complex
        f = x.f_vector
        c = len(x.components())
        if not _closed_surface_or_3_manifold(x):
            ranks = [0, f[0] - c] + [self.basis(k).dim for k in range(2, x.dim + 1)] + [0]
            return tuple(f[k] - ranks[k] - ranks[k + 1] for k in range(x.dim + 1))
        top = self.top_betti
        if x.dim == 2:
            # rank d_2 = f_2 - beta_2
            return c, f[1] - (f[0] - c) - (f[2] - top), top
        _, kept, basis = self._collapse
        b1 = len(kept) - (f[0] - c) - basis.dim
        # chi = 0 on a closed 3-manifold
        return c, b1, b1 + top - c, top

    @cached_property
    def top_betti(self) -> int:
        """beta_dim: on a closed 2- or 3-manifold the number of components
        over GF(2), else of coherently oriented ones by the complex's
        ``_dual_tree``, which eliminates nothing; else from :attr:`betti`."""
        x = self.complex
        if _closed_surface_or_3_manifold(x):
            return len(x.components()) if self.field.char == 2 else x._dual_tree[2]
        return self.betti[x.dim]

    @cached_property
    def _collapse(self) -> tuple:
        """``(pairs, kept, basis)``: the complex's ``_collapse`` onto K, and
        the reduced basis of the rows of K's triangles over all edges, which
        is ``basis(2)`` where nothing collapses."""
        x, p = self.complex, self.field.char
        pairs, kept, triangles = x._collapse
        if triangles is None:
            return pairs, kept, self.basis(2)
        basis = row_basis(self.field, len(x.faces(1)))
        minus = -1 % p if p else -1
        for e0, e1, e2 in triangles:
            basis.add(1 << e0 | 1 << e1 | 1 << e2 if p == 2 else {e0: 1, e1: minus, e2: 1})
        return pairs, kept, basis

    @cached_property
    def _cocycles(self) -> list:
        """A basis of H^1(X; F), as rows over the edges, integer multiples
        of cocycles over Q: the cocycles of the 2-complex K of
        :attr:`_collapse` that vanish on the edges of a spanning forest of
        K, extended back through the collapsed edges.

        A cocycle vanishes on B_1(K).  The basis of B_1(K), with the
        forest's unit rows added, spans a space meeting no cocycle but 0,
        since a cycle on a forest is 0.  It has dimension |kept| - beta_1,
        so its reduced form leaves beta_1 free columns among K's edges,
        and each free column j gives the cocycle of K that is 1 at j, 0 at
        the other free columns and minus the entry at j of the row pivoting
        there at each pivot.  So every class of K has one representative
        vanishing on the forest.  Going back through the (edge, triangle)
        pairs in reverse order, each edge takes the value that makes the
        cocycle vanish on its triangle's boundary, whose other edges have
        values by then.  A triangle collapsed with a tetrahedron needs no
        step: its boundary is a signed sum of the boundaries of the
        tetrahedron's other triangles.  Restriction to K is an isomorphism
        on H^1, so the extended cocycles are a basis of H^1(X).
        """
        x, field, p = self.complex, self.field, self.field.char
        n = len(x.faces(1))
        pairs, kept, remainder = self._collapse
        # K keeps X's vertices and components, so its forest has f_0 - beta_0 edges
        if len(kept) - (x.num_vertices - len(x.components())) == remainder.dim:
            return []  # beta_1 = 0
        basis = row_basis(field, n)
        for e in x._forest:
            basis.add(1 << e if p == 2 else {e: 1})
        for r in remainder.rows_at(range(n)):
            basis.add(r)
        rows = basis.rows_at(range(n))
        if p == 2:
            pivots = sum(r & -r for r in rows)
            cocycles = {j: 1 << j for j in kept if not pivots >> j & 1}
            for r in rows:
                pivot = r & -r
                for j in bit_positions(r ^ pivot):
                    cocycles[j] |= pivot
            out = []
            for m in cocycles.values():
                for e, (e0, e1, e2) in reversed(pairs):
                    if (m >> e0 ^ m >> e1 ^ m >> e2) & 1:
                        m |= 1 << e
                out.append(m)
            return out
        pivots = {min(r) for r in rows}
        terms: dict = {j: [] for j in kept if j not in pivots}
        for r in rows:
            pivot = min(r)
            for j, v in r.items():
                if j != pivot:
                    terms[j].append((pivot, v, r[pivot]))
        cocycles = []
        for j, column in terms.items():
            # the pivot entries are 1 over GF(p); over Q their lcm clears denominators
            scale = lcm(1, *(d for _, _, d in column))
            cocycle = {j: scale}
            for pivot, v, d in column:
                cocycle[pivot] = -v * (scale // d) % p if p else -v * (scale // d)
            for e, (e0, e1, e2) in reversed(pairs):
                # the value at e is 0 so far; the boundary's signs are +, -, +
                total = cocycle.get(e0, 0) - cocycle.get(e1, 0) + cocycle.get(e2, 0)
                value = total if e == e1 else -total
                if p:
                    value %= p
                if value:
                    cocycle[e] = value
            cocycles.append(cocycle)
        return cocycles

    @cached_property
    def _h1(self) -> tuple:
        """``(steps, add, defect)`` for :func:`_h1_rank`, on the cocycles.

        A vector of values of the cocycles is packed into one int, the i-th
        value in the i-th slot of s bits: one bit over GF(2), a residue over
        GF(p) and a signed int over Q, with s large enough that no potential
        of :func:`_h1_rank` overflows a slot.  ``steps`` holds, per vertex
        position v, pairs ``(value, mask)``: the packed values on the edges
        from v to the neighbours in ``mask``.  ``add`` adds packed vectors,
        slot by slot mod p over GF(p), and ``defect(e, q)`` is e - q as a
        row over the cocycles in the field's row format.
        """
        x, p = self.complex, self.field.char
        cocycles = self._cocycles
        beta = len(cocycles)
        if p == 2:
            values = [[c >> j & 1 for c in cocycles] for j in range(len(x.faces(1)))]
            s = 1
        else:
            values = [[c.get(j, 0) for c in cocycles] for j in range(len(x.faces(1)))]
            if p:
                # a slot holds a sum of two residues, below 2p, and a bit above it
                s = (2 * p).bit_length() + 1
            else:
                # a potential sums the values on at most f_0 - 1 edges, and adds one more
                s = (x.num_vertices * max(abs(v) for c in cocycles for v in c.values())).bit_length() + 1

        def pack(cs) -> int:
            return sum(c << s * i for i, c in enumerate(cs))

        pos = x._vertex_position
        steps: list = [{} for _ in range(x.num_vertices)]
        for (a, b), cs in zip(x.faces(1), values):
            for u, v, value in ((a, b, pack(cs)), (b, a, pack([-c % p if p else -c for c in cs]))):
                out = steps[pos[u]]
                out[value] = out.get(value, 0) | 1 << pos[v]
        steps = tuple(tuple(out.items()) for out in steps)

        if p == 2:
            return steps, operator.xor, operator.xor
        if p:
            # a slot of a sum is at most 2p - 2 < 2**(s-1); adding 2**(s-1) - p
            # to it sets bit s-1 exactly when it is p or more
            high = sum(1 << (s * i + s - 1) for i in range(beta))
            offset = high - sum(p << s * i for i in range(beta))

            def add(a: int, b: int) -> int:
                t = a + b
                return t - (((t + offset) & high) >> s - 1) * p
        else:
            add = operator.add
        half, full = 1 << s - 1, (1 << s) - 1

        def unpack(v: int) -> list:
            out = []
            for _ in range(beta):
                c = ((v + half) & full) - half
                out.append(c)
                v = (v - c) >> s
            return out

        def defect(e: int, q: int) -> dict:
            diff = ((a - b) % p if p else a - b for a, b in zip(unpack(e), unpack(q)))
            return {i: d for i, d in enumerate(diff) if d}

        return steps, add, defect


def _boundary_rows(x: Complex, k: int, field: FieldSpec) -> list:
    kfaces = x.faces(k)
    p = field.char
    if k == 0:
        return [0 if p == 2 else {} for _ in kfaces]
    cols = {g: j for j, g in enumerate(x.faces(k - 1))}
    # combinations(f, k) drops the vertices of f from the last to the first,
    # so the columns come out ascending and vertex i carries (-1)**i
    if p == 2:
        return [sum(1 << cols[g] for g in itertools.combinations(f, k)) for f in kfaces]
    signs = [(-1) ** i % p if p else (-1) ** i for i in range(k, -1, -1)]
    return [{cols[g]: s for g, s in zip(itertools.combinations(f, k), signs)} for f in kfaces]


@lru_cache(maxsize=256)
def chain_data(x: Complex, field: FieldSpec) -> ChainData:
    """Cached chain complex data for ``x`` over ``field``, keyed by value:
    searches revisit equal quotients, which restarts build afresh."""
    return ChainData(x, field)


def betti(x: Complex, field: FieldSpec) -> tuple:
    """Unreduced Betti numbers beta_0..beta_dim over the given field.

    beta_k = f_k - rank d_k - rank d_{k+1}, with rank d_0 = 0 and rank d_1
    = f_0 minus the number of components, on every complex.  On a closed
    surface rank d_2 = f_2 - beta_2 with beta_2 from the flood of
    :func:`~tighttri.complexes._dual_tree`.  A closed 3-manifold eliminates only what is left
    of it after the collapse of :attr:`ChainData._collapse`, a 2-complex K
    with X's H_1 and components: beta_1 = (edges of K) - (f_0 - beta_0) -
    rank of K's triangle rows, beta_0 is the number of components, beta_3
    comes from the flood, and beta_2 = beta_1 + beta_3 - beta_0 since the
    Euler characteristic is 0.  Any other complex takes the ranks of the
    cached reduced bases of d_2 .. d_dim.  The tuple is kept on the
    complex's cached :class:`ChainData`, so it is computed once per complex
    and field.
    """
    if x.dim < 0:
        raise PreconditionError("Betti numbers need a nonempty complex")
    return chain_data(x, field).betti


def is_orientable(x: Complex, field: FieldSpec) -> bool:
    """Top homology over the field is nonzero.  Requires a closed manifold.
    On a closed 2- or 3-manifold this is a flood, with no elimination."""
    v = verify_closed_manifold(x)
    if not v.ok:
        raise PreconditionError(f"not a closed manifold: {v.detail}")
    return chain_data(x, field).top_betti > 0


def induced_map_injective(x: Complex, subset: Iterable[int], field: FieldSpec) -> Verdict:
    """Is H_*(x[subset]) -> H_*(x) injective in every degree?

    In degree 0 it fails iff two components of the subcomplex Y meet one
    component of the ambient complex X.  In degree k >= 1 the map is
    injective iff the k-chains of Y that bound in X already bound in Y.
    Such a chain is automatically a cycle of Y, so the test compares
    dim(C_k(Y) n B_k(X)) with dim B_k(Y), deciding each degree by the
    first step that settles it (see :func:`injectivity_on_mask`): the
    cone count, in degree 1 the cocycles of X, which give the meet's
    dimension as dim Z_1(Y) minus the rank of H_1(Y) -> H_1(X), and the
    rank of Y's rows of the ambient boundary matrix.  The meet itself is
    computed only for the witness: it is spanned by the combinations of
    the rows r_i of the cached reduced basis of B_k(X) pivoting on Y's
    k-faces whose parts off those faces cancel, and its reduced echelon
    form is :func:`~tighttri.linalg.kernel_rows` of the pairs (r_i off Y |
    r_i).  On failure the witness is ``(k, chain)``: in degree 0 the
    0-cycle u - v on the least vertices of the first such pair of
    components, else the first row of the reduced echelon form of C_k(Y) n
    B_k(X) outside B_k(Y), as (face, coefficient) pairs.
    """
    w = frozenset(subset)
    if not w <= x.vertex_set:
        missing = sorted(w - x.vertex_set)
        raise UnknownVertexError(f"vertices {missing} are not in the complex")
    if not w:
        raise PreconditionError("the induced subcomplex is empty")
    pos = x._vertex_position
    # B_d(X) = 0, so the top degree of x never fails
    return injectivity_on_mask(chain_data(x, field), sum(1 << pos[v] for v in w), x.dim - 1)


def injectivity_on_mask(cd: ChainData, wmask: int, top: int) -> Verdict:
    """The test of :func:`induced_map_injective` in degrees 0..top < dim, for
    the induced subcomplex Y of X = ``cd.complex`` on the vertex positions
    set in ``wmask``, over ``cd.field``.  The caller looks ``cd`` up once,
    not per subset.  Y's faces are the ambient ones through no vertex
    outside ``wmask``, read off :attr:`ChainData.through` by
    :func:`_faces_inside` as one mask over the ambient faces of every
    degree.

    In degree k the (k+1)-faces of Y through its least vertex v0 are counted
    first.  Each such face v0 + t has a ±1 entry at its own k-face t, which
    no other face through v0 has, so their boundaries are independent over
    every field; they lie in B_k(Y), and B_k(Y) lies in Z_k(Y).  So a count
    equal to dim Z_k(Y) proves H_k(Y) = 0, and is the rank of d_{k+1} on Y.
    A shortfall in degree 1 goes to :func:`_h1_rank` for the rank r of
    H_1(Y) -> H_1(X).  Then dim(C_1(Y) ∩ B_1(X)) = dim Z_1(Y) - r, which
    caps rank B_1(Y): a count that reaches the cap proves injectivity.  In
    higher degrees the cap is dim Z_k(Y).  Short of the cap, the per-subset
    basis of B_k(Y) is built up to it, and reaching it proves injectivity
    with the rank exact for the next degree.  Only a basis still short goes
    on to :func:`_meet_witness`, holding every row, for the witness; in
    degree 1 that meet must find one, and raises
    :class:`~tighttri.complexes.InternalInconsistencyError` if it does not.
    """
    x = cd.complex
    comps = component_masks(x, wmask)
    if len(comps) > 1:
        ambient = component_masks(x, (1 << x.num_vertices) - 1)
        seen: dict = {}  # ambient component -> least vertex of the first part in it
        for comp in comps:
            a = next(a for a in ambient if a & comp)
            if a in seen:
                u, v = (x.vertices[b.bit_length() - 1] for b in (seen[a], comp & -comp))
                chain = ((u,), 1), ((v,), 1 if cd.field.char == 2 else -1)
                return Verdict(False, witness=(0, chain),
                               detail="two components of the subcomplex meet the same ambient component")
            seen[a] = comp & -comp

    size = wmask.bit_count()
    # Y lies in the simplex on its vertices, which has no nonzero k-cycle for
    # k >= size - 1, so H_k(Y) = 0 there: a connected pair is an edge
    top = min(top, size - 2)
    if top < 1:
        return Verdict(True)
    v0 = (wmask & -wmask).bit_length() - 1
    inside = _faces_inside(cd, wmask)
    star = inside & cd.through[v0]
    windows = cd._windows
    off, ones = windows[1]
    ymask = inside >> off & ones
    # rank of d_k on Y's k-faces; d_1's is |Y_0| minus Y's component count
    rank_k = size - len(comps)
    for k in range(1, top + 1):
        cycles_dim = ymask.bit_count() - rank_k
        off, ones = windows[k + 1]
        up = inside >> off & ones
        # the cone over v0: independent boundaries, so a lower bound on the
        # rank of d_{k+1} on Y, and the rank itself once it fills Z_k(Y)
        rank_k = (star >> off & ones).bit_count()
        if rank_k < cycles_dim:
            # rank B_k(Y) <= cap: in degree 1 the dimension of C_1(Y) ∩ B_1(X),
            # read off the cocycles of X, above it dim Z_k(Y)
            cap = cycles_dim - _h1_rank(cd, comps, cycles_dim - rank_k) if k == 1 else cycles_dim
            if rank_k < cap:
                by = _rows_basis(cd, k + 1, up, cap)
                rank_k = by.dim
                if rank_k < cap:
                    witness = _meet_witness(cd, k, ymask, by)
                    if witness is not None:
                        return Verdict(False, witness=(k, witness),
                                       detail=f"a {k}-cycle of the subcomplex bounds in the complex but not in the subcomplex")
                    if k == 1:
                        raise InternalInconsistencyError(
                            f"degree 1: the cocycles of X give C(Y) ∩ B(X) dimension {cap} "
                            f"> dim B(Y) = {rank_k}, but the meet equals B(Y)")
        ymask = up
    return Verdict(True)


def _h1_rank(cd: ChainData, comps: list, most: int) -> int:
    """The rank r of H_1(Y) -> H_1(X), for the induced subcomplex Y with
    components ``comps``, or ``most`` once r reaches it.

    Over a field H^1(X) = Hom(H_1(X), F), so r is the rank of X's cocycles
    evaluated on Y's fundamental cycles.  A flood over each component's
    vertex mask from its least vertex gives each vertex a potential, the
    packed values of the cocycles summed along the flood's path to it: a
    spanning tree of the component.  An edge u -> v of Y whose value is c
    closes the fundamental cycle on which the cocycles take P(u) + c - P(v),
    zero exactly when v has the potential P(u) + c.  So the flood keeps, per
    potential, the mask of the vertices that have it, and tests each step
    from a vertex against one mask; a step that misses it gives the values
    on one fundamental cycle, and r is the rank of those.
    """
    beta = len(cd._cocycles)
    if not beta:
        return 0
    steps, add, defect = cd._h1
    most = min(most, beta)
    found = row_basis(cd.field, beta)
    for comp in comps:
        root = seen = comp & -comp
        having = {0: root}  # potential -> mask of the vertices that have it
        stack = [(root, 0)]  # vertices given one potential in one step, and it
        while stack:
            todo, pu = stack.pop()
            while todo:
                u = todo & -todo
                todo ^= u
                for value, nbrs in steps[u.bit_length() - 1]:
                    nbrs &= comp
                    if not nbrs:
                        continue
                    expected = add(pu, value)
                    same = having.get(expected, 0)
                    bad = nbrs & seen & ~same
                    if bad:
                        for q, m in having.items():
                            if m & bad and found.add(defect(expected, q)) and found.dim == most:
                                return most
                    new = nbrs & ~seen
                    if new:
                        seen |= new
                        having[expected] = same | new
                        stack.append((new, expected))
    return found.dim


def _meet_witness(cd: ChainData, k: int, ymask: int, by) -> Optional[tuple]:
    """The first row of the reduced echelon form of C_k(Y) ∩ B_k(X) outside
    B_k(Y), as (face, coefficient) pairs, or None when the meet is B_k(Y);
    ``ymask`` holds Y's k-faces and ``by`` is the full basis of B_k(Y)."""
    field = cd.field
    ycols = list(bit_positions(ymask))
    # an element of B_k(X) is a combination of its reduced basis rows with
    # coefficients its entries at the pivots; it is supported on Y's faces
    # iff only rows pivoting there enter and their parts outside Y's faces
    # cancel
    meet_rows = cd.basis(k + 1).rows_at(ycols)
    if field.char == 2:
        outside = [r & ~ymask for r in meet_rows]
    else:
        inside = set(ycols)
        outside = [{j: v for j, v in r.items() if j not in inside} for r in meet_rows]
    n = len(cd.complex.faces(k))
    outside_basis = row_basis(field, n)
    for r in outside:
        outside_basis.add(r)
    meet_dim = len(meet_rows) - outside_basis.dim
    if meet_dim < by.dim:
        raise InternalInconsistencyError(
            f"degree {k}: C(Y) ∩ B(X) has dimension {meet_dim} < dim B(Y) = {by.dim}")
    if meet_dim == by.dim:
        return None
    # the combinations whose parts outside Y cancel, applied to the rows
    for v in kernel_rows(field, zip(outside, meet_rows), n, n):
        if by.reduce(v):
            return _decode_chain(echelon_row(field, v), cd.complex.faces(k), field)
    raise InternalInconsistencyError(
        f"degree {k}: no cycle of C(Y) ∩ B(X) outside B(Y) despite the dimension gap")


def _faces_inside(cd: ChainData, wmask: int) -> int:
    """The faces of the subcomplex induced on the vertex positions set in
    ``wmask``, those through no vertex outside it, as a mask in the layout of
    :attr:`ChainData.through`, every degree in one pass over the outside
    vertices.  The bits past the last face are set too: read it by windows."""
    through = cd.through
    hit = 0
    for i in bit_positions(cd._windows[0][1] ^ wmask):
        hit |= through[i]
    return ~hit


def _rows_basis(cd: ChainData, k: int, mask: int, cap: int):
    """Reduced basis of the span of the rows of boundary(k) at the faces set
    in ``mask``; it stops adding rows once its dimension reaches ``cap``.

    The decider builds it only when counting Y's k-faces through its least
    vertex v0 falls short of dim Z_{k-1}(Y).  The caller reads only its
    dimension, the rank of the rows added, and whether :meth:`reduce`
    returns zero, which it asks only of a basis that holds every row.
    """
    basis = row_basis(cd.field, len(cd.complex.faces(k - 1)))
    if not mask:
        # the rows are built on first use; a subset with no k-faces needs none
        return basis
    bk = cd.rows(k)
    for i in bit_positions(mask):
        if basis.dim == cap:
            break
        basis.add(bk[i])
    return basis


def _decode_chain(vec, faces: tuple, field: FieldSpec) -> tuple:
    if field.char == 2:
        return tuple((faces[j], 1) for j in bit_positions(vec))
    return tuple((faces[j], vec[j]) for j in sorted(vec))
