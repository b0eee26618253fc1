"""Simplicial homology over an exact field, and the inclusion-injectivity test.

Boundary matrices have rows indexed by k-faces and columns by (k-1)-faces,
with alternating signs taken from the global ascending vertex order.  A
k-chain is a row vector, and the k-boundaries are the row space of the
next boundary matrix.  An induced subcomplex shares its faces, and so its
boundary matrices, with the ambient complex literally: they are the rows
of the ambient matrices at the subcomplex's faces, no sign correction
needed.  The injectivity test therefore never builds the subcomplex's chain
complex; it takes ranks of ambient rows and of the cached reduced basis of
the ambient boundaries.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

from .complexes import (Complex, InternalInconsistencyError, PreconditionError,
                        UnknownVertexError, Verdict, verify_closed_manifold)
from .linalg import FMatrix, FieldSpec, row_basis


def boundary_matrix(x: Complex, k: int, field: FieldSpec) -> FMatrix:
    """The k-th boundary map of the chain complex of ``x`` over ``field``."""
    if not 0 <= k <= x.dim:
        raise ValueError(f"boundary degree {k} out of range for dimension {x.dim}")
    return _chain_data(x, field).boundary(k)


class ChainData:
    """Per-(complex, field) chain complex: face indexes, boundaries, and the
    reduced echelon forms of the boundary spaces."""

    def __init__(self, x: Complex, field: FieldSpec):
        self.complex = x
        self.field = field
        self.index = [
            {f: i for i, f in enumerate(x.faces(k))} for k in range(x.dim + 1)
        ]
        self._boundaries: dict = {}
        self._rrefs: dict = {}

    def boundary(self, k: int) -> FMatrix:
        if k not in self._boundaries:
            self._boundaries[k] = _build_boundary(self.complex, k, self.field, self.index)
        return self._boundaries[k]

    def boundary_rref(self, k: int):
        """(pivots, rows) of the reduced row echelon form of the k-boundaries,
        the row space of boundary(k + 1), for k < dim."""
        if k not in self._rrefs:
            basis = self.boundary(k + 1).rowspace_basis()
            self._rrefs[k] = (basis.pivots, basis.rows)
        return self._rrefs[k]


def _build_boundary(x: Complex, k: int, field: FieldSpec, index: Sequence[dict]) -> FMatrix:
    kfaces = x.faces(k)
    if k == 0:
        return FMatrix.zeros(field, len(kfaces), 0)
    cols = index[k - 1]
    ncols = len(cols)
    if field.char == 2:
        masks = []
        for f in kfaces:
            m = 0
            for i in range(len(f)):
                m |= 1 << cols[f[:i] + f[i + 1:]]
            masks.append(m)
        return FMatrix.from_bitrows(masks, ncols)
    rows = []
    for f in kfaces:
        row = [0] * ncols
        sign = 1
        for i in range(len(f)):
            row[cols[f[:i] + f[i + 1:]]] = sign
            sign = -sign
        rows.append(row)
    return FMatrix.from_rows(field, rows, ncols)


@lru_cache(maxsize=256)
def _chain_data(x: Complex, field: FieldSpec) -> ChainData:
    return ChainData(x, field)


def chain_data(x: Complex, field: FieldSpec) -> ChainData:
    """Cached chain complex data for ``x`` over ``field``."""
    return _chain_data(x, field)


def betti(x: Complex, field: FieldSpec) -> tuple:
    """Unreduced Betti numbers beta_0..beta_dim over the given field."""
    if x.dim < 0:
        raise PreconditionError("Betti numbers need a nonempty complex")
    cd = _chain_data(x, field)
    f = x.f_vector
    out = []
    for k in range(x.dim + 1):
        rk = cd.boundary(k).rank()
        rk1 = cd.boundary(k + 1).rank() if k < x.dim else 0
        out.append(f[k] - rk - rk1)
    return tuple(out)


def is_orientable(x: Complex, field: FieldSpec) -> bool:
    """Top homology over the field is nonzero.  Requires a closed manifold."""
    v = verify_closed_manifold(x)
    if not v.ok:
        raise PreconditionError(f"not a closed manifold: {v.detail}")
    return betti(x, field)[x.dim] > 0


def _component_injectivity(x: Complex, y: Complex, field: FieldSpec):
    """Degree-0 fast path: distinct components of y must lie in distinct
    components of x.  Returns None when injective, else a failing 0-cycle."""
    ycomps = y.components()
    if len(ycomps) <= 1:
        return None
    xcomp_of = {}
    for i, comp in enumerate(x.components()):
        for v in comp:
            xcomp_of[v] = i
    seen: dict = {}
    for comp in ycomps:
        rep = min(comp)
        i = xcomp_of[rep]
        if i in seen:
            u = seen[i]
            minus = 1 if field.char == 2 else -1
            return ((u,), 1), ((rep,), minus)
        seen[i] = rep
    return None


def induced_map_injective(x: Complex, subset: Iterable[int], field: FieldSpec) -> Verdict:
    """Is H_*(x[subset]) -> H_*(x) injective in every degree?

    In degree k >= 1 the map is injective iff the k-chains of the
    subcomplex Y that bound in the ambient complex X already bound in Y.
    Such a chain is automatically a cycle of Y, so the test compares
    dim(C_k(Y) n B_k(X)) with dim B_k(Y), all read off rows of the ambient
    boundary matrices and of the cached reduced basis of B_k(X).  On
    failure the witness is ``(k, chain)``: the first row of the reduced
    echelon form of C_k(Y) n B_k(X) outside B_k(Y), as (face, coefficient)
    pairs.
    """
    w = frozenset(subset)
    if not w <= x.vertex_set:
        missing = sorted(w - x.vertex_set)
        raise UnknownVertexError(f"vertices {missing} are not in the complex")
    y = x.induced(w)
    if y.dim < 0:
        raise PreconditionError("the induced subcomplex is empty")

    bad = _component_injectivity(x, y, field)
    if bad is not None:
        return Verdict(False, witness=(0, bad),
                       detail="two components of the subcomplex meet the same ambient component")

    cd = _chain_data(x, field)
    # B_d(X) = 0, so the top degree of x never fails
    top = min(y.dim, x.dim - 1)
    rows_of = {k: [cd.index[k][f] for f in y.faces(k)] for k in range(1, top + 2)}
    # rank of d_k on Y's k-faces; d_1's is |Y_0| minus Y's component count
    rank_k = y.f_vector[0] - len(y.components())
    for k in range(1, top + 1):
        by = _rows_basis(cd, k + 1, rows_of[k + 1])  # B_k(Y)
        cycles_dim, rank_k = len(rows_of[k]) - rank_k, by.dim
        if cycles_dim == by.dim:
            continue  # H_k(Y) = 0
        # an element of B_k(X) is a combination of its reduced basis rows
        # with coefficients its entries at the pivots; it is supported on
        # Y's faces iff only rows pivoting there enter and their parts
        # outside Y's faces cancel
        pivots, rref = cd.boundary_rref(k)
        ycols = set(rows_of[k])
        meet_rows = [r for p, r in zip(pivots, rref) if p in ycols]
        n = len(cd.index[k])
        outside = _drop_columns(field, meet_rows, ycols, n)
        meet_dim = len(meet_rows) - outside.rank()
        if meet_dim < by.dim:
            raise InternalInconsistencyError(
                f"degree {k}: C(Y) ∩ B(X) has dimension {meet_dim} < dim B(Y) = {by.dim}")
        if meet_dim == by.dim:
            continue
        # the combinations whose parts outside Y cancel, applied to the rows
        ambient = FMatrix(field, len(meet_rows), n, meet_rows)
        meet = outside.left_nullspace().matmul(ambient).rowspace_basis()
        for v in meet.rows:
            resid = by.reduce(v)
            if resid != 0 if field.char == 2 else any(resid):
                chain = _decode_chain(v, x.faces(k), field)
                return Verdict(False, witness=(k, chain),
                               detail=f"a {k}-cycle of the subcomplex bounds in the complex but not in the subcomplex")
        raise InternalInconsistencyError(
            f"degree {k}: no cycle of C(Y) ∩ B(X) outside B(Y) despite the dimension gap")
    return Verdict(True)


def _rows_basis(cd: ChainData, k: int, rows: Sequence[int]):
    """Reduced basis of the span of the given rows of boundary(k)."""
    bk = cd.boundary(k)
    basis = row_basis(cd.field, bk.ncols)
    for i in rows:
        basis.add(bk.rows[i])
    return basis


def _drop_columns(field: FieldSpec, rows: list, cols: set, ncols: int) -> FMatrix:
    """The rows with the given columns removed (zeroed, for GF(2))."""
    if field.char == 2:
        mask = 0
        for j in cols:
            mask |= 1 << j
        return FMatrix(field, len(rows), ncols, [r & ~mask for r in rows])
    keep = [j for j in range(ncols) if j not in cols]
    return FMatrix(field, len(rows), len(keep), [[r[j] for j in keep] for r in rows])


def _decode_chain(vec, faces: tuple, field: FieldSpec) -> tuple:
    if field.char == 2:
        out = []
        m = vec
        while m:
            j = (m & -m).bit_length() - 1
            out.append((faces[j], 1))
            m &= m - 1
        return tuple(out)
    return tuple((faces[j], c) for j, c in enumerate(vec) if c)
