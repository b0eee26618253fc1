"""Simplicial homology over an exact field, and the inclusion-injectivity test.

Boundary matrices have rows indexed by k-faces and columns by (k-1)-faces,
with alternating signs taken from the global ascending vertex order.  A
k-chain is a row vector, so cycle spaces are left null spaces and boundary
spaces are row spaces of the next boundary matrix.  Because an induced
subcomplex shares its faces with the ambient complex literally, its chains
embed by the identity on faces and no sign correction is ever needed.
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
    """Per-(complex, field) chain complex: face indexes, boundaries, row bases."""

    def __init__(self, x: Complex, field: FieldSpec):
        self.complex = x
        self.field = field
        self.index = [
            {f: i for i, f in enumerate(x.faces(k))} for k in range(x.dim + 1)
        ]
        self._boundaries: dict = {}
        self._bases: dict = {}

    def boundary(self, k: int) -> FMatrix:
        if k not in self._boundaries:
            self._boundaries[k] = _build_boundary(self.complex, k, self.field, self.index)
        return self._boundaries[k]

    def boundary_rowspace(self, k: int):
        """Reduced basis of the space of k-boundaries (rows of boundary(k+1))."""
        if k not in self._bases:
            x = self.complex
            if k >= x.dim:
                basis = row_basis(self.field, len(x.faces(k)))
            else:
                basis = self.boundary(k + 1).rowspace_basis()
            self._bases[k] = basis
        return self._bases[k]


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

    In degree k >= 1 the map is injective iff the cycles of the subcomplex
    that bound in the ambient complex already bound in the subcomplex:
    dim(Z_k(Y) n B_k(X)) == dim B_k(Y), computed through the face-identity
    embedding of chains.  On failure the witness is ``(k, chain)`` where
    ``chain`` is a k-cycle of the subcomplex (as (face, coefficient) pairs)
    that bounds in ``x`` but not in the subcomplex.
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

    cdx = _chain_data(x, field)
    cdy = ChainData(y, field)
    for k in range(1, y.dim + 1):
        zy = cdy.boundary(k).left_nullspace()
        if zy.nrows == 0:
            continue
        by_rank = cdy.boundary(k + 1).rank() if k < y.dim else 0
        if zy.nrows == by_rank:
            continue  # H_k(Y) = 0
        col_map = [cdx.index[k][f] for f in y.faces(k)]
        n_xk = len(x.faces(k))
        z_emb = zy.embed_columns(n_xk, col_map)
        bx = cdx.boundary_rowspace(k)
        joint = bx.copy()
        for r in z_emb.rows:
            joint.add(r)
        inter_dim = z_emb.nrows + bx.dim - joint.dim
        if inter_dim < by_rank:
            raise InternalInconsistencyError(
                f"degree {k}: Z(Y) ∩ B(X) has dimension {inter_dim} < dim B(Y) = {by_rank}")
        if inter_dim == by_rank:
            continue
        # extract a witness cycle: in Z_k(Y) and B_k(X) but not in B_k(Y)
        bx_mat = cdx.boundary(k + 1) if k < x.dim else FMatrix.zeros(field, 0, n_xk)
        inter = z_emb.rowspace_intersection(bx_mat)
        by_emb = (cdy.boundary(k + 1) if k < y.dim
                  else FMatrix.zeros(field, 0, len(y.faces(k)))).embed_columns(n_xk, col_map)
        by_basis = by_emb.rowspace_basis()
        witness_vec = None
        for v in inter.rows:
            resid = by_basis.reduce(v)
            nonzero = resid != 0 if field.char == 2 else any(resid)
            if nonzero:
                witness_vec = v
                break
        if witness_vec is None:
            raise InternalInconsistencyError(
                f"degree {k}: no cycle of Z(Y) ∩ B(X) outside B(Y) despite the dimension gap")
        chain = _decode_chain(witness_vec, x.faces(k), field)
        return Verdict(False, witness=(k, chain),
                       detail=f"a {k}-cycle of the subcomplex bounds in the complex but not in the subcomplex")
    return Verdict(True)


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
