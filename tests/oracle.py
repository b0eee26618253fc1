"""Dense linear algebra for the tests to compare the library against.

Textbook Gauss-Jordan elimination, column by column on dense rows: over Q
in ``Fraction`` arithmetic, over GF(p) on ints mod p.  Rows come and go in
the layout of ``FMatrix.rows``: bit masks over GF(2) (bit j is column j),
lists of entries otherwise.  Nothing here calls the library's elimination.
"""

from fractions import Fraction

from tighttri.linalg import FieldSpec


def entries(field: FieldSpec, rows, ncols: int) -> list:
    """The rows as dense lists of entries."""
    if field.char == 2:
        return [[(r >> j) & 1 for j in range(ncols)] for r in rows]
    return [list(r) for r in rows]


def _packed(field: FieldSpec, rows: list) -> list:
    """Dense lists back in the row layout of ``field``."""
    if field.char == 2:
        return [sum(1 << j for j, c in enumerate(r) if c) for r in rows]
    return rows


def is_zero(field: FieldSpec, rows, ncols: int) -> bool:
    return not any(c for r in entries(field, rows, ncols) for c in r)


def rref(field: FieldSpec, rows, ncols: int):
    """(pivots, rows) of the reduced row echelon form of the span of
    ``rows``: entries are Fractions over Q and ints in ``[0, p)`` over
    GF(p)."""
    p = field.char
    m = [[Fraction(c) if p == 0 else c % p for c in r] for r in entries(field, rows, ncols)]
    pivots = []
    for j in range(ncols):
        i = len(pivots)
        k = next((k for k in range(i, len(m)) if m[k][j]), None)
        if k is None:
            continue
        m[i], m[k] = m[k], m[i]
        inv = 1 / m[i][j] if p == 0 else pow(m[i][j], -1, p)
        m[i] = [c * inv if p == 0 else c * inv % p for c in m[i]]
        for t in range(len(m)):
            c = m[t][j]
            if t != i and c:
                m[t] = [u - c * v if p == 0 else (u - c * v) % p for u, v in zip(m[t], m[i])]
        pivots.append(j)
    return pivots, _packed(field, m[:len(pivots)])


def rank(field: FieldSpec, rows, ncols: int) -> int:
    return len(rref(field, rows, ncols)[0])


def right_nullspace(field: FieldSpec, rows, ncols: int) -> list:
    """A basis of {x : M x = 0}, one vector per free column f: 1 at f, and
    minus the echelon form's column f at the pivots."""
    p = field.char
    pivots, basis = rref(field, rows, ncols)
    basis = entries(field, basis, ncols)
    out = []
    for f in range(ncols):
        if f in pivots:
            continue
        x = [Fraction(0) if p == 0 else 0] * ncols
        x[f] = Fraction(1) if p == 0 else 1
        for piv, b in zip(pivots, basis):
            x[piv] = -b[f] if p == 0 else -b[f] % p
        out.append(x)
    return _packed(field, out)


def transpose(field: FieldSpec, rows, ncols: int) -> list:
    return _packed(field, [list(col) for col in zip(*entries(field, rows, ncols))]
                   if rows else [[] for _ in range(ncols)])


def left_nullspace(field: FieldSpec, rows, ncols: int) -> list:
    """A basis of {c : c M = 0}: the right null space of the transpose."""
    return right_nullspace(field, transpose(field, rows, ncols), len(rows))


def matmul(field: FieldSpec, a, b, ncols: int) -> list:
    """The product of the matrices with rows ``a`` and ``b``, where ``b``
    has ``ncols`` columns and as many rows as ``a`` has columns."""
    p = field.char
    da, db = entries(field, a, len(b)), entries(field, b, ncols)
    out = []
    for r in da:
        acc = [sum(c * brow[t] for c, brow in zip(r, db)) for t in range(ncols)]
        out.append([v % p for v in acc] if p else acc)
    return _packed(field, out)
