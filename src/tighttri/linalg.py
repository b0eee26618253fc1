"""Exact linear algebra over Q and prime fields, on one sparse row format.

A row is a bit mask over GF(2) (bit j is column j) and a ``{column: entry}``
dict of its nonzero entries otherwise: ints in ``[1, p)`` over GF(p) and
ints over Q.

Reduced row bases keep the reduced row echelon form with each row stored
under its pivot, and every row is zero at every other pivot, so a row is
reduced in one pass over its own entries at the pivots.  Over Q they hold
primitive integer rows, eliminated fraction-free; :func:`echelon_row` reads
one out as an exact rational row, the one place a ``Fraction`` is made.
Over GF(p) they hold monic rows mod p; over GF(2) bit masks, combined with
word-parallel XOR.  Null spaces come from Zassenhaus's method in
:func:`kernel_rows`, and :class:`FMatrix` is a view of a list of rows with
its rank, row space basis and left null space.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, List


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: characteristic 0 for the rationals, else a prime p."""

    char: int = 0

    def __post_init__(self):
        if self.char:
            if self.char >= 1 << 31:
                raise ValueError("prime fields are supported for p < 2**31")
            if not _is_prime(self.char):
                raise ValueError(f"{self.char} is not prime")

    @classmethod
    def gf(cls, p: int) -> "FieldSpec":
        if p == 0:
            raise ValueError("0 is not prime")
        return cls(p)

    def __str__(self) -> str:
        return "Q" if self.char == 0 else f"GF({self.char})"


QQ = FieldSpec(0)
GF2 = FieldSpec(2)


class _RowBasisGF2:
    """Reduced basis of a GF(2) row space over bit-packed rows.

    Each row is stored under its pivot bit, its lowest set bit as an int
    ``1 << pivot``, and is zero at every other pivot; ``_pivmask`` is the
    OR of the pivot bits.  So a row is reduced by XOR with the basis rows
    at the pivot bits it holds, and no others.
    """

    __slots__ = ("ncols", "_by_pivot", "_pivmask")

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._by_pivot: dict = {}
        self._pivmask = 0

    @property
    def dim(self) -> int:
        return len(self._by_pivot)

    def rows_at(self, cols: Iterable[int]) -> List[int]:
        """The stored rows whose pivots lie in ``cols``, in that order."""
        by_pivot = self._by_pivot
        return [by_pivot[1 << j] for j in cols if 1 << j in by_pivot]

    def reduce(self, row: int) -> int:
        by_pivot = self._by_pivot
        hit = row & self._pivmask
        while hit:
            low = hit & -hit
            row ^= by_pivot[low]
            hit ^= low
        return row

    def add(self, row: int) -> bool:
        r = self.reduce(row)
        if r == 0:
            return False
        low = r & -r
        by_pivot = self._by_pivot
        for key, b in by_pivot.items():
            if b & low:
                by_pivot[key] = b ^ r
        by_pivot[low] = r
        self._pivmask |= low
        return True


class _RowBasisGFp:
    """Reduced basis over GF(p), p odd.

    Rows are sparse ``{column: entry}`` dicts with entries in ``[1, p)``,
    each stored under its pivot, its least column.  Each is monic and zero
    in every other row's pivot column, so together they are the reduced row
    echelon form.  Reducing a row walks only the basis rows at the pivots
    where it has an entry; adding a row rewrites only the rows with an entry
    at its pivot.
    """

    __slots__ = ("ncols", "char", "_by_pivot")

    def __init__(self, ncols: int, char: int):
        self.ncols = ncols
        self.char = char
        self._by_pivot: dict = {}

    @property
    def dim(self) -> int:
        return len(self._by_pivot)

    def rows_at(self, cols: Iterable[int]) -> List[dict]:
        """The stored rows whose pivots lie in ``cols``, in that order: the
        basis's own dicts, to be read and not changed (over Q, positive
        integer multiples of the echelon rows)."""
        by_pivot = self._by_pivot
        return [by_pivot[j] for j in cols if j in by_pivot]

    def _residual(self, x: dict) -> dict:
        """Reduce the sparse row ``x`` in place, and return it."""
        by_pivot, p = self._by_pivot, self.char
        for piv in [j for j in x if j in by_pivot]:
            c = x[piv]
            for j, v in by_pivot[piv].items():
                nv = (x.get(j, 0) - c * v) % p
                if nv:
                    x[j] = nv
                else:
                    del x[j]
        return x

    def reduce(self, row: dict) -> dict:
        """The residual of ``row`` against the basis, as a new dict; it is
        empty exactly when ``row`` lies in the row space."""
        return self._residual(dict(row))

    def add(self, row: dict) -> bool:
        xd = self._residual(dict(row))
        if not xd:
            return False
        p = self.char
        piv = min(xd)
        if xd[piv] != 1:
            inv = pow(xd[piv], -1, p)
            xd = {j: v * inv % p for j, v in xd.items()}
        for b in self._by_pivot.values():
            c = b.get(piv)
            if c:
                for j, v in xd.items():
                    nv = (b.get(j, 0) - c * v) % p
                    if nv:
                        b[j] = nv
                    else:
                        del b[j]
        self._by_pivot[piv] = xd
        return True


def _ratio(a: int, b: int):
    """a/b exactly: a plain int when b divides a, else a Fraction."""
    q, r = divmod(a, b)
    return Fraction(a, b) if r else q


class _RowBasisQ:
    """Reduced basis over Q without fractions.

    Each stored row is primitive (its entries have gcd 1) with a positive
    pivot entry at its least column, and is zero in every other row's pivot
    column, so it is a positive integer multiple of the matching row of the
    reduced row echelon form.  Rows are sparse ``{column: entry}`` dicts,
    each stored under its pivot.  They combine by cross-multiplication,
    ``bp*x - c*b``, over the nonzero entries of the basis row, and are
    divided by their gcd whenever a scale factor other than 1 entered.
    """

    __slots__ = ("ncols", "_by_pivot")

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._by_pivot: dict = {}

    @property
    def dim(self) -> int:
        return len(self._by_pivot)

    rows_at = _RowBasisGFp.rows_at

    def _residual(self, x: dict) -> dict:
        """A positive integer multiple of the residual of the sparse integer
        row ``x``; ``x`` itself may be reduced in place."""
        by_pivot = self._by_pivot
        for piv in [j for j in x if j in by_pivot]:
            c = x[piv]
            b = by_pivot[piv]
            bp = b[piv]
            if bp != 1:
                x = {j: bp * v for j, v in x.items()}
            for j, v in b.items():
                nv = x.get(j, 0) - c * v
                if nv:
                    x[j] = nv
                else:
                    del x[j]
            if bp != 1:
                g = gcd(*x.values())
                if g > 1:
                    x = {j: v // g for j, v in x.items()}
        return x

    def reduce(self, row: dict) -> dict:
        """A positive integer multiple of the residual of ``row`` against
        the basis, as a new dict; it is empty exactly when ``row`` lies in
        the row space."""
        return self._residual(dict(row))

    def add(self, row: dict) -> bool:
        xd = self._residual(dict(row))
        if not xd:
            return False
        piv = min(xd)
        g = gcd(*xd.values())
        if xd[piv] < 0:
            g = -g
        if g != 1:
            xd = {j: v // g for j, v in xd.items()}
        xp = xd[piv]
        by_pivot = self._by_pivot
        for bpiv, b in by_pivot.items():
            c = b.get(piv)
            if not c:
                continue
            if xp != 1:
                b = {j: xp * v for j, v in b.items()}
            for j, v in xd.items():
                nv = b.get(j, 0) - c * v
                if nv:
                    b[j] = nv
                else:
                    del b[j]
            if b[bpiv] != 1:
                g = gcd(*b.values())
                if g > 1:
                    b = {j: v // g for j, v in b.items()}
            by_pivot[bpiv] = b
        by_pivot[piv] = xd
        return True


def row_basis(field: FieldSpec, ncols: int):
    """Fresh empty reduced row basis for the given field."""
    if field.char == 2:
        return _RowBasisGF2(ncols)
    if field.char:
        return _RowBasisGFp(ncols, field.char)
    return _RowBasisQ(ncols)


def echelon_row(field: FieldSpec, row):
    """The row of the reduced row echelon form that a stored row stands for.
    Over Q the row is scaled to pivot entry 1, with exact entries (a plain
    int wherever the value is integral) in ascending column order; over a
    prime field a stored row is already that row, and is returned as is."""
    if field.char:
        return row
    bp = row[min(row)]
    return {j: _ratio(row[j], bp) for j in sorted(row)}


def kernel_rows(field: FieldSpec, pairs: Iterable, n: int, m: int) -> list:
    """The reduced row echelon form of {sum c_i b_i : sum c_i a_i = 0}, for
    pairs (a_i, b_i) of rows on n and m columns, in pivot order; over Q each
    row is a positive integer multiple of its echelon row, which
    :func:`echelon_row` reads out.

    Zassenhaus: the rows (a_i | b_i) go into one basis on n + m columns;
    the rows of its reduced echelon form that pivot at or past column n are
    zero before it, so they are (0 | b) for exactly the b above, shifted
    back by n.
    """
    basis = row_basis(field, n + m)
    for a, b in pairs:
        if field.char == 2:
            basis.add(a | b << n)
        else:
            row = dict(a)
            row.update((j + n, v) for j, v in b.items())
            basis.add(row)
    rows = basis.rows_at(range(n, n + m))
    if field.char == 2:
        return [r >> n for r in rows]
    return [{j - n: v for j, v in r.items()} for r in rows]


class FMatrix:
    """A boundary matrix, or any matrix, as a view of its list of rows in
    the row format above, with its rank, row space basis and left null
    space.  ``rows`` is shared, not copied: no method changes it.
    """

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: FieldSpec, nrows: int, ncols: int, rows: list):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows

    def rank(self) -> int:
        return self.rowspace_basis().dim

    def rowspace_basis(self):
        """The reduced basis of the row space.  Over Q the rows must hold
        integers, as boundary rows do; a row with any other entry, such as
        a ``Fraction`` read out of :meth:`left_nullspace`, raises
        ``ValueError`` naming the row."""
        if not self.field.char:
            for i, r in enumerate(self.rows):
                bad = next((j for j, v in r.items() if not isinstance(v, int)), None)
                if bad is not None:
                    raise ValueError(f"row {i} has the non-integer entry {r[bad]!r} in column "
                                     f"{bad}; rows over Q must hold integers")
        basis = row_basis(self.field, self.ncols)
        for r in self.rows:
            basis.add(r)
        return basis

    def left_nullspace(self) -> "FMatrix":
        """The reduced row echelon form of {c : c M = 0}, by :func:`kernel_rows`
        on the pairs (row i | e_i).  Over Q its entries are exact rationals,
        read out by :func:`echelon_row`: rows to read, not to eliminate
        (:meth:`rank` rejects them)."""
        if self.field.char == 2:
            pairs = [(r, 1 << i) for i, r in enumerate(self.rows)]
        else:
            pairs = [(r, {i: 1}) for i, r in enumerate(self.rows)]
        rows = [echelon_row(self.field, r)
                for r in kernel_rows(self.field, pairs, self.ncols, self.nrows)]
        return FMatrix(self.field, len(rows), self.nrows, rows)
