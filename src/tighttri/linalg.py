"""Exact linear algebra over Q and prime fields.

:class:`FMatrix` is a dense container for boundary matrices: rational
matrices hold ints, or ``fractions.Fraction`` for non-integral input; GF(p)
entries are ints in ``[0, p)``; GF(2) rows are bit-packed into Python ints.
Its ranks and null spaces come from reduced row bases, null spaces by
Zassenhaus's method in :func:`kernel_rows`.

Reduced row bases keep the reduced row echelon form with each row stored
under its pivot, and every row is zero at every other pivot, so a row is
reduced in one pass over its own entries at the pivots.  Over Q they hold
sparse primitive integer rows, eliminated fraction-free, with results read
out as exact rationals, a plain int wherever the value is integral; over
GF(p) sparse monic rows mod p; over GF(2) bit-packed rows, combined with
word-parallel XOR.  The Q and GF(p) bases take rows dense or as
``{column: entry}`` dicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, List, Optional


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
    def rationals(cls) -> "FieldSpec":
        return cls(0)

    @classmethod
    def gf(cls, p: int) -> "FieldSpec":
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

    @property
    def pivots(self) -> List[int]:
        return [b.bit_length() - 1 for b in sorted(self._by_pivot)]

    @property
    def rows(self) -> List[int]:
        """The reduced row echelon form, in pivot order."""
        return [self._by_pivot[b] for b in sorted(self._by_pivot)]

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


def _dense(x: dict, ncols: int) -> list:
    """A sparse row as a dense list."""
    out = [0] * ncols
    for j, v in x.items():
        out[j] = v
    return out


def _sparse(row) -> dict:
    """A new ``{column: entry}`` dict of the nonzero entries of ``row``,
    which is dense or such a dict."""
    if type(row) is dict:
        return dict(row)
    return {j: v for j, v in enumerate(row) if v}


class _RowBasisGFp:
    """Reduced basis over GF(p), p odd.

    Rows are sparse ``{column: entry}`` dicts with entries in ``[1, p)``,
    each stored under its pivot, its least column.  Each is monic and zero
    in every other row's pivot column, so together they are the reduced row
    echelon form.  Reducing a row walks only the basis rows at the pivots
    where it has an entry; adding a row rewrites only the rows with an entry
    at its pivot.  Rows are given dense or as ``{column: entry}`` dicts.
    """

    __slots__ = ("ncols", "char", "_by_pivot")

    def __init__(self, ncols: int, char: int):
        self.ncols = ncols
        self.char = char
        self._by_pivot: dict = {}

    @property
    def dim(self) -> int:
        return len(self._by_pivot)

    @property
    def pivots(self) -> List[int]:
        return sorted(self._by_pivot)

    @property
    def rows(self) -> List[list]:
        """The reduced row echelon form as lists of ints in ``[0, p)``."""
        return [_dense(self._by_pivot[piv], self.ncols) for piv in self.pivots]

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

    def reduce(self, row):
        """The residual of ``row`` against the basis, as a new row of the
        same kind; it is zero exactly when ``row`` lies in the row space."""
        x = self._residual(_sparse(row))
        return x if type(row) is dict else _dense(x, self.ncols)

    def add(self, row) -> bool:
        xd = self._residual(_sparse(row))
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


_INT_ONLY = frozenset((int,))


def _integral(row) -> list:
    """``row`` as a new list of ints: a row with rational entries is scaled
    by the lcm of its denominators, which keeps its direction."""
    x = list(row)
    if _INT_ONLY.issuperset(map(type, x)):
        return x
    den = lcm(*[v.denominator for v in x])
    return [v.numerator * (den // v.denominator) for v in x]


def _rational(c):
    """An input entry as an exact rational: an int when it is integral."""
    f = Fraction(c)
    return f.numerator if f.denominator == 1 else f


def _residue(c, p: int) -> int:
    """A rational input entry a/b as ``a * b**-1`` mod p."""
    f = Fraction(c)
    if f.denominator % p == 0:
        raise ValueError(f"{c} has no value mod {p}: p divides its denominator")
    return f.numerator * pow(f.denominator, -1, p) % p


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
    Fractions appear only when :attr:`rows` reads the echelon form out.
    Rows are given dense or as ``{column: entry}`` dicts of ints.
    """

    __slots__ = ("ncols", "_by_pivot")

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._by_pivot: dict = {}

    @property
    def dim(self) -> int:
        return len(self._by_pivot)

    @property
    def pivots(self) -> List[int]:
        return sorted(self._by_pivot)

    @property
    def rows(self) -> List[list]:
        """The reduced row echelon form: pivot entries 1, entries exact."""
        out = []
        for piv in self.pivots:
            b = self._by_pivot[piv]
            bp = b[piv]
            out.append(_dense(b if bp == 1 else {j: _ratio(v, bp) for j, v in b.items()},
                              self.ncols))
        return out

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

    def reduce(self, row):
        """A positive integer multiple of the residual of ``row`` against
        the basis, as a new row of the same kind (dense rows as ints); it is
        zero exactly when ``row`` lies in the row space."""
        x = self._residual(_sparse(row if type(row) is dict else _integral(row)))
        return x if type(row) is dict else _dense(x, self.ncols)

    def add(self, row) -> bool:
        xd = self._residual(_sparse(row if type(row) is dict else _integral(row)))
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


def kernel_rows(field: FieldSpec, pairs: Iterable, n: int, m: int) -> list:
    """The reduced row echelon form of {sum c_i b_i : sum c_i a_i = 0}, for
    pairs (a_i, b_i) of rows on n and m columns in the row bases' sparse
    format (bit masks over GF(2), ``{column: entry}`` dicts otherwise).

    Zassenhaus: the rows (a_i | b_i) go into one basis on n + m columns;
    the rows of its reduced echelon form that pivot at or past column n are
    zero before it, so they are (0 | b) for exactly the b above, and read
    out as the basis reads out its rows, shifted back by n.
    """
    basis = row_basis(field, n + m)
    for a, b in pairs:
        if field.char == 2:
            basis.add(a | b << n)
        else:
            row = dict(a)
            row.update((j + n, v) for j, v in b.items())
            basis.add(row)
    rows = [r for piv, r in zip(basis.pivots, basis.rows) if piv >= n]
    return [r >> n for r in rows] if field.char == 2 else [r[n:] for r in rows]


class FMatrix:
    """Dense boundary-matrix container over a :class:`FieldSpec`, with its
    rank, row space basis and left null space.

    For GF(2) the rows are ints with bit j = column j; otherwise each row is
    a list of exact scalars: ints mod p, or over Q ints and Fractions.
    Instances are immutable in practice: no method mutates ``self``.
    """

    __slots__ = ("field", "nrows", "ncols", "rows", "_rank")

    def __init__(self, field: FieldSpec, nrows: int, ncols: int, rows):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows
        self._rank: Optional[int] = None

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: Iterable[Iterable], ncols: Optional[int] = None) -> "FMatrix":
        """Build from an iterable of entry rows (ints or Fractions).  Over
        GF(p) an entry a/b becomes ``a * b**-1`` mod p; ``ValueError`` when p
        divides b."""
        data = [list(r) for r in rows]
        if ncols is None:
            ncols = len(data[0]) if data else 0
        if any(len(r) != ncols for r in data):
            raise ValueError("ragged rows")
        p = field.char
        if not p:
            return cls(field, len(data), ncols,
                       [[c if type(c) is int else _rational(c) for c in r] for r in data])
        data = [[c % p if type(c) is int else _residue(c, p) for c in r] for r in data]
        if p == 2:
            data = [sum(1 << j for j, c in enumerate(r) if c) for r in data]
        return cls(field, len(data), ncols, data)

    def rank(self) -> int:
        if self._rank is None:
            self._rank = self.rowspace_basis().dim
        return self._rank

    def rowspace_basis(self):
        basis = row_basis(self.field, self.ncols)
        for r in self.rows:
            basis.add(r)
        return basis

    def left_nullspace(self) -> "FMatrix":
        """The reduced row echelon form of {c : c M = 0}, by :func:`kernel_rows`
        on the pairs (row i | e_i)."""
        if self.field.char == 2:
            pairs = [(r, 1 << i) for i, r in enumerate(self.rows)]
        else:  # each pair scaled as one row, so that rational rows become integral
            pairs = [(_sparse(x[:-1]), {i: x[-1]})
                     for i, x in enumerate(_integral([*r, 1]) for r in self.rows)]
        rows = kernel_rows(self.field, pairs, self.ncols, self.nrows)
        return FMatrix(self.field, len(rows), self.nrows, rows)
