"""Exact Q elimination against a plain ``Fraction`` oracle.

The library eliminates over Q on primitive integer rows and reads results
out as exact rationals with ``echelon_row``.  The oracle, in ``oracle.py``, is the textbook
reduced row echelon form (RREF) in ``Fraction`` arithmetic.  The RREF of a row space is unique,
so every result that the library reads out of an elimination must equal the
oracle's value for value, not merely span the same space.
"""

import json
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import entries, left_nullspace, library_rows, rref, right_nullspace, transpose
from tighttri import catalog, chain_data, induced_map_injective, linalg
from tighttri.linalg import QQ, FMatrix, FieldSpec, echelon_row

WITNESSES = json.loads((Path(__file__).parent / "q_witnesses.json").read_text())


# -- the oracle ----------------------------------------------------------------

def ref_intersection(a, b, ncols):
    """Right halves of the RREF rows of [(a | a); (b | 0)] whose left half is zero."""
    _, basis = rref(QQ, [list(r) + list(r) for r in a] + [list(r) + [0] * ncols for r in b], 2 * ncols)
    return [r[ncols:] for r in basis if not any(r[:ncols])]


def assert_exact(got, want):
    """Equal values, and integral values come back as plain ints."""
    assert got == want
    for row in got:
        for v in row:
            assert type(v) is int or v.denominator != 1


def matrix(rows) -> FMatrix:
    """The matrix of dense rows of ints and Fractions, each row scaled to
    integers, in the library's format."""
    return FMatrix(QQ, len(rows), len(rows[0]), library_rows(QQ, rows))


def check_against_oracle(m: FMatrix, other: FMatrix = None):
    """Every readout equals the oracle's: the stored rows in pivot order,
    read out by ``echelon_row``, are the RREF, value for value, and so are
    the null spaces of the same integral rows."""
    rows, n = m.rows, m.ncols
    pivots, echelon = rref(QQ, rows, n)
    assert m.rank() == len(pivots)
    basis = m.rowspace_basis()
    stored = basis.rows_at(range(n))
    assert [min(r) for r in stored] == pivots
    assert_exact(entries(QQ, [echelon_row(QQ, r) for r in stored], n), echelon)
    assert not any(basis.reduce(r) for r in rows)
    # {x : M x = 0} is the left null space of the transpose
    t = FMatrix(QQ, n, len(rows), library_rows(QQ, transpose(QQ, rows, n)))
    assert_exact(entries(QQ, t.left_nullspace().rows, n),
                 rref(QQ, right_nullspace(QQ, rows, n), n)[1])
    assert_exact(entries(QQ, m.left_nullspace().rows, len(rows)),
                 rref(QQ, left_nullspace(QQ, rows, n), len(rows))[1])
    if other is not None:
        for r in other.rows:
            outside = len(rref(QQ, rows + [r], n)[0]) > len(pivots)
            assert bool(basis.reduce(r)) == outside
        stacked = FMatrix(QQ, m.nrows + other.nrows, n, rows + other.rows)
        assert stacked.rank() == len(rref(QQ, rows + other.rows, n)[0])


# -- drawn matrices ------------------------------------------------------------

rational = st.fractions(min_value=-4, max_value=4, max_denominator=6)
wide_int = st.integers(-30, 30)


def matrix_pair(entries):
    return st.integers(1, 6).flatmap(lambda c: st.tuples(*(
        st.lists(st.lists(entries, min_size=c, max_size=c), min_size=1, max_size=6)
        for _ in range(2))))


@settings(max_examples=100, deadline=None)
@given(matrix_pair(rational))
def test_rational_matrices_match_oracle(pair):
    a, b = (matrix(rows) for rows in pair)
    check_against_oracle(a, b)


@settings(max_examples=150, deadline=None)
@given(matrix_pair(wide_int))
def test_integer_matrices_match_oracle(pair):
    a, b = (matrix(rows) for rows in pair)
    check_against_oracle(a, b)


@settings(max_examples=60, deadline=None)
@given(matrix_pair(st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3])))
def test_sparse_rank_deficient_matrices_match_oracle(pair):
    # few distinct small entries make dependent rows and non-unit pivots common
    a, b = (matrix(rows) for rows in pair)
    check_against_oracle(a, b)


def test_reduce_vanishes_exactly_on_the_row_space():
    rows = [[2, 4, 6, 1], [0, 3, 5, Fraction(1, 2)]]
    basis = matrix(rows).rowspace_basis()
    inside = [2 * u - Fraction(1, 3) * v for u, v in zip(*rows)]
    assert basis.reduce(library_rows(QQ, [inside])[0]) == {}
    assert basis.reduce({2: 1})


def test_elimination_builds_no_fraction(monkeypatch):
    hilbert = matrix([[Fraction(1, i + j + 1) for j in range(5)] for i in range(5)])
    monkeypatch.setattr(linalg, "Fraction", None)  # constructing one in linalg now fails
    basis = hilbert.rowspace_basis()
    assert basis.dim == 5
    assert all(type(v) is int for r in basis.rows_at(range(5)) for v in r.values())
    probe = basis.reduce({0: 1, 1: 2, 2: 3, 3: 4, 4: 5})
    assert all(type(v) is int for v in probe.values())


@settings(max_examples=100, deadline=None)
@given(st.lists(wide_int, min_size=1, max_size=6).filter(any))
def test_echelon_row_is_the_oracle_rref_row(dense):
    """A primitive or scaled integer row, its columns stored in any order,
    reads out as the one row of the oracle's RREF, in ascending columns."""
    n = len(dense)
    row = dict(reversed(library_rows(QQ, [dense])[0].items()))
    got = echelon_row(QQ, row)
    assert list(got) == sorted(got)
    assert_exact(entries(QQ, [got], n), rref(QQ, [dense], n)[1])
    gf3_row = {2: 1, 0: 2}
    assert echelon_row(FieldSpec.gf(3), gf3_row) is gf3_row


# -- boundary matrices of the corpus -------------------------------------------

def test_corpus_boundary_matrices_match_oracle(corpus3):
    surfaces = [("rp2-6", catalog.projective_plane_6()), ("torus-7", catalog.torus_7())]
    for name, x in corpus3[::3] + surfaces:
        for k in range(1, x.dim + 1):
            check_against_oracle(chain_data(x, QQ).boundary(k))


def test_corpus_witness_intersections_match_oracle(pinned_members):
    """The old witness computation, kept as the oracle: intersect the
    subcomplex's cycles, embedded in the ambient faces, with the ambient
    boundaries; the decider's witness is the first row of that meet's
    reduced echelon form outside the subcomplex's boundaries."""
    by_degree = [key for key in WITNESSES if "/deg" in key]
    keys = by_degree[::3] + ["susp-octahedron/deg1", "rp2-6/deg1"]  # the oracle is slow
    for key in keys:
        rec = WITNESSES[key]
        x = pinned_members[key.split("/")[0]]
        k = rec["degree"]
        y = x.induced(rec["subset"])
        faces = x.faces(k)
        col_map = [faces.index(f) for f in y.faces(k)]

        def embed(rows):
            out = []
            for r in rows:
                v = [0] * len(faces)
                for j, c in zip(col_map, r):
                    v[j] = c
                out.append(v)
            return out

        cdx, cdy = chain_data(x, QQ), chain_data(y, QQ)
        dy = cdy.boundary(k)
        cycles = embed(left_nullspace(QQ, dy.rows, dy.ncols))
        bx = entries(QQ, cdx.boundary(k + 1).rows, len(faces)) if k < x.dim else []
        by = embed(entries(QQ, cdy.boundary(k + 1).rows, dy.nrows)) if k < y.dim else []
        by_rank = len(rref(QQ, by, len(faces))[0])
        meet = ref_intersection(cycles, bx, len(faces))
        first = next(v for v in meet if len(rref(QQ, by + [v], len(faces))[0]) > by_rank)
        want = tuple((faces[j], c) for j, c in enumerate(first) if c)
        assert induced_map_injective(x, rec["subset"], QQ).witness == (k, want), key
