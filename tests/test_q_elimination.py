"""Exact Q elimination against a plain ``Fraction`` oracle.

The library eliminates over Q on primitive integer rows and reads results
out as exact rationals.  The oracle, in ``oracle.py``, is the textbook
reduced row echelon form (RREF) in ``Fraction`` arithmetic.  The RREF of a row space is unique,
so every result that the library reads out of an elimination must equal the
oracle's value for value, not merely span the same space.
"""

import json
from fractions import Fraction
from math import lcm
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import left_nullspace, rref, right_nullspace, transpose
from tighttri import boundary_matrix, catalog, induced_map_injective, linalg
from tighttri.linalg import QQ, FMatrix

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


def integer_dict(row) -> dict:
    """A rational row scaled by the lcm of its denominators, as a
    ``{column: entry}`` dict of ints: the same direction."""
    den = lcm(*[Fraction(v).denominator for v in row])
    return {j: int(v * den) for j, v in enumerate(row) if v}


def check_against_oracle(m: FMatrix, other: FMatrix = None):
    """Every readout equals the oracle's, also when the rows are given as
    ``{column: entry}`` dicts of ints."""
    rows, n = m.rows, m.ncols
    pivots, echelon = rref(QQ, rows, n)
    assert m.rank() == len(pivots)
    basis = m.rowspace_basis()
    assert basis.pivots == pivots
    assert_exact(basis.rows, echelon)
    from_dicts = linalg.row_basis(QQ, n)
    for r in rows:
        from_dicts.add(integer_dict(r))
    assert from_dicts.pivots == pivots
    assert_exact(from_dicts.rows, echelon)
    assert not any(from_dicts.reduce(integer_dict(r)) for r in rows)
    # {x : M x = 0} is the left null space of the transpose
    t = FMatrix(QQ, n, len(rows), transpose(QQ, rows, n))
    assert_exact(t.left_nullspace().rows, rref(QQ, right_nullspace(QQ, rows, n), n)[1])
    assert_exact(m.left_nullspace().rows, rref(QQ, left_nullspace(QQ, rows, n), len(rows))[1])
    if other is not None:
        for r in other.rows:
            outside = len(rref(QQ, rows + [r], n)[0]) > len(pivots)
            assert bool(from_dicts.reduce(integer_dict(r))) == outside
        stacked = FMatrix.from_rows(QQ, rows + other.rows)
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
    a, b = (FMatrix.from_rows(QQ, rows) for rows in pair)
    check_against_oracle(a, b)


@settings(max_examples=150, deadline=None)
@given(matrix_pair(wide_int))
def test_integer_matrices_match_oracle(pair):
    a, b = (FMatrix.from_rows(QQ, rows) for rows in pair)
    check_against_oracle(a, b)


@settings(max_examples=60, deadline=None)
@given(matrix_pair(st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3])))
def test_sparse_rank_deficient_matrices_match_oracle(pair):
    # few distinct small entries make dependent rows and non-unit pivots common
    a, b = (FMatrix.from_rows(QQ, rows) for rows in pair)
    check_against_oracle(a, b)


def test_reduce_vanishes_exactly_on_the_row_space():
    m = FMatrix.from_rows(QQ, [[2, 4, 6, 1], [0, 3, 5, Fraction(1, 2)]])
    basis = m.rowspace_basis()
    inside = [2 * u - Fraction(1, 3) * v for u, v in zip(m.rows[0], m.rows[1])]
    assert not any(basis.reduce(inside))
    assert any(basis.reduce([0, 0, 1, 0]))


def test_elimination_builds_no_fraction(monkeypatch):
    hilbert = FMatrix.from_rows(QQ, [[Fraction(1, i + j + 1) for j in range(5)] for i in range(5)])
    monkeypatch.setattr(linalg, "Fraction", None)  # constructing one in linalg now fails
    basis = hilbert.rowspace_basis()
    assert basis.dim == 5
    probe = FMatrix.from_rows(QQ, [[1, 2, 3, 4, 5]]).rows[0]
    assert all(type(v) is int for v in basis.reduce(probe))


# -- boundary matrices of the corpus -------------------------------------------

def test_corpus_boundary_matrices_match_oracle(corpus3):
    surfaces = [("rp2-6", catalog.projective_plane_6()), ("torus-7", catalog.torus_7())]
    for name, x in corpus3[::3] + surfaces:
        for k in range(1, x.dim + 1):
            check_against_oracle(boundary_matrix(x, k, QQ))


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

        dy = boundary_matrix(y, k, QQ)
        cycles = embed(left_nullspace(QQ, dy.rows, dy.ncols))
        bx = boundary_matrix(x, k + 1, QQ).rows if k < x.dim else []
        by = embed(boundary_matrix(y, k + 1, QQ).rows) if k < y.dim else []
        by_rank = len(rref(QQ, by, len(faces))[0])
        meet = ref_intersection(cycles, bx, len(faces))
        first = next(v for v in meet if len(rref(QQ, by + [v], len(faces))[0]) > by_rank)
        want = tuple((faces[j], c) for j, c in enumerate(first) if c)
        assert induced_map_injective(x, rec["subset"], QQ).witness == (k, want), key
