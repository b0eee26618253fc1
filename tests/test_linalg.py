import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tighttri import boundary_matrix, catalog
from tighttri.linalg import GF2, QQ, FMatrix, FieldSpec, row_basis

FIELDS = [QQ, GF2, FieldSpec.gf(3), FieldSpec.gf(5), FieldSpec.gf(7)]

int_matrix = st.integers(1, 5).flatmap(
    lambda c: st.lists(st.lists(st.integers(-4, 4), min_size=c, max_size=c),
                       min_size=1, max_size=5))


def dim_sum(a: FMatrix, b: FMatrix) -> int:
    """Dimension of rowspace(a) + rowspace(b): the rank of the stacked rows."""
    if a.field.char == 2:
        return bitrows(a.rows + b.rows, a.ncols).rank()
    return FMatrix.from_rows(a.field, a.rows + b.rows).rank()


def bitrows(masks: list, ncols: int) -> FMatrix:
    """A GF(2) matrix from bit-packed rows."""
    return FMatrix(GF2, len(masks), ncols, masks)


def entries(m: FMatrix) -> list:
    """The entries of a matrix as dense lists (GF(2) rows are bitmasks)."""
    if m.field.char == 2:
        return [[(r >> j) & 1 for j in range(m.ncols)] for r in m.rows]
    return [list(r) for r in m.rows]


def is_zero(m: FMatrix) -> bool:
    return all(c == 0 for row in entries(m) for c in row)


def span_gf2(rows):
    out = {0}
    for r in rows:
        out |= {x ^ r for x in out}
    return out


class TestFieldSpec:
    def test_prime_validation(self):
        with pytest.raises(ValueError):
            FieldSpec.gf(4)
        with pytest.raises(ValueError):
            FieldSpec.gf(1)
        with pytest.raises(ValueError):
            FieldSpec(2 ** 31)
        assert FieldSpec.gf(2 ** 31 - 1).char == 2 ** 31 - 1

    def test_str(self):
        assert str(QQ) == "Q"
        assert str(GF2) == "GF(2)"
        assert str(FieldSpec.gf(17)) == "GF(17)"


class TestFromRows:
    def test_rationals_map_to_their_residues(self):
        # a/b is a * b**-1 mod p, not int(a/b)
        cases = {
            GF2: ([Fraction(1, 3), Fraction(-3, 5), Fraction(4, 7), -1], [1, 1, 0, 1]),
            FieldSpec.gf(3): ([Fraction(1, 2), 1, Fraction(-3, 5), Fraction(5, 4)], [2, 1, 0, 2]),
            FieldSpec.gf(7): ([Fraction(1, 2), Fraction(-3, 4), Fraction(1, 3), Fraction(10, 9)],
                              [4, 1, 5, 5]),
        }
        for field, (row, want) in cases.items():
            assert entries(FMatrix.from_rows(field, [row])) == [want]

    def test_denominator_divisible_by_p_is_rejected(self):
        for field, bad in ((GF2, Fraction(1, 2)), (FieldSpec.gf(3), Fraction(1, 3)),
                           (FieldSpec.gf(7), Fraction(5, 14))):
            with pytest.raises(ValueError):
                FMatrix.from_rows(field, [[1, bad]])


class TestRank:
    def test_zero_matrix(self):
        for field in FIELDS:
            assert FMatrix.from_rows(field, [[0] * 4] * 3).rank() == 0

    def test_identity(self):
        eye = [[int(i == j) for j in range(6)] for i in range(6)]
        for field in FIELDS:
            assert FMatrix.from_rows(field, eye).rank() == 6

    def test_cycle_boundary(self):
        # edge rows of the triangle boundary over Q: rank 2 by hand elimination
        rows = [[-1, 1, 0], [-1, 0, 1], [0, -1, 1]]
        assert FMatrix.from_rows(QQ, rows).rank() == 2
        assert FMatrix.from_rows(GF2, rows).rank() == 2

    @settings(max_examples=60, deadline=None)
    @given(int_matrix, st.sampled_from(FIELDS))
    def test_rank_equals_transpose_rank(self, rows, field):
        m = FMatrix.from_rows(field, rows)
        assert m.rank() == m.transpose().rank()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 1), min_size=4, max_size=4),
                    min_size=1, max_size=5))
    def test_gf2_rank_at_most_rational_rank(self, rows):
        assert FMatrix.from_rows(GF2, rows).rank() <= FMatrix.from_rows(QQ, rows).rank()

    def test_hilbert_matrices_have_full_rank(self):
        # ill-conditioned in floating point; exact arithmetic must not care
        for n in (4, 6, 8, 9):
            h = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
            assert FMatrix.from_rows(QQ, h).rank() == n

    def test_integer_hilbert_like_products(self):
        n = 6
        h = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
        m = FMatrix.from_rows(QQ, h)
        prod = m.matmul(m).matmul(m)
        assert prod.rank() == n


class TestDimSum:
    def test_equal_rowspaces(self):
        a = FMatrix.from_rows(QQ, [[1, 2, 3], [0, 1, 1]])
        assert dim_sum(a, a) == a.rank()

    def test_disjoint_pivots(self):
        a = FMatrix.from_rows(GF2, [[1, 0, 0, 0], [0, 1, 0, 0]])
        b = FMatrix.from_rows(GF2, [[0, 0, 1, 0], [0, 0, 0, 1]])
        assert dim_sum(a, b) == 4

    def test_column_mismatch(self):
        a = FMatrix.from_rows(QQ, [[1, 0]])
        b = FMatrix.from_rows(QQ, [[1, 0, 0]])
        with pytest.raises(ValueError):
            dim_sum(a, b)

    def test_against_exhaustive_span_enumeration(self):
        rng = random.Random(20240405)
        for _ in range(50):
            rows_a = [rng.getrandbits(5) for _ in range(3)]
            rows_b = [rng.getrandbits(5) for _ in range(3)]
            a = bitrows(rows_a, 5)
            b = bitrows(rows_b, 5)
            assert 1 << dim_sum(a, b) == len(span_gf2(rows_a + rows_b))

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(FIELDS), st.data())
    def test_intersection_dimension_bounds(self, field, data):
        cols = data.draw(st.integers(2, 5))
        mk = lambda: FMatrix.from_rows(field, data.draw(st.lists(
            st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
            min_size=1, max_size=4)))
        a, b = mk(), mk()
        inter = a.rank() + b.rank() - dim_sum(a, b)
        assert 0 <= inter <= min(a.rank(), b.rank())


class TestNullspaces:
    @settings(max_examples=60, deadline=None)
    @given(int_matrix, st.sampled_from(FIELDS))
    def test_right_nullspace(self, rows, field):
        m = FMatrix.from_rows(field, rows)
        n = m.right_nullspace()
        assert n.nrows == m.ncols - m.rank()
        assert is_zero(n.matmul(m.transpose()))

    @settings(max_examples=60, deadline=None)
    @given(int_matrix, st.sampled_from(FIELDS))
    def test_left_nullspace(self, rows, field):
        m = FMatrix.from_rows(field, rows)
        n = m.left_nullspace()
        assert n.nrows == m.nrows - m.rank()
        assert is_zero(n.matmul(m))

    def test_nullspace_of_zero_columns(self):
        m = FMatrix.from_rows(QQ, [[]] * 4)
        assert m.rank() == 0
        assert m.left_nullspace().nrows == 4


# -- GF(p) elimination against a dense oracle ----------------------------------

ODD_PRIMES = [FieldSpec.gf(3), FieldSpec.gf(5), FieldSpec.gf(7), FieldSpec.gf(2 ** 31 - 1)]


def gfp_rref(rows, ncols: int, p: int):
    """(pivots, rows) of the reduced row echelon form over GF(p) by textbook
    Gauss-Jordan elimination, column by column on dense rows."""
    m = [[c % p for c in r] for r in rows]
    pivots = []
    for j in range(ncols):
        i = len(pivots)
        k = next((k for k in range(i, len(m)) if m[k][j]), None)
        if k is None:
            continue
        m[i], m[k] = m[k], m[i]
        inv = pow(m[i][j], -1, p)
        m[i] = [c * inv % p for c in m[i]]
        for t in range(len(m)):
            c = m[t][j]
            if t != i and c:
                m[t] = [(u - c * v) % p for u, v in zip(m[t], m[i])]
        pivots.append(j)
    return pivots, m[:len(pivots)]


def gfp_right_nullspace(rows, ncols: int, p: int):
    """One vector per free column f: 1 at f, minus the RREF's column f at
    the pivots."""
    pivots, rref = gfp_rref(rows, ncols, p)
    out = []
    for f in range(ncols):
        if f not in pivots:
            x = [0] * ncols
            x[f] = 1
            for piv, b in zip(pivots, rref):
                x[piv] = -b[f] % p
            out.append(x)
    return out


def as_dict(row) -> dict:
    return {j: v for j, v in enumerate(row) if v}


def check_gfp_against_oracle(m: FMatrix, probes):
    """Every readout of the elimination equals the oracle's, and ``reduce``
    leaves ``v`` minus its RREF combination, zero exactly on the row space;
    the same rows given as ``{column: entry}`` dicts read out the same."""
    p, rows, n = m.field.char, m.rows, m.ncols
    pivots, rref = gfp_rref(rows, n, p)
    assert m.rank() == len(pivots)
    basis = m.rowspace_basis()
    assert basis.pivots == pivots
    assert basis.rows == rref
    from_sparse = row_basis(m.field, n)
    for r in rows:
        from_sparse.add(as_dict(r))
    assert from_sparse.pivots == pivots
    assert from_sparse.rows == rref
    assert m.right_nullspace().rows == gfp_right_nullspace(rows, n, p)
    assert m.left_nullspace().rows == gfp_right_nullspace(
        [list(col) for col in zip(*rows)], len(rows), p)
    for v in probes:
        want = list(v)
        for piv, b in zip(pivots, rref):
            c = want[piv]
            want = [(u - c * w) % p for u, w in zip(want, b)]
        got = basis.reduce(v)
        assert got == want
        assert from_sparse.reduce(as_dict(v)) == as_dict(want)
        assert any(got) == (len(gfp_rref(rows + [v], n, p)[0]) > len(pivots))


@st.composite
def rank_deficient_gfp(draw, sparse: bool):
    """A matrix over an odd prime field whose later rows include
    combinations of its first ones, with probe vectors inside and outside
    the row space."""
    field = draw(st.sampled_from(ODD_PRIMES))
    p = field.char
    ncols = draw(st.integers(1, 7))
    entry = (st.sampled_from([0, 0, 0, 1, p - 1, 2 % p]) if sparse
             else st.integers(0, p - 1))
    vec = st.lists(entry, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(vec, min_size=1, max_size=5))
    coeffs = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=len(rows), max_size=len(rows)),
                           min_size=1, max_size=3))
    combos = [[sum(c * r[j] for c, r in zip(cs, rows)) % p for j in range(ncols)] for cs in coeffs]
    order = draw(st.permutations(range(len(rows) + len(combos))))
    allrows = rows + combos
    probes = combos + draw(st.lists(vec, min_size=1, max_size=3))
    return FMatrix.from_rows(field, [allrows[i] for i in order], ncols), probes


class TestGFpElimination:
    @settings(max_examples=150, deadline=None)
    @given(rank_deficient_gfp(sparse=False))
    def test_dense_matrices_match_oracle(self, drawn):
        check_gfp_against_oracle(*drawn)

    @settings(max_examples=150, deadline=None)
    @given(rank_deficient_gfp(sparse=True))
    def test_sparse_matrices_match_oracle(self, drawn):
        check_gfp_against_oracle(*drawn)

    def test_corpus_boundary_matrices_match_oracle(self, corpus3):
        gf3 = FieldSpec.gf(3)
        surfaces = [("rp2-6", catalog.projective_plane_6()), ("torus-7", catalog.torus_7())]
        for name, x in corpus3[::3] + surfaces:
            for k in range(1, x.dim + 1):
                m = boundary_matrix(x, k, gf3)
                check_gfp_against_oracle(m, m.rows[:3] + [[1] * m.ncols])
