import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tighttri.linalg import GF2, QQ, FMatrix, FieldSpec

FIELDS = [QQ, GF2, FieldSpec.gf(3), FieldSpec.gf(5), FieldSpec.gf(7)]

int_matrix = st.integers(1, 5).flatmap(
    lambda c: st.lists(st.lists(st.integers(-4, 4), min_size=c, max_size=c),
                       min_size=1, max_size=5))


def dim_sum(a: FMatrix, b: FMatrix) -> int:
    """Dimension of rowspace(a) + rowspace(b): the rank of the stacked rows."""
    if a.field.char == 2:
        return FMatrix.from_bitrows(a.rows + b.rows, a.ncols).rank()
    return FMatrix.from_rows(a.field, a.rows + b.rows).rank()


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


class TestRank:
    def test_zero_matrix(self):
        for field in FIELDS:
            assert FMatrix.zeros(field, 3, 4).rank() == 0

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
            a = FMatrix.from_bitrows(rows_a, 5)
            b = FMatrix.from_bitrows(rows_b, 5)
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
        m = FMatrix.zeros(QQ, 4, 0)
        assert m.rank() == 0
        assert m.left_nullspace().nrows == 4
