import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import entries, is_zero, left_nullspace, matmul, rank, right_nullspace, rref, transpose
from tighttri import boundary_matrix, catalog, chain_data
from tighttri.linalg import GF2, QQ, FMatrix, FieldSpec, kernel_rows, row_basis

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


def transposed(m: FMatrix) -> FMatrix:
    return FMatrix(m.field, m.ncols, m.nrows, transpose(m.field, m.rows, m.ncols))


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
            assert entries(field, FMatrix.from_rows(field, [row]).rows, len(row)) == [want]

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
        assert m.rank() == transposed(m).rank()

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
        prod = matmul(QQ, matmul(QQ, h, h, n), h, n)
        assert FMatrix.from_rows(QQ, prod).rank() == n


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
        # {x : M x = 0} is the left null space of the transpose
        m = FMatrix.from_rows(field, rows)
        t = transposed(m)
        n = t.left_nullspace()
        assert n.nrows == m.ncols - m.rank()
        assert is_zero(field, matmul(field, n.rows, t.rows, m.nrows), m.nrows)
        assert n.rows == rref(field, right_nullspace(field, m.rows, m.ncols), m.ncols)[1]

    @settings(max_examples=60, deadline=None)
    @given(int_matrix, st.sampled_from(FIELDS))
    def test_left_nullspace(self, rows, field):
        m = FMatrix.from_rows(field, rows)
        n = m.left_nullspace()
        assert n.nrows == m.nrows - m.rank()
        assert is_zero(field, matmul(field, n.rows, m.rows, m.ncols), m.ncols)
        assert n.rows == rref(field, left_nullspace(field, m.rows, m.ncols), m.nrows)[1]

    def test_nullspace_of_zero_columns(self):
        m = FMatrix.from_rows(QQ, [[]] * 4)
        assert m.rank() == 0
        assert m.left_nullspace().nrows == 4


# -- GF(p) elimination against a dense oracle ----------------------------------

ODD_PRIMES = [FieldSpec.gf(3), FieldSpec.gf(5), FieldSpec.gf(7), FieldSpec.gf(2 ** 31 - 1)]


def as_dict(row) -> dict:
    return {j: v for j, v in enumerate(row) if v}


def check_gfp_against_oracle(m: FMatrix, probes):
    """Every readout of the elimination equals the oracle's, and ``reduce``
    leaves ``v`` minus its RREF combination, zero exactly on the row space;
    the same rows given as ``{column: entry}`` dicts read out the same."""
    field, rows, n = m.field, m.rows, m.ncols
    p = field.char
    pivots, echelon = rref(field, rows, n)
    assert m.rank() == len(pivots)
    basis = m.rowspace_basis()
    assert basis.pivots == pivots
    assert basis.rows == echelon
    from_sparse = row_basis(field, n)
    for r in rows:
        from_sparse.add(as_dict(r))
    assert from_sparse.pivots == pivots
    assert from_sparse.rows == echelon
    assert transposed(m).left_nullspace().rows == rref(field, right_nullspace(field, rows, n), n)[1]
    assert m.left_nullspace().rows == rref(field, left_nullspace(field, rows, n), len(rows))[1]
    for v in probes:
        want = list(v)
        for piv, b in zip(pivots, echelon):
            c = want[piv]
            want = [(u - c * w) % p for u, w in zip(want, b)]
        got = basis.reduce(v)
        assert got == want
        assert from_sparse.reduce(as_dict(v)) == as_dict(want)
        assert any(got) == (rank(field, rows + [v], n) > len(pivots))


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


# -- Zassenhaus kernels against the dense oracle --------------------------------

KERNEL_FIELDS = [GF2, FieldSpec.gf(3), QQ]


def sparse_rows(field: FieldSpec, rows, ncols: int) -> list:
    """Rows in the row bases' sparse format: masks over GF(2), else dicts."""
    m = FMatrix.from_rows(field, rows, ncols)
    return m.rows if field.char == 2 else [as_dict(r) for r in m.rows]


def oracle_kernel(field: FieldSpec, a, b, n: int, m: int) -> list:
    """The reduced echelon form of {c B : c A = 0}, densely."""
    return rref(field, matmul(field, left_nullspace(field, a, n), b, m), m)[1]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS), st.integers(0, 5), st.integers(0, 5), st.data())
def test_kernel_rows_match_oracle(field, n, m, data):
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, 3])
    pairs = data.draw(st.lists(st.tuples(st.lists(entry, min_size=n, max_size=n),
                                         st.lists(entry, min_size=m, max_size=m)), max_size=6))
    a = FMatrix.from_rows(field, [x for x, _ in pairs], n).rows
    b = FMatrix.from_rows(field, [y for _, y in pairs], m).rows
    got = kernel_rows(field, zip(sparse_rows(field, [x for x, _ in pairs], n),
                                 sparse_rows(field, [y for _, y in pairs], m)), n, m)
    assert got == oracle_kernel(field, a, b, n, m)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_kernel_rows_give_the_meets_of_corpus_members(corpus3, field):
    """C_k(Y) n B_k(X) for Y = X[W]: the combinations of the rows of d_{k+1}
    whose parts off Y's k-faces cancel, applied to the rows."""
    rng = random.Random(7)
    members = [x for _, x in corpus3[::8]] + [catalog.projective_plane_6(), catalog.torus_7()]
    for x in members:
        cd = chain_data(x, field)
        for _ in range(2):
            w = rng.sample(x.vertices, rng.randrange(3, x.num_vertices - 1))
            for k in range(1, x.dim):
                n = len(x.faces(k))
                ycols = [j for j, f in enumerate(x.faces(k)) if set(f) <= set(w)]
                d = cd.boundary(k + 1).rows
                off = [[0 if j in ycols else c for j, c in enumerate(r)]
                       for r in entries(field, d, n)]
                got = kernel_rows(field, zip(sparse_rows(field, off, n), cd.rows(k + 1)), n, n)
                assert got == oracle_kernel(field, FMatrix.from_rows(field, off, n).rows, d, n, n)
                assert all(not any(v[j] for j in range(n) if j not in ycols)
                           for v in entries(field, got, n))
