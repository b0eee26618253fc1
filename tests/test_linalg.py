import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import two_handle_quotient
from oracle import (echelon_rank, entries, is_zero, left_nullspace, library_rows, matmul,
                    oracle_boundary, rank, right_nullspace, rref, transpose)
from tighttri import catalog, chain_data
from tighttri.linalg import (GF2, QQ, FMatrix, FieldSpec, echelon_row, items_row, kernel_rows,
                             row_items, signed_rows)

FIELDS = [QQ, GF2, FieldSpec.gf(3), FieldSpec.gf(5), FieldSpec.gf(7)]

int_matrix = st.integers(1, 5).flatmap(
    lambda c: st.lists(st.lists(st.integers(-4, 4), min_size=c, max_size=c),
                       min_size=1, max_size=5))


def matrix(field: FieldSpec, rows, ncols: int = None) -> FMatrix:
    """The matrix of dense rows of ints and Fractions, in the library's format."""
    rows = list(rows)
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    return FMatrix(field, len(rows), ncols, library_rows(field, rows))


def same_rows(field: FieldSpec, got, want, ncols: int) -> bool:
    """Equal rows, compared densely: library rows against oracle rows."""
    return entries(field, got, ncols) == entries(field, want, ncols)


def dim_sum(a: FMatrix, b: FMatrix) -> int:
    """Dimension of rowspace(a) + rowspace(b): the rank of the stacked rows."""
    return FMatrix(a.field, a.nrows + b.nrows, a.ncols, a.rows + b.rows).rank()


def bitrows(masks: list, ncols: int) -> FMatrix:
    """A GF(2) matrix from bit-packed rows."""
    return FMatrix(GF2, len(masks), ncols, masks)


def transposed(m: FMatrix) -> FMatrix:
    t = transpose(m.field, m.rows, m.ncols)
    return matrix(m.field, entries(m.field, t, m.nrows), m.nrows)


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
            FieldSpec.gf(0)
        with pytest.raises(ValueError):
            FieldSpec(2 ** 31)
        assert FieldSpec.gf(2 ** 31 - 1).char == 2 ** 31 - 1

    def test_odd_composite_characteristics_rejected(self):
        with pytest.raises(ValueError, match="9 is not prime"):
            FieldSpec(9)
        with pytest.raises(ValueError, match="15 is not prime"):
            FieldSpec.gf(15)

    def test_str(self):
        assert str(QQ) == "Q"
        assert str(GF2) == "GF(2)"
        assert str(FieldSpec.gf(17)) == "GF(17)"


class TestRank:
    def test_zero_matrix(self):
        for field in FIELDS:
            assert matrix(field, [[0] * 4] * 3).rank() == 0

    def test_identity(self):
        eye = [[int(i == j) for j in range(6)] for i in range(6)]
        for field in FIELDS:
            assert matrix(field, eye).rank() == 6

    def test_cycle_boundary(self):
        # edge rows of the triangle boundary over Q: rank 2 by hand elimination
        rows = [[-1, 1, 0], [-1, 0, 1], [0, -1, 1]]
        assert matrix(QQ, rows).rank() == 2
        assert matrix(GF2, rows).rank() == 2

    @settings(max_examples=60, deadline=None)
    @given(int_matrix, st.sampled_from(FIELDS))
    def test_rank_equals_transpose_rank(self, rows, field):
        m = matrix(field, rows)
        assert m.rank() == transposed(m).rank()

    @settings(max_examples=60, deadline=None)
    @given(int_matrix, st.sampled_from(FIELDS))
    def test_oracle_ranks_agree(self, rows, field):
        # the sparse echelon rank that the duality tests use, against the
        # dense Gauss-Jordan rank and the library's
        packed = library_rows(field, rows)
        want = rank(field, packed, len(rows[0]))
        assert echelon_rank(field, packed) == want
        assert matrix(field, rows).rank() == want

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 1), min_size=4, max_size=4),
                    min_size=1, max_size=5))
    def test_gf2_rank_at_most_rational_rank(self, rows):
        assert matrix(GF2, rows).rank() <= matrix(QQ, rows).rank()

    def test_hilbert_matrices_have_full_rank(self):
        # ill-conditioned in floating point; exact arithmetic must not care
        for n in (4, 6, 8, 9):
            h = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
            assert matrix(QQ, h).rank() == n

    def test_integer_hilbert_like_products(self):
        n = 6
        h = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
        prod = matmul(QQ, matmul(QQ, h, h, n), h, n)
        assert matrix(QQ, prod).rank() == n


class TestDimSum:
    def test_equal_rowspaces(self):
        a = matrix(QQ, [[1, 2, 3], [0, 1, 1]])
        assert dim_sum(a, a) == a.rank()

    def test_disjoint_pivots(self):
        a = matrix(GF2, [[1, 0, 0, 0], [0, 1, 0, 0]])
        b = matrix(GF2, [[0, 0, 1, 0], [0, 0, 0, 1]])
        assert dim_sum(a, b) == 4

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
        mk = lambda: matrix(field, data.draw(st.lists(
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
        m = matrix(field, rows)
        t = transposed(m)
        n = t.left_nullspace()
        assert n.nrows == m.ncols - m.rank()
        assert is_zero(field, matmul(field, n.rows, t.rows, m.nrows), m.nrows)
        assert same_rows(field, n.rows, rref(field, right_nullspace(field, m.rows, m.ncols), m.ncols)[1],
                         m.ncols)

    @settings(max_examples=60, deadline=None)
    @given(int_matrix, st.sampled_from(FIELDS))
    def test_left_nullspace(self, rows, field):
        m = matrix(field, rows)
        n = m.left_nullspace()
        assert n.nrows == m.nrows - m.rank()
        assert is_zero(field, matmul(field, n.rows, m.rows, m.ncols), m.ncols)
        assert same_rows(field, n.rows, rref(field, left_nullspace(field, m.rows, m.ncols), m.nrows)[1],
                         m.nrows)

    def test_nullspace_of_zero_columns(self):
        m = matrix(QQ, [[]] * 4)
        assert m.rank() == 0
        assert m.left_nullspace().nrows == 4

    def test_rational_rows_are_rejected_by_name(self):
        with pytest.raises(ValueError, match="row 0 has the non-integer entry Fraction"):
            FMatrix(QQ, 1, 2, [{0: 1, 1: Fraction(1, 2)}]).rank()
        n = matrix(QQ, [[2, 1], [1, 0], [0, 3]]).left_nullspace()
        assert any(type(v) is Fraction for r in n.rows for v in r.values())
        with pytest.raises(ValueError, match="row 0 has the non-integer entry"):
            n.rank()
        assert matrix(QQ, [[2, 1], [1, 0], [0, 3]]).rank() == 2


# -- GF(p) elimination against a dense oracle ----------------------------------

ODD_PRIMES = [FieldSpec.gf(3), FieldSpec.gf(5), FieldSpec.gf(7), FieldSpec.gf(2 ** 31 - 1)]


def check_gfp_against_oracle(m: FMatrix, probes):
    """Every readout of the elimination equals the oracle's: the stored rows,
    in pivot order, are the RREF, and ``reduce`` leaves the dense probe
    ``v`` minus its RREF combination, empty exactly on the row space."""
    field, rows, n = m.field, m.rows, m.ncols
    p = field.char
    pivots, echelon = rref(field, rows, n)
    assert m.rank() == len(pivots)
    basis = m.rowspace_basis()
    stored = basis.rows_at(range(n))
    assert [min(r) for r in stored] == pivots
    assert same_rows(field, stored, echelon, n)
    assert same_rows(field, transposed(m).left_nullspace().rows,
                     rref(field, right_nullspace(field, rows, n), n)[1], n)
    assert same_rows(field, m.left_nullspace().rows,
                     rref(field, left_nullspace(field, rows, n), len(rows))[1], len(rows))
    for v in probes:
        want = list(v)
        for piv, b in zip(pivots, echelon):
            c = want[piv]
            want = [(u - c * w) % p for u, w in zip(want, b)]
        got = basis.reduce(library_rows(field, [v])[0])
        assert same_rows(field, [got], [want], n)
        assert bool(got) == (rank(field, rows + [v], n) > len(pivots))


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
    return matrix(field, [allrows[i] for i in order], ncols), probes


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
                m = chain_data(x, gf3).boundary(k)
                check_gfp_against_oracle(m, entries(gf3, m.rows[:3], m.ncols) + [[1] * m.ncols])


# -- Zassenhaus kernels against the dense oracle --------------------------------

KERNEL_FIELDS = [GF2, FieldSpec.gf(3), QQ]


def oracle_kernel(field: FieldSpec, a, b, n: int, m: int) -> list:
    """The reduced echelon form of {c B : c A = 0}, densely."""
    return rref(field, matmul(field, left_nullspace(field, a, n), b, m), m)[1]


def read_kernel(field: FieldSpec, pairs, n: int, m: int) -> list:
    """:func:`kernel_rows` read out as its reduced echelon form."""
    return [echelon_row(field, r) for r in kernel_rows(field, pairs, n, m)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS), st.integers(0, 5), st.integers(0, 5), st.data())
def test_kernel_rows_match_oracle(field, n, m, data):
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, 3])
    pairs = data.draw(st.lists(st.tuples(st.lists(entry, min_size=n, max_size=n),
                                         st.lists(entry, min_size=m, max_size=m)), max_size=6))
    a = library_rows(field, [x for x, _ in pairs])
    b = library_rows(field, [y for _, y in pairs])
    got = read_kernel(field, zip(a, b), n, m)
    assert same_rows(field, got, oracle_kernel(field, a, b, n, m), m)


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
                off = library_rows(field, [[0 if j in ycols else c for j, c in enumerate(r)]
                                           for r in entries(field, d, n)])
                got = read_kernel(field, zip(off, cd.rows(k + 1)), n, n)
                assert same_rows(field, got, oracle_kernel(field, off, d, n, n), n)
                assert all(not any(v[j] for j in range(n) if j not in ycols)
                           for v in entries(field, got, n))


# -- building and reading rows against the dense oracle -------------------------

ROW_FIELDS = [GF2, FieldSpec.gf(3), FieldSpec.gf(5), QQ]


@pytest.mark.parametrize("field", ROW_FIELDS, ids=str)
def test_signed_rows_are_the_boundary_matrices(corpus3, field):
    """Every boundary matrix of the corpus and the two-handle quotient, from
    the columns of each face's facets in ``combinations`` order; read back
    by :func:`row_items` as its nonzero entries, ascending, and rebuilt from
    them by :func:`items_row`."""
    for name, x in list(corpus3) + [("two-handle", two_handle_quotient())]:
        for k in range(x.dim + 1):
            cols = {g: j for j, g in enumerate(x.faces(k - 1))}
            columns = [[cols[g] for g in itertools.combinations(f, k)] if k else ()
                       for f in x.faces(k)]
            rows = signed_rows(field, columns)
            assert rows == library_rows(field, oracle_boundary(x, k)), (name, k)
            want = [[(j, c) for j, c in enumerate(r) if c]
                    for r in entries(field, rows, len(cols))]
            assert [row_items(field, r) for r in rows] == want, (name, k)
            assert [items_row(field, row_items(field, r)) for r in rows] == rows, (name, k)


@pytest.mark.parametrize("field", ROW_FIELDS, ids=str)
def test_signed_rows_take_columns_in_any_order(field):
    """+1 at the last column and alternating back from it, as the collapse's
    triangles (b, c), (a, c), (a, b) and the forest's single edges use them."""
    rows = signed_rows(field, [(5, 2, 0), (3,), (), (1, 4, 0, 2)])
    assert rows == library_rows(field, [[1, 0, -1, 0, 0, 1], [0, 0, 0, 1, 0, 0], [0] * 6,
                                        [-1, -1, 1, 0, 1, 0]])
    assert [row_items(field, r) for r in rows] == \
        [[(j, c) for j, c in enumerate(r) if c] for r in entries(field, rows, 6)]
