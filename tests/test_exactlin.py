"""Exact linear algebra: spec examples plus algebraic property tests."""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from toricbundle.exactlin import (
    QMatrix,
    Reducer,
    adjugate,
    det,
    echelon,
    kernel_basis,
    rank,
    row_space_rref,
    rref,
    solve,
)


def test_rref_rank_one():
    m, pivots = rref(QMatrix([[1, 2], [2, 4]]))
    assert m == QMatrix([[1, 2], [0, 0]])
    assert pivots == (0,)


def test_rref_identity():
    m = QMatrix.identity(3)
    r, pivots = rref(m)
    assert r == m
    assert pivots == (0, 1, 2)


def test_rref_hand_reduction():
    r, pivots = rref(QMatrix([[1, 1], [1, -1]]))
    assert r == QMatrix.identity(2)
    assert pivots == (0, 1)


def test_kernel_single_relation():
    (v,) = kernel_basis(QMatrix([[1, 1]]))
    assert v[0] + v[1] == 0 and any(v)


def test_kernel_identity_empty():
    assert kernel_basis(QMatrix.identity(4)) == []


def test_kernel_vectors_annihilated():
    m = QMatrix([[1, 2, 3]])
    basis = kernel_basis(m)
    assert len(basis) == 2
    for v in basis:
        assert m.matvec(v) == (F(0),)
    assert rank(QMatrix(basis)) == 2


def test_solve_identity():
    assert solve(QMatrix.identity(2), [F(3), F(5)]) == (F(3), F(5))


def test_solve_scalar_division():
    assert solve(QMatrix([[2]]), [3]) == (F(3, 2),)


def test_solve_inconsistent():
    assert solve(QMatrix([[1, 0], [0, 0]]), [0, 1]) is None


rationals = st.builds(F, st.integers(-20, 20), st.integers(1, 7))
matrices = st.integers(1, 4).flatmap(
    lambda cols: st.lists(
        st.lists(rationals, min_size=cols, max_size=cols),
        min_size=1,
        max_size=5,
    )
)


@settings(max_examples=120, deadline=None)
@given(matrices)
def test_rref_idempotent(rows):
    m = QMatrix(rows)
    r1, p1 = rref(m)
    r2, p2 = rref(r1)
    assert r1 == r2 and p1 == p2


@settings(max_examples=120, deadline=None)
@given(matrices)
def test_rank_nullity(rows):
    m = QMatrix(rows)
    assert rank(m) + len(kernel_basis(m)) == m.cols


@settings(max_examples=120, deadline=None)
@given(matrices)
def test_kernel_exact(rows):
    m = QMatrix(rows)
    for v in kernel_basis(m):
        assert all(x == 0 for x in m.matvec(v))


def test_det_examples():
    assert det([]) == 1
    assert det([[F(1, 2), 3], [1, 4]]) == -1
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[1, 2], [2, 4]]) == 0


def _cofactor_det(rows):
    """Reference: Laplace expansion along the first row."""
    if not rows:
        return F(1)
    total = F(0)
    for j, x in enumerate(rows[0]):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * x * _cofactor_det(minor)
    return total


square_matrices = st.integers(0, 5).flatmap(
    lambda n: st.lists(
        st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n
    )
)


@settings(max_examples=150, deadline=None)
@given(square_matrices)
def test_det_matches_cofactor_expansion(rows):
    assert det(rows) == _cofactor_det(rows)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_det_of_integer_matrix_is_integer(rows):
    value = det(rows)
    assert value.denominator == 1 and value == _cofactor_det(rows)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_adjugate_matches_cofactors(rows):
    """Column j, entry c of adj E is (-1)^(c+j) times the minor of E
    without row j and column c."""
    d = _cofactor_det(rows)
    if d == 0:
        return
    n = len(rows)
    cofactor_columns = tuple(
        tuple(
            (-1) ** (c + j)
            * _cofactor_det(
                [row[:c] + row[c + 1:] for r, row in enumerate(rows) if r != j]
            )
            for c in range(n)
        )
        for j in range(n)
    )
    assert adjugate(rows) == (d, cofactor_columns)


def test_qmatrix_keeps_fraction_entries():
    x = F(1, 3)
    m = QMatrix([[x, 2]])
    assert m.entries[0][0] is x and m.entries[0][1] == F(2)
    assert type(m.entries[0][1]) is F


def test_row_space_canonical():
    a = [[F(2), F(4)], [F(1), F(3)]]
    b = [[F(1), F(2)], [F(0), F(1)], [F(3), F(7)]]
    assert echelon(_sparse(row) for row in a) == echelon(_sparse(row) for row in b)
    assert row_space_rref(a) == row_space_rref(b) == ((1, 0), (0, 1))


def _dense_reduce(rows, pivots, vec):
    """Reference: eliminate the rref rows one after the other, all columns."""
    v = list(vec)
    for row, p in zip(rows, pivots):
        c = v[p]
        if c:
            for t in range(len(v)):
                v[t] -= c * row[t]
    return v


def _sparse(row):
    return tuple((c, x) for c, x in enumerate(row) if x)


def _rref_reference(rows):
    """Gauss-Jordan on Fractions: first nonzero pivot per column, top-down."""
    rows = [[F(x) for x in row] for row in rows]
    pivots = []
    for col in range(len(rows[0])):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                k = row[col]
                rows[i] = [a - k * b for a, b in zip(row, rows[r])]
        pivots.append(col)
    return rows, tuple(pivots)


entries = st.one_of(
    st.integers(-30, 30), st.builds(F, st.integers(-30, 30), st.integers(1, 12))
)
dense_matrices = st.integers(1, 6).flatmap(
    lambda cols: st.lists(
        st.lists(entries, min_size=cols, max_size=cols), min_size=1, max_size=6
    )
)


@st.composite
def zero_heavy_matrices(draw):
    """Up to 25 x 25, a few nonzero cells: zero rows and columns are common."""
    nrows, ncols = draw(st.integers(1, 25)), draw(st.integers(1, 25))
    nonzero = entries.filter(bool)
    cells = draw(
        st.lists(
            st.tuples(
                st.integers(0, nrows - 1), st.integers(0, ncols - 1), nonzero
            ),
            max_size=2 * max(nrows, ncols),
        )
    )
    rows = [[0] * ncols for _ in range(nrows)]
    for i, j, x in cells:
        rows[i][j] = x
    return rows


@settings(max_examples=300, deadline=None)
@given(st.one_of(dense_matrices, zero_heavy_matrices()))
def test_rref_matches_fraction_gauss_jordan(rows):
    """rref, rank and the sparse echelon against plain Fraction Gauss-Jordan."""
    m = QMatrix(rows)
    want_rows, want_pivots = _rref_reference(rows)
    assert rref(m) == (QMatrix(want_rows), want_pivots)
    assert rank(m) == len(want_pivots)
    sparse_rows = tuple(_sparse(r) for r in want_rows[: len(want_pivots)])
    assert echelon(_sparse(r) for r in rows) == (sparse_rows, want_pivots)


def test_known_reduction():
    m, pivots = rref(QMatrix([[2, 4], [1, 2]]))
    assert pivots == (0,)
    assert m == QMatrix([[1, 2], [0, 0]])
    assert echelon([[(0, 2), (1, 4)], [(0, 1), (1, 2)]]) == (
        (((0, F(1)), (1, F(2))),),
        (0,),
    )


@settings(max_examples=150, deadline=None)
@given(st.one_of(matrices, zero_heavy_matrices()), st.data())
def test_reduce_onto_matches_dense_elimination(rows, data):
    """Reducer classes against elimination on all columns."""
    r, pivots = rref(QMatrix(rows))
    red = r.entries[: len(pivots)]
    reducer = Reducer(*echelon(_sparse(row) for row in rows), r.cols)
    assert reducer.pivots == pivots
    assert reducer.keep == tuple(j for j in range(r.cols) if j not in pivots)
    assert reducer.rows() == tuple(_sparse(row) for row in red)
    vec = data.draw(
        st.lists(
            st.one_of(st.just(F(0)), rationals), min_size=r.cols, max_size=r.cols
        )
    )
    dense = _dense_reduce(red, pivots, vec)
    want = tuple(dense[t] for t in reducer.keep)
    assert reducer.pairs(_sparse(vec)) == _sparse(want)
