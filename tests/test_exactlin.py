"""Exact linear algebra: spec examples plus algebraic property tests."""

from fractions import Fraction as F
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import int_rows, kernel_basis
from toricbundle.exactlin import (
    QMatrix,
    Reducer,
    Span,
    adjugate,
    det_int,
    echelon_int,
    kernel_int,
    rank,
    row_space_rref,
    rref,
    solve,
)


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _sparse(row):
    return tuple((c, x) for c, x in enumerate(row) if x)


def _dense_kernel(rows, ncols):
    """The kernel_int vectors, dense."""
    return [
        tuple(v.get(c, 0) for c in range(ncols))
        for _, v in kernel_int(map(_sparse, rows), ncols)
    ]


def _annihilates(rows, v):
    return all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)


def test_rref_rank_one():
    m, pivots = rref(QMatrix([[1, 2], [2, 4]]))
    assert m == QMatrix([[1, 2], [0, 0]])
    assert pivots == (0,)


def test_rref_identity():
    m = QMatrix(_identity(3))
    r, pivots = rref(m)
    assert r == m
    assert pivots == (0, 1, 2)


def test_rref_hand_reduction():
    r, pivots = rref(QMatrix([[1, 1], [1, -1]]))
    assert r == QMatrix(_identity(2))
    assert pivots == (0, 1)


def test_kernel_single_relation():
    ((j, v),) = kernel_int([[(0, 1), (1, 1)]], 2)
    assert j == 0 and v == {0: 1, 1: -1}


def test_kernel_identity_empty():
    assert kernel_int(map(_sparse, _identity(4)), 4) == []


def test_kernel_vectors_annihilated():
    rows = [[1, 2, 3]]
    basis = _dense_kernel(rows, 3)
    assert len(basis) == 2
    for v in basis:
        assert _annihilates(rows, v)
    assert rank(basis) == 2


def test_solve_identity():
    assert solve(_identity(2), [F(3), F(5)]) == (F(3), F(5))


def test_solve_scalar_division():
    assert solve([[2]], [3]) == (F(3, 2),)


def test_solve_inconsistent():
    assert solve([[1, 0], [0, 0]], [0, 1]) is None


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
    ncols = len(rows[0])
    assert rank(rows) + len(kernel_int(map(_sparse, rows), ncols)) == ncols


@settings(max_examples=120, deadline=None)
@given(matrices)
def test_kernel_exact(rows):
    for v in _dense_kernel(rows, len(rows[0])):
        assert _annihilates(rows, v)


def test_det_examples():
    assert det_int([]) == 1
    assert det_int([[1, 6], [1, 4]]) == -2
    assert det_int([[0, 1], [1, 0]]) == -1
    assert det_int([[1, 2], [2, 4]]) == 0


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
        st.lists(st.integers(-20, 20), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@settings(max_examples=150, deadline=None)
@given(square_matrices)
def test_det_matches_cofactor_expansion(rows):
    assert det_int(rows) == _cofactor_det(rows)


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
    """det_int returns a Python int and leaves its input rows as they
    were."""
    copy = [list(row) for row in rows]
    value = det_int(rows)
    assert type(value) is int and value == _cofactor_det(rows)
    assert rows == copy


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
    assert echelon_int(map(_sparse, a)) == echelon_int(map(_sparse, b))
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
    """Up to 60 x 60, a few nonzero cells: zero rows and columns are common,
    and a new row meets earlier pivots in no particular order."""
    nrows, ncols = draw(st.integers(1, 60)), draw(st.integers(1, 60))
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
    """rref, row_space_rref, rank (also of the rows scaled to ints) and the
    sparse integer echelon against plain Fraction Gauss-Jordan."""
    want_rows, want_pivots = _rref_reference(rows)
    assert rref(QMatrix(rows)) == (QMatrix(want_rows), want_pivots)
    nonzero = want_rows[: len(want_pivots)]
    assert row_space_rref(rows) == tuple(map(tuple, nonzero))
    assert rank(rows) == len(want_pivots)
    scales = [lcm(*(F(x).denominator for x in row)) for row in rows]
    scaled = [[int(x * c) for x in row] for row, c in zip(rows, scales)]
    assert rank(scaled) == len(want_pivots)
    reduced = echelon_int(map(_sparse, rows))
    assert tuple(p for p, _ in reduced) == want_pivots
    # each integer row divided by its pivot entry is the RREF row
    assert [
        tuple((c, F(x, row[p])) for c, x in sorted(row.items()))
        for p, row in reduced
    ] == [_sparse(r) for r in nonzero]


@settings(max_examples=150, deadline=None)
@given(st.one_of(dense_matrices, zero_heavy_matrices()))
def test_kernel_int_and_span(rows):
    """kernel_int is the integer RREF of the kernel_basis vectors; a Span
    grown row by row takes exactly the rows that raise the rank, and ends
    with the pivots of rref."""
    want = echelon_int(enumerate(v) for v in kernel_basis(rows))
    assert kernel_int(map(_sparse, rows), len(rows[0])) == want
    span = Span()
    for i, row in enumerate(rows):
        grows = rank(rows[: i + 1]) > len(span)
        assert span.add(enumerate(row)) == grows
    _, pivots = rref(QMatrix(rows))
    assert len(span) == len(pivots)
    assert sorted(span.pivots) == list(pivots)


def test_known_reduction():
    m, pivots = rref(QMatrix([[2, 4], [1, 2]]))
    assert pivots == (0,)
    assert m == QMatrix([[1, 2], [0, 0]])
    assert echelon_int([[(0, 2), (1, 4)], [(0, 1), (1, 2)]]) == [(0, {0: 1, 1: 2})]


@settings(max_examples=150, deadline=None)
@given(st.one_of(matrices, zero_heavy_matrices()), st.data())
def test_reduce_onto_matches_dense_elimination(rows, data):
    """Reducer classes against elimination on all columns."""
    r, pivots = rref(QMatrix(rows))
    red = r.entries[: len(pivots)]
    reducer = Reducer(echelon_int(_sparse(row) for row in rows), r.cols)
    vec = data.draw(
        st.lists(
            st.one_of(st.just(F(0)), rationals), min_size=r.cols, max_size=r.cols
        )
    )
    dense = _dense_reduce(red, pivots, vec)
    assert reducer.pivots == pivots
    assert reducer.keep == tuple(j for j in range(r.cols) if j not in pivots)
    # each integer row divided by its pivot entry, its first, is the RREF row
    assert tuple(
        tuple((c, F(x, row[0][1])) for c, x in row) for row in int_rows(reducer)
    ) == tuple(_sparse(row) for row in red)
    want = tuple(dense[t] for t in reducer.keep)
    assert reducer.pairs(_sparse(vec)) == _sparse(want)
    # a repeated column adds, and int values come out as Fractions
    split = [(c, x - 1) for c, x in _sparse(vec)] + [(c, 1) for c, _ in _sparse(vec)]
    got = reducer.pairs(split)
    assert got == _sparse(want)
    assert all(type(x) is F for _, x in got)


@settings(max_examples=150, deadline=None)
@given(st.one_of(matrices, zero_heavy_matrices()))
def test_reducer_equality_is_subspace_equality(rows):
    """Reducers of one subspace built by different routines compare equal:
    the row space by echelon_int and as the kernel of its kernel by
    kernel_int, whose rows list their entries in another order.  A row
    outside the space makes them unequal."""
    ncols = len(rows[0])
    by_rows = Reducer(echelon_int(map(_sparse, rows)), ncols)
    kernel = kernel_int(map(_sparse, rows), ncols)
    by_kernel = Reducer(kernel_int((row.items() for _, row in kernel), ncols), ncols)
    assert by_rows == by_kernel
    if kernel:
        wider = echelon_int([*map(_sparse, rows), kernel[0][1].items()])
        assert Reducer(wider, ncols) != by_rows
