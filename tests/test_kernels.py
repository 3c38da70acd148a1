"""The integer elimination kernel, as :func:`exactlin.rref` and
:func:`exactlin.rank` drive it, against plain Fraction Gauss-Jordan."""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from toricbundle._kernels import BACKEND
from toricbundle._kernels._gj_py import gauss_jordan_int as gj_py
from toricbundle.exactlin import QMatrix, rank, rref


def test_backend_reports_something():
    assert BACKEND in ("cython", "python")


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
matrices = st.integers(1, 6).flatmap(
    lambda cols: st.lists(
        st.lists(entries, min_size=cols, max_size=cols), min_size=1, max_size=6
    )
)


@settings(max_examples=300, deadline=None)
@given(matrices)
def test_rref_matches_fraction_gauss_jordan(rows):
    m = QMatrix(rows)
    want_rows, want_pivots = _rref_reference(rows)
    assert rref(m) == (QMatrix(want_rows), want_pivots)
    assert rank(m) == len(want_pivots)


def test_known_reduction():
    rows = [[2, 4], [1, 2]]
    pivots = gj_py(rows)
    assert pivots == [0]
    assert rows == [[1, 2], [0, 0]]
