"""Exact rational linear algebra on sparse integer rows.

All arithmetic is exact; there is no floating point anywhere in the package.
Every elimination runs through one fraction-free integer Gauss-Jordan on
sparse rows, :func:`toricbundle._kernels.gauss_jordan_int`: each row is
cleared of denominators first, which changes neither row space nor kernel,
and kept primitive (gcd 1) with a positive pivot.  The reduced row echelon
form of a matrix is unique, so the dense :func:`rref`, :func:`kernel_basis`
and :func:`solve` on :class:`QMatrix` return exactly what any Gauss-Jordan
would, bit for bit.

Sparse callers skip the dense matrix: :func:`echelon` takes rows as
``(column, value)`` pairs and returns the nonzero RREF rows in the same form
(:func:`row_space_rref` is its dense spelling), and a :class:`Reducer` keeps
them by pivot, as entries at the non-pivot columns, to compute normal forms
modulo their row space.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from toricbundle._kernels import gauss_jordan_int

Rat = Fraction

QVector = tuple[Fraction, ...]
# (column, value) pairs, columns ascending, values nonzero
SparseRow = tuple[tuple[int, Fraction], ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def _int_rows(rows) -> list[list[int]]:
    """Scale each row of ints and Fractions by the lcm of its denominators."""
    out = []
    for row in rows:
        m = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (m // x.denominator) for x in row])
    return out


def _int_row(pairs) -> dict[int, int]:
    """``{column: int}`` from (column, rational) pairs, zeros dropped, scaled
    by the lcm of the denominators."""
    items = [(c, x) for c, x in pairs if x]
    m = lcm(*(x.denominator for _, x in items))
    if m == 1:
        return {c: x.numerator for c, x in items}
    return {c: x.numerator * (m // x.denominator) for c, x in items}


def _fraction_row(p: int, row: dict[int, int]) -> SparseRow:
    """The RREF row from a primitive integer row with pivot p."""
    pv = row[p]
    return tuple(
        (c, ONE if c == p else Fraction(x, pv)) for c, x in sorted(row.items())
    )


def echelon(rows) -> tuple[tuple[SparseRow, ...], tuple[int, ...]]:
    """Nonzero rows and pivot columns of the RREF of sparse rows.

    ``rows`` is an iterable of rows, each an iterable of (column, value)
    pairs with int or Fraction values (zeros allowed, columns distinct).
    The output rows are :data:`SparseRow` tuples, one per pivot, in pivot
    order; the RREF is unique, so equal outputs mean equal row spaces.
    """
    reduced = gauss_jordan_int([_int_row(r) for r in rows])
    return (
        tuple(_fraction_row(p, row) for p, row in reduced),
        tuple(p for p, _ in reduced),
    )


class QMatrix:
    """Immutable dense matrix of exact rationals."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        entries = tuple(
            tuple(x if type(x) is Fraction else Fraction(x) for x in row)
            for row in entries
        )
        self.rows = len(entries)
        self.cols = len(entries[0]) if entries else 0
        if any(len(row) != self.cols for row in entries):
            raise ValueError("ragged matrix")
        self.entries = entries

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, QMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"QMatrix[{body}]"

    def transpose(self) -> "QMatrix":
        return QMatrix(list(zip(*self.entries))) if self.rows else QMatrix([])

    def matvec(self, v) -> QVector:
        return tuple(
            sum((row[j] * v[j] for j in range(self.cols)), Fraction(0))
            for row in self.entries
        )


def _reduce_dense(rows) -> list[tuple[int, dict[int, int]]]:
    return gauss_jordan_int([_int_row(enumerate(row)) for row in rows])


def rref(m: QMatrix) -> tuple[QMatrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns.  rank = len(pivots)."""
    if m.rows == 0 or m.cols == 0:
        return m, ()
    reduced = _reduce_dense(m.entries)
    out = []
    for p, row in reduced:
        dense = [ZERO] * m.cols
        for c, x in _fraction_row(p, row):
            dense[c] = x
        out.append(dense)
    zero_row = [ZERO] * m.cols
    out.extend(zero_row for _ in range(m.rows - len(reduced)))
    return QMatrix(out), tuple(p for p, _ in reduced)


def rank(m: QMatrix) -> int:
    """The rank, from the integer elimination alone (no rref rows built)."""
    return len(_reduce_dense(m.entries))


def det(rows) -> Fraction:
    """Exact determinant of a square matrix given by rows of ints and Fractions.

    Rows are cleared of denominators, then Bareiss fraction-free elimination
    runs on Python ints (every division is exact); the row scales are divided
    out at the end.  An integer matrix has an integer-valued result.
    """
    rows = list(rows)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant of a non-square matrix")
    scale = 1
    for row in rows:
        scale *= lcm(*(x.denominator for x in row))
    work = _int_rows(rows)
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if work[r][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            work[k], work[piv] = work[piv], work[k]
            sign = -sign
        pk = work[k]
        pval = pk[k]
        for i in range(k + 1, n):
            row = work[i]
            v = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pval - v * pk[j]) // prev
        prev = pval
    return Fraction(sign * prev, scale)


def adjugate(rows) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(det E, the columns of adj E = det E * E^-1) of a nonsingular square
    integer matrix E given by rows.

    One integer Gauss-Jordan of [E | I] gives [I | E^-1] up to row scales:
    the reduced row with pivot k is primitive, so E^-1[k][j] is its entry
    at column n + j divided by its entry at k.
    """
    rows = [list(row) for row in rows]
    n = len(rows)
    d = det(rows).numerator
    if d == 0:
        raise ValueError("adjugate of a singular matrix")
    reduced = dict(
        gauss_jordan_int(
            [
                {**{k: x for k, x in enumerate(row) if x}, n + j: 1}
                for j, row in enumerate(rows)
            ]
        )
    )
    return d, tuple(
        tuple(d * reduced[k].get(n + j, 0) // reduced[k][k] for k in range(n))
        for j in range(n)
    )


def kernel_basis(m: QMatrix) -> list[QVector]:
    """Basis of the right null space; empty iff the columns are independent.

    For each free column j the basis vector has a 1 in slot j and
    ``-rref[i][j]`` in each pivot slot.
    """
    reduced = _reduce_dense(m.entries)
    pivset = {p for p, _ in reduced}
    basis = []
    for j in range(m.cols):
        if j in pivset:
            continue
        v = [ZERO] * m.cols
        v[j] = ONE
        for p, row in reduced:
            x = row.get(j)
            if x:
                v[p] = Fraction(-x, row[p])
        basis.append(tuple(v))
    return basis


def solve(m: QMatrix, b) -> QVector | None:
    """One exact solution of ``m x = b``, or None when inconsistent."""
    b = [Fraction(x) for x in b]
    if len(b) != m.rows:
        raise ValueError("rhs length mismatch")
    n = m.cols
    reduced = gauss_jordan_int(
        [_int_row(enumerate(row + (b[i],))) for i, row in enumerate(m.entries)]
    )
    if reduced and reduced[-1][0] == n:
        return None
    x = [ZERO] * n
    for p, row in reduced:
        rhs = row.get(n)
        if rhs:
            x[p] = Fraction(rhs, row[p])
    return tuple(x)


def row_space_rref(rows) -> tuple[tuple[Fraction, ...], ...]:
    """Canonical form of a subspace given by dense spanning rows.

    The nonzero rows of :func:`echelon`, dense: two row sets span the same
    subspace iff this returns the same tuple.  Accepts any iterable of rows
    of ints and Fractions.
    """
    rows = [tuple(row) for row in rows]
    if not rows:
        return ()
    out = []
    for row in echelon(enumerate(row) for row in rows)[0]:
        dense = [ZERO] * len(rows[0])
        for c, x in row:
            dense[c] = x
        out.append(tuple(dense))
    return tuple(out)


class Reducer:
    """Normal forms modulo a subspace of Q^ncols, at its standard columns.

    Built from the nonzero rows and pivots of a reduced row echelon form of
    the subspace (as :func:`echelon` returns them).  The standard columns
    ``keep`` are the non-pivot ones, in order.  Each row is stored once, by
    its pivot, as its entries at the standard columns: (index into
    ``keep``, value) pairs.  A row is 1 at its pivot and 0 at every other
    pivot, so the class of a vector is its ``keep`` part minus
    ``vec[p] * row`` summed over the pivots p; only nonzero entries of the
    vector and of the rows are touched.
    """

    __slots__ = ("pivots", "keep", "_pos", "_rows")

    def __init__(self, rows, pivots, ncols: int):
        self.pivots = tuple(pivots)
        pivset = set(self.pivots)
        self.keep = tuple(j for j in range(ncols) if j not in pivset)
        pos = {t: i for i, t in enumerate(self.keep)}
        self._pos = pos
        self._rows = {
            p: tuple((pos[c], x) for c, x in row if c != p)
            for row, p in zip(rows, self.pivots)
        }

    def rows(self) -> tuple[SparseRow, ...]:
        """The RREF rows back in full column coordinates, in pivot order."""
        keep = self.keep
        return tuple(
            tuple(sorted(((p, ONE),) + tuple((keep[i], x) for i, x in tail)))
            for p, tail in self._rows.items()
        )

    def pairs(self, items) -> SparseRow:
        """Class of sum c * e_col over (col, c) pairs (columns distinct), as
        (index into keep, value) pairs: ascending, nonzero."""
        pos, rows = self._pos, self._rows
        out: dict[int, Fraction] = {}
        for col, c in items:
            i = pos.get(col)
            if i is not None:
                out[i] = out.get(i, ZERO) + c
                continue
            for i, x in rows[col]:
                out[i] = out.get(i, ZERO) - c * x
        return tuple(sorted((i, x) for i, x in out.items() if x))
