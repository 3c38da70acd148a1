"""Exact rational linear algebra: dense matrices over ``fractions.Fraction``.

All arithmetic is exact; there is no floating point anywhere in the package.
Row reduction is deterministic (first nonzero pivot per column, rows scanned
top-down), so every construction downstream is reproducible bit for bit.

The elimination loop itself runs on integers (rows are cleared of
denominators first, which changes neither row space nor kernel) inside the
kernel selected by :mod:`toricbundle._kernels`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from toricbundle._kernels import gauss_jordan_int

Rat = Fraction

QVector = tuple[Fraction, ...]


def _as_fraction_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _int_rows(rows: list[list[Fraction]]) -> list[list[int]]:
    """Scale each row by the lcm of its denominators."""
    out = []
    for row in rows:
        m = lcm(*(x.denominator for x in row)) if row else 1
        out.append([int(x * m) for x in row])
    return out


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


def rref(m: QMatrix) -> tuple[QMatrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns.  rank = len(pivots)."""
    if m.rows == 0 or m.cols == 0:
        return m, ()
    work = _int_rows([list(row) for row in m.entries])
    pivots = gauss_jordan_int(work)
    out = []
    for i, col in enumerate(pivots):
        p = work[i][col]
        out.append([Fraction(x, p) for x in work[i]])
    for _ in range(m.rows - len(pivots)):
        out.append([Fraction(0)] * m.cols)
    return QMatrix(out), tuple(pivots)


def rank(m: QMatrix) -> int:
    return len(rref(m)[1])


def det(rows) -> Fraction:
    """Exact determinant of a square matrix given by its rows.

    Rows are cleared of denominators, then Bareiss fraction-free elimination
    runs on Python ints (every division is exact); the row scales are divided
    out at the end.  An integer matrix has an integer-valued result.
    """
    rows = _as_fraction_rows(rows)
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


def kernel_basis(m: QMatrix) -> list[QVector]:
    """Basis of the right null space; empty iff the columns are independent.

    For each free column j the basis vector has a 1 in slot j and
    ``-rref[i][j]`` in each pivot slot.
    """
    r, pivots = rref(m)
    pivset = set(pivots)
    basis = []
    for j in range(m.cols):
        if j in pivset:
            continue
        v = [Fraction(0)] * m.cols
        v[j] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -r[i, j]
        basis.append(tuple(v))
    return basis


def reduce_onto(rows, pivots, keep, vec) -> QVector:
    """Coordinates at the columns ``keep`` of ``vec`` reduced by rref rows.

    ``rows`` and ``pivots`` are the nonzero rows of an :func:`rref` and their
    pivot columns, and ``keep`` avoids every pivot.  Each row is 0 at every
    other pivot, so eliminating the rows one after the other subtracts
    ``vec[p] * row`` for each pivot p; only the kept coordinates of that
    difference are computed.  A kept coordinate that no row changes is
    returned as the same object, so results that are mostly zeros share them.
    """
    out = [vec[t] for t in keep]
    for row, p in zip(rows, pivots):
        c = vec[p]
        if c:
            for i, t in enumerate(keep):
                x = row[t]
                if x:
                    out[i] -= c * x
    return tuple(out)


def solve(m: QMatrix, b) -> QVector | None:
    """One exact solution of ``m x = b``, or None when inconsistent."""
    b = [Fraction(x) for x in b]
    if len(b) != m.rows:
        raise ValueError("rhs length mismatch")
    aug = QMatrix([list(row) + [b[i]] for i, row in enumerate(m.entries)])
    r, pivots = rref(aug)
    if pivots and pivots[-1] == m.cols:
        return None
    x = [Fraction(0)] * m.cols
    for i, p in enumerate(pivots):
        x[p] = r[i, m.cols]
    return tuple(x)


def row_space_rref(rows) -> tuple[tuple[Fraction, ...], ...]:
    """Canonical form of a subspace given by spanning rows.

    Two row sets span the same subspace iff this returns the same tuple
    (zero rows dropped).  Accepts any iterable of rational rows.
    """
    rows = _as_fraction_rows(rows)
    if not rows:
        return ()
    m, pivots = rref(QMatrix(rows))
    return tuple(m.entries[i] for i in range(len(pivots)))
