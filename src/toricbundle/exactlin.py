"""Exact rational linear algebra on sparse integer rows.

All arithmetic is exact; there is no floating point anywhere in the package.
Every elimination runs through one fraction-free integer Gauss-Jordan on
sparse rows, :func:`toricbundle._kernels.gauss_jordan_int`: each row is
cleared of denominators first, which changes neither row space nor kernel,
and kept primitive (gcd 1) with a positive pivot.  Rows are sparse
``(column, value)`` pairs or dense sequences, with int or Fraction values.
One routine per operation:

- :func:`echelon_int`: the RREF of sparse rows, as the kernel's primitive
  integer rows;
- :func:`kernel_int`: the kernel of sparse rows in the same form, read off
  one elimination;
- :func:`rank`: the rank of dense rows, by the forward pass alone, whose
  pivots are already those of the RREF;
- :func:`solve`: one solution of a dense linear system;
- :func:`det_int`: the determinant of a square integer matrix, by Bareiss
  elimination; :func:`adjugate` adds the inverse up to that factor;
- :func:`rref`: the dense RREF of a :class:`QMatrix`, with its pivots
  (:func:`row_space_rref` spells it for spanning rows);
- :class:`Reducer`: normal forms modulo the row space of integer RREF rows;
  a class passes through :class:`~fractions.Fraction` only at its output
  entries;
- :class:`Span`: a subspace grown one vector at a time by the forward pass.

The reduced row echelon form is unique, so each returns exactly what any
Gauss-Jordan would, bit for bit.  The integer row format stays inside this
module and the kernel.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from toricbundle._kernels import forward_int, gauss_jordan_int, insert_row

QVector = tuple[Fraction, ...]
# (column, value) pairs, columns ascending, values nonzero
SparseRow = tuple[tuple[int, Fraction], ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def _cleared(points):
    """(D, rows): the lcm D of all denominators of ints and Fractions and
    the integer rows D*p, as tuples."""
    den = lcm(*(x.denominator for p in points for x in p))
    return den, [tuple(x.numerator * (den // x.denominator) for x in p) for p in points]


def _int_row(pairs) -> dict[int, int]:
    """``{column: int}`` from (column, rational) pairs, zeros dropped, scaled
    by the lcm of the denominators."""
    items = [(c, x) for c, x in pairs if x]
    m = lcm(*(x.denominator for _, x in items))
    if m == 1:
        return {c: x.numerator for c, x in items}
    return {c: x.numerator * (m // x.denominator) for c, x in items}


def _dense_rows(reduced, ncols: int) -> list[list[Fraction]]:
    """The RREF rows, dense, from primitive integer rows ``(pivot, row)``:
    each row divided by its pivot entry."""
    out = []
    for p, row in reduced:
        pv = row[p]
        dense = [ZERO] * ncols
        for c, x in row.items():
            dense[c] = Fraction(x, pv)
        out.append(dense)
    return out


def echelon_int(rows) -> list[tuple[int, dict[int, int]]]:
    """The RREF of sparse rows as the kernel returns it: ``(pivot, row)`` in
    pivot order, each row a primitive ``{column: int}`` positive at its pivot.

    ``rows`` is an iterable of rows, each an iterable of (column, value)
    pairs with int or Fraction values (zeros allowed, columns distinct).
    Dividing each output row by its pivot entry gives the RREF row; the RREF
    is unique, so equal outputs mean equal row spaces.
    """
    return gauss_jordan_int([_int_row(r) for r in rows])


def kernel_int(rows, ncols: int) -> list[tuple[int, dict[int, int]]]:
    """The kernel {v in Q^ncols : row . v = 0 for every row} as its RREF, in
    the form :func:`echelon_int` returns.

    ``rows`` is as for :func:`echelon_int`.  The rows are eliminated once,
    with their columns in reverse order, so each pivot row row_p has its
    other entries at free columns j < p.  For each free column j, with L the
    lcm of the pivot entries row_p[p] of the rows that meet column j, the
    kernel vector L*e_j - sum_p row_p[j] * (L / row_p[p]) * e_p is then 0 at
    every other free column and at no column before j: divided by the gcd of
    its entries, it is the RREF row with pivot j.
    """
    last = ncols - 1
    hits: dict[int, list] = {}  # free column -> (pivot, entry, pivot entry)
    pivots = set()
    for p, row in echelon_int(((last - c, x) for c, x in r) for r in rows):
        pivots.add(last - p)
        pv = row[p]
        for c, x in row.items():
            if c != p:
                hits.setdefault(last - c, []).append((last - p, x, pv))
    out = []
    for j in range(ncols):
        if j in pivots:
            continue
        at_j = hits.get(j, ())
        big = lcm(*(pv for _, _, pv in at_j))
        vec = {j: big}
        for p, x, pv in at_j:
            vec[p] = -x * (big // pv)
        g = gcd(*vec.values())
        out.append((j, {c: x // g for c, x in vec.items()} if g > 1 else vec))
    return out


class Span:
    """A subspace of Q^n grown one vector at a time.

    Each vector goes through the kernel's forward pass only
    (:func:`~toricbundle._kernels.insert_row`): an echelon form is enough to
    test membership and to count the dimension, and its pivots are those of
    the RREF.
    """

    __slots__ = ("_basis",)

    def __init__(self):
        self._basis: dict[int, dict[int, int]] = {}

    def add(self, pairs) -> bool:
        """Add sum c * e_col over (column, value) pairs, values int or
        Fraction; return False, leaving the span unchanged, if it already
        lies in the span."""
        return insert_row(self._basis, _int_row(pairs)) is not None

    def __len__(self) -> int:
        return len(self._basis)

    @property
    def pivots(self):
        """The pivot columns; the unit vectors at the other columns span a
        complement."""
        return self._basis.keys()


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


def rref(m: QMatrix) -> tuple[QMatrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns.  rank = len(pivots)."""
    if m.rows == 0 or m.cols == 0:
        return m, ()
    reduced = echelon_int(enumerate(row) for row in m.entries)
    out = _dense_rows(reduced, m.cols)
    out += [[ZERO] * m.cols] * (m.rows - len(reduced))
    return QMatrix(out), tuple(p for p, _ in reduced)


def row_space_rref(rows) -> tuple[tuple[Fraction, ...], ...]:
    """Canonical form of a subspace given by dense spanning rows of ints and
    Fractions: the nonzero rows of its RREF, so two row sets span the same
    subspace iff this returns the same tuple."""
    rows = [tuple(row) for row in rows]
    if not rows:
        return ()
    reduced = echelon_int(enumerate(row) for row in rows)
    return tuple(tuple(row) for row in _dense_rows(reduced, len(rows[0])))


def rank(rows) -> int:
    """The rank of dense rows of ints and Fractions: the number of pivots of
    the forward pass alone (no back substitution, no RREF rows built)."""
    return len(forward_int([_int_row(enumerate(row)) for row in rows]))


def solve(rows, b) -> QVector | None:
    """One exact solution x of ``sum_j rows[i][j] x_j = b[i]`` for every i,
    or None when the system is inconsistent; ``rows`` are dense rows of ints
    and Fractions."""
    rows, b = list(rows), list(b)
    if len(b) != len(rows):
        raise ValueError("rhs length mismatch")
    n = len(rows[0]) if rows else 0
    reduced = gauss_jordan_int(
        [_int_row(enumerate((*row, x))) for row, x in zip(rows, b)]
    )
    if reduced and reduced[-1][0] == n:
        return None
    x = [ZERO] * n
    for p, row in reduced:
        rhs = row.get(n)
        if rhs:
            x[p] = Fraction(rhs, row[p])
    return tuple(x)


def det_int(rows) -> int:
    """Determinant of a square integer matrix given by rows, by Bareiss
    fraction-free elimination on Python ints (every division is exact)."""
    work = [list(row) for row in rows]
    n = len(work)
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if work[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            work[k], work[piv] = work[piv], work[k]
            sign = -sign
        pk, pval = work[k], work[k][k]
        for row in work[k + 1 :]:
            v = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pval - v * pk[j]) // prev
        prev = pval
    return sign * prev


def adjugate(rows) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(det E, the columns of adj E = det E * E^-1) of a nonsingular square
    integer matrix E given by rows.

    One integer Gauss-Jordan of [E | I] gives [I | E^-1] up to row scales:
    the reduced row with pivot k is primitive, so E^-1[k][j] is its entry
    at column n + j divided by its entry at k.
    """
    rows = [list(row) for row in rows]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("adjugate of a non-square matrix")
    d = det_int(rows)
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


class Reducer:
    """Normal forms modulo a subspace of Q^ncols, at its standard columns.

    Built from the kernel's primitive integer RREF rows, ``(pivot,
    {column: int})`` in pivot order as :func:`echelon_int` and
    :func:`kernel_int` return them: each row positive at its pivot and 0 at
    every other pivot.  The standard columns ``keep`` are the non-pivot
    ones, in order.  Each row is stored once, by its pivot p, as (pivot
    value L, tail): the tail holds the row's integer entries at the
    standard columns as ascending (index into ``keep``, value) pairs, and
    the RREF row is the integer row divided by L.  That row is 1 at p and 0
    at every other pivot, so the class of a vector is its ``keep`` part
    minus ``vec[p] / L * tail`` summed over the pivots p; only nonzero
    entries of the vector and of the rows are touched.
    """

    __slots__ = ("pivots", "keep", "_pos", "_rows")

    def __init__(self, reduced, ncols: int):
        self.pivots = tuple(p for p, _ in reduced)
        pivset = set(self.pivots)
        self.keep = tuple(j for j in range(ncols) if j not in pivset)
        pos = {t: i for i, t in enumerate(self.keep)}
        self._pos = pos
        self._rows = {
            p: (row[p], tuple(sorted((pos[c], x) for c, x in row.items() if c != p)))
            for p, row in reduced
        }

    def __eq__(self, other):
        """Equal subspaces: the primitive RREF is unique, tails sorted."""
        if not isinstance(other, Reducer):
            return NotImplemented
        return self.keep == other.keep and self._rows == other._rows

    def pairs(self, items) -> SparseRow:
        """Class of sum c * e_col over (col, c) pairs, as (index into keep,
        value) pairs: ascending, nonzero.  A column may repeat; its
        coefficients add.

        Numerators are summed per denominator on Python ints; each output
        entry is one ``Fraction``.  Without rows (a degree free of
        relations) every column is kept and the class is the vector itself.
        """
        pos, rows = self._pos, self._rows
        acc: dict[int, dict[int, int]] = {}  # denominator -> index -> numerator
        for col, c in items:
            num, den = c.numerator, c.denominator
            i = pos.get(col)
            if i is not None:
                part = acc.get(den)
                if part is None:
                    part = acc[den] = {}
                part[i] = part.get(i, 0) + num
                continue
            pv, tail = rows[col]
            den *= pv
            part = acc.get(den)
            if part is None:
                part = acc[den] = {}
            for i, x in tail:
                part[i] = part.get(i, 0) - num * x
        if not acc:
            return ()
        if len(acc) == 1:
            ((den, total),) = acc.items()
        else:
            den = lcm(*acc)
            total: dict[int, int] = {}
            for d, part in acc.items():
                s = den // d
                for i, x in part.items():
                    total[i] = total.get(i, 0) + s * x
        if den == 1:
            out = [(i, Fraction(x)) for i, x in total.items() if x]
        else:
            out = [(i, Fraction(x, den)) for i, x in total.items() if x]
        out.sort()
        return tuple(out)
