"""Shared test helpers that read package internals, and copies of removed
package routines that tests keep as oracles."""

from fractions import Fraction as F
from math import lcm, prod

from toricbundle.exactlin import QMatrix, det_int, rref


def int_rows(reducer):
    """The primitive integer rows of an ``exactlin.Reducer`` in full column
    coordinates, as ascending (column, int) pairs, in pivot order."""
    keep = reducer.keep
    return tuple(
        tuple(sorted(((p, pv),) + tuple((keep[i], x) for i, x in tail)))
        for p, (pv, tail) in reducer._rows.items()
    )


def det(rows):
    """Exact determinant of a square matrix given by rows of ints and
    Fractions: ``exactlin.det_int`` of the rows cleared of denominators,
    divided by the row scales."""
    rows = [list(row) for row in rows]
    scales = [lcm(*(F(x).denominator for x in row)) for row in rows]
    cleared = [[int(x * m) for x in row] for row, m in zip(rows, scales)]
    return F(det_int(cleared), prod(scales))


def kernel_basis(rows):
    """The right null space of dense rows of ints and Fractions, read off
    ``exactlin.rref``: for each free column j, the vector that is 1 at j and
    -rref[i][j] at the i-th pivot."""
    reduced, pivots = rref(QMatrix(rows))
    basis = []
    for j in range(reduced.cols):
        if j in pivots:
            continue
        v = [F(0)] * reduced.cols
        v[j] = F(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced.entries[i][j]
        basis.append(tuple(v))
    return basis
