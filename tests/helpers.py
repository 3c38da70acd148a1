"""Shared test helpers that read package internals, and copies of removed
package routines that tests keep as oracles."""

import itertools
from fractions import Fraction as F
from math import lcm, prod

from toricbundle.exactlin import QMatrix, _cleared, det_int, kernel_int, rank, rref
from toricbundle.polyhedral import Polytope, dot


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


def affine_dim(points) -> int:
    """The dimension of the affine hull, -1 for no points: one less than the
    rank of the rows (1, D*p), with the points cleared of denominators."""
    return rank([(1, *row) for row in _cleared(list(points))[1]]) - 1


def polytope_from_points(points) -> Polytope:
    """The convex hull of a full-dimensional point set in R^d, with its
    facets found by hyperplane search.

    Every hyperplane through d of the points with all points on one side
    supports a facet; its (normal, bound), scaled so the first nonzero
    entry of the normal is +-1, is kept once.  A point is a vertex when the
    normals of the facets tight at it have rank d, so no LP is solved.
    """
    pts = sorted({tuple(F(x) for x in p) for p in points})
    d = len(pts[0])
    found = {}
    for combo in itertools.combinations(pts, d):
        v0 = combo[0]
        diffs = ([a - b for a, b in zip(p, v0)] for p in combo[1:])
        kernel = kernel_int(map(enumerate, diffs), d)
        if len(kernel) != 1:
            continue
        normal = [kernel[0][1].get(c, 0) for c in range(d)]
        bound = dot(normal, v0)
        sides = {(dot(v, normal) > bound) - (dot(v, normal) < bound) for v in pts}
        if 1 in sides and -1 in sides:
            continue
        if -1 in sides:
            normal = [-x for x in normal]
            bound = -bound
        scale = F(1, abs(next(x for x in normal if x)))
        found[(tuple(x * scale for x in normal), bound * scale)] = None
    halfspaces = tuple(found)
    vertices = tuple(
        v
        for v in pts
        if rank([n for n, b in halfspaces if dot(v, n) == b]) == d
    )
    return Polytope(vertices, halfspaces)
