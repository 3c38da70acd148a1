"""Shared test helpers that read package internals, and copies of removed
package routines that tests keep as oracles."""

import itertools
from fractions import Fraction as F
from math import lcm, perm, prod
from operator import le, sub

from toricbundle.errors import DimensionMismatch
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


class FractionPolynomial:
    """The polynomial type the package had before ``QPolynomial`` moved to
    integer numerators over one denominator: one ``Fraction`` per term,
    every coefficient rebuilt and re-normalised on each operation."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        self.vars = tuple(vars)
        clean = {}
        for expo, coeff in (terms or {}).items():
            coeff = F(coeff)
            if coeff:
                expo = tuple(int(e) for e in expo)
                if len(expo) != len(self.vars):
                    raise DimensionMismatch("exponent length != variable count")
                clean[expo] = clean.get(expo, F(0)) + coeff
        self.terms = {e: c for e, c in clean.items() if c}

    @classmethod
    def constant(cls, vars, c):
        vars = tuple(vars)
        return cls(vars, {(0,) * len(vars): F(c)})

    def __eq__(self, other):
        return (
            isinstance(other, FractionPolynomial)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for expo in sorted(self.terms, reverse=True):
            c = self.terms[expo]
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v for v, e in zip(self.vars, expo) if e
            )
            bits.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)

    def __add__(self, other):
        if isinstance(other, (int, F)):
            other = FractionPolynomial.constant(self.vars, other)
        if self.vars != other.vars:
            raise DimensionMismatch("polynomials over different variables")
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, F(0)) + c
        return FractionPolynomial(self.vars, terms)

    def __neg__(self):
        return FractionPolynomial(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, F)):
            other = FractionPolynomial.constant(self.vars, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, F)):
            return FractionPolynomial(
                self.vars, {e: c * other for e, c in self.terms.items()}
            )
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, F(0)) + c1 * c2
        return FractionPolynomial(self.vars, terms)

    def __pow__(self, k):
        result = FractionPolynomial.constant(self.vars, 1)
        for _ in range(k):
            result = result * self
        return result

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        return len({sum(e) for e in self.terms}) <= 1

    def homogeneous_part(self, d: int):
        return FractionPolynomial(
            self.vars, {e: c for e, c in self.terms.items() if sum(e) == d}
        )

    def coefficient(self, expo) -> F:
        return self.terms.get(tuple(expo), F(0))

    def evaluate(self, point) -> F:
        total = F(0)
        for expo, coeff in self.terms.items():
            v = coeff
            for x, e in zip(point, expo):
                if e:
                    v *= F(x) ** e
            total += v
        return total

    def partial(self, i: int):
        terms = {}
        for expo, coeff in self.terms.items():
            if expo[i]:
                e = list(expo)
                e[i] -= 1
                terms[tuple(e)] = coeff * expo[i]
        return FractionPolynomial(self.vars, terms)

    def substitute(self, images):
        target = images[0].vars if images else ()
        out = FractionPolynomial(target)
        for expo, coeff in self.terms.items():
            term = FractionPolynomial.constant(target, coeff)
            for img, e in zip(images, expo):
                if e:
                    term = term * img**e
            out = out + term
        return out

    def embed(self, vars):
        vars = tuple(vars)
        pos = [vars.index(v) for v in self.vars]
        terms = {}
        for expo, coeff in self.terms.items():
            e = [0] * len(vars)
            for p, k in zip(pos, expo):
                e[p] = k
            terms[tuple(e)] = coeff
        return FractionPolynomial(vars, terms)


def fraction_apply_operator(op: FractionPolynomial, f: FractionPolynomial):
    """``qpoly.apply_operator`` on :class:`FractionPolynomial` terms."""
    out = {}
    for alpha, c in op.terms.items():
        for expo, coeff in f.terms.items():
            if all(map(le, alpha, expo)):
                new = tuple(map(sub, expo, alpha))
                out[new] = out.get(new, 0) + c * coeff * prod(map(perm, expo, alpha))
    return FractionPolynomial(f.vars, out)
