"""Exact polynomial integration over polytopes and mixed integrals.

The measure is Lebesgue normalized so a fundamental cube of the lattice has
volume 1.  Integration over a simplex is the affine pullback to the standard
simplex with the closed form

    int_{std} x^a dmu  =  (prod a_i!) / (|a| + n)!

and polytopes are integrated by summing a triangulation.  Polarized
("mixed") integrals of virtual polytopes are computed by inclusion-exclusion
from a strictly convex anchor, which makes them well defined on the whole
space of virtual polytopes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, factorial

from toricbundle import exactlin
from toricbundle.errors import (
    AnchorFailure,
    DegreeMismatch,
    DimensionMismatch,
    LowerDimensional,
    VerificationFailed,
)
from toricbundle.exactlin import QMatrix, solve
from toricbundle.polyhedral import (
    Fan,
    Polytope,
    VirtualPolytope,
    affine_dim,
    dual_vertex,
    is_convex_on,
    is_projective,
    polytope_from_support,
)
from toricbundle.qpoly import (
    QPolynomial,
    monomials_of_degree,
    require_homogeneous,
)


@dataclass(frozen=True)
class SimplexChain:
    """Signed list of simplices; here always a genuine triangulation."""

    simplices: tuple[tuple[tuple[Fraction, ...], ...], ...]
    signs: tuple[int, ...]

    def __len__(self):
        return len(self.simplices)


def integrate_over_simplex(f: QPolynomial, simplex) -> Fraction:
    """Exact integral of f over an n-simplex given by n+1 vertices."""
    verts = [tuple(Fraction(x) for x in v) for v in simplex]
    n = len(verts) - 1
    if len(f.vars) != n or any(len(v) != n for v in verts):
        raise DimensionMismatch("simplex/polynomial dimension mismatch")
    if n == 0:
        return Fraction(0)
    v0 = verts[0]
    cols = [[verts[j + 1][i] - v0[i] for j in range(n)] for i in range(n)]
    det = abs(exactlin.det(cols))
    if det == 0:
        return Fraction(0)
    # pull back: x_i = v0_i + sum_j B_ij u_j
    images = [
        QPolynomial.linear_form(f.vars, cols[i], const=v0[i]) for i in range(n)
    ]
    g = f.substitute(images)
    total = Fraction(0)
    for expo, coeff in g.terms.items():
        num = 1
        for e in expo:
            num *= factorial(e)
        total += coeff * Fraction(num, factorial(sum(expo) + n))
    return det * total


def triangulate(p: Polytope) -> SimplexChain:
    """Fan-of-a-vertex triangulation from the lex-smallest vertex.

    Recurses through the face lattice (facets of each face are read off the
    H-representation); all signs are +1.  Raises for polytopes that are not
    full-dimensional in their ambient space.
    """
    d = p.ambient_dim
    if affine_dim(p.vertices) < d:
        raise LowerDimensional("polytope not full-dimensional")
    p.facet_halfspaces()  # ensure an H-representation exists

    def rec(verts, a):
        if len(verts) == a + 1:
            return [tuple(verts)]
        apex = min(verts)
        out = []
        for facet in p.faces_of_codim_one(verts):
            if apex in facet:
                continue
            for s in rec(facet, a - 1):
                out.append((apex,) + s)
        return out

    simplices = tuple(rec(p.vertices, d))
    return SimplexChain(simplices, (1,) * len(simplices))


def integrate_over_polytope(f: QPolynomial, p: Polytope) -> Fraction:
    """Integral over p in ambient measure; 0 for lower-dimensional p."""
    if p.is_empty() or affine_dim(p.vertices) < p.ambient_dim:
        return Fraction(0)
    return sum(
        (integrate_over_simplex(f, s) for s in triangulate(p).simplices),
        Fraction(0),
    )


def volume(p: Polytope) -> Fraction:
    if p.is_empty():
        return Fraction(0)
    one = QPolynomial.constant([f"x{i}" for i in range(p.ambient_dim)], 1)
    return integrate_over_polytope(one, p)


# ---------------------------------------------------------------------------
# mixed integrals by polarization
# ---------------------------------------------------------------------------


def convex_anchor(fan: Fan, summands) -> VirtualPolytope:
    """A strictly convex base point large enough that adding any subset of
    the given virtual polytopes stays convex on the fan."""
    ok, witness = is_projective(fan)
    if not ok:
        raise AnchorFailure("fan admits no strictly convex support vector")
    subset_sums = [VirtualPolytope(fan, (Fraction(0),) * fan.nrays)]
    for vp in summands:
        subset_sums += [s + vp for s in subset_sums]
    anchor = witness
    for _ in range(80):
        if all(is_convex_on(fan, anchor + s) for s in subset_sums):
            return anchor
        anchor = anchor.scale(2)
    raise AnchorFailure("anchor scaling did not terminate")


def i_f_value(fan: Fan, f: QPolynomial, vp: VirtualPolytope) -> Fraction:
    """I_f at a convex support vector: a direct integral."""
    return integrate_over_polytope(f, polytope_from_support(fan, vp))


def mixed_integral(fan: Fan, f: QPolynomial, args) -> Fraction:
    """Polarization of Delta |-> int_Delta f at the given virtual polytopes.

    Requires len(args) = fan.dim + deg(f); computed as the top forward
    difference (1/m!) sum_S (-1)^{m-|S|} I_f(P0 + sum_S args) from a strictly
    convex anchor P0.  Top-order differences of a degree-m polynomial are
    constant in the base point, so the value does not depend on P0.
    """
    args = list(args)
    m = len(args)
    deg = max(f.degree(), 0)
    if m != fan.dim + deg:
        raise DegreeMismatch(
            f"need {fan.dim + deg} arguments for degree-{deg} integrand, got {m}"
        )
    anchor = convex_anchor(fan, args)
    total = Fraction(0)
    for bits in itertools.product((0, 1), repeat=m):
        vp = anchor
        for take, arg in zip(bits, args):
            if take:
                vp = vp + arg
        sign = (-1) ** (m - sum(bits))
        total += sign * i_f_value(fan, f, vp)
    return total / factorial(m)


def integral_over_virtual(fan: Fan, f: QPolynomial, vp: VirtualPolytope) -> Fraction:
    """The polynomial extension of I_f evaluated at a virtual polytope.

    Handles inhomogeneous f by polarizing each homogeneous part on the
    diagonal; agrees with the direct integral when vp is convex.
    """
    total = Fraction(0)
    for d in range(f.degree() + 1):
        part = f.homogeneous_part(d)
        if part:
            total += mixed_integral(fan, part, [vp] * (fan.dim + d))
    return total


def i_f_polynomial(fan: Fan, f: QPolynomial) -> QPolynomial:
    """The homogeneous polynomial in h_1..h_s restricting to I_f.

    I_f is a form of degree d = dim + deg f on the cone of convex support
    vectors, found by exact interpolation on the principal lattice

        { c*h* + alpha : alpha in N^s, |alpha| = d }

    where h* is the :func:`is_projective` witness (every wall gap >= 1) and
    c = ceil((d + 1) * max ||wall row||_1) + 1.  A wall row moves by at most
    its 1-norm times max alpha_k <= d + 1, so every wall gap at a grid point
    (and at the check points below) is >= 1.  The grid is the principal
    lattice of order d on the affine hyperplane sum(h) = c*sum(h*) + d (c is
    bumped by one if that hyperplane passes through 0); the lattice is
    unisolvent for polynomials of degree <= d on the hyperplane (Chung-Yao
    1977), and a degree-d form is fixed by its restriction to a hyperplane
    that misses 0.  So one square solve gives the polynomial.  It is then
    re-verified by direct integration at three points c*h* + beta with
    |beta| = d + 1, which lie off the grid hyperplane.
    """
    m = require_homogeneous(f)
    m = max(m, 0)
    d = fan.dim + m
    s = fan.nrays
    hvars = tuple(f"h{i + 1}" for i in range(s))
    if not f:
        return QPolynomial.zero(hvars)
    monos = monomials_of_degree(s, d)
    ok, witness = is_projective(fan)
    if not ok:
        raise AnchorFailure("fan admits no strictly convex support vector")
    norm = max((sum(abs(x) for x in row) for row in fan.wall_rows()), default=0)
    c = ceil((d + 1) * norm) + 1
    if c * sum(witness.h) + d == 0:
        c += 1
    base = witness.scale(c).h

    def point(alpha):
        return VirtualPolytope(fan, tuple(b + a for b, a in zip(base, alpha)))

    rows = []
    vals = []
    for alpha in monos:
        vp = point(alpha)
        if not is_convex_on(fan, vp):
            raise VerificationFailed(f"interpolation point {vp.h} is not convex")
        rows.append(_monomial_row(vp.h, monos, d))
        vals.append(i_f_value(fan, f, vp))
    sol = solve(QMatrix(rows), vals)
    if sol is None:
        raise VerificationFailed("interpolation system is inconsistent")
    poly = QPolynomial(hvars, dict(zip(monos, sol)))
    for beta in itertools.islice(monomials_of_degree(s, d + 1), 3):
        vp = point(beta)
        if poly.evaluate(vp.h) != i_f_value(fan, f, vp):
            raise VerificationFailed(
                f"interpolation self-check failed at {vp.h}"
            )
    return poly


def _monomial_row(h, monos, d):
    """Values at h of the degree-d monomials ``monos`` (ints where exact)."""
    powers = []
    for x in h:
        x = x.numerator if x.denominator == 1 else x
        powers.append([x**e for e in range(d + 1)])
    row = []
    for expo in monos:
        acc = 1
        for pw, e in zip(powers, expo):
            if e:
                acc *= pw[e]
        row.append(acc)
    return row


# ---------------------------------------------------------------------------
# test oracles from the differentiation lemmas
# ---------------------------------------------------------------------------


def square_free_derivative_check(
    fan: Fan, f: QPolynomial, delta: VirtualPolytope, ray_set
) -> Fraction:
    """d_I of the I_f polynomial at a strictly convex Delta.

    Checks the closed form, raising :class:`VerificationFailed` when it
    fails: 0 when the rays of I span no cone, and f(A) / |det(e_i : i in I)|
    for cone-spanning sets of full size n, with A the vertex of Delta dual to
    the cone.  (Index sets larger than n never span a cone, so they must
    give 0.)
    """
    ray_set = tuple(sorted(ray_set))
    poly = i_f_polynomial(fan, f)
    for i in ray_set:
        poly = poly.partial(i)
    value = poly.evaluate(delta.h)
    if not fan.spans_cone(ray_set):
        if value != 0:
            raise VerificationFailed(f"d_I I_f != 0 on non-cone {ray_set}")
    elif len(ray_set) == fan.dim:
        a = dual_vertex(fan, ray_set, delta.h)
        det = abs(exactlin.det([fan.rays[i] for i in ray_set]))
        # det is 1 on smooth cones; the corner region scales with the dual
        # basis, hence the division for merely simplicial ones.
        if value != f.evaluate(a) / det:
            raise VerificationFailed(
                f"derivative closed form failed on cone {ray_set}"
            )
    return value


def convex_chain_identity_check(
    fan: Fan, f: QPolynomial, delta: VirtualPolytope, ray_set, lams
) -> bool:
    """Inclusion-exclusion over facet shifts against the corner box.

    For a cone-spanning index set I and small lambda_i > 0, the alternating
    sum of integrals over the shifted polytopes equals the integral over the
    parallelepiped spanned by lambda_i e_i at the dual vertex; with any
    lambda_i = 0 both sides vanish.
    """
    ray_set = tuple(sorted(ray_set))
    lams = [Fraction(x) for x in lams]
    n = fan.dim
    if len(ray_set) != n:
        raise DegreeMismatch("need exactly dim-many ray indices")
    lhs = Fraction(0)
    for bits in itertools.product((0, 1), repeat=len(ray_set)):
        h = list(delta.h)
        for take, i, lam in zip(bits, ray_set, lams):
            if take:
                h[i] += lam
        vp = VirtualPolytope(fan, tuple(h))
        sign = (-1) ** (n + sum(bits))
        lhs += sign * i_f_value(fan, f, vp)

    if any(lam == 0 for lam in lams) or not fan.spans_cone(ray_set):
        rhs = Fraction(0)
    else:
        # corner box at the dual vertex: edges lambda_i * w_i where the w_i
        # are dual to the cone generators (<w_i, e_j> = delta_ij), i.e. the
        # region of points beyond exactly the shifted facets
        a = dual_vertex(fan, ray_set, delta.h)
        emat = QMatrix([fan.rays[i] for i in ray_set])
        duals = [solve(emat, [int(i == k) for i in range(n)]) for k in range(n)]
        corners = []
        for bits in itertools.product((0, 1), repeat=n):
            pt = list(a)
            for take, w, lam in zip(bits, duals, lams):
                if take:
                    for c in range(n):
                        pt[c] += lam * w[c]
            corners.append(tuple(pt))
        box = Polytope.from_vertices(corners)
        rhs = integrate_over_polytope(f, box)
    return lhs == rhs
