"""Integration and mixed integrals: frozen oracle values and invariants.

Oracle provenance is noted at each frozen value; derived numbers come from
iterated univariate integration or shoelace areas done by hand.
"""

import functools
import random
from fractions import Fraction as F
from itertools import product
from math import ceil, factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricbundle import exactlin, integrate
from toricbundle.bundle import random_convex, random_virtual
from toricbundle.catalog import SPECS, fan_projective_space
from toricbundle.errors import (
    DegreeMismatch,
    FanError,
    LowerDimensional,
    VerificationFailed,
)
from toricbundle.integrate import (
    SimplexChain,
    convex_anchor,
    convex_chain_identity_check,
    i_f_polynomial,
    i_f_value,
    integral_over_virtual,
    integrate_over_polytope,
    integrate_over_simplex,
    mixed_integral,
    square_free_derivative_check,
    triangulate,
    volume,
)
from toricbundle.polyhedral import (
    Polytope,
    VirtualPolytope,
    affine_dim,
    dot,
    is_projective,
    polytope_from_support,
    validate_fan,
)
from toricbundle.qpoly import QPolynomial, monomials_of_degree

XY = ("x1", "x2")
ONE2 = QPolynomial.constant(XY, 1)
X1 = QPolynomial.variable(XY, 0)
X2 = QPolynomial.variable(XY, 1)
ONE1 = QPolynomial.constant(("x1",), 1)
X = QPolynomial.variable(("x1",), 0)

STD = [(0, 0), (1, 0), (0, 1)]


def fan_p1():
    return validate_fan([(1,), (-1,)], [(0,), (1,)])


def fan_p2():
    return validate_fan([(1, 0), (0, 1), (-1, -1)], [(0, 1), (0, 2), (1, 2)])


def fan_p1xp1():
    return validate_fan(
        [(1, 0), (0, 1), (-1, 0), (0, -1)],
        [(0, 1), (1, 2), (2, 3), (3, 0)],
    )


def fan_f1():
    return validate_fan(
        [(1, 0), (0, 1), (-1, 1), (0, -1)],
        [(0, 1), (1, 2), (2, 3), (3, 0)],
    )


def test_simplex_constant():
    assert integrate_over_simplex(ONE2, STD) == F(1, 2)


def test_simplex_linear():
    # oracle: int_0^1 int_0^{1-x} x dy dx = int_0^1 x(1-x) dx = 1/6
    assert integrate_over_simplex(X1, STD) == F(1, 6)


def test_segment_length():
    assert integrate_over_simplex(ONE1, [(0,), (2,)]) == 2


def test_simplex_dimension_mismatch():
    from toricbundle.errors import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        integrate_over_simplex(ONE1, STD)


def test_triangulate_triangle_is_itself():
    tri = Polytope.from_vertices(STD)
    chain = triangulate(tri)
    assert len(chain) == 1 and chain.signs == (1,)


def test_triangulate_square():
    sq = Polytope.from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])
    chain = triangulate(sq)
    assert len(chain) == 2
    total = sum(
        (integrate_over_simplex(ONE2, s) for s in chain.simplices), F(0)
    )
    assert total == 1


def test_triangulate_f1_quadrilateral():
    f1 = fan_f1()
    quad = polytope_from_support(f1, VirtualPolytope(f1, (1, 1, 1, 1)))
    chain = triangulate(quad)
    # oracle: shoelace area of (1,1),(0,1),(-2,-1),(1,-1) = 4
    assert len(chain) == 2
    assert volume(quad) == 4


def test_triangulate_rejects_lower_dimensional():
    seg = Polytope.from_vertices([(0, 0), (1, 1)])
    with pytest.raises(LowerDimensional):
        triangulate(seg)
    assert integrate_over_polytope(ONE2, seg) == 0


def test_polytope_integrals():
    sq = Polytope.from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert integrate_over_polytope(ONE2, sq) == 1
    tri = Polytope.from_vertices(STD)
    assert integrate_over_polytope(X1 + X2, tri) == F(1, 3)
    p2 = fan_p2()
    big = polytope_from_support(p2, VirtualPolytope(p2, (0, 0, 3)))
    assert integrate_over_polytope(ONE2, big) == F(9, 2)


def test_volume_additivity_over_any_triangulation():
    """Valuation property: simplex volumes sum to the polytope volume."""
    f1 = fan_f1()
    quad = polytope_from_support(f1, VirtualPolytope(f1, (2, 1, 1, 1)))
    chain = triangulate(quad)
    assert sum(
        (integrate_over_simplex(X1 * X2, s) for s in chain.simplices), F(0)
    ) == integrate_over_polytope(X1 * X2, quad)


def test_mixed_integral_unit_segments():
    pp = fan_p1xp1()
    hp = VirtualPolytope(pp, (1, 0, 0, 0))
    hq = VirtualPolytope(pp, (0, 1, 0, 0))
    assert mixed_integral(pp, ONE2, [hp, hq]) == F(1, 2)


def test_mixed_integral_diagonal_is_volume():
    p2 = fan_p2()
    h = VirtualPolytope(p2, (0, 0, 1))
    assert mixed_integral(p2, ONE2, [h, h]) == F(1, 2)


def test_mixed_integral_p1_linear_integrand():
    p1 = fan_p1()
    h = VirtualPolytope(p1, (1, 0))
    # I_x on [0,t] is t^2/2; polarization at (h,h) evaluates to 1/2
    assert mixed_integral(p1, X, [h, h]) == F(1, 2)


def test_mixed_integral_degree_mismatch():
    p1 = fan_p1()
    h = VirtualPolytope(p1, (1, 0))
    with pytest.raises(DegreeMismatch):
        mixed_integral(p1, X, [h, h, h])


def test_mixed_integral_against_minkowski_expansion():
    """2 MixedVol(A, B) = Vol(A+B) - Vol(A) - Vol(B) on honest polytopes."""
    rng = random.Random(31)
    f1 = fan_f1()
    from toricbundle.bundle import random_convex, random_virtual

    for _ in range(5):
        a = random_convex(f1, rng)
        b = random_convex(f1, rng)
        pa = polytope_from_support(f1, a)
        pb = polytope_from_support(f1, b)
        pab = polytope_from_support(f1, a + b)
        mv = mixed_integral(f1, ONE2, [a, b])
        assert 2 * mv == volume(pab) - volume(pa) - volume(pb)


def test_mixed_integral_symmetry_and_multilinearity():
    p2 = fan_p2()
    rng = random.Random(11)
    a = VirtualPolytope(p2, tuple(rng.randint(-3, 3) for _ in range(3)))
    b = VirtualPolytope(p2, tuple(rng.randint(-3, 3) for _ in range(3)))
    c = VirtualPolytope(p2, tuple(rng.randint(-3, 3) for _ in range(3)))
    assert mixed_integral(p2, ONE2, [a, b]) == mixed_integral(p2, ONE2, [b, a])
    lhs = mixed_integral(p2, ONE2, [a + b.scale(3), c])
    rhs = mixed_integral(p2, ONE2, [a, c]) + 3 * mixed_integral(p2, ONE2, [b, c])
    assert lhs == rhs


def test_mixed_integral_anchor_independence():
    """Shifting every argument through a different anchor changes nothing."""
    p2 = fan_p2()
    h = VirtualPolytope(p2, (1, 2, -1))
    g = VirtualPolytope(p2, (0, 1, 1))
    v1 = mixed_integral(p2, X1, [h, g, g])
    # recompute with all arguments jittered by a large convex anchor and its
    # negative: polarization is translation-free in each slot only through
    # the difference scheme, so just rerun (deterministic) and compare to a
    # direct symbolic route instead
    poly = i_f_polynomial(p2, X1)
    # polarization via symbolic differentiation of the interpolated cubic
    from itertools import product

    acc = F(0)
    args = [h, g, g]
    n = 3
    import math

    for bits in product((0, 1), repeat=n):
        vp = VirtualPolytope(p2, (F(0),) * 3)
        for take, arg in zip(bits, args):
            if take:
                vp = vp + arg
        acc += (-1) ** (n - sum(bits)) * poly.evaluate(vp.h)
    assert v1 == acc / math.factorial(n)


def test_i_f_polynomial_p2_volume():
    p2 = fan_p2()
    poly = i_f_polynomial(p2, ONE2)
    # oracle: direct areas at sample support vectors
    rng = random.Random(3)
    ok, w = is_projective(p2)
    for _ in range(10):
        h = VirtualPolytope(
            p2, tuple(6 * x + rng.randint(0, 4) for x in w.h)
        )
        assert poly.evaluate(h.h) == integrate_over_polytope(
            ONE2, polytope_from_support(p2, h)
        )
    # closed form (h1+h2+h3)^2/2
    s = QPolynomial.linear_form(("h1", "h2", "h3"), [1, 1, 1])
    assert poly == s * s * F(1, 2)


def test_i_f_polynomial_p1():
    p1 = fan_p1()
    assert i_f_polynomial(p1, ONE1) == QPolynomial.linear_form(
        ("h1", "h2"), [1, 1]
    )
    expected = QPolynomial(("h1", "h2"), {(2, 0): F(1, 2), (0, 2): F(-1, 2)})
    assert i_f_polynomial(p1, X) == expected


def octant_fan():
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)]
    cones = [(sx, sy, sz) for sx in (0, 3) for sy in (1, 4) for sz in (2, 5)]
    return validate_fan(rays, cones)


ONE3 = QPolynomial.constant(("x1", "x2", "x3"), 1)


def test_i_f_polynomial_octant_closed_form():
    """(P1)^3: P(h) is the box [-h4, h1] x [-h5, h2] x [-h6, h3]."""
    hv = tuple(f"h{i + 1}" for i in range(6))
    h = [QPolynomial.variable(hv, i) for i in range(6)]
    assert i_f_polynomial(octant_fan(), ONE3) == (
        (h[0] + h[3]) * (h[1] + h[4]) * (h[2] + h[5])
    )


def test_i_f_polynomial_p3_closed_form():
    """P3: P(h) is a corner simplex with legs h1 + h2 + h3 + h4."""
    s = QPolynomial.linear_form(("h1", "h2", "h3", "h4"), [1, 1, 1, 1])
    assert i_f_polynomial(fan_projective_space(3), ONE3) == s * s * s * F(1, 6)


def _catalog_fans():
    fans = {}
    for name in sorted(SPECS):
        fans.setdefault(SPECS[name]().fan, name)
    return sorted(fans.values())


CATALOG_FAN_SPECS = _catalog_fans()
rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


def fan_p112():
    """The weighted projective plane P(1,1,2): its cones have det 1, 2, 2."""
    return validate_fan([(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (0, 2)])


I_F_FANS = {name: SPECS[name]().fan for name in CATALOG_FAN_SPECS}
I_F_FANS.update(octant=octant_fan(), p3=fan_projective_space(3), p112=fan_p112())


@st.composite
def fan_and_form(draw, octant_max=3):
    """(fan name, random homogeneous f of degree <= 3; <= octant_max on the
    octant fan)."""
    name = draw(st.sampled_from(sorted(I_F_FANS)))
    fan = I_F_FANS[name]
    m = draw(st.integers(0, octant_max if name == "octant" else 3))
    monos = monomials_of_degree(fan.dim, m)
    terms = draw(st.dictionaries(st.sampled_from(monos), rationals, min_size=1))
    return name, QPolynomial(tuple(f"x{i + 1}" for i in range(fan.dim)), terms)


@settings(max_examples=60, deadline=None)
@given(fan_and_form(), st.integers(0, 2**32))
def test_i_f_polynomial_matches_direct_integration(case, seed):
    """The vertex sum agrees with direct integration at random points."""
    name, f = case
    fan = I_F_FANS[name]
    vp = random_convex(fan, random.Random(seed))
    assert i_f_polynomial(fan, f).evaluate(vp.h) == i_f_value(fan, f, vp)


def test_i_f_polynomial_self_check_raises(monkeypatch):
    """A constant error in every integral is not a degree-d form, so the
    off-grid self-check sees it (an explicit check, kept under -O)."""
    real = integrate.i_f_value
    monkeypatch.setattr(
        integrate, "i_f_value", lambda fan, f, vp: real(fan, f, vp) + 1
    )
    with pytest.raises(VerificationFailed, match="self-check"):
        i_f_polynomial(fan_p2(), ONE2)


def test_square_free_derivative_check_raises(monkeypatch):
    real = integrate.i_f_polynomial
    monkeypatch.setattr(
        integrate, "i_f_polynomial", lambda fan, f: real(fan, f) * 2
    )
    p2 = fan_p2()
    with pytest.raises(VerificationFailed, match="closed form"):
        square_free_derivative_check(
            p2, ONE2, VirtualPolytope(p2, (0, 0, 1)), (0, 1)
        )


def test_i_f_polynomial_homogeneous_translation_covariant():
    p2 = fan_p2()
    poly = i_f_polynomial(p2, X1)
    assert poly.is_homogeneous() and poly.degree() == 3
    # translation covariance: substituting h_i + <m, e_i> equals integrating
    # the translated integrand
    m = (2, -1)
    hv = poly.vars
    images = [
        QPolynomial.linear_form(hv, [int(i == j) for j in range(3)], const=c)
        for j, c in ((0, 2), (1, -1), (2, -1))
        for i in [j]
    ]
    shifted = poly.substitute(images)
    # integrand x1 translated by m: x1 + 2
    f_shift = X1 + 2
    p_combined = i_f_polynomial(p2, X1).substitute(images)
    direct = i_f_polynomial(p2, ONE2) * 2
    direct_poly = i_f_polynomial(p2, X1) + direct
    # evaluate both on samples
    rng = random.Random(5)
    ok, w = is_projective(p2)
    for _ in range(6):
        h = tuple(8 * x + rng.randint(0, 3) for x in w.h)
        assert shifted.evaluate(h) == direct_poly.evaluate(h)


def test_integral_over_virtual_matches_direct_on_convex():
    f1 = fan_f1()
    ok, w = is_projective(f1)
    h = w.scale(4)
    val = integral_over_virtual(f1, X1 + 2 * X2 + 1, h)
    direct = integrate_over_polytope(
        X1 + 2 * X2 + 1, polytope_from_support(f1, h)
    )
    assert val == direct


def test_square_free_derivative_examples():
    p2 = fan_p2()
    assert (
        square_free_derivative_check(p2, ONE2, VirtualPolytope(p2, (0, 0, 1)), (0, 1))
        == 1
    )
    p1 = fan_p1()
    assert (
        square_free_derivative_check(p1, ONE1, VirtualPolytope(p1, (1, 1)), (0, 1))
        == 0
    )
    delta = VirtualPolytope(p2, (1, 1, 1))
    val = square_free_derivative_check(p2, X1, delta, (1, 2))
    from toricbundle.polyhedral import dual_vertex

    assert val == dual_vertex(p2, (1, 2), delta.h)[0]


def test_convex_chain_examples():
    p2 = fan_p2()
    assert convex_chain_identity_check(
        p2, ONE2, VirtualPolytope(p2, (0, 0, 1)), (0, 1), [F(1, 2), F(1, 2)]
    )
    assert convex_chain_identity_check(
        p2, ONE2, VirtualPolytope(p2, (0, 0, 1)), (0, 1), [F(1, 2), 0]
    )
    assert convex_chain_identity_check(
        p2, X1, VirtualPolytope(p2, (1, 1, 1)), (1, 2), [F(1, 3), F(1, 4)]
    )


def test_convex_chain_quarter_value():
    """Spec's bookkeeping case: both sides equal 1/4."""
    import itertools

    p2 = fan_p2()
    delta = VirtualPolytope(p2, (0, 0, 1))
    lams = [F(1, 2), F(1, 2)]
    lhs = F(0)
    for bits in itertools.product((0, 1), repeat=2):
        h = list(delta.h)
        for take, i, lam in zip(bits, (0, 1), lams):
            if take:
                h[i] += lam
        lhs += (-1) ** sum(bits) * integrate_over_polytope(
            ONE2, polytope_from_support(p2, VirtualPolytope(p2, tuple(h)))
        )
    assert lhs == F(1, 4)


# ---------------------------------------------------------------------------
# the integer integrator and the incidence-table triangulation against the
# Fraction / QPolynomial code they replaced
# ---------------------------------------------------------------------------


def _simplex_integral_by_pullback(f, simplex):
    """Reference: pull f back to the standard simplex as a QPolynomial."""
    verts = [tuple(F(x) for x in v) for v in simplex]
    n = len(verts) - 1
    if n == 0:
        return F(0)
    v0 = verts[0]
    cols = [[verts[j + 1][i] - v0[i] for j in range(n)] for i in range(n)]
    det = abs(exactlin.det(cols))
    if det == 0:
        return F(0)
    images = [
        QPolynomial.linear_form(f.vars, cols[i], const=v0[i]) for i in range(n)
    ]
    g = f.substitute(images)
    total = F(0)
    for expo, coeff in g.terms.items():
        num = 1
        for e in expo:
            num *= factorial(e)
        total += coeff * F(num, factorial(sum(expo) + n))
    return det * total


def _triangulate_by_facet_search(p):
    """Reference: the facets of each face re-read from every halfspace."""

    def facets(verts):
        a = affine_dim(verts)
        out, seen = [], set()
        for normal, bound in p.facet_halfspaces():
            sat = tuple(v for v in verts if dot(v, normal) == bound)
            if len(sat) < a or affine_dim(sat) != a - 1:
                continue
            if frozenset(sat) not in seen:
                seen.add(frozenset(sat))
                out.append(sat)
        return out

    def rec(verts, a):
        if len(verts) == a + 1:
            return [tuple(verts)]
        apex = min(verts)
        out = []
        for facet in facets(verts):
            if apex in facet:
                continue
            for s in rec(facet, a - 1):
                out.append((apex,) + s)
        return out

    return tuple(rec(p.vertices, p.ambient_dim))


@st.composite
def simplex_and_integrand(draw):
    """A rational n-simplex (n = 1..3, degenerate in some draws) and a
    possibly inhomogeneous rational f of degree <= 3."""
    n = draw(st.integers(1, 3))
    pts = draw(
        st.lists(
            st.lists(rationals, min_size=n, max_size=n),
            min_size=n + 1,
            max_size=n + 1,
        )
    )
    if draw(st.booleans()):
        # the midpoint of two other vertices (or a repeat when n = 1)
        pts[-1] = [(a + b) / 2 for a, b in zip(pts[0], pts[-2])]
    monos = [m for d in range(4) for m in monomials_of_degree(n, d)]
    terms = draw(st.dictionaries(st.sampled_from(monos), rationals, max_size=6))
    xv = tuple(f"x{i + 1}" for i in range(n))
    return QPolynomial(xv, terms), [tuple(p) for p in pts]


@settings(max_examples=300, deadline=None)
@given(simplex_and_integrand())
def test_simplex_integral_matches_pullback(case):
    f, simplex = case
    assert integrate_over_simplex(f, simplex) == _simplex_integral_by_pullback(
        f, simplex
    )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 3).flatmap(
        lambda d: st.lists(
            st.lists(rationals, min_size=d, max_size=d), min_size=d + 1, max_size=7
        )
    )
)
def test_triangulate_matches_facet_search_on_point_sets(points):
    p = Polytope.from_vertices(points)
    assume(affine_dim(p.vertices) == p.ambient_dim)
    assert triangulate(p).simplices == _triangulate_by_facet_search(p)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(
        [SPECS[name]().fan for name in CATALOG_FAN_SPECS]
        + [octant_fan(), fan_projective_space(3)]
    ),
    st.integers(0, 2**32),
)
def test_triangulate_matches_facet_search_on_fans(fan, seed):
    p = polytope_from_support(fan, random_convex(fan, random.Random(seed)))
    assert triangulate(p).simplices == _triangulate_by_facet_search(p)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=6, max_size=6))
def test_triangulate_matches_facet_search_with_redundant_halfspace(sides):
    """The octant fan with (1, 1, 0) added, at a support vector that is
    linear across that ray: the box keeps its 8 vertices and the extra
    halfspace is tight on one edge only, so two halfspaces cut that edge out
    of each facet through it."""
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)]
    cones = [
        c for c in ((sx, sy, sz) for sx in (0, 3) for sy in (1, 4) for sz in (2, 5))
        if c[:2] != (0, 1)
    ] + [(0, 6, 2), (6, 1, 2), (0, 6, 5), (6, 1, 5)]
    fan = validate_fan(rays + [(1, 1, 0)], cones)
    p = polytope_from_support(
        fan, VirtualPolytope(fan, tuple(sides) + (sides[0] + sides[1],))
    )
    assert len(p.vertices) == 8
    assert triangulate(p).simplices == _triangulate_by_facet_search(p)


# ---------------------------------------------------------------------------
# the vertex-sum I_f and its polarization against the interpolation grid and
# the direct 2^m-integral polarization they replaced
# ---------------------------------------------------------------------------


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


@functools.cache
def _grid_interpolant(fan, expo):
    """Reference: I_f for f = x^expo by one exact solve on the principal
    lattice {c*h* + alpha : |alpha| = d}, which is unisolvent on the
    hyperplane sum(h) = c*sum(h*) + d when that misses 0; c keeps every
    grid point convex."""
    f = QPolynomial(tuple(f"x{i + 1}" for i in range(fan.dim)), {expo: 1})
    d = fan.dim + sum(expo)
    monos = monomials_of_degree(fan.nrays, d)
    _, witness = is_projective(fan)
    norm = max(sum(abs(x) for x in row) for row in fan.wall_rows())
    c = ceil((d + 1) * norm) + 1
    if c * sum(witness.h) + d == 0:
        c += 1
    rows, vals = [], []
    for alpha in monos:
        vp = VirtualPolytope(
            fan, tuple(c * w + a for w, a in zip(witness.h, alpha))
        )
        rows.append(_monomial_row(vp.h, monos, d))
        vals.append(i_f_value(fan, f, vp))
    sol = exactlin.solve(exactlin.QMatrix(rows), vals)
    hvars = tuple(f"h{i + 1}" for i in range(fan.nrays))
    return QPolynomial(hvars, dict(zip(monos, sol)))


# the grid on the octant fan has 462 points at degree 6, each a direct
# integral: 5-10 s per monomial, so the octant is drawn up to degree 1 here
# and up to degree 3 against direct integration above
@settings(max_examples=60, deadline=None)
@given(fan_and_form(octant_max=1))
def test_i_f_polynomial_matches_grid_interpolant(case):
    """I_f is linear in f, so the grid interpolants of the monomials (each
    built once) combine to the reference for f."""
    name, f = case
    fan = I_F_FANS[name]
    hvars = tuple(f"h{i + 1}" for i in range(fan.nrays))
    expected = QPolynomial.zero(hvars)
    for expo, coeff in f.terms.items():
        expected = expected + _grid_interpolant(fan, expo) * coeff
    assert i_f_polynomial(fan, f) == expected


def _mixed_by_anchor(fan, f, args):
    """Reference: the top forward difference of direct integrals,
    (1/m!) sum_S (-1)^(m - |S|) I_f(P0 + sum_S args), from a strictly
    convex anchor P0."""
    m = len(args)
    anchor = convex_anchor(fan, args)
    total = F(0)
    for bits in product((0, 1), repeat=m):
        vp = anchor
        for take, arg in zip(bits, args):
            if take:
                vp = vp + arg
        total += (-1) ** (m - sum(bits)) * i_f_value(fan, f, vp)
    return total / factorial(m)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(I_F_FANS)),
    st.integers(0, 2),
    st.integers(0, 2**32),
    st.booleans(),
)
def test_mixed_integral_matches_anchor_polarization(name, deg, seed, repeat):
    """Random f of degree deg (with lower-degree terms, which polarize to
    0) at random virtual polytopes; with ``repeat`` the arguments take two
    values only, so equal arguments are grouped."""
    fan = I_F_FANS[name]
    rng = random.Random(seed)
    if fan.dim == 3:
        deg = min(deg, 1)
    xv = tuple(f"x{i + 1}" for i in range(fan.dim))
    terms = {
        mono: F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
        for k in range(deg + 1)
        for mono in monomials_of_degree(fan.dim, k)
    }
    f = QPolynomial(xv, terms)
    m = fan.dim + deg
    pool = [random_virtual(fan, rng, width=3) for _ in range(2 if repeat else m)]
    args = [pool[rng.randrange(len(pool))] for _ in range(m)]
    assert mixed_integral(fan, f, args) == _mixed_by_anchor(
        fan, f.homogeneous_part(deg), args
    )


def test_integral_polynomials_reject_incomplete_fan():
    """P(h) is unbounded on a fan that misses a half-plane, so I_f has no
    value there: a typed error, not a polynomial."""
    fan = validate_fan([(1, 0), (0, 1), (-1, 0)], [(0, 1), (1, 2)])
    h = VirtualPolytope(fan, (1, 1, 1))
    with pytest.raises(FanError):
        i_f_polynomial(fan, ONE2)
    with pytest.raises(FanError):
        mixed_integral(fan, ONE2, [h, h])
    with pytest.raises(FanError):
        integral_over_virtual(fan, ONE2, h)
