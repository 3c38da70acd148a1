"""Integration and mixed integrals: frozen oracle values and invariants.

Oracle provenance is noted at each frozen value; derived numbers come from
iterated univariate integration or shoelace areas done by hand.
"""

import functools
import random
from fractions import Fraction as F
from itertools import combinations, product
from math import ceil, factorial
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    affine_dim,
    cone_vertices,
    convex_chain_by_fractions,
    det,
    integrate_over_simplex,
    octant_fan,
    of_point,
    polytope_from_points,
)
from toricbundle import bundle, cli, exactlin, integrate, polyhedral
from toricbundle.bundle import (
    cross_validate,
    random_convex,
    random_virtual,
    ring_via_diff,
    ring_via_sd,
    ring_via_sr,
)
from toricbundle.catalog import (
    SPECS,
    fan_hirzebruch1,
    fan_p1xp1,
    fan_projective_space,
)
from toricbundle.errors import (
    DegreeMismatch,
    DimensionMismatch,
    FanError,
    LowerDimensional,
    NotHomogeneous,
    ToricBundleError,
    VerificationFailed,
)
from toricbundle.integrate import (
    convex_anchor,
    convex_chain_identity_check,
    i_f_polynomial,
    i_f_value,
    integral_over_virtual,
    integrate_over_polytope,
    mixed_integral,
    square_free_derivative_check,
    triangulate,
    volume,
)
from toricbundle.polyhedral import (
    Polytope,
    VirtualPolytope,
    dot,
    is_convex_on,
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
    with pytest.raises(DimensionMismatch):
        integrate_over_simplex(ONE1, STD)


def fraction_simplices(p):
    """The simplices of :func:`triangulate` with their vertices as
    Fractions."""
    den, simplices = triangulate(p)
    return tuple(tuple(tuple(F(x, den) for x in v) for v in s) for s in simplices)


def test_triangulate_triangle_is_itself():
    tri = polytope_from_points(STD)
    assert triangulate(tri) == (1, (((0, 0), (0, 1), (1, 0)),))


def test_triangulate_square():
    sq = polytope_from_points([(0, 0), (1, 0), (0, 1), (1, 1)])
    simplices = fraction_simplices(sq)
    assert len(simplices) == 2
    total = sum((integrate_over_simplex(ONE2, s) for s in simplices), F(0))
    assert total == 1


def test_triangulate_f1_quadrilateral():
    f1 = fan_f1()
    quad = polytope_from_support(f1, VirtualPolytope(f1, (1, 1, 1, 1)))
    # oracle: shoelace area of (1,1),(0,1),(-2,-1),(1,-1) = 4
    assert len(triangulate(quad)[1]) == 2
    assert volume(quad) == 4


def test_triangulate_rejects_lower_dimensional():
    """The diagonal segment 0 <= x1 = x2 <= 1 in the plane."""
    seg = Polytope.from_halfspaces(
        [((1, -1), 0), ((-1, 1), 0), ((1, 0), 1), ((-1, 0), 0)], 2
    )
    assert seg.vertices == ((0, 0), (1, 1))
    with pytest.raises(LowerDimensional):
        triangulate(seg)
    assert integrate_over_polytope(ONE2, seg) == 0


def test_polytope_integrals():
    sq = polytope_from_points([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert integrate_over_polytope(ONE2, sq) == 1
    tri = polytope_from_points(STD)
    assert integrate_over_polytope(X1 + X2, tri) == F(1, 3)
    p2 = fan_p2()
    big = polytope_from_support(p2, VirtualPolytope(p2, (0, 0, 3)))
    assert integrate_over_polytope(ONE2, big) == F(9, 2)


def test_volume_additivity_over_any_triangulation():
    """Valuation property: simplex volumes sum to the polytope volume."""
    f1 = fan_f1()
    quad = polytope_from_support(f1, VirtualPolytope(f1, (2, 1, 1, 1)))
    assert sum(
        (integrate_over_simplex(X1 * X2, s) for s in fraction_simplices(quad)), F(0)
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
    # each negative lambda turns one difference around: the box integral
    # carries prod sign(lambda_i), -1 for an odd number of negative ones
    p1 = fan_p1()
    for lam in (F(1, 2), F(-1, 2)):
        assert convex_chain_identity_check(
            p1, ONE1, VirtualPolytope(p1, (2, 3)), (0,), [lam]
        )
    for lams in ([F(-1, 2), F(1, 3)], [F(-1, 2), F(-1, 3)]):
        assert convex_chain_identity_check(
            p2, X1, VirtualPolytope(p2, (1, 1, 1)), (1, 2), lams
        )


@pytest.mark.parametrize("lams", [[F(1, 2)], [F(1, 2), F(1, 3), F(1, 4)]])
def test_convex_chain_rejects_wrong_number_of_lambdas(lams):
    """One lambda per ray index: a short or long list is refused, not cut
    down to the shorter of the two."""
    p2 = fan_p2()
    with pytest.raises(DegreeMismatch):
        convex_chain_identity_check(
            p2, ONE2, VirtualPolytope(p2, (0, 0, 1)), (0, 1), lams
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
    scale = abs(det(cols))
    if scale == 0:
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
    return scale * total


def _triangulate_by_facet_search(p):
    """Reference: the facets of each face re-read from every halfspace."""

    def facets(verts):
        a = affine_dim(verts)
        out, seen = [], set()
        for normal, bound in p.halfspaces:
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
    assume(affine_dim(points) == len(points[0]))
    p = polytope_from_points(points)
    assert fraction_simplices(p) == _triangulate_by_facet_search(p)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 3).flatmap(
        lambda d: st.tuples(
            st.lists(
                st.lists(rationals, min_size=d, max_size=d),
                min_size=d + 1,
                max_size=7,
            ),
            st.dictionaries(
                st.sampled_from(
                    [m for k in range(3) for m in monomials_of_degree(d, k)]
                ),
                rationals,
                max_size=4,
            ),
        )
    )
)
def test_integrate_over_polytope_matches_simplex_sum(case):
    """One integration on the triangulation's shared integer points equals
    the sum of the public simplex integrals, each cleared on its own."""
    points, terms = case
    d = len(points[0])
    assume(affine_dim(points) == d)
    p = polytope_from_points(points)
    assume(len({x.denominator for v in p.vertices for x in v}) > 1)
    f = QPolynomial(tuple(f"x{i + 1}" for i in range(d)), terms)
    assert integrate_over_polytope(f, p) == sum(
        (integrate_over_simplex(f, s) for s in fraction_simplices(p)), F(0)
    )


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
    assert fraction_simplices(p) == _triangulate_by_facet_search(p)


def refined_octant_fan():
    """The octant fan with the cones over its (x1, x2)-quadrant split by
    the ray (1, 1, 0)."""
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)]
    cones = [
        c for c in ((sx, sy, sz) for sx in (0, 3) for sy in (1, 4) for sz in (2, 5))
        if c[:2] != (0, 1)
    ] + [(0, 6, 2), (6, 1, 2), (0, 6, 5), (6, 1, 5)]
    return validate_fan(rays + [(1, 1, 0)], cones)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=6, max_size=6))
def test_triangulate_matches_facet_search_with_redundant_halfspace(sides):
    """The octant fan with (1, 1, 0) added, at a support vector that is
    linear across that ray: the box keeps its 8 vertices and the extra
    halfspace is tight on one edge only, so two halfspaces cut that edge out
    of each facet through it."""
    fan = refined_octant_fan()
    p = polytope_from_support(
        fan, VirtualPolytope(fan, tuple(sides) + (sides[0] + sides[1],))
    )
    assert len(p.vertices) == 8
    assert fraction_simplices(p) == _triangulate_by_facet_search(p)


@settings(max_examples=10, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=4, max_size=4))
def test_triangulate_matches_facet_search_in_dimension_four(sides):
    """A box in R^4 with the redundant halfspace x1 + x2 <= s1 + s2, tight
    on a square 2-face: its four vertices are as many as the box has
    dimensions, so only maximality keeps the square out of the facets."""
    box = list(product(*((0, s) for s in sides)))
    unit = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    halfspaces = [(e, s) for e, s in zip(unit, sides)]
    halfspaces += [(tuple(-x for x in e), 0) for e in unit]
    halfspaces.append(((1, 1, 0, 0), sides[0] + sides[1]))
    p = Polytope(tuple(box), halfspaces)
    assert fraction_simplices(p) == _triangulate_by_facet_search(p)


def test_triangulate_ignores_halfspace_with_non_integral_bound():
    """x1 + x2 <= -4/3 touches no vertex of the square [-3, -1]^2; its
    numerator -4 is the sum on the diagonal, which is no face."""
    square = ((-3, -3), (-3, -1), (-1, -3), (-1, -1))
    halfspaces = [((1, 0), -1), ((0, 1), -1), ((-1, 0), 3), ((0, -1), 3)]
    p = Polytope(square, halfspaces + [((1, 1), F(-4, 3))])
    assert fraction_simplices(p) == _triangulate_by_facet_search(p)
    assert triangulate(p) == triangulate(Polytope(square, halfspaces))


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
    norm = max(sum(abs(x) for x in row) for row in fan.wall_rows)
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
    sol = exactlin.solve(rows, vals)
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
    with pytest.raises(FanError):
        i_f_value(fan, ONE2, h)
    with pytest.raises(FanError):
        convex_chain_identity_check(fan, ONE2, h, (0, 1), [F(1, 2), F(1, 2)])
    # the four quadrant rays with one quadrant missing: P(h) = [-1, 1]^2
    # has area 4, while the three cones' vertices span a triangle of area 2
    fan = validate_fan(
        [(1, 0), (0, 1), (-1, 0), (0, -1)], [(0, 1), (1, 2), (2, 3)]
    )
    with pytest.raises(FanError):
        i_f_value(fan, ONE2, VirtualPolytope(fan, (1, 1, 1, 1)))
    assert "pulling" not in vars(fan)


# ---------------------------------------------------------------------------
# the integer direct integral on P(h) and the per-fan I_f cache
# ---------------------------------------------------------------------------


def _boundary_support(fan, rng):
    """r + t*w for a random integer r and the projectivity witness w, with
    the least t that makes every wall gap >= 0: at least one gap is 0, so
    the vertices of the two cones at that wall coincide."""
    r = random_virtual(fan, rng).h
    w = is_projective(fan)[1].h
    t = max(
        -sum((a * x for a, x in zip(row, r)), F(0))
        / sum((a * x for a, x in zip(row, w)), F(0))
        for row in fan.wall_rows
    )
    return VirtualPolytope(fan, tuple(x + t * y for x, y in zip(r, w)))


SUPPORT_FANS = [SPECS[name]().fan for name in CATALOG_FAN_SPECS] + [
    octant_fan(),
    refined_octant_fan(),
    fan_p112(),
]


@st.composite
def convex_support_and_integrand(draw):
    """(fan, convex vp, f of degree <= 2, inhomogeneous allowed) on the
    catalog fans, the octant fan, its refinement (where a zero gap at the
    extra ray keeps P(h) full-dimensional) and P(1,1,2) (cones of det 2);
    vp is strictly convex, on the boundary of the convex cone, or a single
    point."""
    fan = draw(st.sampled_from(SUPPORT_FANS))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["strict", "boundary", "point"]))
    if kind == "strict":
        vp = random_convex(fan, rng)
    elif kind == "boundary":
        vp = _boundary_support(fan, rng)
    else:
        vp = of_point(
            fan, draw(st.lists(rationals, min_size=fan.dim, max_size=fan.dim))
        )
    monos = [m for k in range(3) for m in monomials_of_degree(fan.dim, k)]
    terms = draw(st.dictionaries(st.sampled_from(monos), rationals, max_size=4))
    f = QPolynomial(tuple(f"x{i + 1}" for i in range(fan.dim)), terms)
    return fan, kind, vp, f


@settings(max_examples=120, deadline=None)
@given(convex_support_and_integrand())
def test_i_f_value_matches_polytope_integral(case):
    """The integer path from h to the moments equals the direct integral
    over the Polytope built from P(h); that Polytope's vertices are the
    sorted distinct Fraction vertices of the cones, as before the integer
    vertex routine, and its halfspaces are (e_i, h_i).  A strictly convex
    h takes the fan's own face lattice and measures nothing; a boundary h,
    whose merged vertices change the face lattice, takes the measured
    vertices of support_points, through that Polytope."""
    fan, kind, vp, f = case
    assert is_convex_on(fan, vp, strict=kind == "strict")
    p = polytope_from_support(fan, vp)
    assert p.vertices == tuple(sorted(set(cone_vertices(fan, vp.h))))
    assert p.halfspaces == tuple(
        (tuple(F(x) for x in ray), b) for ray, b in zip(fan.rays, vp.h)
    )
    real = polyhedral.support_points
    with mock.patch.object(polyhedral, "support_points", wraps=real) as measured:
        value = i_f_value(fan, f, vp)
    assert value == integrate_over_polytope(f, p)
    assert measured.called == (kind != "strict")
    if kind == "strict":
        assert "pulling" in vars(fan)
    if kind == "point":
        assert len(p.vertices) == 1 and value == 0


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SUPPORT_FANS), st.integers(0, 2**32))
def test_fan_face_lattice_is_the_measured_one(fan, seed):
    """At a strictly convex h every cone has its own vertex, and the tight
    set measured on ray i's facet, as triangulate measures it, holds exactly
    the vertices of the cones through i: the face lattice that the cached
    triangulation is read from."""
    vp = random_convex(fan, random.Random(seed))
    one = QPolynomial.constant(tuple(f"x{i + 1}" for i in range(fan.dim)), 1)
    i_f_value(fan, one, vp)
    den, points = polyhedral.support_points(fan, vp)
    tight = [
        {k for k, v in enumerate(points) if polyhedral.dot(v, ray) == b * den}
        for ray, b in zip(fan.rays, vp.h)
    ]
    where = {tuple(F(x, den) for x in v): k for k, v in enumerate(points)}
    at = [where[v] for v in cone_vertices(fan, vp.h)]
    assert sorted(at) == list(range(len(fan.max_cones)))
    facets = [{k for k, j in enumerate(at) if j in t} for t in tight]
    assert facets == [
        {k for k, cone in enumerate(fan.max_cones) if i in cone}
        for i in range(fan.nrays)
    ]
    assert fan.pulling == polyhedral._pulling(facets, len(at), fan.dim)


def _doubled(matrix):
    return tuple(tuple(2 * x for x in row) for row in matrix)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        # the columns of cone 0's inverse are swapped: its vertex leaves
        # P(h) (and its own facets)
        (
            lambda scale, mats: (
                scale,
                (tuple(row[::-1] for row in mats[0]),) + mats[1:],
            ),
            "outside P",
        ),
        # as if det E_sigma of cone 0 were doubled: L doubles and so does
        # every other inverse, so only the vertex of cone 0 is halved:
        # inside P(h), off its own facets
        (
            lambda scale, mats: (2 * scale, mats[:1] + tuple(map(_doubled, mats[1:]))),
            "off its facets",
        ),
    ],
    ids=["swapped_adjugate", "doubled_det"],
)
def test_i_f_value_rejects_corrupted_cone_data(corrupt, message):
    """The oracle checks every vertex against the H-representation instead
    of integrating a wrong polytope (to 0 for swapped adjugate columns).
    The vertices are read from the fan's scaled inverses; the convexity
    check reads the true walls."""
    fan = fan_hirzebruch1()
    vp = VirtualPolytope(fan, (2, 3, 4, 5))
    assert i_f_value(fan, ONE2, vp) == 56
    fan.scaled_inverses = corrupt(*fan.scaled_inverses)
    with pytest.raises(VerificationFailed, match=message):
        i_f_value(fan, ONE2, vp)


def test_i_f_value_rejects_vertex_outside_p():
    """With the wall rows emptied, a support vector that is not convex
    passes :func:`is_convex_on`; its cone vertices are right but not all in
    P(h), and the vertex check refuses them."""
    fan = fan_hirzebruch1()
    vp = VirtualPolytope(fan, (2, 3, 4, -5))
    assert not is_convex_on(fan, vp)
    fan.wall_rows_int = ()
    with pytest.raises(VerificationFailed, match="outside P"):
        i_f_value(fan, ONE2, vp)


def test_i_f_value_builds_no_polytope(monkeypatch):
    def refuse(self, *args):
        raise RuntimeError("Polytope built")

    monkeypatch.setattr(Polytope, "__init__", refuse)
    fan = fan_hirzebruch1()
    assert i_f_value(fan, ONE2, VirtualPolytope(fan, (2, 3, 4, 5))) == 56


def test_verify_bkk_builds_each_i_f_once(monkeypatch, capsys):
    """Every random Delta of a base class asks for the same I_f; the
    vertex sum runs once per distinct (fan, f_gamma) value."""
    requests = []
    real = integrate.i_f_polynomial

    def counting(fan, f):
        requests.append((fan, f))
        return real(fan, f)

    monkeypatch.setattr(integrate, "i_f_polynomial", counting)
    code = cli.main(["verify", "p2_rank2", "--suite", "bkk", "--count", "5"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1] == "RESULT: PASS"
    info = real.cache_info()
    assert info.misses == info.currsize == len(set(requests))
    assert info.hits == len(requests) - info.misses > 0


def test_cached_i_f_matches_fresh_computation(monkeypatch):
    """No builder mutates a cached polynomial: after ring_via_sd and
    ring_via_diff, each one returned still equals the uncached vertex sum on
    a freshly validated equal fan, and an equal key built anew still finds
    that very object."""
    returned = []
    real = integrate.i_f_polynomial

    def logging(fan, f):
        poly = real(fan, f)
        returned.append((f, poly))
        return poly

    monkeypatch.setattr(bundle, "i_f_polynomial", logging)
    spec = SPECS["flag_sl3_p1xp1"]()
    ring_via_sd(spec)
    ring_via_diff(spec)
    assert returned
    assert real.cache_info().currsize == len({f for f, _ in returned})
    fresh = validate_fan(spec.fan.rays, spec.fan.max_cones)
    assert fresh == spec.fan and fresh is not spec.fan
    for f, poly in returned:
        assert real(fresh, QPolynomial(f.vars, f.terms)) is poly
        assert real.__wrapped__(fresh, f) == poly


def test_i_f_polynomial_errors_leave_cache_empty(monkeypatch):
    p2 = fan_p2()
    with pytest.raises(NotHomogeneous):
        i_f_polynomial(p2, X1 + ONE2)
    assert i_f_polynomial.cache_info().currsize == 0
    fan = validate_fan([(1, 0), (0, 1), (-1, 0)], [(0, 1), (1, 2)])
    with pytest.raises(FanError):
        i_f_polynomial(fan, ONE2)
    assert i_f_polynomial.cache_info().currsize == 0
    real = integrate.i_f_value
    monkeypatch.setattr(
        integrate, "i_f_value", lambda fan, f, vp: real(fan, f, vp) + 1
    )
    with pytest.raises(VerificationFailed, match="self-check"):
        i_f_polynomial(p2, ONE2)
    info = i_f_polynomial.cache_info()
    assert info.currsize == 0 and info.misses == 3


I_F_SHARING_FANS = {
    name: (lambda name=name: SPECS[name]().fan) for name in CATALOG_FAN_SPECS
}
I_F_SHARING_FANS.update(
    octant=octant_fan, p3=lambda: fan_projective_space(3), p112=fan_p112
)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_equal_fans_share_one_i_f_polynomial(data):
    """The memo keys on the fan's value: two separately validated equal fans
    get the identical polynomial object, which equals the uncached vertex
    sum on a third copy."""
    name = data.draw(st.sampled_from(sorted(I_F_SHARING_FANS)))
    first, second, third = (I_F_SHARING_FANS[name]() for _ in range(3))
    assert first == second == third and first is not second
    m = data.draw(st.integers(0, 2))
    monos = monomials_of_degree(first.dim, m)
    terms = data.draw(st.dictionaries(st.sampled_from(monos), rationals, min_size=1))
    f = QPolynomial(tuple(f"x{i + 1}" for i in range(first.dim)), terms)
    poly = i_f_polynomial(first, f)
    assert i_f_polynomial(second, f) is poly
    assert i_f_polynomial.__wrapped__(third, f) == poly


def test_i_f_polynomial_refuses_wrong_variable_count():
    """An integrand whose variable count is not the fan's dimension is
    refused before any work, so nothing is cached; mixed_integral inherits
    the refusal."""
    p2 = fan_p2()
    abc = ("a", "b", "c")
    for f in (
        QPolynomial.zero(abc),
        QPolynomial.constant(abc, 1),
        QPolynomial.variable(abc, 2),
    ):
        with pytest.raises(DimensionMismatch, match="3 variables"):
            i_f_polynomial(p2, f)
    assert i_f_polynomial.cache_info().currsize == 0
    vp = VirtualPolytope(p2, (1, 1, 1))
    with pytest.raises(DimensionMismatch, match="3 variables"):
        mixed_integral(p2, QPolynomial.constant(abc, 1), [vp, vp])
    with pytest.raises(DimensionMismatch, match="3 variables"):
        mixed_integral(p2, QPolynomial.variable(abc, 2), [vp, vp, vp])


def test_builders_park_no_state_on_the_fan():
    """A fan holds its validated fields and its own cached properties only:
    after all three builders and cross_validate, no other module has stored
    anything on it."""
    spec = SPECS["flag_sl3_p1xp1"]()
    ring_via_sr(spec)
    ring_via_sd(spec)
    ring_via_diff(spec)
    assert cross_validate(spec)
    own = {
        name
        for name, value in vars(polyhedral.Fan).items()
        if isinstance(value, functools.cached_property)
    }
    assert set(vars(spec.fan)) <= {"dim", "rays", "max_cones"} | own


def _polytope_corner_box(fan, f, delta, ray_set, lams):
    """The corner box as the identity check integrated it before the Kuhn
    simplices: a Polytope from its 2^n corners and 2n halfspaces, through
    :func:`triangulate`, with no sign."""
    n = fan.dim
    k = fan.max_cones.index(ray_set)
    cone = fan.cone_data[k]
    a = cone_vertices(fan, delta.h)[k]
    duals = [[F(x, cone.det) for x in col] for col in cone.adj]
    corners = []
    for bits in product((0, 1), repeat=n):
        pt = list(a)
        for take, w, lam in zip(bits, duals, lams):
            if take:
                for c in range(n):
                    pt[c] += lam * w[c]
        corners.append(tuple(pt))
    halfspaces = []
    for i, lam in zip(ray_set, lams):
        ray = fan.rays[i]
        halfspaces.append((ray, delta.h[i] + max(lam, 0)))
        halfspaces.append(([-x for x in ray], -delta.h[i] - min(lam, 0)))
    box = Polytope(tuple(sorted(corners)), halfspaces)
    return integrate_over_polytope(f, box)


@st.composite
def corner_box_case(draw):
    """(fan, f of degree <= 2, strictly convex Delta, a maximal cone, one
    nonzero lambda per ray of it, of either sign and of the sizes the cc
    suite draws).  Delta is scaled by 8 so that every wall gap stays
    positive when the facets move by the lambdas."""
    fan = draw(st.sampled_from(SUPPORT_FANS))
    delta = random_convex(fan, random.Random(draw(st.integers(0, 2**32)))).scale(8)
    ray_set = draw(st.sampled_from(fan.max_cones))
    size = st.builds(F, st.integers(1, 4), st.integers(5, 9))
    signed = st.builds(lambda x, s: s * x, size, st.sampled_from((1, -1)))
    lams = draw(st.lists(signed, min_size=fan.dim, max_size=fan.dim))
    monos = [m for k in range(3) for m in monomials_of_degree(fan.dim, k)]
    terms = draw(st.dictionaries(st.sampled_from(monos), rationals, max_size=3))
    f = QPolynomial(tuple(f"x{i + 1}" for i in range(fan.dim)), terms)
    return fan, f, delta, ray_set, lams


@settings(max_examples=60, deadline=None)
@given(corner_box_case())
def test_kuhn_box_matches_polytope_box(case):
    """The box integral of the check, its last :func:`_integral` (over the
    n! Kuhn simplices), is the Polytope box; and with the sign
    prod sign(lambda_i) put on it the identity holds for both signs."""
    fan, f, delta, ray_set, lams = case
    real = integrate._integral
    with mock.patch.object(integrate, "_integral", wraps=real) as spy:
        holds = convex_chain_identity_check(fan, f, delta, ray_set, lams)
    _, _, simplices = spy.call_args.args
    assert len(simplices) == factorial(fan.dim)
    assert real(*spy.call_args.args) == _polytope_corner_box(
        fan, f, delta, ray_set, lams
    )
    assert holds


def _verdict(check, *args):
    """What an identity check gives: its bool, or the type and message of
    the typed error it raises."""
    try:
        return check(*args)
    except ToricBundleError as exc:
        return type(exc).__name__, str(exc)


CHAIN_FANS = [SPECS[name]().fan for name in CATALOG_FAN_SPECS] + [
    fan_projective_space(3),
    fan_p112(),
]


@st.composite
def chain_case(draw):
    """(fan, f of degree <= 2, Delta, any n rays, n lambdas) on the catalog
    fans, P^3 and P(1,1,2), whose L = 2 puts the box on a denominator
    larger than D.  Delta is strictly convex, on the boundary of the convex
    cone, or the negative of a strictly convex one (every wall gap < 0);
    each lambda is negative, zero or positive, up to 4."""
    fan = draw(st.sampled_from(CHAIN_FANS))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["strict", "boundary", "non-convex"]))
    if kind == "strict":
        delta = random_convex(fan, rng)
    elif kind == "boundary":
        delta = _boundary_support(fan, rng)
    else:
        delta = random_convex(fan, rng).scale(-1)
    ray_set = draw(st.sampled_from(list(combinations(range(fan.nrays), fan.dim))))
    lam = st.builds(F, st.integers(-4, 4), st.integers(1, 9))
    lams = draw(st.lists(lam, min_size=fan.dim, max_size=fan.dim))
    monos = [m for k in range(3) for m in monomials_of_degree(fan.dim, k)]
    terms = draw(st.dictionaries(st.sampled_from(monos), rationals, max_size=3))
    f = QPolynomial(tuple(f"x{i + 1}" for i in range(fan.dim)), terms)
    return fan, f, delta, ray_set, lams


def test_integer_chain_check_matches_the_fraction_oracle():
    """The check on integers (one clearing of Delta and the lambdas, the box
    on L D) gives the verdict of the Fraction route it replaced
    (``helpers.convex_chain_by_fractions``): the same bool, or the same
    error.  A shifted h that is not convex is refused by the direct
    integral with :class:`NotConvex` rather than giving False, so the
    non-convex Delta, and some large lambdas, are the draws whose verdict is
    not True; some of each kind must occur."""
    verdicts = []

    @settings(max_examples=200, deadline=None)
    @given(chain_case())
    def agree(case):
        verdict = _verdict(convex_chain_identity_check, *case)
        assert verdict == _verdict(convex_chain_by_fractions, *case)
        verdicts.append(verdict)

    agree()
    assert True in verdicts and any(v is not True for v in verdicts)


def test_integrals_refuse_a_support_vector_on_another_fan():
    """A Delta is read on its own fan only: P^1 x P^1 and F_1 have four rays
    each, so the support vector of one fits the other."""
    fan = fan_p1xp1()
    vp = VirtualPolytope(fan_hirzebruch1(), (2, 3, 4, 5))
    with pytest.raises(FanError, match="different fans"):
        i_f_value(fan, ONE2, vp)
    with pytest.raises(FanError, match="different fans"):
        convex_chain_identity_check(fan, ONE2, vp, (0, 1), [F(1, 2), F(1, 3)])
    with pytest.raises(FanError, match="different fans"):
        square_free_derivative_check(fan, ONE2, vp, (0, 1))


@pytest.mark.parametrize(
    "ray_set, error",
    [
        ((0, 0), DegreeMismatch),
        ((1, 1), DegreeMismatch),
        ((0, 3), FanError),
        ((0, 9), FanError),
        ((-1, 0), FanError),
    ],
)
def test_identity_checks_refuse_malformed_ray_sets(monkeypatch, ray_set, error):
    """A repeated index and one that names no ray (a negative one would wrap
    to the last ray) are refused by type before any integral runs."""

    def refuse(*args):
        raise RuntimeError("integral run")

    monkeypatch.setattr(integrate, "_integral", refuse)
    monkeypatch.setattr(integrate, "i_f_polynomial", refuse)
    p2 = fan_p2()
    delta = VirtualPolytope(p2, (1, 1, 1))
    with pytest.raises(error) as caught:
        convex_chain_identity_check(p2, ONE2, delta, ray_set, [F(1, 2), F(1, 3)])
    assert caught.type is error
    with pytest.raises(error) as caught:
        square_free_derivative_check(p2, ONE2, delta, ray_set)
    assert caught.type is error
