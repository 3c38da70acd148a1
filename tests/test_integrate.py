"""Integration and mixed integrals: frozen oracle values and invariants.

Oracle provenance is noted at each frozen value; derived numbers come from
iterated univariate integration or shoelace areas done by hand.
"""

import functools
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricbundle import integrate
from toricbundle.bundle import random_convex
from toricbundle.catalog import SPECS, fan_projective_space
from toricbundle.errors import DegreeMismatch, LowerDimensional, VerificationFailed
from toricbundle.integrate import (
    SimplexChain,
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
    is_projective,
    polytope_from_support,
    validate_fan,
)
from toricbundle.qpoly import QPolynomial

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
    from toricbundle.bundle import random_convex

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


def _integrand(fan, name):
    xv = tuple(f"x{i + 1}" for i in range(fan.dim))
    if name == "1":
        return QPolynomial.constant(xv, 1)
    if name == "x1":
        return QPolynomial.variable(xv, 0)
    return QPolynomial.variable(xv, 0) * QPolynomial.variable(xv, 1)


@functools.cache
def _interpolated(spec_name, fname):
    """(fan, f, I_f polynomial), interpolated once per pytest run."""
    fan = SPECS[spec_name]().fan
    f = _integrand(fan, fname)
    return fan, f, i_f_polynomial(fan, f)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(CATALOG_FAN_SPECS),
    st.sampled_from(("1", "x1", "x1*x2")),
    st.integers(0, 2**32),
)
def test_i_f_polynomial_matches_direct_integration(spec_name, fname, seed):
    """The grid interpolant agrees with direct integration at random points."""
    assume(fname != "x1*x2" or SPECS[spec_name]().fan.dim >= 2)
    fan, f, poly = _interpolated(spec_name, fname)
    vp = random_convex(fan, random.Random(seed))
    assert poly.evaluate(vp.h) == i_f_value(fan, f, vp)


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
