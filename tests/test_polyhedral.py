"""Fans, support vectors, polytopes: spec examples and invariants."""

import functools
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    FanTooCoarse,
    cone_vertices,
    of_point,
    polytope_from_points,
    support_function,
)
from toricbundle import polyhedral
from toricbundle.catalog import SPECS, fan_projective_space
from toricbundle.exactlin import solve
from toricbundle.errors import (
    BadFaceIntersection,
    DegenerateCone,
    FanError,
    NonPrimitiveRay,
    NotConvex,
    NotPure,
    VerificationFailed,
)
from toricbundle.polyhedral import (
    Fan,
    Polytope,
    VirtualPolytope,
    dot,
    dual_vertex,
    is_complete,
    is_convex_on,
    is_projective,
    is_smooth,
    polytope_from_support,
    validate_fan,
)


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


def test_validate_textbook_fan():
    fan = fan_p2()
    assert fan.nrays == 3 and len(fan.max_cones) == 3


def test_validate_rejects_nonprimitive():
    with pytest.raises(NonPrimitiveRay):
        validate_fan([(2, 0), (0, 1)], [(0, 1)])


def test_validate_rejects_degenerate_cone():
    with pytest.raises(DegenerateCone):
        validate_fan([(1, 0), (-1, 0)], [(0, 1)])


@pytest.mark.parametrize(
    "rays, cones",
    [
        # the cone of (1,1), (0,1) lies inside the first quadrant
        ([(1, 0), (1, 1), (0, 1)], [(0, 2), (1, 2)]),
        # P^2 plus the ray (1,1) and a cone inside the cone of (1,0), (0,1)
        ([(1, 0), (0, 1), (-1, -1), (1, 1)], [(0, 1), (1, 2), (0, 2), (0, 3)]),
    ],
)
def test_validate_rejects_cones_not_meeting_in_a_face(rays, cones):
    with pytest.raises(BadFaceIntersection, match="do not meet in a face"):
        validate_fan(rays, cones)


P1XP1_RAYS = [(1, 0), (0, 1), (-1, 0), (0, -1)]
P1XP1_CONES = [(0, 1), (1, 2), (2, 3), (3, 0)]


@pytest.mark.parametrize(
    "cones, message",
    [
        (P1XP1_CONES + [(0,)], r"cone \(0,\) is a face of cone \(0, 1\)"),
        ([(1,)] + P1XP1_CONES, r"cone \(1,\) is a face of cone \(0, 1\)"),
        ([(2, 3), (3,)], r"cone \(3,\) is a face of cone \(2, 3\)"),
    ],
)
def test_validate_rejects_a_listed_face_of_another_cone(cones, message):
    # the pairwise LP alone accepts these: a face meets its cone in a face
    with pytest.raises(FanError, match=message):
        validate_fan(P1XP1_RAYS, cones)


@pytest.mark.parametrize(
    "rays, cones, ray",
    [
        # P^2 plus the ray (1, 1), which no cone uses
        ([(1, 0), (0, 1), (-1, -1), (1, 1)], [(0, 1), (0, 2), (1, 2)], "(1, 1)"),
        # the first quadrant with all four rays of P^1 x P^1 listed
        (P1XP1_RAYS, [(0, 1)], "(-1, 0)"),
    ],
)
def test_validate_rejects_a_ray_in_no_cone(rays, cones, ray):
    with pytest.raises(FanError, match=re.escape(f"ray {ray} lies in no maximal cone")):
        validate_fan(rays, cones)


def test_fan_constructor_validates():
    """No Fan escapes validation: the non-primitive ray (2, 2) in no cone
    and a ray with no cone at all are refused where the fan is built, so
    is_complete never reads an unchecked fan."""
    with pytest.raises(NonPrimitiveRay):
        Fan([(1, 0), (0, 1), (-1, -1), (2, 2)], [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(FanError, match=r"ray \(1,\) lies in no maximal cone"):
        Fan([(1,)], [])
    assert validate_fan(P1XP1_RAYS, P1XP1_CONES) == Fan(P1XP1_RAYS, P1XP1_CONES)


def test_fan_facts_are_computed_once():
    """Each fact derived from the fan alone is built on first read and then
    read back, the same object every time."""
    fan = fan_f1()
    names = (
        "cone_data", "scaled_inverses", "wall_rows", "wall_rows_int",
        "complete", "projective", "pulling",
    )
    assert not set(names) & set(vars(fan))
    first = [getattr(fan, name) for name in names]
    assert all(getattr(fan, name) is x for name, x in zip(names, first))
    assert is_complete(fan) is fan.complete and is_projective(fan) is fan.projective


def test_smoothness():
    assert is_smooth(fan_p2())
    assert not is_smooth(validate_fan([(1, 0), (1, 2)], [(0, 1)]))
    assert is_smooth(fan_f1())


def test_completeness():
    assert is_complete(fan_p2())
    assert not is_complete(validate_fan([(1, 0), (0, 1)], [(0, 1)]))
    assert is_complete(fan_f1())
    with pytest.raises(FanError, match=r"ray \(1,\) lies in no maximal cone"):
        validate_fan([(1,)], [])


def test_not_pure():
    fan = validate_fan([(1, 0), (0, 1)], [(0,), (1,)])
    with pytest.raises(NotPure):
        is_complete(fan)


def test_projectivity_with_witness():
    for fan in (fan_p1(), fan_p2(), fan_p1xp1(), fan_f1()):
        ok, witness = is_projective(fan)
        assert ok
        assert is_convex_on(fan, witness, strict=True)


def test_nonprojective_complete_fan():
    """Twisted-diagonal cube fan: complete and simplicial, but no strictly
    convex support function exists (the standard non-regular triangulation)."""
    rays = [
        (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
        (-1, 1, 1), (-1, 1, -1), (-1, -1, 1), (-1, -1, -1),
    ]
    cones = [
        (0, 1, 3), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 4, 5), (1, 3, 7),
        (1, 5, 7), (2, 3, 6), (2, 4, 6), (3, 6, 7), (4, 5, 7), (4, 6, 7),
    ]
    fan = validate_fan(rays, cones)
    assert is_complete(fan)
    ok, witness = is_projective(fan)
    assert not ok and witness is None
    # the untwisted cube (all diagonals through (1,1,1)-type corners) is fine
    straight = [
        (0, 1, 3), (0, 2, 3), (0, 1, 5), (0, 4, 5), (0, 2, 6), (0, 4, 6),
        (3, 5, 7), (1, 3, 5), (3, 6, 7), (2, 3, 6), (5, 6, 7), (4, 5, 6),
    ]
    fan2 = validate_fan(rays, straight)
    assert is_complete(fan2)
    assert is_projective(fan2)[0]


def test_wall_rows_built_once_per_fan(monkeypatch):
    calls = []
    cone_calls = []

    def counting(name, log):
        """The cached property ``Fan.<name>``, logging each fan it builds for."""
        real = polyhedral.Fan.__dict__[name].func

        def wrapped(fan):
            log.append(fan)
            return real(fan)

        prop = functools.cached_property(wrapped)
        prop.__set_name__(polyhedral.Fan, name)
        return prop

    monkeypatch.setattr(polyhedral.Fan, "wall_rows", counting("wall_rows", calls))
    monkeypatch.setattr(
        polyhedral.Fan, "cone_data", counting("cone_data", cone_calls)
    )
    fan = fan_f1()
    assert calls == [] and cone_calls == []  # not built by validate_fan
    ok, witness = is_projective(fan)
    for k in range(5):
        assert is_convex_on(fan, witness.scale(k + 1))
        polytope_from_support(fan, witness.scale(k + 1))
    assert is_projective(fan)[0]
    assert calls == [fan] and cone_calls == [fan]
    other = fan_f1()
    assert is_convex_on(other, witness.h)
    assert len(calls) == 2 and calls[1] is other
    assert len(cone_calls) == 2 and cone_calls[1] is other


def _wall_rows_by_solve(fan):
    """Reference: one solve per wall, E_a^T x = e_{j'}."""
    rows = []
    for ca, cb, ridge in fan.walls():
        cone_a = fan.max_cones[ca]
        (jp,) = [i for i in fan.max_cones[cb] if i not in ridge]
        x = solve(list(zip(*[fan.rays[i] for i in cone_a])), fan.rays[jp])
        row = [F(0)] * fan.nrays
        row[jp] += 1
        for idx, i in enumerate(cone_a):
            row[i] -= x[idx]
        rows.append(tuple(row))
    return tuple(rows)


def fan_p112():
    return validate_fan([(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (0, 2)])


def fan_octant():
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)]
    cones = [(sx, sy, sz) for sx in (0, 3) for sy in (1, 4) for sz in (2, 5)]
    return validate_fan(rays, cones)


CONE_DATA_FANS = (
    fan_p1(),
    fan_p2(),
    fan_p1xp1(),
    fan_f1(),
    fan_p112(),
    fan_octant(),
    fan_projective_space(3),
    validate_fan([(1, 0, 0), (0, 1, 0), (1, 1, 2)], [(0, 1, 2)]),
)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(CONE_DATA_FANS), st.data())
def test_cone_data_matches_solves(fan, data):
    """Vertices and wall rows read off the integer adjugates equal one
    exact solve per cone and per wall."""
    rational = st.builds(F, st.integers(-9, 9), st.integers(1, 5))
    h = tuple(
        data.draw(st.lists(rational, min_size=fan.nrays, max_size=fan.nrays))
    )
    assert cone_vertices(fan, h) == [
        dual_vertex(fan, cone, h) for cone in fan.max_cones
    ]
    assert fan.wall_rows == _wall_rows_by_solve(fan)


def test_cone_data_rejects_lower_dimensional_cones():
    fan = validate_fan([(1, 0), (0, 1)], [(0,), (1,)])
    with pytest.raises(NotPure):
        fan.cone_data


def test_convexity_examples():
    p2 = fan_p2()
    assert is_convex_on(p2, VirtualPolytope(p2, (0, 0, 1)))
    assert not is_convex_on(p2, VirtualPolytope(p2, (0, 0, -1)))
    p1 = fan_p1()
    assert is_convex_on(p1, VirtualPolytope(p1, (1, 1)))
    assert not is_convex_on(p1, VirtualPolytope(p1, (1, -2)))


@pytest.mark.parametrize(
    "h", [(0, 0), (0, 0, 0, 5), VirtualPolytope(fan_p1xp1(), (1, 1, 1, -50))]
)
def test_is_convex_on_rejects_wrong_length(h):
    """A raw support vector is held to the length a VirtualPolytope needs,
    and so is a VirtualPolytope of a fan with another number of rays."""
    with pytest.raises(FanError):
        is_convex_on(fan_p2(), h)


def _convex_by_fraction_gaps(fan, h, strict):
    """Reference: the Fraction gap sums over the rational wall rows."""
    for row in fan.wall_rows:
        gap = sum((a * x for a, x in zip(row, h)), F(0))
        if gap < 0 or (strict and gap == 0):
            return False
    return True


CONVEX_FANS = tuple({spec().fan: None for spec in SPECS.values()}) + (
    fan_octant(),
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(CONVEX_FANS), st.data(), st.booleans())
def test_is_convex_on_matches_fraction_gaps(fan, data, strict):
    """The integer wall gaps have the signs of the Fraction gap sums.  h is
    a multiple of the projectivity witness plus a linear function (which
    adds 0 to every gap) plus a sparse perturbation, so gaps of 0 and of
    either sign all occur."""
    rational = st.builds(F, st.integers(-9, 9), st.integers(1, 6))
    witness = is_projective(fan)[1].h
    c = data.draw(st.sampled_from([F(0), F(1, 3), F(1), F(5, 2)]))
    m = data.draw(st.lists(rational, min_size=fan.dim, max_size=fan.dim))
    bumps = data.draw(
        st.lists(
            st.one_of(st.just(F(0)), rational),
            min_size=fan.nrays,
            max_size=fan.nrays,
        )
    )
    h = tuple(
        c * w + dot(m, ray) + b for w, ray, b in zip(witness, fan.rays, bumps)
    )
    want = _convex_by_fraction_gaps(fan, h, strict)
    assert is_convex_on(fan, h, strict) == want
    assert is_convex_on(fan, VirtualPolytope(fan, h), strict) == want


def test_dual_vertices_p2():
    p2 = fan_p2()
    h = (0, 0, 1)
    assert dual_vertex(p2, (0, 1), h) == (F(0), F(0))
    assert dual_vertex(p2, (0, 2), h) == (F(0), F(-1))


def test_dual_vertex_p1():
    p1 = fan_p1()
    assert dual_vertex(p1, (0,), (5, -2)) == (F(5),)


def test_polytope_from_support_examples():
    p2 = fan_p2()
    tri = polytope_from_support(p2, VirtualPolytope(p2, (0, 0, 1)))
    assert set(tri.vertices) == {(0, 0), (-1, 0), (0, -1)}
    p1 = fan_p1()
    seg = polytope_from_support(p1, VirtualPolytope(p1, (3, -1)))
    assert set(seg.vertices) == {(F(1),), (F(3),)}
    f1 = fan_f1()
    quad = polytope_from_support(f1, VirtualPolytope(f1, (1, 1, 1, 1)))
    assert len(quad.vertices) == 4


def test_polytope_from_support_rejects_nonconvex():
    p2 = fan_p2()
    with pytest.raises(NotConvex):
        polytope_from_support(p2, VirtualPolytope(p2, (0, 0, -1)))


def test_support_function_examples():
    pp = fan_p1xp1()
    square = polytope_from_points([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert support_function(square, pp).h == (1, 1, 0, 0)
    # the vertices given out of order describe the same square
    unsorted = Polytope(((1, 1), (0, 0), (0, 1), (1, 0)), square.halfspaces)
    assert support_function(unsorted, pp).h == (1, 1, 0, 0)
    p2 = fan_p2()
    point = Polytope.from_halfspaces(
        [((1, 0), 2), ((-1, 0), -2), ((0, 1), 3), ((0, -1), -3)], 2
    )
    assert support_function(point, p2).h == of_point(p2, (2, 3)).h
    tri = polytope_from_points([(0, 0), (-1, 0), (0, -1)])
    assert support_function(tri, p2).h == (0, 0, 1)


def test_support_function_too_coarse():
    p2 = fan_p2()
    square = polytope_from_points([(0, 0), (1, 0), (0, 1), (1, 1)])
    with pytest.raises(FanTooCoarse):
        support_function(square, p2)
    # and a fan missing a needed ray direction entirely
    tri = polytope_from_points([(0, 0), (-1, 0), (0, -1)])
    with pytest.raises(FanTooCoarse):
        support_function(tri, fan_f1())


def is_minkowski_sum(s, p, q) -> bool:
    """s = p + q: every vertex of s is a sum v + w of vertices of p and q,
    so s lies in the hull of the sums, and every such sum satisfies the
    halfspaces of s, so the hull lies in s."""
    sums = {tuple(a + b for a, b in zip(v, w)) for v in p.vertices for w in q.vertices}
    return set(s.vertices) <= sums and all(
        dot(x, n) <= b for x in sums for n, b in s.halfspaces
    )


def test_virtual_add_matches_polytope_sum():
    p2 = fan_p2()
    h = VirtualPolytope(p2, (0, 0, 1))
    assert (h + h).h == (0, 0, 2)
    big = polytope_from_support(p2, h + h)
    small = polytope_from_support(p2, h)
    assert is_minkowski_sum(big, small, small)
    assert not is_minkowski_sum(small, small, small)


small_rat = st.builds(F, st.integers(-8, 8), st.integers(1, 4))


@settings(max_examples=60, deadline=None)
@given(st.lists(small_rat, min_size=4, max_size=4))
def test_support_round_trip(perturb):
    """support_function(polytope_from_support(h)) = h exactly for convex h."""
    f1 = fan_f1()
    ok, w = is_projective(f1)
    h = VirtualPolytope(f1, tuple(30 * x for x in w.h)) + VirtualPolytope(
        f1, perturb
    )
    if not is_convex_on(f1, h):
        return
    assert support_function(polytope_from_support(f1, h), f1).h == h.h


@settings(max_examples=60, deadline=None)
@given(
    st.lists(small_rat, min_size=3, max_size=3),
    st.lists(small_rat, min_size=3, max_size=3),
)
def test_support_additivity(ha, hb):
    """P(a + b) = P(a) + P(b) for convex summands on the P^2 fan, so
    h_{P+Q} = h_P + h_Q."""
    p2 = fan_p2()
    ok, w = is_projective(p2)
    a = VirtualPolytope(p2, tuple(20 * x for x in w.h)) + VirtualPolytope(p2, ha)
    b = VirtualPolytope(p2, tuple(20 * x for x in w.h)) + VirtualPolytope(p2, hb)
    if not (is_convex_on(p2, a) and is_convex_on(p2, b)):
        return
    pa = polytope_from_support(p2, a)
    pb = polytope_from_support(p2, b)
    s = polytope_from_support(p2, a + b)
    assert is_minkowski_sum(s, pa, pb)
    assert support_function(s, p2).h == (a + b).h


def test_cancellation():
    p2 = fan_p2()
    a = VirtualPolytope(p2, (1, 2, 3))
    b = VirtualPolytope(p2, (0, -1, 5))
    r = VirtualPolytope(p2, (7, 7, 7))
    assert (a + r - r).h == a.h
    assert (a + r).h != (b + r).h


def test_dual_vertex_saturation():
    """Strictly convex h: each dual vertex saturates exactly its cone's rays."""
    f1 = fan_f1()
    ok, w = is_projective(f1)
    h = w.scale(3)
    poly = polytope_from_support(f1, h)
    for cone in f1.max_cones:
        a = dual_vertex(f1, cone, h.h)
        assert a in poly.vertices
        for i, ray in enumerate(f1.rays):
            gap = h.h[i] - dot(a, ray)
            assert gap == 0 if i in cone else gap > 0


def test_geometry_checks_raise_typed_errors():
    """Explicit checks, not asserts, so python -O keeps them."""
    # (1,) and (-1,) span no cone, and <A, e> = 1 = <A, -e> has no solution
    with pytest.raises(VerificationFailed):
        dual_vertex(fan_p1(), (0, 1), (1, 1))


def test_projectivity_solved_once_per_fan(monkeypatch):
    calls = []
    real = polyhedral._lp.solve_inequalities

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    fan, other = fan_f1(), fan_f1()  # validate_fan runs its own LPs
    monkeypatch.setattr(polyhedral._lp, "solve_inequalities", counting)
    ok, witness = is_projective(fan)
    assert ok and is_convex_on(fan, witness, strict=True)
    for _ in range(3):
        again_ok, again = is_projective(fan)
        assert again_ok and again is witness
    assert len(calls) == 1
    other_ok, other_witness = is_projective(other)
    assert other_ok and other_witness == witness
    assert len(calls) == 2
