"""Catalog: flag bases, Weyl polynomials, Gelfand-Zetlin data, the
Brion-Kazarnovskii identity, projective bundles, string lifts."""

import random
from fractions import Fraction as F
from math import factorial

import pytest

import helpers
from helpers import (
    ChamberViolation,
    gz_minkowski_additive,
    of_point,
    projective_bundle_spec,
    string_lift_volume,
)
from toricbundle import catalog
from toricbundle.bundle import (
    BaseData,
    BundleSpec,
    random_convex,
    random_virtual,
    ring_via_sr,
)
from toricbundle.catalog import (
    FLAG_RANKS,
    SPECS,
    _combine,
    _interlacing,
    _positive_roots,
    base_flag_sl,
    base_point,
    base_projective,
    brion_kazarnovskii_check,
    fan_p1,
    fan_p1xp1,
    fan_p2,
    fan_projective_space,
    flag_bundle_spec,
    gz_lattice_points,
    gz_polytope,
    gz_volume_check,
    projective_bundle_check,
    weyl_dimension,
    weyl_top_polynomial_sl,
)
from toricbundle.errors import (
    DegreeMismatch,
    FanError,
    NotDominant,
    NotProjectiveSpace,
)
from toricbundle.galg import _unit, check_poincare
from toricbundle.integrate import integrate_over_polytope, volume
from toricbundle.polyhedral import Polytope, VirtualPolytope, polytope_from_support
from toricbundle.qpoly import QPolynomial


def test_base_point_and_projective():
    assert base_point().algebra.dims() == (1,)
    assert base_projective(1).algebra.dims() == (1, 1)
    p2 = base_projective(2)
    assert p2.algebra.dims() == (1, 1, 1)
    sq = p2.algebra.basis_product(2, 0, 2, 0)
    assert sq == (F(1),)  # H * H = H^2


def test_flag_base_dimensions():
    assert base_flag_sl(2).algebra.dims() == (1, 1)
    fb3 = base_flag_sl(3)
    assert fb3.algebra.dims() == (1, 2, 2, 1)
    assert fb3.algebra.total_dim() == 6
    assert base_flag_sl(4).algebra.total_dim() == 24


def test_flag_base_poincare_and_associative():
    for n in (2, 3):
        fb = base_flag_sl(n)
        assert check_poincare(fb.algebra, fb.orientation)
        assert fb.algebra.check_associative()


@pytest.mark.parametrize("n", (2, 3, 4))
def test_flag_base_chern_rows_are_the_degree_two_basis(n):
    """The class of w_t is the t-th degree-2 basis vector, so the Chern rows
    of a flag bundle spec are its lattice basis in fundamental coordinates
    (what brion_kazarnovskii_check reads)."""
    fb = base_flag_sl(n)
    assert fb.algebra.dim(2) == n - 1
    assert fb.chern == tuple(_unit(n - 1, t) for t in range(n - 1))


def test_weyl_top_polynomials():
    assert weyl_top_polynomial_sl(2) == QPolynomial.variable(("a1",), 0)
    fw3 = weyl_top_polynomial_sl(3)
    a = QPolynomial.variable(("a1", "a2"), 0)
    b = QPolynomial.variable(("a1", "a2"), 1)
    assert fw3 == a * b * (a + b) * F(1, 2)
    fw4 = weyl_top_polynomial_sl(4)
    assert fw4.degree() == 6
    assert fw4.evaluate((1, 1, 1)) == F(1 * 1 * 1 * 2 * 2 * 3, 12)


def test_degree_identity_prop():
    """c(lambda)^N = N! f_W(lambda) on integral weights (SL2, SL3)."""
    rng = random.Random(7)
    for n in (2, 3):
        fb = base_flag_sl(n)
        big_n = n * (n - 1) // 2
        fw = weyl_top_polynomial_sl(n)
        for _ in range(10):
            lam = tuple(rng.randint(0, 6) for _ in range(n - 1))
            cls = _combine(lam, fb.chern)
            deg, vec = fb.algebra.power_of_element(2, cls, big_n)
            lhs = fb.orientation.of(2 * big_n, vec)
            assert lhs == factorial(big_n) * fw.evaluate(lam)


def test_gz_polytope_examples():
    assert volume(gz_polytope(2, (5,))) == 5
    assert volume(gz_polytope(3, (1, 1))) == 1
    assert gz_lattice_points(3, (1, 1)) == 8
    assert gz_lattice_points(3, (2, 0)) == 6
    assert volume(gz_polytope(3, (3, 1))) == 6


def test_gz_rejects_non_dominant():
    with pytest.raises(NotDominant):
        gz_polytope(3, (-1, 2))


def test_gz_lattice_points_rejects_fractional_weight():
    """(3/2, 0) is dominant but not integral; truncating it would count the
    patterns of (1, 0)."""
    with pytest.raises(NotDominant, match="dominant integral weight"):
        gz_lattice_points(3, (F(3, 2), 0))


def test_gz_lattice_points_rejects_negative_fraction():
    """(-1/2, 0) would truncate to the dominant weight (0, 0)."""
    with pytest.raises(NotDominant, match="dominant integral weight"):
        gz_lattice_points(3, (F(-1, 2), 0))


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize(
    "build",
    [
        catalog.base_flag_sl,
        catalog.weyl_top_polynomial_sl,
        lambda n: gz_polytope(n, (0,) * (n - 1)),
    ],
    ids=["base_flag_sl", "weyl_top_polynomial_sl", "gz_polytope"],
)
def test_sl_rank_outside_two_to_four_rejected(build, n):
    with pytest.raises(ValueError, match=rf"2 <= n <= 4, got n = {n}$"):
        build(n)


def test_gz_volume_checks():
    rng = random.Random(41)
    for n in (2, 3):
        for _ in range(5):
            lam = tuple(rng.randint(0, 5) for _ in range(n - 1))
            assert gz_volume_check(n, lam)


def test_gz_lattice_points_match_weyl_dimension():
    rng = random.Random(42)
    for n in (2, 3):
        for _ in range(5):
            lam = tuple(rng.randint(0, 5) for _ in range(n - 1))
            assert F(gz_lattice_points(n, lam)) == weyl_dimension(n, lam)


def test_gz_minkowski_additivity():
    assert gz_minkowski_additive(3, (1, 0), (0, 1))
    assert gz_minkowski_additive(3, (2, 1), (1, 3))
    assert gz_minkowski_additive(2, (3,), (4,))
    assert gz_minkowski_additive(4, (1, 0, 2), (0, 1, 1))


def test_gz_minkowski_additivity_tells_a_polytope_from_its_box(monkeypatch):
    """GZ((1,2) + (2,1)) has 7 vertices and its bounding box 8; the two
    have the same support values at every +-coordinate vector."""
    real = catalog.gz_polytope

    def boxed(n, lam):
        poly = real(n, lam)
        if tuple(lam) != (3, 3):
            return poly
        verts = poly.vertices
        lo = [min(c) for c in zip(*verts)]
        hi = [max(c) for c in zip(*verts)]
        unit = [tuple(int(i == j) for j in range(3)) for i in range(3)]
        box = Polytope.from_halfspaces(
            [(e, b) for e, b in zip(unit, hi)]
            + [(tuple(-x for x in e), -a) for e, a in zip(unit, lo)],
            3,
        )
        assert (len(verts), len(box.vertices)) == (7, 8)
        return box

    monkeypatch.setattr(helpers, "gz_polytope", boxed)
    assert not gz_minkowski_additive(3, (1, 2), (2, 1))


def test_gz_sl4():
    """Rank-3 patterns: six-dimensional polytopes, enumeration vs formula."""
    assert gz_volume_check(4, (1, 1, 1))
    assert gz_volume_check(4, (2, 1, 0))
    assert gz_lattice_points(4, (1, 0, 2)) == weyl_dimension(4, (1, 0, 2))
    assert gz_lattice_points(4, (1, 1, 1)) == 64  # adjoint-adjacent rep


def test_brion_kazarnovskii_sl2():
    p1 = fan_p1()
    spec = flag_bundle_spec(2, p1)
    lhs, rhs, eq = brion_kazarnovskii_check(
        spec, VirtualPolytope(p1, (1, 0)), sr_report=ring_via_sr(spec)
    )
    assert eq and lhs == 1  # 2! int_0^1 a da


def test_brion_kazarnovskii_point_delta():
    p1 = fan_p1()
    spec = flag_bundle_spec(2, p1)
    lhs, rhs, eq = brion_kazarnovskii_check(
        spec, of_point(p1, (3,)), sr_report=ring_via_sr(spec)
    )
    assert eq and lhs == 0


def test_brion_kazarnovskii_sl3_pairs():
    pp = fan_p1xp1()
    spec = flag_bundle_spec(3, pp)
    rep = ring_via_sr(spec)
    rng = random.Random(6)
    checks = [
        (VirtualPolytope(pp, (1, 1, 0, 0)), None),
        (random_convex(pp, rng), None),
        (random_virtual(pp, rng), (F(1), F(-1))),
    ]
    for delta, shift in checks:
        lhs, rhs, eq = brion_kazarnovskii_check(spec, delta, shift, sr_report=rep)
        assert eq, (delta.h, shift, lhs, rhs)


def test_brion_kazarnovskii_sublattice():
    """Index-2 sublattice of the SL2 weight lattice: measure renormalizes."""
    p1 = fan_p1()
    spec = flag_bundle_spec(2, p1, [[2]])
    lhs, rhs, eq = brion_kazarnovskii_check(
        spec, VirtualPolytope(p1, (1, 0)), sr_report=ring_via_sr(spec)
    )
    # f_W(2y) = 2y integrated over [0,1] in Lambda-measure: 2! * 1 = 2
    assert eq and lhs == 2


def test_brion_kazarnovskii_rank1_inside_sl3():
    """Proper sublattice span{(1,1)} of the SL3 weights: a P1-bundle over
    the full flag threefold."""
    p1 = fan_p1()
    spec = flag_bundle_spec(3, p1, [[1, 1]])
    rep = ring_via_sr(spec)
    # f_W(t, t) = t^3, exponent 1 + 3: 4! int_0^1 t^3 dt = 6
    assert brion_kazarnovskii_check(
        spec, VirtualPolytope(p1, (1, 0)), sr_report=rep
    ) == (6, 6, True)
    lhs, rhs, eq = brion_kazarnovskii_check(
        spec, VirtualPolytope(p1, (2, 1)), shift=(F(1), F(0)), sr_report=rep
    )
    assert eq


def test_brion_kazarnovskii_rejects_a_base_that_is_no_flag_variety():
    """The base of p2_rank2 has dim H^2 = 1, so it would be SL_2/B, of top
    degree 2; its top degree is 4."""
    spec = SPECS["p2_rank2"]()
    with pytest.raises(DegreeMismatch, match="not the SL_2 flag variety"):
        brion_kazarnovskii_check(
            spec, VirtualPolytope(spec.fan, (1, 0, 0)), sr_report=ring_via_sr(spec)
        )


def test_brion_kazarnovskii_rejects_a_base_without_degree_two_classes():
    """Over a point there is no SL_n: the check raises before any flag
    variety is built."""
    spec = SPECS["p1_toric"]()
    with pytest.raises(DegreeMismatch, match="without degree-2 classes"):
        brion_kazarnovskii_check(
            spec, VirtualPolytope(spec.fan, (1, 0)), sr_report=ring_via_sr(spec)
        )


@pytest.mark.parametrize("fan", [fan_p1(), fan_p2()], ids=["p1", "p2"])
def test_brion_kazarnovskii_refuses_a_delta_on_another_fan(fan):
    spec = SPECS["flag_sl3_p1xp1"]()
    delta = VirtualPolytope(fan, (1,) * fan.nrays)
    with pytest.raises(FanError, match="different fans"):
        brion_kazarnovskii_check(spec, delta, sr_report=ring_via_sr(spec))


def test_flag_ranks_name_flag_specs():
    """Each FLAG_RANKS entry is a catalog spec over SL_n/B: dim H^2 = n - 1
    and top degree n(n - 1)."""
    for name, n in FLAG_RANKS.items():
        base = SPECS[name]().base
        assert base.algebra.dim(2) == n - 1
        assert base.k == n * (n - 1)


def test_projective_bundle_checks():
    for m, degrees in ((1, (0,)), (1, (1,)), (2, (1, 2))):
        spec = projective_bundle_spec(base_projective(m), degrees)
        assert projective_bundle_check(spec), (m, degrees)


P_N_SPECS = (
    "p1_toric",
    "p2_toric",
    "hirzebruch_1",
    "p1_trivial_over_p1",
    "p2_rank2",
    "flag_sl2_p1",
)


@pytest.mark.parametrize("name", P_N_SPECS)
def test_projective_bundle_check_on_catalog_specs(name):
    """Every catalog spec on the fan of P^n is a projective bundle P(V + O)
    with c(V + O) the product of its Chern columns."""
    assert projective_bundle_check(SPECS[name]())


def test_projective_bundle_check_rejects_another_fan():
    with pytest.raises(NotProjectiveSpace, match="'p1xp1_toric' is not that of P"):
        projective_bundle_check(SPECS["p1xp1_toric"]())


def test_projective_bundle_check_fails_on_negated_chern_columns(monkeypatch):
    """The ring of p2_rank2 with every Chern column negated is P(V* + O):
    c(V + O) read off the spec's own columns is the wrong total Chern class
    there, so the relation fails."""
    real = catalog.ring_via_sr

    def negated(spec):
        base = spec.base
        chern = tuple(tuple(-x for x in col) for col in base.chern)
        other = BaseData(base.algebra, base.orientation, chern)
        return real(BundleSpec(other, spec.fan, spec.name))

    monkeypatch.setattr(catalog, "ring_via_sr", negated)
    assert not projective_bundle_check(SPECS["p2_rank2"]())


def test_projective_space_fan_shape():
    fan = fan_projective_space(3)
    assert fan.nrays == 4 and len(fan.max_cones) == 4


def test_string_lift_volume_sl2():
    p1 = fan_p1()
    delta = VirtualPolytope(p1, (2, -1))  # [1, 2]
    assert string_lift_volume(2, p1, delta) == F(3, 2)


def test_string_lift_volume_sl3():
    pp = fan_p1xp1()
    delta = VirtualPolytope(pp, (3, 3, -2, -2))  # [2,3]^2, inside chamber
    val = string_lift_volume(3, pp, delta)
    fw = weyl_top_polynomial_sl(3)
    box = polytope_from_support(pp, delta)
    assert val == integrate_over_polytope(fw, box)


def test_string_lift_matches_ring_power():
    """The lifted volume polynomial computes the ring's top self-power:
    ell(rho(Delta)^(rank+N)) = (rank+N)! * Vol(lift), via vertex enumeration
    of the lifted body -- a pipeline fully independent of the quotient."""
    from math import factorial

    from toricbundle.bundle import rho_class

    p1 = fan_p1()
    spec2 = flag_bundle_spec(2, p1)
    rep2 = ring_via_sr(spec2)
    delta = VirtualPolytope(p1, (2, -1))
    rho = rho_class(spec2, rep2, delta)
    deg, vec = rep2.algebra.power_of_element(2, rho, 2)
    assert rep2.functional.of(spec2.top_degree, vec) == factorial(
        2
    ) * string_lift_volume(2, p1, delta)

    pp = fan_p1xp1()
    spec3 = flag_bundle_spec(3, pp)
    rep3 = ring_via_sr(spec3)
    delta = VirtualPolytope(pp, (3, 3, -2, -2))
    rho = rho_class(spec3, rep3, delta)
    deg, vec = rep3.algebra.power_of_element(2, rho, 5)
    lhs = rep3.functional.of(spec3.top_degree, vec)
    assert lhs == factorial(5) * string_lift_volume(3, pp, delta) == 1900


def test_string_lift_mismatch_raises(monkeypatch):
    """The two volume pipelines are compared explicitly, not asserted."""
    from toricbundle.errors import VerificationFailed

    real = helpers.volume
    monkeypatch.setattr(helpers, "volume", lambda p: 2 * real(p))
    p1 = fan_p1()
    with pytest.raises(VerificationFailed, match="lift mismatch"):
        string_lift_volume(2, p1, VirtualPolytope(p1, (2, -1)))


def test_string_lift_rejects_chamber_violation():
    p1 = fan_p1()
    with pytest.raises(ChamberViolation):
        string_lift_volume(2, p1, VirtualPolytope(p1, (1, 0)))  # touches 0


def test_string_lift_degenerate_point():
    p1 = fan_p1()
    assert string_lift_volume(2, p1, of_point(p1, (2,))) == 0


def test_catalog_bases_poincare():
    bases = [base_point(), base_projective(1), base_projective(2)]
    for base in bases + [base_flag_sl(n) for n in (2, 3, 4)]:
        assert check_poincare(base.algebra, base.orientation), base.algebra


# -- wrong-shape weights and shifts -------------------------------------------


def test_weyl_dimension_rejects_long_weight():
    with pytest.raises(DegreeMismatch):
        weyl_dimension(3, (1, 0, 5))


def test_gz_lattice_points_rejects_short_weight():
    with pytest.raises(DegreeMismatch):
        gz_lattice_points(3, (1,))
    with pytest.raises(DegreeMismatch):
        gz_polytope(3, (1,))


def test_gz_lattice_points_rejects_non_dominant():
    with pytest.raises(NotDominant):
        gz_lattice_points(3, (-1, 2))


def test_brion_kazarnovskii_rejects_short_shift():
    pp = fan_p1xp1()
    spec = flag_bundle_spec(3, pp)
    rep = ring_via_sr(spec)
    with pytest.raises(DegreeMismatch):
        brion_kazarnovskii_check(
            spec, VirtualPolytope(pp, (1, 1, 0, 0)), shift=(1,), sr_report=rep
        )


def test_flag_bundle_spec_rejects_short_lattice_row():
    with pytest.raises(DegreeMismatch):
        flag_bundle_spec(3, fan_p1(), [[1]])


# -- the root table and the interlacing builder against the code they replaced


def _old_gz_halfspaces(n, top_row):
    nv = n * (n - 1) // 2
    idx = {}
    pos = 0
    for r in range(1, n):
        for c in range(n - r):
            idx[(r, c)] = pos
            pos += 1
    halfspaces = []

    def unit(k, sign):
        row = [F(0)] * nv
        row[k] = F(sign)
        return row

    for r in range(1, n):
        for c in range(n - r):
            if r == 1:
                halfspaces.append((unit(idx[(r, c)], 1), F(top_row[c])))
                halfspaces.append((unit(idx[(r, c)], -1), -F(top_row[c + 1])))
            else:
                row = unit(idx[(r, c)], 1)
                row[idx[(r - 1, c)]] -= 1
                halfspaces.append((row, F(0)))
                row = unit(idx[(r, c)], -1)
                row[idx[(r - 1, c + 1)]] += 1
                halfspaces.append((row, F(0)))
    return halfspaces


def _old_string_lift_interlacing(n):
    rank = n - 1
    dim = rank + n * (n - 1) // 2
    idx = {}
    pos = rank
    for r in range(1, n):
        for c in range(n - r):
            idx[(r, c)] = pos
            pos += 1

    def lamp_row(c):
        row = [F(0)] * dim
        for t in range(c, rank):
            row[t] = F(1)
        return row

    halfspaces = []
    for r in range(1, n):
        for c in range(n - r):
            up_le = [F(0)] * dim
            up_le[idx[(r, c)]] = F(1)
            up_ge = [F(0)] * dim
            up_ge[idx[(r, c)]] = F(-1)
            if r == 1:
                for t, v in enumerate(lamp_row(c)):
                    up_le[t] -= v
                for t, v in enumerate(lamp_row(c + 1)):
                    up_ge[t] += v
            else:
                up_le[idx[(r - 1, c)]] -= 1
                up_ge[idx[(r - 1, c + 1)]] += 1
            halfspaces.append((up_le, F(0)))
            halfspaces.append((up_ge, F(0)))
    return halfspaces


@pytest.mark.parametrize("n", (2, 3, 4))
def test_interlacing_matches_old_builders(n):
    for top_row in ([0] * n, list(range(n, 0, -1)), [F(7, 2)] + [F(1, 3)] * (n - 1)):
        assert _interlacing(n, top_row) == _old_gz_halfspaces(n, top_row)
    rank = n - 1
    top = [([int(t >= c) for t in range(rank)], 0) for c in range(n)]
    assert helpers.lifted_interlacing(n, top, rank) == _old_string_lift_interlacing(n)


def test_string_lift_halfspaces_match_old_block(monkeypatch):
    """string_lift_volume hands the polytope the fan's rows followed by the
    old interlacing block, in the old order."""
    seen = []
    real = catalog.Polytope.from_halfspaces

    def record(halfspaces, dim):
        seen.append(halfspaces)
        return real(halfspaces, dim)

    monkeypatch.setattr(catalog.Polytope, "from_halfspaces", record)
    for n, fan, delta in (
        (2, fan_p1(), VirtualPolytope(fan_p1(), (2, -1))),
        (3, fan_p1xp1(), VirtualPolytope(fan_p1xp1(), (3, 3, -2, -2))),
    ):
        seen.clear()
        string_lift_volume(n, fan, delta)
        big_n = n * (n - 1) // 2
        rays = [
            ([F(x) for x in ray] + [F(0)] * big_n, h)
            for ray, h in zip(fan.rays, delta.h)
        ]
        assert seen == [rays + _old_string_lift_interlacing(n)]


def _old_weyl_top(n):
    names = tuple(f"a{i + 1}" for i in range(n - 1))
    out = QPolynomial.constant(names, 1)
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            coeffs = [F(1) if i <= t + 1 <= j - 1 else F(0) for t in range(n - 1)]
            out = out * QPolynomial.linear_form(names, coeffs) * F(1, j - i)
    return out


def _old_weyl_dimension(n, lam):
    lam = [F(x) for x in lam] + [F(0)]
    lamp = [sum(lam[i:], F(0)) for i in range(n)]
    dim = F(1)
    for i in range(n):
        for j in range(i + 1, n):
            dim *= (lamp[i] - lamp[j] + j - i) / (j - i)
    return dim


@pytest.mark.parametrize("n", (2, 3, 4))
def test_weyl_products_match_old_formulas(n):
    assert weyl_top_polynomial_sl(n) == _old_weyl_top(n)
    rng = random.Random(n)
    lams = [(0,) * (n - 1), (1,) * (n - 1), tuple(range(n - 1)), (F(1, 2),) * (n - 1)]
    lams += [tuple(rng.randint(-3, 6) for _ in range(n - 1)) for _ in range(6)]
    for lam in lams:
        assert weyl_dimension(n, lam) == _old_weyl_dimension(n, lam), lam


def test_root_table_orients_flag_bases():
    """The root classes multiply to |W| times the point class."""
    for n in (2, 3, 4):
        fb = base_flag_sl(n)
        deg, vec = 0, (F(1),)
        for coroot, root in _positive_roots(n):
            assert sum(c * a for c, a in zip(coroot, root)) == 2  # <a, a^v>
            vec = fb.algebra.multiply(deg, vec, 2, _combine(root, fb.chern))
            deg += 2
        assert fb.orientation.of(deg, vec) == factorial(n)


def _old_chern_classes(r, degrees):
    """The iterated product prod_k (1 + d_k H) in the base algebra r, as the
    (degree, vector) pairs that reach the pullback."""
    elem = [(0, (F(1),))]
    for d in degrees:
        col = tuple(F(d) * x for x in _unit(r.dim(2), 0))
        new = []
        for i in range(len(elem) + 1):
            deg = 2 * i
            vec = list((F(0),) * r.dim(deg)) if deg <= r.top else []
            if i < len(elem):
                for t, c in enumerate(elem[i][1]):
                    if t < len(vec):
                        vec[t] += c
            if i > 0 and 2 * i <= r.top:
                pdeg, pvec = elem[i - 1]
                for t, c in enumerate(r.multiply(pdeg, pvec, 2, col)):
                    vec[t] += c
            new.append((deg, tuple(vec)))
        elem = new
    return [
        (cdeg, cvec)
        for cdeg, cvec in elem[1 : len(degrees) + 1]
        if cdeg <= r.top and any(cvec)
    ]


def test_projective_bundle_chern_classes_match_iterated_product(monkeypatch):
    seen = []
    real = catalog.pullback_class

    def record(spec, rep, gdeg, gamma):
        seen.append((gdeg, tuple(gamma)))
        return real(spec, rep, gdeg, gamma)

    monkeypatch.setattr(catalog, "pullback_class", record)
    for m, degrees in (
        (1, (0,)),
        (1, (1,)),
        (1, (2, -3)),
        (2, (1, 2)),
        (2, (F(1, 2), -1, 3)),
        (3, (1, 1)),
        (3, (2, -1, 1)),
        (3, (0, 0, 0)),
    ):
        base = base_projective(m)
        seen.clear()
        spec = projective_bundle_spec(base, degrees)
        assert projective_bundle_check(spec), (m, degrees)
        assert seen == _old_chern_classes(base.algebra, degrees), (m, degrees)


def test_projective_bundle_check_catches_wrong_pullback(monkeypatch):
    real = catalog.pullback_class
    monkeypatch.setattr(
        catalog,
        "pullback_class",
        lambda *args: tuple(2 * x for x in real(*args)),
    )
    for m, degrees in ((1, (1,)), (2, (1, 2))):
        spec = projective_bundle_spec(base_projective(m), degrees)
        assert not projective_bundle_check(spec), (m, degrees)
