"""Bundle specs and the three ring builders, with all cross identities."""

import functools
import random
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    AffineVirtualPolytope,
    check_linear_relations_by_monomials,
    cherneq_holds,
    coordinate,
    diff_matches_sr,
    ell_table,
    f_gamma_by_powers,
    f_gamma_ring_by_monomials,
    full_free_algebra,
    full_width_ring_via_sd,
    horizontal_part,
    int_rows,
    octant_fan,
    of_point,
    radical_holds_relation_multiples,
    self_intersection,
)
from toricbundle.bundle import (
    BundleSpec,
    _check_linear_relations,
    _linear_relations,
    cross_validate,
    f_gamma,
    intersection_functional,
    pullback_class,
    random_convex,
    random_virtual,
    rho_class,
    ring_power_derivative_check,
    ring_via_diff,
    ring_via_sd,
    ring_via_sr,
    self_intersection_polynomial,
    squarefree_evaluate,
    verify_bkk,
)
from toricbundle.catalog import FANS, SPECS, base_projective, fan_p1xp1, flag_bundle_spec
from toricbundle.errors import DegreeMismatch, FanError, VerificationFailed
from toricbundle.galg import FreeAlgebra, _unit, power_form, product_keys
from toricbundle.integrate import mixed_integral
from toricbundle.polyhedral import VirtualPolytope
from toricbundle.serialize import report_to_dict


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


@pytest.mark.parametrize("i", [-1, 2, 0.5, 1.0, F(1)])
def test_f_gamma_refuses_an_i_that_is_not_an_int_from_0_to_half_k(i):
    """hirzebruch_1 has k = 2.  With gamma of the length of degree k - 2i
    (none above the top), each would otherwise reach the expansion."""
    spec = hirzebruch()
    gamma = (F(1),) * spec.base.algebra.dim(spec.k - 2 * int(i))
    with pytest.raises(DegreeMismatch, match="is not an int from 0 to k/2"):
        f_gamma(spec, gamma, i)
    with pytest.raises(DegreeMismatch, match="is not an int from 0 to k/2"):
        verify_bkk(spec, gamma, i, random_convex(spec.fan, random.Random(1)), None)


def plain_ell(spec):
    """The plain polarized mixed integrals on the top free monomials: the
    intersection functional times i!/(n+i)! on a monomial whose base part
    has degree k - 2i."""
    out = {}
    for (rdeg, ridx, beta), v in ell_table(spec).items():
        i = (spec.k - rdeg) // 2
        out[(rdeg, ridx, beta)] = v * F(factorial(i), factorial(spec.n + i))
    return out


def test_ell_functional_p2_values():
    """Plain mixed-integral functional: frozen polarization values."""
    by_mono = plain_ell(SPECS["p2_toric"]())
    assert by_mono[(0, 0, (1, 1, 0))] == F(1, 2)
    assert by_mono[(0, 0, (2, 0, 0))] == F(1, 2)


def test_ell_functional_hirzebruch_value():
    by_mono = plain_ell(hirzebruch())
    assert by_mono[(0, 0, (2, 0))] == F(1, 2)


def test_ell_matches_inclusion_exclusion_route():
    """Dual route: coefficient formula against 2^m forward differences."""
    spec = SPECS["p1xp1_over_p1"]()
    by_mono = plain_ell(spec)
    rng = random.Random(9)
    samples = rng.sample(list(by_mono), 5)
    for rdeg, ridx, beta in samples:
        gamma = _unit(spec.base.algebra.dim(rdeg), ridx)
        i = (spec.k - rdeg) // 2
        f = f_gamma(spec, gamma, i)
        args = []
        for j, e in enumerate(beta):
            args += [coordinate(spec.fan, j)] * e
        expected = (
            mixed_integral(spec.fan, f, args) if f else F(0)
        )
        assert by_mono[(rdeg, ridx, beta)] == expected


def test_ring_via_sd_examples():
    assert ring_via_sd(SPECS["p1_toric"]()).dims() == (1, 1)
    assert ring_via_sd(hirzebruch()).dims() == (1, 2, 1)
    assert ring_via_sd(SPECS["p1_trivial_over_p1"]()).dims() == (1, 2, 1)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((1, 2)), st.sampled_from(sorted(FANS)), st.data())
def test_kept_variable_sd_matches_the_full_width_route(m, fan_name, data):
    """On random integer Chern data, the sd ring on the variables the L_t
    leave is the full-width sd ring, report for report."""
    fan = FANS[fan_name]()
    chern = data.draw(
        st.lists(st.integers(-3, 3), min_size=fan.dim, max_size=fan.dim)
    )
    base = base_projective(m, tuple((F(c),) for c in chern))
    spec = BundleSpec(base, fan, f"p{m}_{fan_name}")
    assert report_to_dict(ring_via_sd(spec)) == report_to_dict(
        full_width_ring_via_sd(spec)
    )


def test_sd_and_sr_reports_agree_on_the_catalog():
    """Two quotients of one free algebra by equal subspaces: the sd and sr
    reports are equal in every field but the builder's name."""
    for name, make in SPECS.items():
        spec = make()
        sd, sr = report_to_dict(ring_via_sd(spec)), report_to_dict(ring_via_sr(spec))
        assert sd.pop("builder") == "sd" and sr.pop("builder") == "sr"
        assert sd == sr, name


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
    products = {(4, 0, 4, 0): ((0, F(1)),), (4, 0, 8, 0): ()}
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


def test_diff_rejects_base_with_degree4_generator():
    """Q[H, t]/(H^2, t^2) with deg t = 4: degree 2 is nonempty, but t is not
    a product of degree-2 classes."""
    from toricbundle.catalog import fan_p1
    from toricbundle.errors import NotDegree2Generated
    from toricbundle.galg import GradedAlgebra, TopFunctional
    from toricbundle.bundle import BaseData, BundleSpec

    labels = {0: ("1",), 2: ("H",), 4: ("t",), 6: ("H*t",)}
    products = {(2, 0, 2, 0): (), (2, 0, 4, 0): ((0, F(1)),)}
    alg = GradedAlgebra(6, labels, products)
    assert alg.generators() == [(2, 0), (4, 0)]
    base = BaseData(alg, TopFunctional(alg, 6, (F(1),)), ((F(1),),))
    with pytest.raises(NotDegree2Generated):
        ring_via_diff(BundleSpec(base, fan_p1(), "degree4_generator"))


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

    spec = SPECS["p2_toric"]()
    pt = GradedAlgebra(0, {0: ("1",)}, {})
    sr_only = {(1, 1, 1): (0, (F(1),))}
    model_i = build_quotient(
        PresentedAlgebra(pt, ("x1", "x2", "x3"), (sr_only,), 4)
    )
    assert model_i.algebra.dims() == (1, 3, 6)
    vals = ell_table(spec)
    basis = [model_i.free.monomials[4][t] for t in model_i.reducers[4].keep]
    ell_i = TopFunctional(model_i.algebra, 4, tuple(vals[m] for m in basis))
    sq = sd_quotient(model_i.algebra, ell_i)
    full = ring_via_sr(spec)
    assert sq.algebra.dims() == full.algebra.dims() == (1, 1, 1)


def test_cross_validate_reports_mismatch(monkeypatch):
    """A corrupted functional must fail with a located mismatch."""
    import dataclasses

    from toricbundle import bundle

    spec = hirzebruch()
    assert cross_validate(spec)  # uncorrupted, the same spec passes
    real = bundle.ring_via_sd

    def doubled_functional(spec):
        rep = real(spec)
        return dataclasses.replace(rep, functional=rep.functional.scale(2))

    monkeypatch.setattr(bundle, "ring_via_sd", doubled_functional)
    result = cross_validate(spec)
    assert not result
    assert result.detail.startswith("top functional mismatch")


def test_cross_validate_reports_radical_mismatch(monkeypatch):
    """A radical that differs from the Stanley-Reisner ideal in one degree
    is reported in that degree: one of the six top radical rows of
    p1xp1_over_p1 dropped."""
    from toricbundle import bundle
    from toricbundle.exactlin import Reducer

    real = bundle.sd_quotient

    def dropped_top_row(b, ell):
        sd = real(b, ell)
        red = sd.reducers[ell.degree]
        rows = [(p, dict(r)) for p, r in zip(red.pivots, int_rows(red))]
        assert len(rows) == 6
        sd.reducers[ell.degree] = Reducer(rows[1:], b.dim(ell.degree))
        return sd

    monkeypatch.setattr(bundle, "sd_quotient", dropped_top_row)
    result = cross_validate(SPECS["p1xp1_over_p1"]())
    assert not result
    assert result.detail == "degree 6: radical != Stanley-Reisner ideal"


def _shifted_rows(monkeypatch, degree, which):
    """Patch ``bundle.sd_quotient`` so that the radical rows of ``degree``
    at the positions ``which`` (all rows for None) gain their pivot entry at
    the first standard column: the degree keeps its dimension, but the
    rows leave the radical."""
    from toricbundle import bundle
    from toricbundle.exactlin import Reducer

    real = bundle.sd_quotient

    def shifted(b, ell):
        sd = real(b, ell)
        red = sd.reducers[degree]
        rows = [(p, dict(r)) for p, r in zip(red.pivots, int_rows(red))]
        for k, (p, row) in enumerate(rows):
            if which is None or k in which:
                row[red.keep[0]] = row.get(red.keep[0], 0) + row[p]
        assert which is None or max(which) < len(rows)
        sd.reducers[degree] = Reducer(rows, b.dim(degree))
        assert sd.reducers[degree].keep == red.keep
        return sd

    monkeypatch.setattr(bundle, "sd_quotient", shifted)


def test_cross_validate_reports_radical_row_outside_ideal(monkeypatch):
    """Radical rows moved off the Stanley-Reisner ideal in the degree of its
    monomial generator x1*x2*x3, with the degree's dimension unchanged, are
    reported in that degree."""
    _shifted_rows(monkeypatch, 6, None)
    result = cross_validate(SPECS["p2_rank2"]())
    assert not result
    assert result.detail == "degree 6: radical != Stanley-Reisner ideal"


def test_cross_validate_reports_one_radical_row_outside_ideal(monkeypatch):
    """One radical row moved off the ideal, with every dimension equal, is
    reported at its degree: the second of the two degree-4 rows of
    p1xp1_over_p1."""
    _shifted_rows(monkeypatch, 4, {1})
    result = cross_validate(SPECS["p1xp1_over_p1"]())
    assert not result
    assert result.detail == "degree 4: radical != Stanley-Reisner ideal"


def test_cross_validate_sees_a_degree_without_relation_generators(monkeypatch):
    """A radical row moved off the ideal in degree 8 of p2_rank2, the top,
    where no Sankaran-Uma relation lives, is reported: the reducers are
    compared in every degree, not only where a relation generator is."""
    _shifted_rows(monkeypatch, 8, {0})
    result = cross_validate(SPECS["p2_rank2"]())
    assert not result
    assert result.detail == "degree 8: radical != Stanley-Reisner ideal"


def test_relation_multiples_oracle_agrees_on_the_catalog():
    """On every catalog spec every relation multiple is radical, as
    cross_validate concludes from the relations alone."""
    for name, make in SPECS.items():
        spec = make()
        assert radical_holds_relation_multiples(spec, ring_via_sd(spec)), name


def test_relation_multiples_oracle_sees_a_degree_without_generators(monkeypatch):
    """A radical row moved off the ideal in degree 8 of p2_rank2, where no
    Sankaran-Uma relation lives, fails the all-multiples oracle; the sd ring
    itself, built before the row moved, is unchanged."""
    from toricbundle import bundle

    _shifted_rows(monkeypatch, 8, {0})
    spec = SPECS["p2_rank2"]()
    assert not radical_holds_relation_multiples(spec, bundle.ring_via_sd(spec))


def test_cross_validate_compares_by_equality(monkeypatch):
    """The reducers and the top functionals are compared by equality; no
    graded isomorphism is searched for."""
    from toricbundle import bundle, galg

    calls = []
    real = galg.graded_isomorphic

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    assert not hasattr(bundle, "graded_isomorphic")
    monkeypatch.setattr(galg, "graded_isomorphic", counting)
    for spec in (hirzebruch(), _gapped_base_spec(), SPECS["p2_rank2"]()):
        assert cross_validate(spec)
    assert calls == []


def test_cross_validate_computes_only_top_products(monkeypatch):
    """cross_validate compares reducers and top functionals, so of the sd
    and sr structure constants it computes only the products into the top
    degree that the Poincare checks read; every key with a + b < top stays
    unread."""
    from toricbundle import galg

    built, computed = [], []
    quotient, missing = galg._quotient_algebra, galg._ComputedTable.__missing__

    def spy_quotient(*args):
        built.append(quotient(*args))
        return built[-1]

    def spy_missing(table, key):
        computed.append(key)
        return missing(table, key)

    monkeypatch.setattr(galg, "_quotient_algebra", spy_quotient)
    monkeypatch.setattr(galg._ComputedTable, "__missing__", spy_missing)
    spec = SPECS["p1xp1_over_p1"]()
    top = spec.top_degree
    assert cross_validate(spec)
    assert [alg.top for alg in built] == [top, top]
    below = [k for alg in built for k in product_keys(alg.labels) if k[0] + k[2] < top]
    assert below and computed
    assert all(a + b == top for a, _, b, _ in computed)


def test_sd_without_base_generators_raises(monkeypatch):
    """The radical recursion needs a generating set: with the x_i alone, the
    free model's radical over P^1 is too large.  It holds the unit, and
    what is left has total dimension 2 where Leray-Hirsch asks for 4."""
    from toricbundle.errors import VerificationFailed

    real = FreeAlgebra.generators

    def x_only(self):
        return [(d, j) for d, j in real(self) if self.monomials[d][j][0] == 0]

    monkeypatch.setattr(FreeAlgebra, "generators", x_only)
    with pytest.raises(VerificationFailed):
        ring_via_sd(SPECS["p1_trivial_over_p1"]())


def test_verify_bkk_classical_p2():
    spec = SPECS["p2_toric"]()
    delta = VirtualPolytope(spec.fan, (0, 0, 1))
    lhs, rhs, eq = verify_bkk(spec, (F(1),), 0, delta, ring_via_sr(spec))
    assert (lhs, rhs, eq) == (F(1), F(1), True)


def test_verify_bkk_hirzebruch_segment():
    spec = hirzebruch()
    rep = ring_via_sr(spec)
    delta = VirtualPolytope(spec.fan, (3, 1))  # segment [-1, 3]
    lhs, rhs, eq = verify_bkk(spec, (F(1),), 1, delta, rep)
    assert eq and lhs == 9 - 1  # b^2 - a^2 with b=3, a=-1
    lhs, rhs, eq = verify_bkk(
        spec, (F(1),), 1, of_point(spec.fan, (2,)), rep
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
        spec = SPECS[name]()
        assert cherneq_holds(spec, ring_via_sr(spec))
        assert cherneq_holds(spec, ring_via_sd(spec))


def _doubled_x1(gens):
    d, vec = gens["x1"]
    return {**gens, "x1": (d, tuple(2 * c for c in vec))}


def test_cherneq_names_the_failing_generator():
    """A doubled x1 class breaks p^*c(lambda) = rho(lambda) at the lattice
    generator t = 0, the only one on which x1's ray (1, 0) pairs nonzero."""
    import dataclasses

    spec = SPECS["p1xp1_over_p1"]()
    rep = ring_via_sr(spec)
    bad = dataclasses.replace(rep, generator_classes=_doubled_x1(rep.generator_classes))
    result = cherneq_holds(spec, bad)
    assert not result
    assert result.detail == "lattice generator t=0"


def test_ring_via_sd_checks_its_linear_relations(monkeypatch):
    """ring_via_sd checks each L_t against ell before it solves it: with one
    Chern coefficient of the L_t that it reads changed, it raises, naming
    t, the monomial m and the value of ell(L_t * m)."""
    import dataclasses

    from toricbundle import bundle
    from toricbundle.errors import VerificationFailed

    spec = SPECS["p1xp1_over_p1"]()
    real = bundle._linear_relations

    def wrong_chern(spec):
        base = spec.base
        chern = ((base.chern[0][0] + 1,),) + base.chern[1:]
        return real(dataclasses.replace(spec, base=dataclasses.replace(base, chern=chern)))

    monkeypatch.setattr(bundle, "_linear_relations", wrong_chern)
    with pytest.raises(VerificationFailed) as info:
        ring_via_sd(spec)
    assert str(info.value) == "linear relation t=0 is not radical: ell(L_t * x1*x2) = 1"


@functools.cache
def _relation_check_case(name):
    """(spec, ell polynomials, ell table) of a catalog spec, built once."""
    spec = SPECS[name]()
    return spec, intersection_functional(spec), ell_table(spec)


def _raised(check, *args):
    try:
        check(*args)
    except VerificationFailed as exc:
        return str(exc)
    return None


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(SPECS)), st.data())
def test_operator_check_matches_the_monomial_oracle(name, data):
    """With one coefficient of one L_t changed, a Chern entry or a ray
    entry, the operator check on the I_gamma and the monomial-by-monomial
    oracle on the full table both pass, or both raise the same message."""
    spec, polys, table = _relation_check_case(name)
    relations = _linear_relations(spec)
    t = data.draw(st.integers(0, spec.n - 1), label="t")
    rel = relations[t] = dict(relations[t])
    # the new value may equal the old one, so some relations stay radical
    value = data.draw(st.sampled_from((-2, -1, 0, 1, 2, F(1, 2))), label="value")
    dim2, s = spec.base.algebra.dim(2), spec.fan.nrays
    if dim2 and data.draw(st.booleans(), label="chern entry"):
        u = data.draw(st.integers(0, dim2 - 1), label="u")
        chern = list(spec.base.chern[t])
        chern[u] = F(value)
        rel[(0,) * s] = (2, tuple(chern))
    else:
        i = data.draw(st.integers(0, s - 1), label="ray")
        rel[tuple(int(j == i) for j in range(s))] = (0, (F(value),))
    expected = _raised(check_linear_relations_by_monomials, spec, relations, table)
    assert _raised(_check_linear_relations, spec, relations, polys) == expected


def test_ring_power_derivative_oracle():
    rng = random.Random(5)
    spec = hirzebruch()
    rep = ring_via_sr(spec)
    delta = random_convex(spec.fan, rng)
    # cone-spanning singletons and the non-cone pair
    sets = [(0,), (1,), (0, 1)]
    assert ring_power_derivative_check(spec, (F(1),), 1, delta, sets, rep) == [
        True
    ] * len(sets)


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
            subsets = list(itertools.combinations(range(spec.fan.nrays), 2))
            verdicts = ring_power_derivative_check(spec, gamma, i, delta, subsets, rep)
            assert verdicts == [True] * len(subsets), (gdeg, ridx, verdicts)


@pytest.mark.parametrize(
    "ray_set, error",
    [((0, 9), FanError), ((0, 0), DegreeMismatch), ((-1, 0), FanError)],
)
def test_ring_power_derivative_check_refuses_malformed_ray_sets(ray_set, error):
    """An index that names no ray (a negative one would wrap to the last
    ray) or a repeated index is refused by type, even after a good set."""
    spec = SPECS["p2_toric"]()
    delta = VirtualPolytope(spec.fan, (1, 1, 1))
    sets = [(0, 1), ray_set]
    with pytest.raises(error) as caught:
        ring_power_derivative_check(spec, (F(1),), 0, delta, sets, ring_via_sr(spec))
    assert caught.type is error


def test_ring_power_derivative_check_refuses_a_delta_on_another_fan():
    """P^1 x P^1 and F_1 have four rays each, so the support vector of one
    fits the other."""
    spec = SPECS["f1_toric"]()
    delta = VirtualPolytope(fan_p1xp1(), (1, 1, 1, 1))
    with pytest.raises(FanError, match="different fans"):
        ring_power_derivative_check(spec, (F(1),), 0, delta, [(0, 1)], ring_via_sr(spec))


@functools.cache
def _sr_report(name):
    """(spec, sr report) of a catalog spec, built once."""
    spec = SPECS[name]()
    return spec, ring_via_sr(spec)


@pytest.mark.parametrize("fan_name", ["p1", "p2", "f1"])
def test_rho_class_refuses_a_delta_on_another_fan(fan_name):
    """A support vector of P^1 or P^2 is too short for the four rays of
    P^1 x P^1, and one of F_1 has the right length but the wrong fan."""
    spec, rep = _sr_report("flag_sl3_p1xp1")
    fan = FANS[fan_name]()
    with pytest.raises(FanError, match="different fans"):
        rho_class(spec, rep, VirtualPolytope(fan, (1,) * fan.nrays))


@pytest.mark.parametrize(
    "name, other",
    [
        ("p2_toric", "p1xp1_toric"),  # same top degree, one fiber generator more
        ("p1_toric", "hirzebruch_1"),  # same fiber generators, top degree 4 not 2
        ("p2_rank2", "flag_sl3_p1xp1"),
    ],
)
def test_rho_and_pullback_classes_refuse_a_report_of_another_spec(name, other):
    spec = SPECS[name]()
    rep = ring_via_sr(SPECS[other]())
    delta = VirtualPolytope(spec.fan, (1,) * spec.fan.nrays)
    with pytest.raises(DegreeMismatch, match="does not belong to spec"):
        rho_class(spec, rep, delta)
    with pytest.raises(DegreeMismatch, match="does not belong to spec"):
        pullback_class(spec, rep, 0, (F(1),))


def test_verify_bkk_refuses_an_sr_report_of_another_spec():
    spec = SPECS["p2_rank2"]()
    delta = random_convex(spec.fan, random.Random(3))
    with pytest.raises(DegreeMismatch, match="does not belong to spec"):
        verify_bkk(spec, (F(1),), 0, delta, _sr_report("flag_sl3_p1xp1")[1])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SPECS)), st.data())
def test_power_form_matches_the_power_then_pair_expansion(name, data):
    """On a random integer base class gamma of degree k - 2i, f_gamma by
    ``power_form`` on the base equals c(x)^i expanded first and then paired
    with gamma, and F_gamma by ``power_form`` on the sr ring equals the walk
    sum_beta multinomial(beta) ell(x^beta p^*gamma) h^beta over class_of."""
    spec, rep = _sr_report(name)
    i = data.draw(st.integers(0, spec.k // 2), label="i")
    gdeg = spec.k - 2 * i
    size = spec.base.algebra.dim(gdeg)
    gamma = tuple(
        map(F, data.draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size)))
    )
    assert f_gamma(spec, gamma, i) == f_gamma_by_powers(spec, gamma, i)
    xs = [rep.generator_classes[x][1] for x in spec.x_names]
    hvars = tuple(f"h{j + 1}" for j in range(spec.fan.nrays))
    pg = pullback_class(spec, rep, gdeg, gamma)
    fpoly = power_form(rep.algebra, rep.functional, xs, hvars, spec.n + i, gdeg, pg)
    assert fpoly == f_gamma_ring_by_monomials(spec, gamma, i, rep)


@pytest.mark.parametrize(
    "gdeg, gamma",
    [(2, (1, 2)), (0, ()), (3, (1,)), (-2, (1,))],
    ids=["long gamma", "short gamma", "odd degree", "negative degree"],
)
def test_pullback_class_refuses_a_malformed_base_class(gdeg, gamma):
    """The P^2 base has one class in each of the degrees 0, 2 and 4."""
    spec, rep = _sr_report("p2_rank2")
    with pytest.raises(DegreeMismatch):
        pullback_class(spec, rep, gdeg, gamma)


@pytest.mark.parametrize(
    "beta", [(-1, 0, 2), (1, 0), (1, 0, 0, 0)], ids=["negative", "short", "long"]
)
def test_class_of_refuses_a_malformed_exponent(beta):
    spec, rep = _sr_report("p2_rank2")
    with pytest.raises(DegreeMismatch):
        rep.model.class_of(beta)


def test_class_of_a_base_degree_above_the_base_top_is_zero():
    spec, rep = _sr_report("p2_rank2")
    assert pullback_class(spec, rep, 6, ()) == (0, 0)
    assert not any(rep.model.class_of((1, 0, 0), 6, ()))


def test_squarefree_matches_ring():
    rng = random.Random(23)
    for name in ("f1_toric", "p2_rank2"):
        spec = SPECS[name]()
        rep = ring_via_sr(spec)
        model = rep.model
        for rdeg, ridx, beta in full_free_algebra(spec).monomials[spec.top_degree]:
            gamma = _unit(spec.base.algebra.dim(rdeg), ridx)
            direct = squarefree_evaluate(spec, beta, rdeg, gamma)
            via_ring = rep.functional.of(
                spec.top_degree, model.class_of(beta, rdeg, gamma)
            )
            assert direct == via_ring


def test_three_dimensional_fiber():
    """Octant fan of (P1)^3: 3-dim triangulations and a rank-3 quotient."""
    from toricbundle.catalog import base_point

    spec = BundleSpec(base_point(3), octant_fan(), "p13_toric")
    assert cross_validate(spec)
    assert ring_via_sr(spec).dims() == (1, 3, 3, 1)


def test_self_intersection_polynomial_sl4_octant():
    """SL4/B x (P1)^3: I_f of degree 9 in 6 h-variables.  The polynomial is
    verified by direct integration inside i_f_polynomial."""
    spec = flag_bundle_spec(4, octant_fan())
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


def test_cross_validate_sl4_p3():
    """SL4/B x P3: sr and sd agree on a 3-dimensional fiber over a flag
    base."""
    from toricbundle.catalog import fan_projective_space

    assert cross_validate(flag_bundle_spec(4, fan_projective_space(3)))


def test_cross_validate_sl4_octant():
    """SL4/B x (P1)^3: the radical equals the Sankaran-Uma ideal on the
    three variables the L_t leave."""
    assert cross_validate(flag_bundle_spec(4, octant_fan()))


def test_cross_validate_sl4_p1xp1():
    """SL4/B x P1xP1 (total dimension 24 * 4 = 96): the three builders
    agree."""
    spec = flag_bundle_spec(4, fan_p1xp1())
    assert cross_validate(spec)
    dims = (1, 5, 12, 19, 22, 19, 12, 5, 1)
    assert ring_via_diff(spec).dims() == ring_via_sr(spec).dims() == dims
