"""Acceptance suite: one test per exit criterion, exact equality throughout.

Each test prints a PASS line with its elapsed time (visible under
``pytest -v -s`` or in the captured summary); any failure is a hard assert.
"""

import itertools
import random
import time
from fractions import Fraction as F
from math import factorial

from helpers import (
    AffineVirtualPolytope,
    diff_matches_sr,
    full_table,
    projective_bundle_spec,
    self_intersection,
)
from toricbundle.bundle import (
    cross_validate,
    random_convex,
    random_virtual,
    ring_via_sr,
    rho_class,
    verify_bkk,
)
from toricbundle.catalog import (
    SPECS,
    _combine,
    base_flag_sl,
    base_projective,
    brion_kazarnovskii_check,
    fan_p1,
    fan_p1xp1,
    fan_p2,
    flag_bundle_spec,
    gz_lattice_points,
    gz_volume_check,
    projective_bundle_check,
    weyl_dimension,
    weyl_top_polynomial_sl,
)
from toricbundle.galg import (
    PresentedAlgebra,
    TopFunctional,
    _unit,
    build_quotient,
    check_poincare,
    sd_quotient,
)
from toricbundle.integrate import (
    convex_chain_identity_check,
    integrate_over_polytope,
    square_free_derivative_check,
)
from toricbundle.polyhedral import VirtualPolytope, polytope_from_support
from toricbundle.qpoly import QPolynomial


def _report(number: int, label: str, t0: float):
    print(f"PASS criterion {number}: {label}  ({time.time() - t0:.2f}s)")


def test_criterion_1_classical_bkk():
    """n! Vol(Delta) = rho(Delta)^n for the four point-base toric specs."""
    t0 = time.time()
    rng = random.Random(1)
    for name in ("p1_toric", "p2_toric", "p1xp1_toric", "f1_toric"):
        spec = SPECS[name]()
        rep = ring_via_sr(spec)
        n = spec.n
        one = QPolynomial.constant(tuple(f"x{i+1}" for i in range(n)), 1)
        for _ in range(20):
            delta = random_convex(spec.fan, rng)
            vol = integrate_over_polytope(
                one, polytope_from_support(spec.fan, delta)
            )
            rho = rho_class(spec, rep, delta)
            deg, vec = rep.algebra.power_of_element(2, rho, n)
            assert factorial(n) * vol == rep.functional.of(deg, vec), (
                name,
                delta.h,
            )
    _report(1, "classical BKK on P1, P2, P1xP1, F1 (20 seeded Delta each)", t0)


def test_criterion_2_bkk_theorem():
    """(n+i)! I_gamma = i! F_gamma for every basis gamma, admissible i."""
    t0 = time.time()
    rng = random.Random(2)
    for name in ("hirzebruch_1", "p1xp1_over_p1", "p2_rank2"):
        spec = SPECS[name]()
        rep = ring_via_sr(spec)
        alg = spec.base.algebra
        for gdeg in range(0, spec.k + 1, 2):
            i = (spec.k - gdeg) // 2
            for ridx in range(alg.dim(gdeg)):
                gamma = _unit(alg.dim(gdeg), ridx)
                for t in range(10):
                    delta = (
                        random_convex(spec.fan, rng)
                        if t % 2
                        else random_virtual(spec.fan, rng)
                    )
                    lhs, rhs, eq = verify_bkk(spec, gamma, i, delta, rep)
                    assert eq, (name, gdeg, ridx, delta.h, lhs, rhs)
    _report(2, "Theorem BKK on three bundle specs (10 seeded Delta each)", t0)


def test_criterion_3_cross_validation():
    """Self-dual quotient vs Sankaran-Uma on every catalog spec."""
    t0 = time.time()
    for name, maker in SPECS.items():
        cv = cross_validate(maker())
        assert cv, (name, cv.detail)
    _report(3, f"cross-validation on all {len(SPECS)} catalog specs", t0)


def test_criterion_4_self_dual_quotients():
    """Randomized algebras: Poincare duality, idempotence, scale invariance."""
    t0 = time.time()
    rng = random.Random(4)
    from toricbundle.galg import GradedAlgebra

    point = GradedAlgebra(0, {0: ("1",)}, {})
    done = 0
    while done < 5:
        ngens = rng.choice((1, 2, 3))
        top = rng.choice((4, 6))
        names = tuple(f"x{i+1}" for i in range(ngens))
        model = build_quotient(PresentedAlgebra(point, names, (), top))
        alg = model.algebra
        deg = rng.choice([d for d in alg.degrees() if d > 0])
        values = tuple(F(rng.randint(-4, 4)) for _ in range(alg.dim(deg)))
        if not any(values):
            continue
        ell = TopFunctional(alg, deg, values)
        sq = sd_quotient(alg, ell)
        assert check_poincare(sq.algebra, sq.functional)
        again = sd_quotient(sq.algebra, sq.functional)
        assert again.algebra.dims() == sq.algebra.dims()
        assert full_table(again.algebra) == full_table(sq.algebra)
        scaled = sd_quotient(alg, ell.scale(F(-5, 7)))
        assert scaled.algebra.dims() == sq.algebra.dims()
        assert full_table(scaled.algebra) == full_table(sq.algebra)
        done += 1
    _report(4, "5 randomized self-dual quotients: duality/idempotence/scaling", t0)


def test_criterion_5_diff_model():
    """Operator model agrees (graded iso) with the SR ring."""
    t0 = time.time()
    for name in ("p2_toric", "hirzebruch_1", "p1_trivial_over_p1"):
        assert diff_matches_sr(SPECS[name]()), name
    _report(5, "Diff/Ann model vs SR ring on P2, F1, chern-0 P1 bundle", t0)


def test_criterion_6_ider_and_convex_chain():
    """Derivative and convex-chain oracles on the P2 and F1 fans."""
    t0 = time.time()
    rng = random.Random(6)
    fans = {"p2": fan_p2(), "f1": SPECS["f1_toric"]().fan}
    xv = ("x1", "x2")
    integrands = [
        QPolynomial.constant(xv, 1),
        QPolynomial.variable(xv, 0),
        QPolynomial.variable(xv, 0) * QPolynomial.variable(xv, 1),
    ]
    for fname, fan in fans.items():
        for f in integrands:
            delta = random_convex(fan, rng)
            for subset in itertools.combinations(range(fan.nrays), fan.dim):
                square_free_derivative_check(fan, f, delta, subset)
                for _ in range(5):
                    lams = [
                        F(rng.randint(0, 3), rng.randint(4, 9))
                        for _ in range(fan.dim)
                    ]
                    assert convex_chain_identity_check(
                        fan, f, delta, subset, lams
                    ), (fname, subset, lams)
    _report(6, "derivative + convex-chain oracles, all n-subsets, 5 seeded lambdas", t0)


def test_criterion_7_flag_examples():
    """Degree identity, GZ volumes and lattice counts, Brion-Kazarnovskii."""
    t0 = time.time()
    rng = random.Random(7)
    for n in (2, 3):
        fb = base_flag_sl(n)
        big_n = n * (n - 1) // 2
        fw = weyl_top_polynomial_sl(n)
        for _ in range(10):
            lam = tuple(rng.randint(0, 6) for _ in range(n - 1))
            cls = _combine(lam, fb.chern)
            deg, vec = fb.algebra.power_of_element(2, cls, big_n)
            assert fb.orientation.of(2 * big_n, vec) == factorial(
                big_n
            ) * fw.evaluate(lam), (n, lam)
        for _ in range(10):
            lam = tuple(rng.randint(0, 5) for _ in range(n - 1))
            assert gz_volume_check(n, lam), (n, lam)
            assert F(gz_lattice_points(n, lam)) == weyl_dimension(n, lam)

    # five (fan, Delta) pairs for the Brion-Kazarnovskii identity
    p1 = fan_p1()
    pp = fan_p1xp1()
    spec2 = flag_bundle_spec(2, p1)
    spec3 = flag_bundle_spec(3, pp)
    rep2 = ring_via_sr(spec2)
    rep3 = ring_via_sr(spec3)
    pairs = [
        (spec2, VirtualPolytope(p1, (1, 0)), None, rep2),
        (spec2, random_virtual(p1, rng), (F(2),), rep2),
        (spec3, VirtualPolytope(pp, (1, 1, 0, 0)), None, rep3),
        (spec3, random_convex(pp, rng), (F(1), F(-1)), rep3),
        (spec3, random_virtual(pp, rng), None, rep3),
    ]
    for spec, delta, shift, rep in pairs:
        lhs, rhs, eq = brion_kazarnovskii_check(spec, delta, shift, sr_report=rep)
        assert eq, (spec.name, delta.h, shift, lhs, rhs)
    _report(7, "prop:degree, GZ volume/count, Brion-Kazarnovskii (5 pairs)", t0)


def test_criterion_8_projective_bundles():
    """Whitney relation t^{n+1} + sum c_i t^{n+1-i} = 0 in the SR ring."""
    t0 = time.time()
    for m, degrees in ((1, (0,)), (1, (1,)), (2, (1, 2))):
        spec = projective_bundle_spec(base_projective(m), degrees)
        assert projective_bundle_check(spec), (m, degrees)
    _report(8, "projective-bundle relation for P1/(0), P1/(1), P2/(1,2)", t0)


def test_criterion_9_self_intersection():
    """Degree-2 self-intersection: ring power vs binomial integral."""
    t0 = time.time()
    rng = random.Random(9)
    for name in ("hirzebruch_1", "p2_rank2"):
        spec = SPECS[name]()
        rep = ring_via_sr(spec)
        dim2 = spec.base.algebra.dim(2)
        for t in range(10):
            delta0 = (
                random_convex(spec.fan, rng)
                if t % 2
                else random_virtual(spec.fan, rng)
            )
            gamma = tuple(F(rng.randint(-3, 3)) for _ in range(dim2))
            av = AffineVirtualPolytope(delta0, gamma)
            self_intersection(spec, av, rep)  # asserts the two routes agree
    _report(9, "self-intersection pipelines on F1 and the P2-base spec", t0)
