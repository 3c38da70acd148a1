"""Built-in bases, fans, bundle specs, and the worked example families:
Weyl polynomials and coinvariant algebras for SL_n (n <= 4), Gelfand-Zetlin
polytopes, Brion-Kazarnovskii checks, and projective-bundle relations.

Weight conventions: fundamental-weight coordinates everywhere; the passage
to partition coordinates (for Gelfand-Zetlin patterns) is the unimodular
map lambda'_i = a_i + ... + a_{n-1}.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial
from operator import add

from toricbundle.bundle import (
    BaseData,
    BundleSpec,
    RingReport,
    pullback_class,
    rho_class,
    ring_via_sr,
)
from toricbundle.errors import (
    DegreeMismatch,
    NotDominant,
    NotProjectiveSpace,
    VerificationFailed,
)
from toricbundle.galg import (
    GradedAlgebra,
    PresentedAlgebra,
    TopFunctional,
    build_quotient,
    product_keys,
)
from toricbundle.integrate import integral_over_virtual, volume
from toricbundle.polyhedral import Fan, Polytope, VirtualPolytope, validate_fan
from toricbundle.qpoly import QPolynomial

Vec = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# fans
# ---------------------------------------------------------------------------


def fan_p1() -> Fan:
    return validate_fan([(1,), (-1,)], [(0,), (1,)])


def fan_p2() -> Fan:
    return validate_fan([(1, 0), (0, 1), (-1, -1)], [(0, 1), (0, 2), (1, 2)])


def fan_p1xp1() -> Fan:
    return validate_fan(
        [(1, 0), (0, 1), (-1, 0), (0, -1)],
        [(0, 1), (1, 2), (2, 3), (3, 0)],
    )


def fan_hirzebruch1() -> Fan:
    return validate_fan(
        [(1, 0), (0, 1), (-1, 1), (0, -1)],
        [(0, 1), (1, 2), (2, 3), (3, 0)],
    )


def fan_projective_space(n: int) -> Fan:
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays.append((-1,) * n)
    cones = list(itertools.combinations(range(n + 1), n))
    return validate_fan(rays, cones)


FANS = {
    "p1": fan_p1,
    "p2": fan_p2,
    "p1xp1": fan_p1xp1,
    "f1": fan_hirzebruch1,
}


# ---------------------------------------------------------------------------
# bases
# ---------------------------------------------------------------------------


def base_point(chern_rank: int = 0) -> BaseData:
    alg = GradedAlgebra(0, {0: ("1",)}, {})
    ell = TopFunctional(alg, 0, (Fraction(1),))
    return BaseData(alg, ell, tuple(() for _ in range(chern_rank)))


def base_projective(m: int, chern=()) -> BaseData:
    """Q[H]/(H^{m+1}) with ell(H^m) = 1."""
    labels = {0: ("1",)}
    for j in range(1, m + 1):
        labels[2 * j] = ("H" if j == 1 else f"H^{j}",)
    products = {key: ((0, Fraction(1)),) for key in product_keys(labels)}
    alg = GradedAlgebra(2 * m, labels, products)
    ell = TopFunctional(alg, 2 * m, (Fraction(1),))
    return BaseData(alg, ell, tuple(chern))


def _combine(coeffs, vecs) -> Vec:
    """The exact linear combination sum_t coeffs[t] * vecs[t]."""
    return tuple(
        sum((Fraction(c) * v[u] for c, v in zip(coeffs, vecs)), Fraction(0))
        for u in range(len(vecs[0]))
    )


def _std_weights(n: int):
    """The weights L_1..L_n of the standard representation, in fundamental
    coordinates: L_i = w_i - w_{i-1} with w_0 = w_n = 0."""
    out = []
    for i in range(1, n + 1):
        row = [0] * (n - 1)
        if i <= n - 1:
            row[i - 1] += 1
        if i >= 2:
            row[i - 2] -= 1
        out.append(row)
    return out


def _positive_roots(n: int):
    """The positive roots L_i - L_j (i < j, lexicographic) of SL_n, each as
    (coroot, root): the coroot is 1 at t = i..j-1, so <lambda, alpha^v> =
    a_i + ... + a_{j-1} and <rho, alpha^v> = j - i is its sum; the root is
    in fundamental coordinates."""
    std = _std_weights(n)
    return [
        (
            tuple(int(i <= t < j) for t in range(n - 1)),
            tuple(a - b for a, b in zip(std[i], std[j])),
        )
        for i, j in itertools.combinations(range(n), 2)
    ]


def _rank(n: int) -> None:
    """The flag bases, Weyl polynomials and Gelfand-Zetlin polytopes are
    implemented for SL_n with 2 <= n <= 4; another n raises ValueError."""
    if not 2 <= n <= 4:
        raise ValueError(f"SL_n implemented for 2 <= n <= 4, got n = {n}")


def _weight(n: int, lam, dominant: bool = False) -> Vec:
    """lam as n - 1 fundamental coordinates of an SL_n weight; another length
    raises ``DegreeMismatch``, and with ``dominant`` a negative entry raises
    ``NotDominant``."""
    lam = tuple(Fraction(x) for x in lam)
    if len(lam) != n - 1:
        raise DegreeMismatch(f"{lam} is not an sl_{n} weight: need {n - 1} entries")
    if dominant and any(x < 0 for x in lam):
        raise NotDominant(f"{lam} is not a dominant weight for sl_{n}")
    return lam


def base_flag_sl(n: int) -> BaseData:
    """Sym(M_R) modulo the Weyl-invariants ideal; dim n!.

    The degree-2 basis is the fundamental weights w_1..w_{n-1}, and the
    Chern rows are their classes, so a weight's class is :func:`_combine`
    of its fundamental coordinates with the rows.

    Relations: the elementary symmetric polynomials e_2..e_n of the standard
    weights.  Orientation: the product of the positive roots evaluates to
    |W| = n! (so the point class pairs to 1; cross-checked downstream by the
    degree identity c(lambda)^N = N! f_W(lambda)).
    """
    _rank(n)
    names = tuple(f"w{i + 1}" for i in range(n - 1))
    ls = [
        QPolynomial.linear_form(names, row) for row in _std_weights(n)
    ]
    big_n = n * (n - 1) // 2
    pt = GradedAlgebra(0, {0: ("1",)}, {})
    relations = []
    for j in range(2, n + 1):
        ej = QPolynomial.zero(names)
        for subset in itertools.combinations(range(n), j):
            term = QPolynomial.constant(names, 1)
            for i in subset:
                term = term * ls[i]
            ej = ej + term
        # the weights are integral, so e_j is ej.num over ej.den == 1
        rel = {expo: (0, (c,)) for expo, c in ej.num.items()}
        relations.append(rel)
    model = build_quotient(
        PresentedAlgebra(pt, names, tuple(relations), 2 * big_n + 2)
    )
    alg = model.algebra
    if alg.top != 2 * big_n or alg.total_dim() != factorial(n):
        raise VerificationFailed(
            f"coinvariant algebra of SL_{n}: top {alg.top}, dim "
            f"{alg.total_dim()} instead of {2 * big_n}, {factorial(n)}"
        )

    # the classes of the w_t, then product of positive roots = |W| * [pt]
    ws = [model.class_of(int(u == t) for u in range(n - 1)) for t in range(n - 1)]
    deg, vec = 0, (Fraction(1),)
    for _, root in _positive_roots(n):
        vec = alg.multiply(deg, vec, 2, _combine(root, ws))
        deg += 2
    (c_top,) = vec
    if c_top == 0:
        raise VerificationFailed("product of the positive roots vanishes")
    ell = TopFunctional(alg, 2 * big_n, (Fraction(factorial(n)) / c_top,))

    return BaseData(alg, ell, tuple(ws))


# ---------------------------------------------------------------------------
# Weyl polynomials
# ---------------------------------------------------------------------------


def weyl_top_polynomial_sl(n: int) -> QPolynomial:
    """Top part of the Weyl polynomial: prod_{alpha > 0}
    <lambda, alpha^v> / <rho, alpha^v>."""
    _rank(n)
    names = tuple(f"a{i + 1}" for i in range(n - 1))
    out = QPolynomial.constant(names, 1)
    for coroot, _ in _positive_roots(n):
        form = QPolynomial.linear_form(names, coroot)
        out = out * form * Fraction(1, sum(coroot))
    return out


def weyl_dimension(n: int, lam) -> Fraction:
    """Weyl dimension formula prod_{alpha > 0} <lambda + rho, alpha^v> /
    <rho, alpha^v>, lambda in fundamental coordinates."""
    lam = _weight(n, lam)
    dim = Fraction(1)
    for coroot, _ in _positive_roots(n):
        dim *= sum(c * (a + 1) for c, a in zip(coroot, lam)) / sum(coroot)
    return dim


def _partition_coords(n: int, lam):
    """lambda'_i = a_i + ... + a_{n-1}, lambda'_n = 0 (unimodular map)."""
    lam = list(lam) + [Fraction(0)]
    return [sum(lam[i:], Fraction(0)) for i in range(n)]


# ---------------------------------------------------------------------------
# Gelfand-Zetlin polytopes
# ---------------------------------------------------------------------------


def _interlacing(n: int, top):
    """Interlacing halfspaces for pattern rows 1..n-1 below the constant top
    row ``top``.

    Coordinates: the pattern variables row by row (row r, 1-based, has
    n - r entries); every pattern entry sits between its two upper
    neighbours.
    """
    dim = n * (n - 1) // 2
    upper = [([Fraction(0)] * dim, Fraction(b)) for b in top]
    halfspaces = []
    pos = 0
    for r in range(1, n):
        row = []
        for c in range(n - r):
            (hi, b_hi), (lo, b_lo) = upper[c], upper[c + 1]
            le = [-x for x in hi]
            le[pos] += 1
            ge = list(lo)
            ge[pos] -= 1
            halfspaces += [(le, b_hi), (ge, -b_lo)]
            row.append(([Fraction(int(t == pos)) for t in range(dim)], Fraction(0)))
            pos += 1
        upper = row
    return halfspaces


def gz_polytope(n: int, lam) -> Polytope:
    """The Gelfand-Zetlin polytope of a dominant weight (fundamental coords)."""
    _rank(n)
    top = _partition_coords(n, _weight(n, lam, dominant=True))
    return Polytope.from_halfspaces(_interlacing(n, top), n * (n - 1) // 2)


def gz_lattice_points(n: int, lam) -> int:
    """Enumeration oracle: integer interlacing patterns below lambda, a
    dominant integral weight (anything else raises ``NotDominant``)."""
    lam = _weight(n, lam)
    if any(x < 0 or x.denominator != 1 for x in lam):
        raise NotDominant(f"{lam} is not a dominant integral weight for sl_{n}")
    count = 0

    def rec(prev_row):
        nonlocal count
        if len(prev_row) == 1:
            count += 1
            return
        ranges = [
            range(prev_row[c + 1], prev_row[c] + 1)
            for c in range(len(prev_row) - 1)
        ]
        for row in itertools.product(*ranges):
            rec(list(row))

    rec([int(x) for x in _partition_coords(n, lam)])
    return count


def gz_volume_check(n: int, lam) -> bool:
    """Vol(GZ_lambda) = f_W(lambda), exactly."""
    return volume(gz_polytope(n, lam)) == weyl_top_polynomial_sl(n).evaluate(lam)


# ---------------------------------------------------------------------------
# flag bundle specs and the Brion-Kazarnovskii identity
# ---------------------------------------------------------------------------


def flag_bundle_spec(n: int, fan: Fan, lam_basis=None, name="") -> BundleSpec:
    """Toric bundle over SL_n/B with torus lattice the span of lam_basis.

    ``lam_basis``: rows = basis of the sublattice, in fundamental
    coordinates; defaults to the first fan.dim fundamental weights.  The
    Chern map is the inclusion composed with the Borel isomorphism.
    """
    flag = base_flag_sl(n)
    if lam_basis is None:
        lam_basis = [[int(i == j) for j in range(n - 1)] for i in range(fan.dim)]
    chern = tuple(_combine(_weight(n, row), flag.chern) for row in lam_basis)
    base = BaseData(flag.algebra, flag.orientation, chern)
    return BundleSpec(base, fan, name or f"flag_sl{n}")


def brion_kazarnovskii_check(
    spec: BundleSpec,
    delta: VirtualPolytope,
    shift=None,
    *,
    sr_report: RingReport,
):
    """rho-bar(Delta)^{rk+N} against (rk+N)! int_Delta f_W, both exact, on a
    spec built by :func:`flag_bundle_spec`.

    The base is the flag variety of SL_n with n - 1 = dim H^2, and a base
    without degree-2 classes or of top degree other than n(n - 1) raises
    ``DegreeMismatch``.  Its degree-2 basis is the fundamental weights, so
    the Chern rows are the sublattice basis in fundamental coordinates.
    ``delta`` lives on the spec's fan, in the sublattice's own coordinates;
    ``shift`` is an optional translation in fundamental coordinates (a
    degree-2 class of the base).  The left side is read off ``sr_report``,
    the Stanley-Reisner ring of ``spec``.
    """
    n = spec.base.algebra.dim(2) + 1
    if n < 2:
        raise DegreeMismatch("a base without degree-2 classes is no flag variety")
    if spec.k != n * (n - 1):
        raise DegreeMismatch(
            f"base of top degree {spec.k} is not the SL_{n} flag variety"
        )
    rho = rho_class(spec, sr_report, delta)
    if shift is None:
        shift = (Fraction(0),) * (n - 1)
    else:
        shift = _weight(n, shift)
        rho = tuple(map(add, rho, pullback_class(spec, sr_report, 2, shift)))
    exponent = spec.top_degree // 2
    deg, vec = sr_report.algebra.power_of_element(2, rho, exponent)
    lhs = sr_report.functional.of(spec.top_degree, vec)

    yvars = tuple(f"y{j + 1}" for j in range(spec.n))
    images = [
        QPolynomial.linear_form(yvars, coeffs, const=const)
        for coeffs, const in zip(zip(*spec.base.chern), shift)
    ]
    fw_restricted = weyl_top_polynomial_sl(n).substitute(images)
    rhs = factorial(exponent) * integral_over_virtual(
        spec.fan, fw_restricted, delta
    )
    return lhs, rhs, lhs == rhs


# ---------------------------------------------------------------------------
# projective bundles
# ---------------------------------------------------------------------------


def projective_bundle_check(spec: BundleSpec) -> bool:
    """Whitney relation t^{n+1} + sum c_i t^{n+1-i} = 0 in the SR ring.

    A spec on the fan of P^n is P(V + O) over its base, t is the class of
    the last ray and c(V + O) = prod_k (1 + c_k) over the Chern columns c_k,
    multiplied out in the base.  Another fan raises ``NotProjectiveSpace``.
    """
    n = spec.n
    if spec.fan != fan_projective_space(n):
        raise NotProjectiveSpace(f"the fan of {spec.name!r} is not that of P^{n}")
    rep = ring_via_sr(spec)
    alg, r = rep.algebra, spec.base.algebra

    # c[i]: the degree-2i part of the product, one factor (1 + c_k) at a time
    c = [(Fraction(1),)] + [(Fraction(0),) * r.dim(2 * i) for i in range(1, n + 1)]
    for col in spec.base.chern:
        for i in range(n, 0, -1):
            c[i] = tuple(map(add, c[i], r.multiply(2 * i - 2, c[i - 1], 2, col)))
    t_cls = rep.generator_classes[spec.x_names[n]][1]
    acc = alg.power_of_element(2, t_cls, n + 1)[1]
    for i in range(1, n + 1):
        if any(c[i]):
            pg = pullback_class(spec, rep, 2 * i, c[i])
            dt, tp = alg.power_of_element(2, t_cls, n + 1 - i)
            acc = tuple(map(add, acc, alg.multiply(dt, tp, 2 * i, pg)))
    return not any(acc)


# ---------------------------------------------------------------------------
# named catalog
# ---------------------------------------------------------------------------


def spec_point_base(fan_name: str) -> BundleSpec:
    fan = FANS[fan_name]()
    return BundleSpec(base_point(fan.dim), fan, f"{fan_name}_toric")


def spec_hirzebruch(d: int = 1) -> BundleSpec:
    base = base_projective(1, chern=((Fraction(d),),))
    return BundleSpec(base, fan_p1(), f"hirzebruch_{d}")


def spec_p1_trivial_over_p1() -> BundleSpec:
    base = base_projective(1, chern=((Fraction(0),),))
    return BundleSpec(base, fan_p1(), "p1_trivial_over_p1")


def spec_p1xp1_over_p1() -> BundleSpec:
    base = base_projective(1, chern=((Fraction(1),), (Fraction(0),)))
    return BundleSpec(base, fan_p1xp1(), "p1xp1_over_p1")


def spec_p2_rank2() -> BundleSpec:
    """Fan of P^2 over base P^2; equals P(O(1) + O(2) + O) over P^2."""
    base = base_projective(2, chern=((Fraction(1),), (Fraction(2),)))
    return BundleSpec(base, fan_p2(), "p2_rank2")


def spec_flag_sl2_p1() -> BundleSpec:
    return flag_bundle_spec(2, fan_p1(), name="flag_sl2_p1")


def spec_flag_sl3_p1xp1() -> BundleSpec:
    return flag_bundle_spec(3, fan_p1xp1(), name="flag_sl3_p1xp1")


SPECS = {
    "p1_toric": lambda: spec_point_base("p1"),
    "p2_toric": lambda: spec_point_base("p2"),
    "p1xp1_toric": lambda: spec_point_base("p1xp1"),
    "f1_toric": lambda: spec_point_base("f1"),
    "hirzebruch_1": spec_hirzebruch,
    "p1_trivial_over_p1": spec_p1_trivial_over_p1,
    "p1xp1_over_p1": spec_p1xp1_over_p1,
    "p2_rank2": spec_p2_rank2,
    "flag_sl2_p1": spec_flag_sl2_p1,
    "flag_sl3_p1xp1": spec_flag_sl3_p1xp1,
}

# the flag-bundle specs of SPECS and the n of their SL_n
FLAG_RANKS = {"flag_sl2_p1": 2, "flag_sl3_p1xp1": 3}
