"""Built-in bases, fans, bundle specs, and the worked example families:
Weyl polynomials and coinvariant algebras for SL_n (n <= 4), Gelfand-Zetlin
polytopes, Brion-Kazarnovskii checks, and projective-bundle relations.

Weight conventions: fundamental-weight coordinates everywhere; the passage
to partition coordinates (for Gelfand-Zetlin patterns) is the unimodular
map lambda'_i = a_i + ... + a_{n-1}.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from toricbundle.bundle import (
    BaseData,
    BundleSpec,
    RingReport,
    pullback_class,
    rho_class,
    ring_via_sr,
)
from toricbundle.errors import ChamberViolation, NotDominant, VerificationFailed
from toricbundle.galg import (
    GradedAlgebra,
    PresentedAlgebra,
    QuotientModel,
    TopFunctional,
    _unit,
    build_quotient,
    product_keys,
)
from toricbundle.integrate import (
    integral_over_virtual,
    integrate_over_polytope,
    volume,
)
from toricbundle.polyhedral import (
    Fan,
    Polytope,
    VirtualPolytope,
    polytope_from_support,
    validate_fan,
)
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
    products = {key: (Fraction(1),) for key in product_keys(labels)}
    alg = GradedAlgebra(2 * m, labels, products)
    ell = TopFunctional(alg, 2 * m, (Fraction(1),))
    return BaseData(alg, ell, tuple(chern))


@dataclass(frozen=True)
class FlagBase:
    """Coinvariant-algebra model of the full flag variety of SL_n."""

    n: int
    base: BaseData
    model: QuotientModel

    @property
    def rank(self) -> int:
        return self.n - 1

    def weight_class(self, lam) -> Vec:
        """Degree-2 class of a weight in fundamental coordinates."""
        out = [Fraction(0)] * self.base.algebra.dim(2)
        for t, c in enumerate(lam):
            col = self.base.chern[t]
            for u, x in enumerate(col):
                out[u] += Fraction(c) * x
        return tuple(out)


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


def base_flag_sl(n: int) -> FlagBase:
    """Sym(M_R) modulo the Weyl-invariants ideal; dim n!.

    Relations: the elementary symmetric polynomials e_2..e_n of the standard
    weights.  Orientation: the product of the positive roots evaluates to
    |W| = n! (so the point class pairs to 1; cross-checked downstream by the
    degree identity c(lambda)^N = N! f_W(lambda)).
    """
    if not 2 <= n <= 4:
        raise ValueError("flag bases implemented for 2 <= n <= 4")
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
        rel = {expo: (0, (c,)) for expo, c in ej.terms.items()}
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
    for i in range(n):
        for j in range(i + 1, n):
            root = [a - b for a, b in zip(_std_weights(n)[i], _std_weights(n)[j])]
            rvec = tuple(
                sum((c * w[u] for c, w in zip(root, ws)), Fraction(0))
                for u in range(alg.dim(2))
            )
            vec = alg.multiply(deg, vec, 2, rvec)
            deg += 2
    (c_top,) = vec
    if c_top == 0:
        raise VerificationFailed("product of the positive roots vanishes")
    ell = TopFunctional(alg, 2 * big_n, (Fraction(factorial(n)) / c_top,))

    return FlagBase(n, BaseData(alg, ell, tuple(ws)), model)


# ---------------------------------------------------------------------------
# Weyl polynomials
# ---------------------------------------------------------------------------


def weyl_top_polynomial_sl(n: int) -> QPolynomial:
    """Top part of the Weyl polynomial: prod_{i<j} (a_i+..+a_{j-1})/(j-i)."""
    if not 2 <= n <= 4:
        raise ValueError("implemented for 2 <= n <= 4")
    names = tuple(f"a{i + 1}" for i in range(n - 1))
    out = QPolynomial.constant(names, 1)
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            coeffs = [
                Fraction(1) if i <= t + 1 <= j - 1 else Fraction(0)
                for t in range(n - 1)
            ]
            out = out * QPolynomial.linear_form(names, coeffs)
            out = out * Fraction(1, j - i)
    return out


def weyl_dimension(n: int, lam) -> Fraction:
    """Full Weyl dimension formula in fundamental coordinates."""
    lam = [Fraction(x) for x in lam]
    lamp = _partition_coords(n, lam)
    dim = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            dim *= (lamp[i] - lamp[j] + j - i) / (j - i)
    return dim


def _partition_coords(n: int, lam):
    """lambda'_i = a_i + ... + a_{n-1}, lambda'_n = 0 (unimodular map)."""
    lam = list(lam) + [Fraction(0)]
    return [sum(lam[i:], Fraction(0)) for i in range(n)]


# ---------------------------------------------------------------------------
# Gelfand-Zetlin polytopes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GZData:
    n: int
    lam: tuple[Fraction, ...]
    polytope: Polytope


def _gz_halfspaces(n: int, top_row):
    """Interlacing constraints for pattern rows 1..n-1 below a fixed top row.

    Pattern variables are row-major; row r (1-based) has n - r entries and
    every entry sits between its two upper neighbours.
    """
    nv = n * (n - 1) // 2
    idx = {}
    pos = 0
    for r in range(1, n):
        for c in range(n - r):
            idx[(r, c)] = pos
            pos += 1
    halfspaces = []

    def unit(k, sign):
        row = [Fraction(0)] * nv
        row[k] = Fraction(sign)
        return row

    for r in range(1, n):
        for c in range(n - r):
            if r == 1:
                halfspaces.append((unit(idx[(r, c)], 1), Fraction(top_row[c])))
                halfspaces.append((unit(idx[(r, c)], -1), -Fraction(top_row[c + 1])))
            else:
                row = unit(idx[(r, c)], 1)
                row[idx[(r - 1, c)]] -= 1
                halfspaces.append((row, Fraction(0)))
                row = unit(idx[(r, c)], -1)
                row[idx[(r - 1, c + 1)]] += 1
                halfspaces.append((row, Fraction(0)))
    return halfspaces


def gz_polytope(n: int, lam) -> GZData:
    """The Gelfand-Zetlin polytope of a dominant weight (fundamental coords)."""
    if not 2 <= n <= 4:
        raise ValueError("implemented for 2 <= n <= 4")
    lam = tuple(Fraction(x) for x in lam)
    if len(lam) != n - 1 or any(x < 0 for x in lam):
        raise NotDominant(f"{lam} is not a dominant weight for sl_{n}")
    top_row = _partition_coords(n, lam)
    hs = _gz_halfspaces(n, top_row)
    poly = Polytope.from_halfspaces(hs, n * (n - 1) // 2)
    return GZData(n, lam, poly)


def gz_lattice_points(n: int, lam) -> int:
    """Enumeration oracle: integer interlacing patterns below lambda."""
    lam = [int(x) for x in lam]
    top = [int(x) for x in _partition_coords(n, lam)]
    count = 0
    rows = [top]

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

    rec(top)
    return count


def gz_volume_check(n: int, lam) -> bool:
    """Vol(GZ_lambda) = f_W(lambda), exactly."""
    data = gz_polytope(n, lam)
    return volume(data.polytope) == weyl_top_polynomial_sl(n).evaluate(lam)


def gz_minkowski_additive(n: int, lam, mu) -> bool:
    """Support vectors of GZ polytopes add: h_{GZ(l+m)} = h_{GZ l} + h_{GZ m}.

    Checked on support values at a fixed ray set (all +-coordinate vectors),
    which pins the polytopes since GZ bodies share their normal fan on the
    open chamber.
    """
    big_n = n * (n - 1) // 2
    p_l = gz_polytope(n, lam).polytope
    p_m = gz_polytope(n, mu).polytope
    p_s = gz_polytope(n, [a + b for a, b in zip(lam, mu)]).polytope
    dirs = [
        tuple(int(i == j) * s for j in range(big_n))
        for i in range(big_n)
        for s in (1, -1)
    ]
    from toricbundle.polyhedral import dot

    for d in dirs:
        hl = max(dot(v, d) for v in p_l.vertices)
        hm = max(dot(v, d) for v in p_m.vertices)
        hs = max(dot(v, d) for v in p_s.vertices)
        if hl + hm != hs:
            return False
    return True


# ---------------------------------------------------------------------------
# flag bundle specs and the Brion-Kazarnovskii identity
# ---------------------------------------------------------------------------


def flag_bundle_spec(n: int, fan: Fan, lam_basis=None, name="") -> BundleSpec:
    """Toric bundle over SL_n/B with torus lattice the span of lam_basis.

    ``lam_basis``: rows = basis of the sublattice, in fundamental
    coordinates; defaults to the full weight lattice (identity).  The Chern
    map is the inclusion composed with the Borel isomorphism.
    """
    flag = base_flag_sl(n)
    if lam_basis is None:
        lam_basis = [
            [int(i == j) for j in range(n - 1)] for i in range(fan.dim)
        ]
    chern = tuple(flag.weight_class(row) for row in lam_basis)
    base = BaseData(flag.base.algebra, flag.base.orientation, chern)
    return BundleSpec(base, fan, name or f"flag_sl{n}")


def brion_kazarnovskii_check(
    n: int,
    fan: Fan,
    delta: VirtualPolytope,
    lam_basis=None,
    shift=None,
    sr_report: RingReport | None = None,
    spec: BundleSpec | None = None,
):
    """rho-bar(Delta)^{rk+N} against (rk+N)! int_Delta f_W, both exact.

    ``delta`` lives on a fan in the sublattice's own coordinates, ``shift``
    is an optional translation in fundamental coordinates (a degree-2 class
    of the flag base under the Borel identification).
    """
    spec = spec or flag_bundle_spec(n, fan, lam_basis)
    if lam_basis is None:
        lam_basis = [
            [int(i == j) for j in range(n - 1)] for i in range(fan.dim)
        ]
    big_n = n * (n - 1) // 2
    rep = sr_report or ring_via_sr(spec)

    rho = list(rho_class(spec, rep, delta))
    if shift is not None:
        flag_cls = [Fraction(0)] * spec.base.algebra.dim(2)
        for t, c in enumerate(shift):
            for u, x in enumerate(_flag_gen_class(spec, t)):
                flag_cls[u] += Fraction(c) * x
        pg = pullback_class(spec, rep, 2, tuple(flag_cls))
        rho = [a + b for a, b in zip(rho, pg)]
    exponent = fan.dim + big_n
    deg, vec = rep.algebra.power_of_element(2, tuple(rho), exponent)
    lhs = rep.functional.of(spec.top_degree, vec)

    fw = weyl_top_polynomial_sl(n)
    yvars = tuple(f"y{j + 1}" for j in range(fan.dim))
    images = []
    for t in range(n - 1):
        coeffs = [Fraction(lam_basis[j][t]) for j in range(fan.dim)]
        const = Fraction(shift[t]) if shift is not None else Fraction(0)
        images.append(QPolynomial.linear_form(yvars, coeffs, const=const))
    fw_restricted = fw.substitute(images)
    rhs = factorial(exponent) * integral_over_virtual(
        spec.fan, fw_restricted, delta
    )
    return lhs, rhs, lhs == rhs


def _flag_gen_class(spec: BundleSpec, t: int) -> Vec:
    """Degree-2 class of the t-th fundamental weight inside the base algebra
    (the base of a flag bundle stores them as its degree-2 basis)."""
    return _unit(spec.base.algebra.dim(2), t)


def string_lift_volume(n: int, fan: Fan, delta: VirtualPolytope) -> Fraction:
    """Lifted Gelfand-Zetlin volume over a chamber-interior polytope.

    Two pipelines, checked equal (``VerificationFailed`` otherwise): the
    weighted integral int_Delta f_W, and the honest volume of
    {(x, y) : x in Delta, y in GZ(x)} from its combined H-representation.
    """
    if not 2 <= n <= 3:
        raise ValueError("string lift implemented for n = 2, 3")
    p = polytope_from_support(fan, delta)
    if any(any(c <= 0 for c in v) for v in p.vertices):
        raise ChamberViolation("polytope leaves the open positive chamber")
    fw = weyl_top_polynomial_sl(n)
    direct = integrate_over_polytope(fw, p)

    rank = n - 1
    big_n = n * (n - 1) // 2
    dim = rank + big_n
    halfspaces = []
    for i, ray in enumerate(fan.rays):
        normal = [Fraction(x) for x in ray] + [Fraction(0)] * big_n
        halfspaces.append((normal, delta.h[i]))
    # partition coordinates of x: lambda'_c = x_c + ... + x_{rank-1}
    idx = {}
    pos = rank
    for r in range(1, n):
        for c in range(n - r):
            idx[(r, c)] = pos
            pos += 1

    def lamp_row(c):
        row = [Fraction(0)] * dim
        for t in range(c, rank):
            row[t] = Fraction(1)
        return row

    for r in range(1, n):
        for c in range(n - r):
            up_le = [Fraction(0)] * dim
            up_le[idx[(r, c)]] = Fraction(1)
            up_ge = [Fraction(0)] * dim
            up_ge[idx[(r, c)]] = Fraction(-1)
            if r == 1:
                for t, v in enumerate(lamp_row(c)):
                    up_le[t] -= v
                for t, v in enumerate(lamp_row(c + 1)):
                    up_ge[t] += v
            else:
                up_le[idx[(r - 1, c)]] -= 1
                up_ge[idx[(r - 1, c + 1)]] += 1
            halfspaces.append((up_le, Fraction(0)))
            halfspaces.append((up_ge, Fraction(0)))
    lifted = Polytope.from_halfspaces(halfspaces, dim)
    lifted_vol = volume(lifted)
    if direct != lifted_vol:
        raise VerificationFailed(f"lift mismatch: {direct} vs {lifted_vol}")
    return direct


# ---------------------------------------------------------------------------
# projective bundles
# ---------------------------------------------------------------------------


def projective_bundle_spec(base: BaseData, degrees, name="") -> BundleSpec:
    """P(L_1 + ... + L_n + O) over the base, deg L_i = degrees[i] times the
    first degree-2 generator."""
    n = len(degrees)
    h = _unit(base.algebra.dim(2), 0)
    chern = tuple(
        tuple(Fraction(d) * x for x in h) for d in degrees
    )
    spec_base = BaseData(base.algebra, base.orientation, chern)
    return BundleSpec(spec_base, fan_projective_space(n), name)


def projective_bundle_check(base: BaseData, degrees) -> bool:
    """Whitney relation t^{n+1} + sum c_i t^{n+1-i} = 0 in the SR ring."""
    spec = projective_bundle_spec(base, degrees)
    n = len(degrees)
    rep = ring_via_sr(spec)
    alg = rep.algebra

    # Chern classes of the rank-(n+1) sum: elementary symmetric polynomials
    # of the line-bundle classes, computed inside the base algebra
    r = base.algebra
    elem: list[tuple[int, Vec]] = [(0, (Fraction(1),))]
    for d in degrees:
        col = tuple(Fraction(d) * x for x in _unit(r.dim(2), 0))
        new = []
        for i in range(len(elem) + 1):
            deg = 2 * i
            vec = list((Fraction(0),) * r.dim(deg)) if deg <= r.top else []
            if i < len(elem):
                for t, c in enumerate(elem[i][1]):
                    if t < len(vec):
                        vec[t] += c
            if i > 0 and 2 * i <= r.top:
                pdeg, pvec = elem[i - 1]
                prod = r.multiply(pdeg, pvec, 2, col)
                for t, c in enumerate(prod):
                    vec[t] += c
            new.append((deg, tuple(vec)))
        elem = new

    t_cls = rep.generator_classes[spec.x_names[n]][1]
    total_deg = 2 * (n + 1)
    deg_t, pow_t = alg.power_of_element(2, t_cls, n + 1)
    acc = list(pow_t)
    for i in range(1, n + 2):
        if i >= len(elem):
            continue  # c_{n+1}(V + O) = 0: the trivial summand kills it
        cdeg, cvec = elem[i]
        if cdeg > r.top or not any(cvec):
            continue
        pg = pullback_class(spec, rep, cdeg, cvec)
        dt, tp = alg.power_of_element(2, t_cls, n + 1 - i)
        prod = alg.multiply(dt, tp, cdeg, pg)
        for t, c in enumerate(prod):
            acc[t] += c
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

BASES = {
    "point": base_point,
    "p1": lambda: base_projective(1),
    "p2": lambda: base_projective(2),
    "flag_sl2": lambda: base_flag_sl(2).base,
    "flag_sl3": lambda: base_flag_sl(3).base,
    "flag_sl4": lambda: base_flag_sl(4).base,
}
