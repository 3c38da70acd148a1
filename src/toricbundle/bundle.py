"""Toric-bundle specifications, the three ring builders, and the identity
checks between them.

A bundle is specified by the cohomology of its base (a Poincare-dual graded
algebra R with orientation), a first-Chern map sending each lattice
generator of the torus character lattice to a degree-2 class of R, and a
smooth projective simplicial fan for the fiber.  The ring of the total
space is then built three independent ways:

* ``ring_via_sr``: quotient of R[x_1..x_s] by the Stanley-Reisner ideal of
  the fan plus the linear relations c(lambda) = sum <e_i, lambda> x_i;
* ``ring_via_sd``: quotient of the free truncated R[x_1..x_s] (a
  ``galg.FreeAlgebra``, which stores no products) by the radical of the
  Frobenius form of the intersection functional, whose top-degree values
  are mixed integrals scaled by the (n+i)!/i! factor that converts a
  polarized integral into an intersection number.  The radical comes from
  the top degree down on the x_i and the base generators;
* ``ring_via_diff``: differential operators modulo the annihilator of the
  self-intersection polynomial (for bases generated in degree 2).

``sr`` and ``sd`` are two quotients of one free algebra, so
``cross_validate`` checks that the radical equals the Sankaran-Uma ideal
and then that the two reports are equal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, comb

from toricbundle.errors import (
    AnchorFailure,
    DegreeMismatch,
    FanError,
    NotConvex,
    NotDegree2Generated,
    VerificationFailed,
)
from toricbundle.exactlin import QMatrix, rref, solve
from toricbundle.galg import (
    AnnModel,
    FreeAlgebra,
    GradedAlgebra,
    PresentedAlgebra,
    QuotientModel,
    TopFunctional,
    _unit,
    ann_quotient,
    ann_top_functional,
    build_quotient,
    check_poincare,
    graded_isomorphic,
    product_keys,
    sd_quotient,
)
from toricbundle.integrate import (
    i_f_polynomial,
    integral_over_virtual,
    mixed_integral,
)
from toricbundle.polyhedral import (
    AffineVirtualPolytope,
    Fan,
    VirtualPolytope,
    dot,
    is_complete,
    is_convex_on,
    is_projective,
    is_smooth,
)
from toricbundle.qpoly import QPolynomial, monomials_of_degree

Vec = tuple[Fraction, ...]


@dataclass(frozen=True)
class BaseData:
    """Cohomology model of the base: algebra, orientation, Chern matrix.

    ``chern[j]`` is the degree-2 coefficient vector of the image of the j-th
    lattice generator of the torus character lattice.
    """

    algebra: GradedAlgebra
    orientation: TopFunctional
    chern: tuple[Vec, ...]

    def __post_init__(self):
        if self.orientation.degree != self.algebra.top:
            raise DegreeMismatch("orientation must live in the top degree")
        if not check_poincare(self.algebra, self.orientation):
            raise DegreeMismatch("base algebra fails Poincare duality")
        object.__setattr__(
            self,
            "chern",
            tuple(tuple(Fraction(x) for x in col) for col in self.chern),
        )
        for col in self.chern:
            if len(col) != self.algebra.dim(2):
                raise DegreeMismatch("chern column is not a degree-2 class")

    @property
    def k(self) -> int:
        return self.algebra.top


@dataclass(frozen=True)
class BundleSpec:
    base: BaseData
    fan: Fan
    name: str = ""

    def __post_init__(self):
        if self.fan.dim != len(self.base.chern):
            raise DegreeMismatch("fan dimension != number of chern columns")
        if not is_smooth(self.fan):
            raise FanError("fan must be smooth")
        if not is_complete(self.fan):
            raise FanError("fan must be complete")
        if not is_projective(self.fan)[0]:
            raise FanError("fan must be projective")

    @property
    def n(self) -> int:
        return self.fan.dim

    @property
    def k(self) -> int:
        return self.base.k

    @property
    def top_degree(self) -> int:
        return self.k + 2 * self.n

    @property
    def x_names(self) -> tuple[str, ...]:
        return tuple(f"x{i + 1}" for i in range(self.fan.nrays))

    @property
    def x_vars(self) -> tuple[str, ...]:
        return tuple(f"x{i + 1}" for i in range(self.n))


@dataclass
class RingReport:
    builder: str
    algebra: GradedAlgebra
    functional: TopFunctional
    generator_classes: dict[str, tuple[int, Vec]]
    model: object

    def dims(self):
        return self.algebra.dims()


# ---------------------------------------------------------------------------
# the integrand family f_gamma
# ---------------------------------------------------------------------------


def _chern_power(base: BaseData, xvars, columns, i: int):
    """c(x)^i as a dict: degree-2i basis index -> polynomial coefficient."""
    r = base.algebra
    cur = {0: QPolynomial.constant(xvars, 1)}
    deg = 0
    for _ in range(i):
        nxt: dict[int, QPolynomial] = {}
        for u, poly in cur.items():
            for j, col in enumerate(columns):
                xj = QPolynomial.variable(xvars, j)
                for w, cw in enumerate(col):
                    if not cw:
                        continue
                    for t, cp in r.product_pairs(2, w, deg, u):
                        term = (cw * cp) * (xj * poly)
                        nxt[t] = nxt.get(t, QPolynomial.zero(xvars)) + term
        cur = nxt
        deg += 2
    return cur


def f_gamma(spec: BundleSpec, gamma: Vec, i: int) -> QPolynomial:
    """The degree-i polynomial x |-> ell_B(c(x)^i * gamma).

    ``gamma`` is a coefficient vector in degree k - 2i of the base algebra.
    """
    base = spec.base
    gdeg = base.k - 2 * i
    if gdeg < 0 or len(gamma) != base.algebra.dim(gdeg):
        raise DegreeMismatch("gamma must have degree k - 2i")
    power = _chern_power(base, spec.x_vars, base.chern, i)
    out = QPolynomial.zero(spec.x_vars)
    for t, poly in power.items():
        et = _unit(base.algebra.dim(2 * i), t)
        prod = base.algebra.multiply(2 * i, et, gdeg, gamma)
        out = out + base.orientation.of(base.k, prod) * poly
    return out


# ---------------------------------------------------------------------------
# intersection functionals on the free algebra
# ---------------------------------------------------------------------------


def _free_algebra(spec: BundleSpec) -> FreeAlgebra:
    """R[x_1..x_s] up to the top degree, the carrier of ``ring_via_sd``."""
    return FreeAlgebra(spec.base.algebra, spec.x_names, spec.top_degree)


def _monomial_values(spec: BundleSpec, scaled: bool):
    """ell on the top-degree free monomials, from I_f-polynomial coefficients.

    The polarization of a homogeneous degree-m polynomial p = sum c_a h^a at
    the coordinate virtual polytopes with multiset b is b! c_b / m!; the
    intersection-number ("scaled") variant multiplies by (n+i)!/i! = m!/i!.
    """
    base = spec.base
    n, k = spec.n, spec.k
    values: dict[tuple[int, int, tuple[int, ...]], Fraction] = {}
    for gdeg in range(0, k + 1, 2):
        if base.algebra.dim(gdeg) == 0:
            continue
        i = (k - gdeg) // 2
        m = n + i
        for ridx in range(base.algebra.dim(gdeg)):
            gamma = _unit(base.algebra.dim(gdeg), ridx)
            f = f_gamma(spec, gamma, i)
            if not f:
                poly = None
            else:
                poly = i_f_polynomial(spec.fan, f)
            for beta_key in monomials_of_degree(spec.fan.nrays, m):
                if poly is None:
                    val = Fraction(0)
                else:
                    bfact = 1
                    for e in beta_key:
                        bfact *= factorial(e)
                    val = poly.coefficient(beta_key) * bfact
                    val /= factorial(i) if scaled else factorial(m)
                values[(gdeg, ridx, beta_key)] = val
    return values


def _functional_from_values(free: FreeAlgebra, degree: int, values):
    return TopFunctional(
        free, degree, tuple(values[m] for m in free.monomials[degree])
    )


def ell_functional(spec: BundleSpec) -> TopFunctional:
    """Plain polarized mixed integrals on top-degree free monomials.

    Values are I_gamma polarized at coordinate virtual polytopes; see
    ``intersection_functional`` for the variant carrying the BKK factors
    (the two agree up to a global n! for a point base).
    """
    return _functional_from_values(
        _free_algebra(spec), spec.top_degree, _monomial_values(spec, scaled=False)
    )


def intersection_functional(spec: BundleSpec, free: FreeAlgebra) -> TopFunctional:
    """Fundamental-class pairing on free top monomials: (n+i)!/i! * I-polarized."""
    return _functional_from_values(
        free, spec.top_degree, _monomial_values(spec, scaled=True)
    )


# ---------------------------------------------------------------------------
# ring builders
# ---------------------------------------------------------------------------


def _leray_hirsch_dim(spec: BundleSpec) -> int:
    return spec.base.algebra.total_dim() * len(spec.fan.max_cones)


def ring_via_sd(spec: BundleSpec) -> RingReport:
    """Self-dual quotient of the free algebra by I(L_ell)."""
    free = _free_algebra(spec)
    ell = intersection_functional(spec, free)
    sd = sd_quotient(free, ell)
    if sd.algebra.total_dim() != _leray_hirsch_dim(spec):
        raise VerificationFailed("Leray-Hirsch dims")
    gens = _generator_classes_quotient(
        spec, lambda *element: sd.project(*free.element(*element))
    )
    return RingReport("sd", sd.algebra, sd.functional, gens, (free, sd))


def sr_presentation(spec: BundleSpec) -> PresentedAlgebra:
    """The Sankaran-Uma presentation, truncated at the next even degree above
    the top so that the quotient shows it vanishes there."""
    base = spec.base
    relations = []
    for nf in _minimal_nonfaces(spec.fan):
        beta = tuple(int(i in nf) for i in range(spec.fan.nrays))
        relations.append({beta: (0, (Fraction(1),))})
    for t in range(spec.n):
        rel = {}
        if any(base.chern[t]):
            rel[(0,) * spec.fan.nrays] = (2, base.chern[t])
        for i, ray in enumerate(spec.fan.rays):
            if ray[t]:
                beta = tuple(int(j == i) for j in range(spec.fan.nrays))
                rel[beta] = (0, (Fraction(-ray[t]),))
        relations.append(rel)
    return PresentedAlgebra(
        base.algebra, spec.x_names, tuple(relations), spec.top_degree + 2
    )


def _minimal_nonfaces(fan: Fan):
    import itertools

    nonfaces = []
    for size in range(2, fan.dim + 2):
        for subset in itertools.combinations(range(fan.nrays), size):
            if fan.spans_cone(subset):
                continue
            if any(set(nf) <= set(subset) for nf in nonfaces):
                continue
            nonfaces.append(subset)
    return nonfaces


def ring_via_sr(spec: BundleSpec) -> RingReport:
    """Stanley-Reisner / Sankaran-Uma quotient with point-class normalization."""
    model = build_quotient(sr_presentation(spec))
    alg = model.algebra
    if alg.top != spec.top_degree:
        raise VerificationFailed("sr quotient does not vanish above the top")
    if alg.total_dim() != _leray_hirsch_dim(spec):
        raise VerificationFailed("sr quotient has the wrong Leray-Hirsch dimension")
    if alg.dim(spec.top_degree) != 1:
        raise VerificationFailed("sr quotient has a top degree of dimension != 1")

    ell = _sr_top_functional(spec, model)
    if not check_poincare(alg, ell):
        raise VerificationFailed("sr quotient not Poincare")
    gens = _generator_classes_quotient(spec, model.class_of)
    return RingReport("sr", alg, ell, gens, model)


def _sr_top_functional(spec: BundleSpec, model: QuotientModel) -> TopFunctional:
    """Normalize: the class dual to a point evaluates to 1.

    The point class is (ell_B-normalized top class of R) * prod_{i in sigma}
    x_i for a maximal cone sigma; all cones must give the same class.
    """
    top = spec.top_degree
    ells = spec.base.orientation.values
    u0 = next(u for u, v in enumerate(ells) if v)
    t_top = tuple(1 / v if u == u0 else 0 for u, v in enumerate(ells))
    classes = [
        model.class_of((int(i in cone) for i in range(spec.fan.nrays)), spec.k, t_top)
        for cone in spec.fan.max_cones
    ]
    if any(c != classes[0] for c in classes):
        raise VerificationFailed("point class depends on the cone")
    (coeff,) = classes[0]
    if coeff == 0:
        raise VerificationFailed("point class vanishes")
    return TopFunctional(model.algebra, top, (1 / coeff,))


def _generator_classes_quotient(spec, class_of):
    """Classes of x_i and of the base degree-2 basis, in report coordinates,
    from ``class_of(beta, gdeg, gamma)``, the class of p^*(gamma) * x^beta."""
    s = spec.fan.nrays
    out = {
        name: (2, class_of(tuple(int(j == i) for j in range(s))))
        for i, name in enumerate(spec.x_names)
    }
    dim2 = spec.base.algebra.dim(2)
    for u, label in enumerate(spec.base.algebra.labels.get(2, ())):
        out[f"base:{label}"] = (2, class_of((0,) * s, 2, _unit(dim2, u)))
    return out


# ---------------------------------------------------------------------------
# cross-validation
# ---------------------------------------------------------------------------


class CrossValidation:
    """Truthy result object carrying the first mismatch, if any."""

    def __init__(self, ok: bool, detail: str = ""):
        self.ok = ok
        self.detail = detail

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return f"CrossValidation(ok={self.ok}, detail={self.detail!r})"


def cross_validate(spec: BundleSpec) -> CrossValidation:
    """ring_via_sd against ring_via_sr: one quotient of one free algebra.

    The two builders run independently.  The paper's theorem is that the
    radical of the Frobenius form equals the Sankaran-Uma ideal, and that is
    checked first, degree by degree, as subspaces of the free algebra
    R[x_1..x_s].  Two quotients of one free algebra by the same subspaces
    must then give equal reports, so the rest is equality, field by field:
    graded dimensions, basis labels, structure constants in
    ``product_keys`` order, the top functionals (each under its own
    normalization: the sd one from mixed integrals, the sr one from the
    point class) and the generator classes.  The first difference is
    reported.
    """
    sd_rep = ring_via_sd(spec)
    sr_rep = ring_via_sr(spec)
    sd = sd_rep.model[1]
    sr_model: QuotientModel = sr_rep.model

    for d in range(0, spec.top_degree + 1, 2):
        # both are primitive integer RREF rows, unique for each subspace
        rad_rows = sd.reducers[d].int_rows() if d in sd.reducers else ()
        if rad_rows != sr_model.reducers[d].int_rows():
            return CrossValidation(
                False, f"degree {d}: radical != Stanley-Reisner ideal"
            )

    a, b = sd_rep.algebra, sr_rep.algebra
    if a.dims() != b.dims():
        return CrossValidation(False, f"graded dims differ: {a.dims()} vs {b.dims()}")
    for d, labels in a.labels.items():
        if labels != b.labels[d]:
            return CrossValidation(
                False, f"basis labels differ in degree {d}: {labels} vs {b.labels[d]}"
            )
    for key in product_keys(a.labels):
        if a.product_pairs(*key) != b.product_pairs(*key):
            da, i, db, j = key
            return CrossValidation(
                False,
                f"structure constant ({da},{i})*({db},{j}): "
                f"{a.basis_product(*key)} vs {b.basis_product(*key)}",
            )
    (v_sd,), (v_sr,) = sd_rep.functional.values, sr_rep.functional.values
    if v_sd != v_sr:
        top = a.labels[spec.top_degree][0]
        return CrossValidation(
            False, f"top functional mismatch: {v_sd} vs {v_sr} on {top}"
        )
    for name, cls in sd_rep.generator_classes.items():
        if cls != sr_rep.generator_classes[name]:
            return CrossValidation(
                False,
                f"generator class {name} mismatch: "
                f"{cls} vs {sr_rep.generator_classes[name]}",
            )
    return CrossValidation(True)


# ---------------------------------------------------------------------------
# BKK identities
# ---------------------------------------------------------------------------


def rho_class(spec: BundleSpec, report: RingReport, delta: VirtualPolytope) -> Vec:
    """rho(Delta) = sum h_i [D_i] as a degree-2 class of the report ring."""
    dim2 = report.algebra.dim(2)
    out = [Fraction(0)] * dim2
    for i, name in enumerate(spec.x_names):
        d, vec = report.generator_classes[name]
        for t, c in enumerate(vec):
            out[t] += delta.h[i] * c
    return tuple(out)


def pullback_class(spec: BundleSpec, report: RingReport, gdeg: int, gamma) -> Vec:
    """p^*(gamma) for a base class given by a degree-gdeg coefficient vector."""
    if report.builder != "sr":
        raise ValueError("pullback classes are read off the sr model")
    return report.model.class_of((0,) * spec.fan.nrays, gdeg, gamma)


def verify_bkk(
    spec: BundleSpec,
    gamma: Vec,
    i: int,
    delta: VirtualPolytope,
    sr_report: RingReport | None = None,
) -> tuple[Fraction, Fraction, bool]:
    """(n+i)! I_gamma(Delta) against i! F_gamma(Delta), both exact.

    The left side is the diagonal polarization of the mixed integral of
    f_gamma; the right side is computed inside the Stanley-Reisner ring as
    i! * ell(rho(Delta)^{n+i} * p^*(gamma)).
    """
    n = spec.n
    if spec.k - 2 * i < 0 or len(gamma) != spec.base.algebra.dim(spec.k - 2 * i):
        raise DegreeMismatch("gamma must have degree k - 2i")
    f = f_gamma(spec, gamma, i)
    lhs = factorial(n + i) * mixed_integral(spec.fan, f, [delta] * (n + i))

    rep = sr_report or ring_via_sr(spec)
    rho = rho_class(spec, rep, delta)
    deg, vec = rep.algebra.power_of_element(2, rho, n + i)
    pg = pullback_class(spec, rep, spec.k - 2 * i, gamma)
    prod = rep.algebra.multiply(deg, vec, spec.k - 2 * i, pg)
    rhs = factorial(i) * rep.functional.of(spec.top_degree, prod)
    return lhs, rhs, lhs == rhs


def horizontal_part(
    spec: BundleSpec,
    delta: VirtualPolytope,
    i: int,
    sr_report: RingReport | None = None,
) -> Vec:
    """b_{2i} = (n+i)!/i! * int_Delta c(x)^i, verified by its adjunction."""
    base = spec.base
    n = spec.n
    if 2 * i > spec.k:
        raise DegreeMismatch("2i exceeds the base dimension")
    power = _chern_power(base, spec.x_vars, base.chern, i)
    scale = Fraction(factorial(n + i), factorial(i))
    b = [Fraction(0)] * base.algebra.dim(2 * i)
    for t, poly in power.items():
        b[t] = scale * integral_over_virtual(spec.fan, poly, delta)
    b = tuple(b)

    rep = sr_report or ring_via_sr(spec)
    rho = rho_class(spec, rep, delta)
    deg, vec = rep.algebra.power_of_element(2, rho, n + i)
    gdeg = spec.k - 2 * i
    for u in range(base.algebra.dim(gdeg)):
        eta = _unit(base.algebra.dim(gdeg), u)
        pg = pullback_class(spec, rep, gdeg, eta)
        lhs = rep.functional.of(
            spec.top_degree, rep.algebra.multiply(deg, vec, gdeg, pg)
        )
        rhs = base.orientation.of(
            spec.k, base.algebra.multiply(2 * i, b, gdeg, eta)
        )
        if lhs != rhs:
            raise VerificationFailed(
                f"horizontal part fails adjunction at eta index {u}"
            )
    return b


def self_intersection(
    spec: BundleSpec,
    bar_delta: AffineVirtualPolytope,
    sr_report: RingReport | None = None,
) -> Fraction:
    """rho-bar(Delta)^{n+s} two ways: in the ring and by binomial integrals."""
    s = spec.k // 2
    n = spec.n
    delta0 = bar_delta.virtual
    gamma = bar_delta.shift
    if len(gamma) != spec.base.algebra.dim(2):
        raise DegreeMismatch("shift must be a degree-2 base class")

    rep = sr_report or ring_via_sr(spec)
    rho = list(rho_class(spec, rep, delta0))
    pg = pullback_class(spec, rep, 2, gamma) if any(gamma) else None
    if pg is not None:
        rho = [a + b for a, b in zip(rho, pg)]
    deg, vec = rep.algebra.power_of_element(2, tuple(rho), n + s)
    route_ring = rep.functional.of(spec.top_degree, vec)

    total = Fraction(0)
    gpow_deg, gpow = 0, (Fraction(1),)
    for i in range(s + 1):
        f = f_gamma(spec, gpow, s - i)
        term = integral_over_virtual(spec.fan, f, delta0) if f else Fraction(0)
        total += comb(s, i) * term
        gpow_deg, gpow = (
            gpow_deg + 2,
            spec.base.algebra.multiply(gpow_deg, gpow, 2, gamma),
        )
    route_integral = Fraction(factorial(n + s), factorial(s)) * total

    if route_ring != route_integral:
        raise VerificationFailed(
            f"self-intersection disagreement: {route_ring} vs {route_integral}"
        )
    return route_ring


# ---------------------------------------------------------------------------
# differential-operator builder
# ---------------------------------------------------------------------------


def complement_basis(base: BaseData) -> list[int]:
    """Degree-2 standard basis positions complementing the chern image."""
    if not base.chern or not any(any(c) for c in base.chern):
        pivots = ()
    else:
        _, pivots = rref(QMatrix([list(c) for c in base.chern]))
    return [u for u in range(base.algebra.dim(2)) if u not in set(pivots)]


def self_intersection_polynomial(spec: BundleSpec) -> tuple[QPolynomial, list[int]]:
    """I(h, t) = int_{Delta(h)} ell_B((c(x) + sum t_u u)^s), homogeneous n+s.

    Variables: h_1..h_s for the fiber fan, one t per complement generator of
    the chern image inside the degree-2 part of the base.
    """
    s = spec.k // 2
    comp = complement_basis(spec.base)
    xvars = spec.x_vars + tuple(f"t{u + 1}" for u in range(len(comp)))
    columns = list(spec.base.chern) + [
        _unit(spec.base.algebra.dim(2), u) for u in comp
    ]
    power = _chern_power(spec.base, xvars, columns, s)
    f_ext = QPolynomial.zero(xvars)
    for t, poly in power.items():
        et = _unit(spec.base.algebra.dim(2 * s), t)
        f_ext = f_ext + spec.base.orientation.of(spec.k, et) * poly

    hvars = tuple(f"h{i + 1}" for i in range(spec.fan.nrays))
    allvars = hvars + tuple(f"t{u + 1}" for u in range(len(comp)))
    # split off the t-monomials and integrate each x-part over the fan
    by_tau: dict[tuple[int, ...], QPolynomial] = {}
    nx = spec.n
    for expo, coeff in f_ext.terms.items():
        tau = expo[nx:]
        xpart = QPolynomial(spec.x_vars, {expo[:nx]: coeff})
        by_tau[tau] = by_tau.get(tau, QPolynomial.zero(spec.x_vars)) + xpart
    out = QPolynomial.zero(allvars)
    for tau, fx in by_tau.items():
        ih = i_f_polynomial(spec.fan, fx).embed(allvars)
        tmono = QPolynomial(
            allvars,
            {(0,) * len(hvars) + tau: Fraction(1)},
        )
        out = out + ih * tmono
    return out, comp


def ring_via_diff(spec: BundleSpec) -> RingReport:
    """Diff(P_Sigma + complement)/Ann(I) for degree-2-generated bases."""
    if any(d != 2 for d, _ in spec.base.algebra.generators()):
        raise NotDegree2Generated("base cohomology not generated in degree 2")
    s = spec.k // 2
    n = spec.n
    ipoly, comp = self_intersection_polynomial(spec)
    model = ann_quotient(ipoly, n + s)
    alg = model.algebra
    if alg.total_dim() != _leray_hirsch_dim(spec):
        raise VerificationFailed("diff quotient has the wrong Leray-Hirsch dimension")

    # the honest pairing is (n+s)!/s! times the Ann(I) functional
    ell = ann_top_functional(model).scale(
        Fraction(factorial(n + s), factorial(s))
    )
    if not check_poincare(alg, ell):
        raise VerificationFailed("diff quotient not Poincare")
    gens: dict[str, tuple[int, Vec]] = {}
    nvars = len(ipoly.vars)
    for i, name in enumerate(spec.x_names):
        op = QPolynomial.variable(ipoly.vars, i)
        gens[name] = model.operator_class(op)
    for t, u in enumerate(comp):
        label = spec.base.algebra.labels[2][u]
        op = QPolynomial.variable(ipoly.vars, spec.fan.nrays + t)
        gens[f"base:{label}"] = model.operator_class(op)
    return RingReport("diff", alg, ell, gens, model)


def diff_matches_sr(spec: BundleSpec) -> bool:
    """Graded isomorphism of the operator model with the SR ring.

    The degree-2 map sends the class of d/dh_i to x_i and the class of each
    complement direction to the pullback of the matching base class.
    """
    diff_rep = ring_via_diff(spec)
    sr_rep = ring_via_sr(spec)
    if diff_rep.dims() != sr_rep.dims():
        return False
    model: AnnModel = diff_rep.model
    # the sr generators matching the operator family (h's then t's)
    labels = spec.base.algebra.labels.get(2, ())
    names = list(spec.x_names)
    names += [f"base:{labels[u]}" for u in complement_basis(spec.base)]
    gen_rows = [
        list(sr_rep.generator_classes[names[alpha.index(1)]][1])
        for alpha in model.op_basis[2]
    ]
    return graded_isomorphic(diff_rep.algebra, sr_rep.algebra, gen_rows)


def cherneq_holds(spec: BundleSpec, sr_report: RingReport | None = None) -> bool:
    """p^* c(lambda) = rho(lambda) in the SR ring, per lattice generator."""
    rep = sr_report or ring_via_sr(spec)
    xs = [rep.generator_classes[name][1] for name in spec.x_names]
    base_labels = spec.base.algebra.labels.get(2, ())
    us = [rep.generator_classes[f"base:{label}"][1] for label in base_labels]
    for t in range(spec.n):
        terms = [(ray[t], x) for ray, x in zip(spec.fan.rays, xs)]
        terms += [(-c, u) for c, u in zip(spec.base.chern[t], us)]
        if any(sum(c * v[j] for c, v in terms) for j in range(rep.algebra.dim(2))):
            return False
    return True


def ring_power_derivative_check(
    spec: BundleSpec,
    gamma: Vec,
    i: int,
    delta: VirtualPolytope,
    ray_set,
    sr_report: RingReport | None = None,
) -> bool:
    """d_I of F_gamma in h-coordinates, against the closed form.

    F_gamma(h) = sum_beta multinomial(beta) ell(x^beta p^* gamma) h^beta is
    assembled symbolically from the ring; its square-free derivative must
    vanish off cones and equal (n+i)!/i! f_gamma(dual vertex) on them.
    """
    from toricbundle.polyhedral import dual_vertex

    rep = sr_report or ring_via_sr(spec)
    n, m = spec.n, spec.n + i
    gdeg = spec.k - 2 * i
    hvars = tuple(f"h{j + 1}" for j in range(spec.fan.nrays))
    terms = {}
    for beta in monomials_of_degree(spec.fan.nrays, m):
        coeff = factorial(m)
        for e in beta:
            coeff //= factorial(e)
        val = rep.functional.of(
            spec.top_degree, rep.model.class_of(beta, gdeg, gamma)
        )
        if val:
            terms[beta] = coeff * val
    fpoly = QPolynomial(hvars, terms)
    for j in ray_set:
        fpoly = fpoly.partial(j)
    value = fpoly.evaluate(delta.h)
    if not spec.fan.spans_cone(ray_set):
        return value == 0
    if len(ray_set) != n:
        return True
    a = dual_vertex(spec.fan, tuple(sorted(ray_set)), delta.h)
    f = f_gamma(spec, gamma, i)
    expected = Fraction(factorial(n + i), factorial(i)) * f.evaluate(a)
    return value == expected


# ---------------------------------------------------------------------------
# square-free reduction (independent top-degree evaluator)
# ---------------------------------------------------------------------------


def squarefree_evaluate(
    spec: BundleSpec,
    beta,
    gamma_deg: int = 0,
    gamma: Vec | None = None,
    trace: list | None = None,
) -> Fraction:
    """Evaluate ell(gamma * x^beta) by square-free rewriting.

    Repeatedly trades one power of a repeated variable x_i for the linear
    relation c(chi) = sum <e_j, chi> x_j with chi dual to e_i on the
    monomial's cone, until every term is square-free; cone-spanning
    square-free terms contribute ell_B of their base part.  Independent of
    the row-reduction quotients, so it cross-checks them.
    """
    base = spec.base
    fan = spec.fan
    n = spec.n
    if gamma is None:
        gamma = (Fraction(1),)
        gamma_deg = 0
    beta = tuple(int(b) for b in beta)
    if gamma_deg + 2 * sum(beta) != spec.top_degree:
        raise DegreeMismatch("monomial is not of top degree")

    terms = [(Fraction(1), gamma_deg, tuple(gamma), beta)]
    total = Fraction(0)
    note = trace.append if trace is not None else (lambda s: None)

    while terms:
        coeff, rdeg, rvec, b = terms.pop()
        if not any(rvec):
            continue
        support = tuple(i for i, e in enumerate(b) if e)
        if not fan.spans_cone(support):
            note(f"x^{b}: rays {support} span no cone -> 0")
            continue
        rep_i = next((i for i in support if b[i] > 1), None)
        if rep_i is None:
            # square-free on a cone; top degree forces a full cone
            if len(support) != n or rdeg != spec.k:
                raise VerificationFailed(
                    f"square-free term x^{b} is not a full cone of top degree"
                )
            val = coeff * base.orientation.of(spec.k, rvec)
            note(f"x^{b}: square-free cone {support} -> ell_B "
                 f"contribution {val}")
            total += val
            continue
        # chi with <chi, e_i> = 1 and 0 on the other support rays
        mat = QMatrix([fan.rays[i] for i in support])
        rhs = [Fraction(int(i == rep_i)) for i in support]
        chi = solve(mat, rhs)
        if chi is None:
            raise VerificationFailed(f"no dual vector on the cone {support}")
        b_low = tuple(e - int(i == rep_i) for i, e in enumerate(b))
        cchi = [Fraction(0)] * base.algebra.dim(2)
        for t, c in enumerate(chi):
            if c:
                for u, x in enumerate(base.chern[t]):
                    cchi[u] += c * x
        note(
            f"x^{b}: rewrite x{rep_i + 1} via chi={tuple(chi)}: "
            f"x^{b} = x^{b_low} * (c(chi) - sum_offcone <e_j,chi> xj)"
        )
        if any(cchi):
            new_rvec = base.algebra.multiply(2, tuple(cchi), rdeg, rvec)
            if any(new_rvec):
                terms.append((coeff, rdeg + 2, new_rvec, b_low))
        for j in range(fan.nrays):
            if j in support:
                continue
            pairing = dot(chi, fan.rays[j])
            if pairing:
                bj = tuple(e + int(t == j) for t, e in enumerate(b_low))
                terms.append((-coeff * pairing, rdeg, rvec, bj))
    return total


# ---------------------------------------------------------------------------
# seeded convex test vectors
# ---------------------------------------------------------------------------


def random_convex(fan: Fan, rng: random.Random, width: int = 6) -> VirtualPolytope:
    """Scaled projectivity witness plus a bounded integer perturbation."""
    ok, witness = is_projective(fan)
    if not ok:
        raise NotConvex("fan is not projective: no strictly convex sample")
    for scale in (2, 4, 8, 16, 64, 256):
        h = tuple(
            scale * w + rng.randint(-width, width) for w in witness.h
        )
        vp = VirtualPolytope(fan, h)
        if is_convex_on(fan, vp, strict=True):
            return vp
    raise AnchorFailure("could not produce a convex sample")


def random_virtual(fan: Fan, rng: random.Random, width: int = 5) -> VirtualPolytope:
    return VirtualPolytope(
        fan, tuple(rng.randint(-width, width) for _ in range(fan.nrays))
    )
