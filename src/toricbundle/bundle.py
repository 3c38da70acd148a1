"""Toric-bundle specifications, the three ring builders, and the identity
checks between them.

A bundle is specified by the cohomology of its base (a Poincare-dual graded
algebra R with orientation), a first-Chern map sending each lattice
generator of the torus character lattice to a degree-2 class of R, and a
smooth projective simplicial fan for the fiber.  The ring of the total
space is then built three independent ways:

* ``ring_via_sr``: quotient of R[x_1..x_s] by the Stanley-Reisner ideal of
  the fan plus the linear relations L_t: c(lambda_t) = sum <e_i, lambda_t>
  x_i; ``galg.kept_carrier`` solves the L_t, so ``galg.build_quotient``
  eliminates the monomial relations on the s - n variables they leave;
* ``ring_via_sd``: quotient of the same free algebra of the kept variables
  (a ``galg.FreeAlgebra``, which stores no products) by the radical of the
  Frobenius form of the intersection functional ell, whose top-degree values
  are mixed integrals scaled by the (n+i)!/i! factor that converts a
  polarized integral into an intersection number, kept as one polynomial
  I_gamma per base basis class; each L_t, read as a differential operator,
  is checked to kill them before it is solved;
* ``ring_via_diff``: differential operators modulo the annihilator of the
  self-intersection polynomial (for bases generated in degree 2).

``cross_validate`` checks that the radical equals the Sankaran-Uma ideal as
equal sd and sr reducers in every degree, then compares the two
independently normalised top functionals.  The identity checks read the
rings: ``verify_bkk`` is the BKK identity (n+i)! I_gamma(Delta) =
i! ell(rho(Delta)^(n+i) p^*gamma) for one base class, and
``ring_power_derivative_check`` is the square-free derivative of F_gamma,
assembled from the sr ring, against its closed form.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod
from operator import mul

from toricbundle.errors import (
    AmbiguousLabel,
    AnchorFailure,
    DegreeMismatch,
    FanError,
    NotConvex,
    NotDegree2Generated,
    VerificationFailed,
)
from toricbundle.exactlin import QMatrix, rref, solve
from toricbundle.galg import (
    GradedAlgebra,
    PresentedAlgebra,
    QuotientModel,
    TopFunctional,
    _mono_label,
    _unit,
    ann_quotient,
    ann_top_functional,
    build_quotient,
    check_poincare,
    kept_carrier,
    power_form,
    sd_quotient,
)
from toricbundle.integrate import (
    _ray_indices,
    _require_integrable,
    i_f_polynomial,
    mixed_integral,
)
from toricbundle.polyhedral import (
    Fan,
    VirtualPolytope,
    dot,
    dual_vertex,
    is_convex_on,
    is_projective,
    is_smooth,
)
from toricbundle.qpoly import QPolynomial

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
        if not self.fan.complete:
            raise FanError("fan must be complete")
        if not self.fan.projective[0]:
            raise FanError("fan must be projective")
        # a base label with a fiber generator as one of its '*'-factors
        # would read as that generator in a report or an --expr
        for label in itertools.chain(*self.base.algebra.labels.values()):
            if {f.partition("^")[0] for f in label.split("*")} & set(self.x_names):
                raise AmbiguousLabel(f"base label {label!r} names a fiber generator")

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


def f_gamma(spec: BundleSpec, gamma: Vec, i: int) -> QPolynomial:
    """The degree-i polynomial x |-> ell_B(c(x)^i * gamma), by
    ``galg.power_form`` on the Chern columns.

    ``gamma`` is a coefficient vector in degree k - 2i of the base algebra;
    any other (gamma, i) raises :class:`DegreeMismatch`.
    """
    base = spec.base
    if not isinstance(i, int) or not 0 <= i <= base.k // 2:
        raise DegreeMismatch(f"i = {i!r} is not an int from 0 to k/2")
    gdeg = base.k - 2 * i
    if len(gamma) != base.algebra.dim(gdeg):
        raise DegreeMismatch("gamma must have degree k - 2i")
    return power_form(
        base.algebra, base.orientation, base.chern, spec.x_vars, i, gdeg, gamma
    )


# ---------------------------------------------------------------------------
# intersection functionals on the free algebra
# ---------------------------------------------------------------------------


def intersection_functional(spec: BundleSpec) -> dict:
    """ell as one polynomial per base basis class: (gdeg, ridx) |-> I_gamma
    = I_f / i!, with f = f_gamma for the basis class gamma of degree gdeg =
    k - 2i, in the variables h_1..h_s of :func:`i_f_polynomial`.

    The polarization of a homogeneous degree-m polynomial p = sum c_a h^a at
    the coordinate virtual polytopes with multiset b is b! c_b / m!; the
    intersection number is (n+i)!/i! = m!/i! times it, so
    ell(p^*gamma * x^beta) = beta! [h^beta] I_gamma (:func:`_pairing`).
    """
    alg, k = spec.base.algebra, spec.k
    polys = {}
    for gdeg in range(0, k + 1, 2):
        i = (k - gdeg) // 2
        for ridx in range(alg.dim(gdeg)):
            f = f_gamma(spec, _unit(alg.dim(gdeg), ridx), i)
            polys[(gdeg, ridx)] = Fraction(1, factorial(i)) * i_f_polynomial(spec.fan, f)
    return polys


def _pairing(poly: QPolynomial, beta) -> Fraction:
    """beta! [h^beta] poly: ell(p^*gamma * x^beta) for poly = I_gamma."""
    return poly.coefficient(beta) * prod(map(factorial, beta))


# ---------------------------------------------------------------------------
# ring builders
# ---------------------------------------------------------------------------


def _leray_hirsch_dim(spec: BundleSpec) -> int:
    return spec.base.algebra.total_dim() * len(spec.fan.max_cones)


def ring_via_sd(spec: BundleSpec) -> RingReport:
    """Self-dual quotient by I(L_ell), on the variables the L_t leave.

    ``sd`` shares two inputs with ``sr``: the rays and the Chern data, from
    which :func:`_linear_relations` writes the L_t = p^*c(lambda_t) -
    rho(lambda_t).  It reads neither ``sr``'s output nor its monomial
    relations.  Each L_t, read as a differential operator, must kill the
    I_gamma of :func:`intersection_functional` before it is solved
    (:func:`_check_linear_relations`); the radical then holds the ideal
    (L_t), so quotienting by the L_t first (``galg.kept_carrier``) and
    taking the radical of the induced functional on the kept variables
    gives the same ring.
    """
    polys = intersection_functional(spec)
    relations = _linear_relations(spec)
    _check_linear_relations(spec, relations, polys)
    top = spec.top_degree
    free = kept_carrier(spec.base.algebra, spec.x_names, top, relations)
    values = [_pairing(polys[(d, u)], beta) for d, u, beta in free.monomials[top]]
    sd = sd_quotient(free, TopFunctional(free, top, values))
    if sd.algebra.total_dim() != _leray_hirsch_dim(spec):
        raise VerificationFailed("Leray-Hirsch dims")
    gens = _generator_classes_quotient(
        spec, lambda *element: sd.project(*free.element(*element))
    )
    return RingReport("sd", sd.algebra, sd.functional, gens, (free, sd))


def _check_linear_relations(spec: BundleSpec, relations, polys) -> None:
    """A term c * p^*delta * x^b of L_t, times p^*gamma * x^beta, pairs to
    beta! [h^beta] (c * d^b I_{delta gamma}), and ell is 0 above the top,
    where the base gives no delta gamma.  So L_t is radical exactly when
    sum c * d^b I_{delta gamma} is the zero polynomial for each base basis
    class gamma; otherwise ``VerificationFailed`` names t, the monomial m
    = p^*gamma * x^beta of its first nonzero beta and ell(L_t * m)."""
    r = spec.base.algebra
    for rdeg in range(0, spec.k + 1, 2):
        cases = itertools.product(range(r.dim(rdeg)), enumerate(relations))
        for ridx, (t, rel) in cases:
            image = sum(
                cg * c * _derivative(polys[(rg + rdeg, u)], b)
                for b, (rg, vec) in rel.items()
                for tg, cg in enumerate(vec) if cg
                for u, c in r.product_pairs(rg, tg, rdeg, ridx)
            )
            if image:
                beta = max(image.num)  # lexicographically first
                m = _mono_label(r, spec.x_names, (rdeg, ridx, beta))
                raise VerificationFailed(
                    f"linear relation t={t} is not radical: "
                    f"ell(L_t * {m}) = {_pairing(image, beta)}"
                )


def _derivative(poly: QPolynomial, b) -> QPolynomial:
    """d^b poly: b[j] partial derivatives in the j-th variable."""
    for j in (j for j, e in enumerate(b) for _ in range(e)):
        poly = poly.partial(j)
    return poly


def _linear_relations(spec: BundleSpec) -> list:
    """L_t = p^*c(lambda_t) - sum_i <e_i, lambda_t> x_i for each lattice
    generator lambda_t, as ``galg.Relation`` dicts."""
    s, chern = spec.fan.nrays, spec.base.chern
    relations = []
    for t in range(spec.n):
        rel = {(0,) * s: (2, chern[t])} if any(chern[t]) else {}
        for i, ray in enumerate(spec.fan.rays):
            if ray[t]:
                rel[tuple(int(j == i) for j in range(s))] = (0, (Fraction(-ray[t]),))
        relations.append(rel)
    return relations


def sr_presentation(spec: BundleSpec) -> PresentedAlgebra:
    """The Sankaran-Uma presentation, truncated at the next even degree above
    the top so that the quotient shows it vanishes there."""
    relations = []
    for nf in _minimal_nonfaces(spec.fan):
        beta = tuple(int(i in nf) for i in range(spec.fan.nrays))
        relations.append({beta: (0, (Fraction(1),))})
    relations += _linear_relations(spec)
    return PresentedAlgebra(
        spec.base.algebra, spec.x_names, tuple(relations), spec.top_degree + 2
    )


def _minimal_nonfaces(fan: Fan):
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
    """ring_via_sd against ring_via_sr, two independent quotients of the
    free algebra of the variables that the L_t leave.

    The paper's theorem, radical of the Frobenius form = Sankaran-Uma
    ideal, is the equality of the sd and sr reducers in every degree up to
    the top, each the unique primitive integer RREF of the subspace it
    kills.  Labels, structure constants and generator classes then come
    from the same code over equal inputs; the one independent normalisation
    left is the top functional (sd: mixed integrals, sr: the point class).
    The first difference is reported.
    """
    sd_rep = ring_via_sd(spec)
    sr_rep = ring_via_sr(spec)
    _, sd = sd_rep.model
    for d in range(0, spec.top_degree + 1, 2):
        if sd.reducers.get(d) != sr_rep.model.reducers[d]:
            return CrossValidation(
                False, f"degree {d}: radical != Stanley-Reisner ideal"
            )
    (v_sd,), (v_sr,) = sd_rep.functional.values, sr_rep.functional.values
    if v_sd != v_sr:
        top = sd_rep.algebra.labels[spec.top_degree][0]
        return CrossValidation(
            False, f"top functional mismatch: {v_sd} vs {v_sr} on {top}"
        )
    return CrossValidation(True)


# ---------------------------------------------------------------------------
# BKK identities
# ---------------------------------------------------------------------------


def _require_report(spec: BundleSpec, report: RingReport) -> None:
    """Raises :class:`DegreeMismatch` unless the report has the top degree
    and the fiber generators x_1..x_s of spec."""
    fiber = tuple(n for n in report.generator_classes if not n.startswith("base:"))
    if report.algebra.top != spec.top_degree or fiber != spec.x_names:
        raise DegreeMismatch(f"ring report does not belong to spec {spec.name!r}")


def rho_class(spec: BundleSpec, report: RingReport, delta: VirtualPolytope) -> Vec:
    """rho(Delta) = sum h_i [D_i] as a degree-2 class of the report ring;
    raises :class:`FanError` for a Delta on another fan."""
    _require_integrable(spec.fan, delta)
    _require_report(spec, report)
    classes = [report.generator_classes[name][1] for name in spec.x_names]
    return tuple(sum(map(mul, delta.h, col), Fraction(0)) for col in zip(*classes))


def pullback_class(spec: BundleSpec, report: RingReport, gdeg: int, gamma) -> Vec:
    """p^*(gamma) for a base class given by a degree-gdeg coefficient vector."""
    _require_report(spec, report)
    if report.builder != "sr":
        raise ValueError("pullback classes are read off the sr model")
    return report.model.class_of((0,) * spec.fan.nrays, gdeg, gamma)


def verify_bkk(
    spec: BundleSpec,
    gamma: Vec,
    i: int,
    delta: VirtualPolytope,
    sr_report: RingReport,
) -> tuple[Fraction, Fraction, bool]:
    """(n+i)! I_gamma(Delta) against i! F_gamma(Delta), both exact.

    The left side is the diagonal polarization of the mixed integral of
    f_gamma; the right side is computed inside ``sr_report``, the
    Stanley-Reisner ring of ``spec``, as i! * ell(rho(Delta)^{n+i} *
    p^*(gamma)).
    """
    n = spec.n
    f = f_gamma(spec, gamma, i)
    lhs = factorial(n + i) * mixed_integral(spec.fan, f, [delta] * (n + i))

    rho = rho_class(spec, sr_report, delta)
    deg, vec = sr_report.algebra.power_of_element(2, rho, n + i)
    pg = pullback_class(spec, sr_report, spec.k - 2 * i, gamma)
    prod = sr_report.algebra.multiply(deg, vec, spec.k - 2 * i, pg)
    rhs = factorial(i) * sr_report.functional.of(spec.top_degree, prod)
    return lhs, rhs, lhs == rhs


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
    base, s = spec.base, spec.k // 2
    comp = complement_basis(base)
    xvars = spec.x_vars + tuple(f"t{u + 1}" for u in range(len(comp)))
    columns = list(base.chern) + [_unit(base.algebra.dim(2), u) for u in comp]
    f_ext = power_form(base.algebra, base.orientation, columns, xvars, s, 0, (1,))

    hvars = tuple(f"h{i + 1}" for i in range(spec.fan.nrays))
    allvars = hvars + tuple(f"t{u + 1}" for u in range(len(comp)))
    # split off the t-monomials and integrate each x-part over the fan
    by_tau: dict[tuple[int, ...], dict] = {}
    nx = spec.n
    for expo, c in f_ext.num.items():
        by_tau.setdefault(expo[nx:], {})[expo[:nx]] = c
    out = QPolynomial.zero(allvars)
    for tau, num in by_tau.items():
        fx = QPolynomial.from_numerators(spec.x_vars, num, f_ext.den)
        ih = i_f_polynomial(spec.fan, fx)
        # allvars is hvars then the t's: I_f times t^tau appends tau
        out = out + QPolynomial.from_numerators(
            allvars, {e + tau: c for e, c in ih.num.items()}, ih.den
        )
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
    for i, name in enumerate(spec.x_names):
        op = QPolynomial.variable(ipoly.vars, i)
        gens[name] = model.operator_class(op)
    for t, u in enumerate(comp):
        label = spec.base.algebra.labels[2][u]
        op = QPolynomial.variable(ipoly.vars, spec.fan.nrays + t)
        gens[f"base:{label}"] = model.operator_class(op)
    return RingReport("diff", alg, ell, gens, model)


def ring_power_derivative_check(
    spec: BundleSpec,
    gamma: Vec,
    i: int,
    delta: VirtualPolytope,
    ray_sets,
    sr_report: RingReport,
) -> list[bool]:
    """d_I of F_gamma in h-coordinates, against the closed form, one verdict
    per set I of ``ray_sets``.

    F_gamma(h) = ell((sum_j h_j x_j)^(n+i) p^*gamma) = sum_beta
    multinomial(beta) ell(x^beta p^*gamma) h^beta is built once in the sr
    ring by ``galg.power_form``, after ``f_gamma`` checks (gamma, i); its
    square-free derivative must vanish off cones and equal (n+i)!/i!
    f_gamma(dual vertex) on maximal cones.  A set I that repeats a ray index
    or spans a smaller cone raises ``DegreeMismatch``; an index that names
    no ray, or a Delta on another fan, raises ``FanError`` before any
    derivative is taken.
    """
    ray_sets = [_ray_indices(spec.fan, ray_set) for ray_set in ray_sets]
    _require_integrable(spec.fan, delta)
    f = f_gamma(spec, gamma, i)
    n, gdeg = spec.n, spec.k - 2 * i
    hvars = tuple(f"h{j + 1}" for j in range(spec.fan.nrays))
    xs = [sr_report.generator_classes[name][1] for name in spec.x_names]
    pg = pullback_class(spec, sr_report, gdeg, gamma)
    fpoly = power_form(
        sr_report.algebra, sr_report.functional, xs, hvars, n + i, gdeg, pg
    )
    scale = Fraction(factorial(n + i), factorial(i))
    verdicts = []
    for ray_set in ray_sets:
        derivative = fpoly
        for j in ray_set:
            derivative = derivative.partial(j)
        value = derivative.evaluate(delta.h)
        if not spec.fan.spans_cone(ray_set):
            verdicts.append(value == 0)
            continue
        if len(ray_set) != n:
            raise DegreeMismatch(f"rays {ray_set} span a cone of dimension < {n}")
        a = dual_vertex(spec.fan, ray_set, delta.h)
        verdicts.append(value == scale * f.evaluate(a))
    return verdicts


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
        rhs = [int(i == rep_i) for i in support]
        chi = solve([fan.rays[i] for i in support], rhs)
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


def random_convex(fan: Fan, rng: random.Random) -> VirtualPolytope:
    """Scaled projectivity witness plus an integer perturbation in [-6, 6]."""
    ok, witness = is_projective(fan)
    if not ok:
        raise NotConvex("fan is not projective: no strictly convex sample")
    for scale in (2, 4, 8, 16, 64, 256):
        h = tuple(scale * w + rng.randint(-6, 6) for w in witness.h)
        vp = VirtualPolytope(fan, h)
        if is_convex_on(fan, vp, strict=True):
            return vp
    raise AnchorFailure("could not produce a convex sample")


def random_virtual(fan: Fan, rng: random.Random, width: int = 5) -> VirtualPolytope:
    return VirtualPolytope(
        fan, tuple(rng.randint(-width, width) for _ in range(fan.nrays))
    )
