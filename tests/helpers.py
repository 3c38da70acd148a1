"""Shared test helpers that read package internals, and copies of removed
package routines that tests keep as oracles."""

import itertools
from dataclasses import dataclass
from fractions import Fraction as F
from math import comb, factorial, lcm, perm, prod
from operator import add, le, sub

from toricbundle.bundle import (
    BaseData,
    BundleSpec,
    CrossValidation,
    RingReport,
    _chern_powers,
    _generator_classes_quotient,
    _leray_hirsch_dim,
    complement_basis,
    f_gamma,
    intersection_functional,
    pullback_class,
    rho_class,
    ring_via_diff,
    ring_via_sr,
    sr_presentation,
)
from toricbundle.catalog import (
    fan_projective_space,
    gz_polytope,
    weyl_top_polynomial_sl,
)
from toricbundle.errors import (
    DegreeMismatch,
    DimensionMismatch,
    ToricBundleError,
    VerificationFailed,
)
from toricbundle.exactlin import (
    QMatrix,
    _cleared,
    det_int,
    echelon_int,
    kernel_int,
    rank,
    rref,
)
from toricbundle.galg import (
    FreeAlgebra,
    GradedAlgebra,
    TopFunctional,
    _mono_label,
    _unit,
    graded_isomorphic,
    product_keys,
    sd_quotient,
)
from toricbundle.integrate import (
    _integral,
    i_f_value,
    integral_over_virtual,
    integrate_over_polytope,
    volume,
)
from toricbundle.polyhedral import (
    Fan,
    Polytope,
    VirtualPolytope,
    _scaled_vertices,
    dot,
    is_convex_on,
    polytope_from_support,
    validate_fan,
)
from toricbundle.qpoly import QPolynomial, monomials_of_degree
from toricbundle.serialize import _product_entries, rat


def int_rows(reducer):
    """The primitive integer rows of an ``exactlin.Reducer`` in full column
    coordinates, as ascending (column, int) pairs, in pivot order."""
    keep = reducer.keep
    return tuple(
        tuple(sorted(((p, pv),) + tuple((keep[i], x) for i, x in tail)))
        for p, (pv, tail) in reducer._rows.items()
    )


def det(rows):
    """Exact determinant of a square matrix given by rows of ints and
    Fractions: ``exactlin.det_int`` of the rows cleared of denominators,
    divided by the row scales."""
    rows = [list(row) for row in rows]
    scales = [lcm(*(F(x).denominator for x in row)) for row in rows]
    cleared = [[int(x * m) for x in row] for row, m in zip(rows, scales)]
    return F(det_int(cleared), prod(scales))


def kernel_basis(rows):
    """The right null space of dense rows of ints and Fractions, read off
    ``exactlin.rref``: for each free column j, the vector that is 1 at j and
    -rref[i][j] at the i-th pivot."""
    reduced, pivots = rref(QMatrix(rows))
    basis = []
    for j in range(reduced.cols):
        if j in pivots:
            continue
        v = [F(0)] * reduced.cols
        v[j] = F(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced.entries[i][j]
        basis.append(tuple(v))
    return basis


def affine_dim(points) -> int:
    """The dimension of the affine hull, -1 for no points: one less than the
    rank of the rows (1, D*p), with the points cleared of denominators."""
    return rank([(1, *row) for row in _cleared(list(points))[1]]) - 1


def polytope_from_points(points) -> Polytope:
    """The convex hull of a full-dimensional point set in R^d, with its
    facets found by hyperplane search.

    Every hyperplane through d of the points with all points on one side
    supports a facet; its (normal, bound), scaled so the first nonzero
    entry of the normal is +-1, is kept once.  A point is a vertex when the
    normals of the facets tight at it have rank d, so no LP is solved.
    """
    pts = sorted({tuple(F(x) for x in p) for p in points})
    d = len(pts[0])
    found = {}
    for combo in itertools.combinations(pts, d):
        v0 = combo[0]
        diffs = ([a - b for a, b in zip(p, v0)] for p in combo[1:])
        kernel = kernel_int(map(enumerate, diffs), d)
        if len(kernel) != 1:
            continue
        normal = [kernel[0][1].get(c, 0) for c in range(d)]
        bound = dot(normal, v0)
        sides = {(dot(v, normal) > bound) - (dot(v, normal) < bound) for v in pts}
        if 1 in sides and -1 in sides:
            continue
        if -1 in sides:
            normal = [-x for x in normal]
            bound = -bound
        scale = F(1, abs(next(x for x in normal if x)))
        found[(tuple(x * scale for x in normal), bound * scale)] = None
    halfspaces = tuple(found)
    vertices = tuple(
        v
        for v in pts
        if rank([n for n, b in halfspaces if dot(v, n) == b]) == d
    )
    return Polytope(vertices, halfspaces)


class FractionPolynomial:
    """The polynomial type the package had before ``QPolynomial`` moved to
    integer numerators over one denominator: one ``Fraction`` per term,
    every coefficient rebuilt and re-normalised on each operation."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        self.vars = tuple(vars)
        clean = {}
        for expo, coeff in (terms or {}).items():
            coeff = F(coeff)
            if coeff:
                expo = tuple(int(e) for e in expo)
                if len(expo) != len(self.vars):
                    raise DimensionMismatch("exponent length != variable count")
                clean[expo] = clean.get(expo, F(0)) + coeff
        self.terms = {e: c for e, c in clean.items() if c}

    @classmethod
    def constant(cls, vars, c):
        vars = tuple(vars)
        return cls(vars, {(0,) * len(vars): F(c)})

    def __eq__(self, other):
        return (
            isinstance(other, FractionPolynomial)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for expo in sorted(self.terms, reverse=True):
            c = self.terms[expo]
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v for v, e in zip(self.vars, expo) if e
            )
            bits.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)

    def __add__(self, other):
        if isinstance(other, (int, F)):
            other = FractionPolynomial.constant(self.vars, other)
        if self.vars != other.vars:
            raise DimensionMismatch("polynomials over different variables")
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, F(0)) + c
        return FractionPolynomial(self.vars, terms)

    def __neg__(self):
        return FractionPolynomial(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, F)):
            other = FractionPolynomial.constant(self.vars, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, F)):
            return FractionPolynomial(
                self.vars, {e: c * other for e, c in self.terms.items()}
            )
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, F(0)) + c1 * c2
        return FractionPolynomial(self.vars, terms)

    def __pow__(self, k):
        result = FractionPolynomial.constant(self.vars, 1)
        for _ in range(k):
            result = result * self
        return result

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        return len({sum(e) for e in self.terms}) <= 1

    def homogeneous_part(self, d: int):
        return FractionPolynomial(
            self.vars, {e: c for e, c in self.terms.items() if sum(e) == d}
        )

    def coefficient(self, expo) -> F:
        return self.terms.get(tuple(expo), F(0))

    def evaluate(self, point) -> F:
        total = F(0)
        for expo, coeff in self.terms.items():
            v = coeff
            for x, e in zip(point, expo):
                if e:
                    v *= F(x) ** e
            total += v
        return total

    def partial(self, i: int):
        terms = {}
        for expo, coeff in self.terms.items():
            if expo[i]:
                e = list(expo)
                e[i] -= 1
                terms[tuple(e)] = coeff * expo[i]
        return FractionPolynomial(self.vars, terms)

    def substitute(self, images):
        target = images[0].vars if images else ()
        out = FractionPolynomial(target)
        for expo, coeff in self.terms.items():
            term = FractionPolynomial.constant(target, coeff)
            for img, e in zip(images, expo):
                if e:
                    term = term * img**e
            out = out + term
        return out


def fraction_apply_operator(op: FractionPolynomial, f: FractionPolynomial):
    """:func:`apply_operator` on :class:`FractionPolynomial` terms."""
    out = {}
    for alpha, c in op.terms.items():
        for expo, coeff in f.terms.items():
            if all(map(le, alpha, expo)):
                new = tuple(map(sub, expo, alpha))
                out[new] = out.get(new, 0) + c * coeff * prod(map(perm, expo, alpha))
    return FractionPolynomial(f.vars, out)


def apply_operator(op: QPolynomial, f: QPolynomial) -> QPolynomial:
    """Apply ``op`` read as a constant-coefficient differential operator.

    A term c * x^alpha of ``op`` acts as c * d^alpha/dx^alpha: it takes x^e
    to e!/(e - alpha)! * x^(e - alpha) when alpha <= e, and to 0 otherwise.
    The integer numerators of the result lie over ``op.den * f.den``.
    """
    if op.vars != f.vars:
        raise DimensionMismatch("operator and polynomial over different variables")
    out: dict[tuple[int, ...], int] = {}
    for alpha, c in op.num.items():
        for expo, coeff in f.num.items():
            if all(map(le, alpha, expo)):
                new = tuple(map(sub, expo, alpha))
                out[new] = out.get(new, 0) + c * coeff * prod(map(perm, expo, alpha))
    return QPolynomial.from_numerators(f.vars, out, op.den * f.den)


def column_degree_classes(f: QPolynomial, j: int):
    """``galg._degree_classes`` built column by column, as the package did
    before it read M_j off the terms of f: one :func:`apply_operator` image
    per order-j monomial alpha, every column over f.den."""
    alphas = monomials_of_degree(len(f.vars), j)
    rows: dict[tuple[int, ...], list] = {}
    for t, alpha in enumerate(alphas):
        image = apply_operator(QPolynomial.from_numerators(f.vars, {alpha: 1}), f)
        scale = f.den // image.den
        for e, c in image.num.items():
            rows.setdefault(e, []).append((t, c * scale))
    reduced = echelon_int(rows.values())
    classes = {alpha: () for alpha in alphas}
    for k, (p, row) in enumerate(reduced):
        for t, x in row.items():
            classes[alphas[t]] += ((k, F(x, row[p])),)
    return [alphas[p] for p, _ in reduced], classes


def integrate_over_simplex(f: QPolynomial, simplex) -> F:
    """Exact integral of f over an n-simplex given by n+1 vertices.

    The vertex coordinates (ints or Fractions) are cleared of denominators
    once, s_k = S_k / D with S integer, and ``integrate._integral`` sums the
    Dirichlet moments of the integer simplex.
    """
    if any(len(v) != len(simplex) - 1 for v in simplex):
        raise DimensionMismatch("simplex/polynomial dimension mismatch")
    den, pts = _cleared(simplex)
    return _integral(f, den, [pts])


def cone_vertices(fan: Fan, h) -> list[tuple[F, ...]]:
    """The points A_sigma(h) = sum_j u_{sigma,j} h_{sigma_j} as Fractions,
    one per maximal cone in the order of ``fan.max_cones``: h cleared of
    denominators once, each coordinate one Fraction made from an int of
    ``polyhedral._scaled_vertices``."""
    den, (hint,) = _cleared([h])
    scale, points = _scaled_vertices(fan, hint)
    return [tuple(F(x, scale * den) for x in v) for v in points]


def convex_chain_by_fractions(fan: Fan, f: QPolynomial, delta, ray_set, lams) -> bool:
    """``integrate.convex_chain_identity_check`` on Fractions, for valid
    ray sets: each shifted h is a VirtualPolytope integrated by
    ``i_f_value``, the box corner comes from :func:`cone_vertices` and edge
    i is lambda_i * adj_i / det E_sigma, and corner and edges are cleared
    together for the n! Kuhn simplices."""
    ray_set = tuple(sorted(ray_set))
    lams = [F(x) for x in lams]
    n = fan.dim
    if len(ray_set) != n or len(lams) != n:
        raise DegreeMismatch("need exactly dim-many ray indices and lambdas")
    lhs = F(0)
    for bits in itertools.product((0, 1), repeat=n):
        h = list(delta.h)
        for take, i, lam in zip(bits, ray_set, lams):
            h[i] += take * lam
        vp = VirtualPolytope(fan, tuple(h))
        lhs += (-1) ** (n + sum(bits)) * i_f_value(fan, f, vp)

    if any(lam == 0 for lam in lams) or not fan.spans_cone(ray_set):
        return lhs == 0
    k = fan.max_cones.index(ray_set)
    cone = fan.cone_data[k]
    edges = [[lam * x / cone.det for x in col] for col, lam in zip(cone.adj, lams)]
    den, (corner, *steps) = _cleared([cone_vertices(fan, delta.h)[k]] + edges)
    simplices = []
    for order in itertools.permutations(steps):
        pts = [corner]
        for e in order:
            pts.append(tuple(x + y for x, y in zip(pts[-1], e)))
        simplices.append(pts)
    sign = prod(1 if lam > 0 else -1 for lam in lams)
    return lhs == sign * _integral(f, den, simplices)


class FanTooCoarse(ToricBundleError):
    """The fan does not refine the normal fan of the polytope."""


def support_function(p: Polytope, fan: Fan) -> VirtualPolytope:
    """Support values of p at the fan's rays, with round-trip verification."""
    if is_empty(p):
        raise FanTooCoarse("empty polytope has no support function")
    h = tuple(max(dot(v, ray) for v in p.vertices) for ray in fan.rays)
    vp = VirtualPolytope(fan, h)
    if not is_convex_on(fan, vp):
        raise FanTooCoarse("fan does not refine the normal fan")
    back = polytope_from_support(fan, vp)
    if set(back.vertices) != set(p.vertices):
        raise FanTooCoarse("fan does not refine the normal fan")
    return vp


def octant_fan() -> Fan:
    """The fan of (P^1)^3: one maximal cone per octant."""
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)]
    cones = [(sx, sy, sz) for sx in (0, 3) for sy in (1, 4) for sz in (2, 5)]
    return validate_fan(rays, cones)


def fan_to_dict(fan: Fan) -> dict:
    """The JSON fan object that ``serialize.fan_from_dict`` reads."""
    return {
        "rays": [list(r) for r in fan.rays],
        "max_cones": [list(c) for c in fan.max_cones],
    }


def base_to_dict(base: BaseData) -> dict:
    """The JSON base object that ``serialize.base_from_dict`` reads."""
    alg = base.algebra
    basis = {str(d): list(alg.labels[d]) for d in alg.degrees()}
    orientation = [
        rat(c) + [alg.labels[base.orientation.degree][t]]
        for t, c in enumerate(base.orientation.values)
        if c
    ]
    out = {
        "top_degree": alg.top,
        "basis": basis,
        "products": _product_entries(alg),
        "orientation": orientation,
    }
    if base.chern:
        out["chern"] = [
            [rat(c) + [alg.labels[2][t]] for t, c in enumerate(col) if c]
            for col in base.chern
        ]
    return out


def spec_to_dict(spec: BundleSpec) -> dict:
    """The JSON bundle object that ``serialize.spec_from_dict`` reads."""
    return {"base": base_to_dict(spec.base), "fan": fan_to_dict(spec.fan)}


# -- corollaries of the per-basis BKK identity ---------------------------------


def horizontal_part(
    spec: BundleSpec,
    delta: VirtualPolytope,
    i: int,
    sr_report: RingReport | None = None,
):
    """b_{2i} = (n+i)!/i! * int_Delta c(x)^i, verified by its adjunction:
    ell(rho(Delta)^(n+i) p^*eta) = ell_B(b_{2i} eta) for every basis class
    eta of degree k - 2i, which is the BKK identity at eta."""
    base = spec.base
    n = spec.n
    if 2 * i > spec.k:
        raise DegreeMismatch("2i exceeds the base dimension")
    power = _chern_powers(base, spec.x_vars, base.chern, i)[i]
    scale = F(factorial(n + i), factorial(i))
    b = [F(0)] * base.algebra.dim(2 * i)
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


@dataclass(frozen=True)
class AffineVirtualPolytope:
    """A virtual polytope plus a shift by degree-2 base classes."""

    virtual: VirtualPolytope
    shift: tuple[F, ...]

    def __post_init__(self):
        object.__setattr__(self, "shift", tuple(F(x) for x in self.shift))


def self_intersection(
    spec: BundleSpec,
    bar_delta: AffineVirtualPolytope,
    sr_report: RingReport | None = None,
) -> F:
    """rho-bar(Delta)^{n+s} two ways: in the ring and by binomial integrals,
    the binomial sum of the BKK identity over the powers of the shift."""
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

    total = F(0)
    gpow_deg, gpow = 0, (F(1),)
    for i in range(s + 1):
        f = f_gamma(spec, gpow, s - i)
        term = integral_over_virtual(spec.fan, f, delta0) if f else F(0)
        total += comb(s, i) * term
        gpow_deg, gpow = (
            gpow_deg + 2,
            spec.base.algebra.multiply(gpow_deg, gpow, 2, gamma),
        )
    route_integral = F(factorial(n + s), factorial(s)) * total

    if route_ring != route_integral:
        raise VerificationFailed(
            f"self-intersection disagreement: {route_ring} vs {route_integral}"
        )
    return route_ring


# -- the relation and substitution routines that FreeAlgebra replaced ----------


def rel_degree(rel) -> int:
    """The degree of a homogeneous relation, given as a dict beta ->
    (base degree, base coefficient vector)."""
    return next(rdeg + 2 * sum(beta) for beta, (rdeg, _) in rel.items())


def relation_rows(base, rel, multipliers, column):
    """The rows of mono * rel over the given multiplier monomials, as
    {column: coefficient} maps (empty when the product vanishes).

    The relation is scaled to integer coefficients first, which leaves the
    row space unchanged, so entries stay ints wherever the base structure
    constants are integers.
    """
    scale = lcm(*(cg.denominator for _, vec_g in rel.values() for cg in vec_g))
    terms = [
        (beta_g, rg, tg, cg.numerator * (scale // cg.denominator))
        for beta_g, (rg, vec_g) in rel.items()
        for tg, cg in enumerate(vec_g)
        if cg
    ]
    rows = []
    for rm, im, bm in multipliers:
        row = {}
        for beta_g, rg, tg, cg in terms:
            beta = tuple(map(add, bm, beta_g))
            for tt, cb in base.product_pairs(rm, im, rg, tg):
                col = column[(rm + rg, tt, beta)]
                x = cg * cb.numerator if cb.denominator == 1 else cg * cb
                row[col] = row.get(col, 0) + x
        rows.append(row)
    return rows


def substitute(base, solved, rel):
    """rel with each x_p in ``solved`` replaced by the degree-2 relation
    ``solved[p]``, which holds no solved variable: one power of x_p at a
    time on dense base vectors, like terms merged after each; vanishing
    terms are dropped."""
    cur = dict(rel)
    for p, lin in solved.items():
        while hit := [b for b in cur if b[p]]:
            for beta in hit:
                rdeg, vec = cur.pop(beta)
                lower = beta[:p] + (beta[p] - 1,) + beta[p + 1 :]
                for b2, (r2, v2) in lin.items():
                    v = base.multiply(rdeg, vec, r2, v2)
                    b = tuple(map(add, lower, b2))
                    if b in cur:
                        v = tuple(map(add, cur[b][1], v))
                    cur[b] = (rdeg + r2, v)
    return {b: t for b, t in cur.items() if any(t[1])}


def substituted_element(free, beta, gdeg, gamma) -> dict:
    """``free.element(beta, gdeg, gamma)`` as {column: coefficient}, nonzero,
    by the dense route: ``substitute`` on the element, then the columns of
    its terms, which hold no eliminated variable."""
    base = free.base
    solved = {}
    for p, terms in free.solved.items():
        lin = {}
        for (rdeg, ridx, b), c in terms:
            vec = list(lin.get(b, (rdeg, (F(0),) * base.dim(rdeg)))[1])
            vec[ridx] += c
            lin[b] = (rdeg, tuple(vec))
        solved[p] = lin
    column = free.column[gdeg + 2 * sum(beta)]
    out = {}
    for b, (rdeg, vec) in substitute(base, solved, {beta: (gdeg, gamma)}).items():
        for u, c in enumerate(vec):
            if c:
                out[column[(rdeg, u, b)]] = c
    return out


# -- ring comparisons that cross_validate and the builders replaced ------------


def diff_matches_sr(spec: BundleSpec) -> bool:
    """Graded isomorphism of the operator model with the SR ring.

    The degree-2 map sends the class of d/dh_i to x_i and the class of each
    complement direction to the pullback of the matching base class.
    """
    diff_rep = ring_via_diff(spec)
    sr_rep = ring_via_sr(spec)
    if diff_rep.dims() != sr_rep.dims():
        return False
    # the sr generators matching the operator family (h's then t's)
    labels = spec.base.algebra.labels.get(2, ())
    names = list(spec.x_names)
    names += [f"base:{labels[u]}" for u in complement_basis(spec.base)]
    gen_rows = [
        list(sr_rep.generator_classes[names[alpha.index(1)]][1])
        for alpha in diff_rep.model.op_basis[2]
    ]
    return graded_isomorphic(diff_rep.algebra, sr_rep.algebra, gen_rows)


def radical_holds_relation_multiples(spec, sd_report) -> bool:
    """Every multiple of a Sankaran-Uma relation by a free monomial, in every
    degree up to the top, projects to 0 under the sd reducer of its degree:
    the ideal containment that the radical's equality with the Sankaran-Uma
    ideal implies, checked on the carrier of the sd report."""
    free, sd = sd_report.model
    base = spec.base.algebra
    for d in range(0, spec.top_degree + 1, 2):
        for rel in sr_presentation(spec).relations:
            for rm, im, bm in free.monomials.get(d - rel_degree(rel), []):
                pairs = []
                for beta, (rg, vec) in rel.items():
                    gamma = base.multiply(rm, _unit(base.dim(rm), im), rg, vec)
                    pairs += free.element(tuple(map(add, bm, beta)), rm + rg, gamma)[1]
                if any(sd.reducers[d].pairs(pairs)):
                    return False
    return True


# -- structure-constant tables ---------------------------------------------------


def full_table(alg: GradedAlgebra) -> dict:
    """Every structure constant of ``alg`` as (t, c) pairs, keyed in
    ``product_keys`` order and read through ``product_pairs``: the whole
    table, whether stored or computed on its first read."""
    return {key: alg.product_pairs(*key) for key in product_keys(alg.labels)}


def eager_quotient_algebra(b: GradedAlgebra, reducers) -> GradedAlgebra:
    """``galg._quotient_algebra`` with every product computed up front into
    a stored table, the route the computed table replaced; kept as its
    oracle.  A product is ``reducers[a + e]`` applied to the product in B
    of the kept basis elements."""
    kept = {d: red.keep for d, red in reducers.items() if red.keep}
    labels = {d: tuple(b.labels[d][j] for j in js) for d, js in kept.items()}
    products = {
        (a, i, e, j): reducers[a + e].pairs(
            b.product_pairs(a, kept[a][i], e, kept[e][j])
        )
        for a, i, e, j in product_keys(kept)
    }
    return GradedAlgebra(max(kept), labels, products)


# -- the full-width self-dual route that the kept-variable carrier replaced ---


def full_free_algebra(spec: BundleSpec) -> FreeAlgebra:
    """R[x_1..x_s] up to the top degree, over all the x_i."""
    return FreeAlgebra(spec.base.algebra, spec.x_names, spec.top_degree)


def ell_table(spec: BundleSpec) -> dict:
    """ell on every top-degree free monomial (gdeg, ridx, beta) over all the
    x_i, expanded from the per-class polynomials of
    ``intersection_functional``: beta! times the h^beta coefficient of
    I_gamma.  The table the package built before it kept the polynomials."""
    top, nrays = spec.top_degree, spec.fan.nrays
    return {
        (gdeg, ridx, beta): poly.coefficient(beta) * prod(map(factorial, beta))
        for (gdeg, ridx), poly in intersection_functional(spec).items()
        for beta in monomials_of_degree(nrays, (top - gdeg) // 2)
    }


def full_functional(spec: BundleSpec):
    """(free, ell): the full-width free algebra and the intersection
    functional on its top monomials."""
    free = full_free_algebra(spec)
    values = ell_table(spec)
    top = spec.top_degree
    return free, TopFunctional(free, top, tuple(values[m] for m in free.monomials[top]))


def check_linear_relations_by_monomials(spec: BundleSpec, relations, values) -> None:
    """``bundle._check_linear_relations`` as it was before ell was kept as
    polynomials, kept as its oracle: ell(L_t * m) = 0 for each relation L_t
    and each free monomial m of degree top - 2 over all the x_i, read off
    ``values`` (``ell_table``); otherwise ``VerificationFailed`` names t, m
    and the value."""
    r = spec.base.algebra
    nonzero = {m: v for m, v in values.items() if v}
    for rdeg in range(0, spec.k + 1, 2):
        betas = monomials_of_degree(spec.fan.nrays, (spec.top_degree - 2 - rdeg) // 2)
        cases = itertools.product(range(r.dim(rdeg)), enumerate(relations))
        for ridx, (t, rel) in cases:
            # L_t * p^*(base class ridx) as (beta, [(base degree, index, c)])
            terms = [
                (beta_g, [
                    (rg + rdeg, u, cg * c)
                    for tg, cg in enumerate(vec) if cg
                    for u, c in r.product_pairs(rg, tg, rdeg, ridx)
                ])
                for beta_g, (rg, vec) in rel.items()
            ]
            for beta in betas:
                value = 0
                for beta_g, pairs in terms:
                    b = tuple(map(add, beta, beta_g))
                    for d, u, c in pairs:
                        if v := nonzero.get((d, u, b)):
                            value += c * v
                if value:
                    m = _mono_label(r, spec.x_names, (rdeg, ridx, beta))
                    raise VerificationFailed(
                        f"linear relation t={t} is not radical: "
                        f"ell(L_t * {m}) = {value}"
                    )


def cherneq_holds(spec: BundleSpec, report: RingReport) -> CrossValidation:
    """p^* c(lambda) = rho(lambda) among the generator classes of a report,
    per lattice generator; the detail names the first generator that fails."""
    xs = [report.generator_classes[name][1] for name in spec.x_names]
    base_labels = spec.base.algebra.labels.get(2, ())
    us = [report.generator_classes[f"base:{label}"][1] for label in base_labels]
    for t in range(spec.n):
        terms = [(ray[t], x) for ray, x in zip(spec.fan.rays, xs)]
        terms += [(-c, u) for c, u in zip(spec.base.chern[t], us)]
        if any(sum(c * v[j] for c, v in terms) for j in range(report.algebra.dim(2))):
            return CrossValidation(False, f"lattice generator t={t}")
    return CrossValidation(True)


def full_width_ring_via_sd(spec: BundleSpec) -> RingReport:
    """The sd ring on all the x_i: the radical of ell on the full free
    algebra, with the L_t checked afterwards on the generator classes
    (``cherneq_holds``) instead of solved first."""
    free, ell = full_functional(spec)
    sd = sd_quotient(free, ell)
    if sd.algebra.total_dim() != _leray_hirsch_dim(spec):
        raise VerificationFailed("Leray-Hirsch dims")
    gens = _generator_classes_quotient(
        spec, lambda *element: sd.project(*free.element(*element))
    )
    report = RingReport("sd", sd.algebra, sd.functional, gens, (free, sd))
    if not (check := cherneq_holds(spec, report)):
        raise VerificationFailed(f"sd classes fail p^*c = rho at {check.detail}")
    return report


# -- Gelfand-Zetlin checks ------------------------------------------------------


def gz_minkowski_additive(n: int, lam, mu) -> bool:
    """Support vectors of GZ polytopes add: h_{GZ(l+m)} = h_{GZ l} + h_{GZ m}.

    Checked on support values at the facet normals of the three polytopes:
    every GZ polytope is cut out by the same interlacing normals, with
    bounds linear in the weight.  The values at the +-coordinate vectors
    would pin only the bounding boxes.
    """
    polys = [gz_polytope(n, w) for w in (lam, mu, [a + b for a, b in zip(lam, mu)])]
    normals = {normal for p in polys for normal, _ in p.halfspaces}
    p_l, p_m, p_s = polys
    return all(
        max(dot(v, a) for v in p_l.vertices) + max(dot(v, a) for v in p_m.vertices)
        == max(dot(v, a) for v in p_s.vertices)
        for a in normals
    )


class ChamberViolation(ToricBundleError):
    """Polytope leaves the open positive Weyl chamber."""


def lifted_interlacing(n: int, top, offset: int):
    """Interlacing halfspaces for pattern rows 1..n-1 below a top row of
    linear forms: ``catalog._interlacing`` over ``offset`` leading
    coordinates.

    Coordinates: ``offset`` leading ones, then the pattern variables row by
    row (row r, 1-based, has n - r entries).  Top-row entry c is the pair
    (linear form over the leading coordinates, constant); every pattern
    entry sits between its two upper neighbours.
    """
    dim = offset + n * (n - 1) // 2
    zeros = [F(0)] * (dim - offset)
    upper = [([F(x) for x in form] + zeros, F(b)) for form, b in top]
    halfspaces = []
    pos = offset
    for r in range(1, n):
        row = []
        for c in range(n - r):
            (hi, b_hi), (lo, b_lo) = upper[c], upper[c + 1]
            le = [-x for x in hi]
            le[pos] += 1
            ge = list(lo)
            ge[pos] -= 1
            halfspaces += [(le, b_hi), (ge, -b_lo)]
            row.append(([F(int(t == pos)) for t in range(dim)], F(0)))
            pos += 1
        upper = row
    return halfspaces


def string_lift_volume(n: int, fan: Fan, delta: VirtualPolytope) -> F:
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

    rk = n - 1
    dim = rk + n * (n - 1) // 2
    halfspaces = [
        ([F(x) for x in ray] + [F(0)] * (dim - rk), h)
        for ray, h in zip(fan.rays, delta.h)
    ]
    # top row: the partition coordinates lambda'_c = x_c + ... + x_{rk-1}
    top = [([int(t >= c) for t in range(rk)], 0) for c in range(n)]
    halfspaces += lifted_interlacing(n, top, rk)
    lifted = Polytope.from_halfspaces(halfspaces, dim)
    lifted_vol = volume(lifted)
    if direct != lifted_vol:
        raise VerificationFailed(f"lift mismatch: {direct} vs {lifted_vol}")
    return direct


def projective_bundle_spec(base: BaseData, degrees, name="") -> BundleSpec:
    """P(L_1 + ... + L_n + O) over the base, deg L_i = degrees[i] times the
    first degree-2 generator."""
    h = _unit(base.algebra.dim(2), 0)
    chern = tuple(tuple(F(d) * x for x in h) for d in degrees)
    spec_base = BaseData(base.algebra, base.orientation, chern)
    return BundleSpec(spec_base, fan_projective_space(len(degrees)), name)


def of_point(fan: Fan, m) -> VirtualPolytope:
    """The support values of the one-point polytope {m}."""
    return VirtualPolytope(fan, tuple(dot(m, e) for e in fan.rays))


def coordinate(fan: Fan, i: int) -> VirtualPolytope:
    """The i-th coordinate virtual polytope: 1 at ray i, 0 elsewhere."""
    return VirtualPolytope(fan, tuple(F(int(j == i)) for j in range(fan.nrays)))


def is_empty(p: Polytope) -> bool:
    """True iff the polytope has no vertex."""
    return not p.vertices
