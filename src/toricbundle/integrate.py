"""Exact polynomial integration over polytopes, integral polynomials and
mixed integrals.

The measure is Lebesgue normalized so a fundamental cube of the lattice has
volume 1.  A simplex with vertices s_0..s_n is integrated in barycentric
coordinates x = sum_k lambda_k s_k, where every monomial has the Dirichlet
moment

    int_simplex lambda^b dmu  =  |det| * (prod_k b_k!) / (|b| + n)!

(|det| the determinant of the edge vectors s_k - s_0), after the
coordinates are expanded as integer linear forms in lambda (Baldoni,
Berline, De Loera, Koeppe and Vergne 2011, "How to integrate a polynomial
over a simplex").  Polytopes are integrated by summing a triangulation read
off their vertex-facet incidences; this direct integral is the oracle that
checks everything else.

With the sign convention of :mod:`toricbundle.polyhedral`,
P(h) = {x : <x, e_i> <= h_i}, the integral I_f(h) = int_{P(h)} f of a form f
of degree m over a complete simplicial fan is a form of degree n + m in h.
:func:`i_f_polynomial` writes it in closed form as a sum over the vertices
A_sigma(h) of P(h), one per maximal cone sigma (Brion 1988; Lawrence 1991),
after splitting f into powers of linear forms that are regular on every
cone (Baldoni-Berline-De Loera-Koeppe-Vergne 2011).  That sum is the
polynomial extension of I_f to virtual polytopes (Khovanskii-Pukhlikov
1992); mixed integrals are its polarization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb, factorial, lcm, prod

from toricbundle import exactlin
from toricbundle.errors import (
    AnchorFailure,
    DegreeMismatch,
    DimensionMismatch,
    FanError,
    LowerDimensional,
    VerificationFailed,
)
from toricbundle.exactlin import QMatrix, solve
from toricbundle.polyhedral import (
    Fan,
    Polytope,
    VirtualPolytope,
    _int_dot,
    affine_dim,
    cone_vertices,
    dual_vertex,
    is_complete,
    is_convex_on,
    is_projective,
    polytope_from_support,
)
from toricbundle.qpoly import (
    QPolynomial,
    monomials_of_degree,
    require_homogeneous,
)


@dataclass(frozen=True)
class SimplexChain:
    """Signed list of simplices; here always a genuine triangulation."""

    simplices: tuple[tuple[tuple[Fraction, ...], ...], ...]
    signs: tuple[int, ...]

    def __len__(self):
        return len(self.simplices)


def integrate_over_simplex(f: QPolynomial, simplex) -> Fraction:
    """Exact integral of f over an n-simplex given by n+1 vertices.

    The vertex coordinates (ints or Fractions) are cleared of denominators
    once, s_k = S_k / D with S integer.  A term c*x^a of f is then
    c * D^-|a| * prod_i L_i^{a_i} with the integer linear forms
    L_i = sum_k S_{k,i} lambda_k; its expansion sum_b c_b lambda^b runs on
    ints (the powers of each L_i are kept for the whole simplex), and the
    Dirichlet moments make the term's integral

        |det S_k - S_0| * c * sum_b c_b prod_k b_k!  /  ((|a| + n)! D^{|a| + n}).

    One Fraction is built per term of f.
    """
    n = len(simplex) - 1
    if len(f.vars) != n or any(len(v) != n for v in simplex):
        raise DimensionMismatch("simplex/polynomial dimension mismatch")
    if n == 0:
        return Fraction(0)
    den, pts = _cleared(simplex)
    v0 = pts[0]
    # an integer matrix has an integer determinant
    edges = [[a - b for a, b in zip(p, v0)] for p in pts[1:]]
    scale = abs(exactlin.det(edges).numerator)
    if scale == 0:
        return Fraction(0)
    # a monomial lambda^b is the int sum_k b_k * base**k; every b_k is at most
    # deg f < base, so adding keys multiplies monomials without carries
    base = max(f.degree(), 0) + 1
    linear = [
        {base**k: p[i] for k, p in enumerate(pts) if p[i]} for i in range(n)
    ]
    powers = [[{0: 1}] for _ in range(n)]
    total = Fraction(0)
    for expo, coeff in f.terms.items():
        expanded = {0: 1}
        for i, e in enumerate(expo):
            if e:
                pw = powers[i]
                while len(pw) <= e:
                    pw.append(_times(pw[-1], linear[i]))
                expanded = _times(expanded, pw[e])
        moment = 0
        for key, c in expanded.items():
            while key:
                key, b = divmod(key, base)
                c *= factorial(b)
            moment += c
        d = sum(expo) + n
        total += Fraction(
            coeff.numerator * scale * moment,
            coeff.denominator * factorial(d) * den**d,
        )
    return total


def _cleared(points):
    """(D, rows): the lcm D of all denominators and the integer rows D*p."""
    den = lcm(*(x.denominator for p in points for x in p))
    return den, [[x.numerator * (den // x.denominator) for x in p] for p in points]


def _times(p, q):
    """Product of two polynomials stored as {packed exponent: int}."""
    out = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            k = k1 + k2
            out[k] = out.get(k, 0) + c1 * c2
    return out


def triangulate(p: Polytope) -> SimplexChain:
    """Fan-of-a-vertex triangulation from the lex-smallest vertex.

    Recurses through the face lattice: the facets of a face F are the sets
    F & T, one per halfspace of the H-representation in its order, where T
    is the set of vertices tight on that halfspace (built once per polytope),
    that have affine dimension dim F - 1.  A face's simplices are its
    lex-smallest vertex joined to the simplices of each facet that misses it;
    all signs are +1.  Raises for polytopes that are not full-dimensional in
    their ambient space.
    """
    d = p.ambient_dim
    verts = p.vertices
    # the integer points den * v have the same incidences and affine dimensions
    den, points = _cleared(verts)
    if affine_dim(points) < d:
        raise LowerDimensional("polytope not full-dimensional")
    tight = []
    for normal, bound in p.facet_halfspaces():
        m, (row,) = _cleared([normal])
        rhs = bound * (den * m)
        tight.append(
            frozenset(
                k for k, v in enumerate(points)
                if sum(a * b for a, b in zip(v, row)) == rhs
            )
        )
    dims = {}

    def dim_of(face):
        if face not in dims:
            dims[face] = affine_dim([points[k] for k in face])
        return dims[face]

    def rec(face, a):
        if len(face) == a + 1:
            return [tuple(verts[k] for k in sorted(face))]
        apex = min(face, key=verts.__getitem__)
        out = []
        seen = set()
        for t in tight:
            facet = face & t
            if len(facet) < a or facet in seen or dim_of(facet) != a - 1:
                continue
            seen.add(facet)
            if apex in facet:
                continue
            for s in rec(facet, a - 1):
                out.append((verts[apex],) + s)
        return out

    simplices = tuple(rec(frozenset(range(len(verts))), d))
    return SimplexChain(simplices, (1,) * len(simplices))


def integrate_over_polytope(f: QPolynomial, p: Polytope) -> Fraction:
    """Integral over p in ambient measure; 0 for lower-dimensional p."""
    if p.is_empty() or affine_dim(p.vertices) < p.ambient_dim:
        return Fraction(0)
    return sum(
        (integrate_over_simplex(f, s) for s in triangulate(p).simplices),
        Fraction(0),
    )


def volume(p: Polytope) -> Fraction:
    if p.is_empty():
        return Fraction(0)
    one = QPolynomial.constant([f"x{i}" for i in range(p.ambient_dim)], 1)
    return integrate_over_polytope(one, p)


# ---------------------------------------------------------------------------
# I_f in closed form: vertex sums over the cones of the fan
# ---------------------------------------------------------------------------


def convex_anchor(fan: Fan, summands) -> VirtualPolytope:
    """A strictly convex base point large enough that adding any subset of
    the given virtual polytopes stays convex on the fan.

    Nothing in the package calls it since :func:`mixed_integral` polarizes
    the closed-form :func:`i_f_polynomial`; it is kept because the benchmark
    harness traces it by name, and the tests use it to rebuild the direct
    2^m-integral polarization that :func:`mixed_integral` is pinned to.
    """
    ok, witness = is_projective(fan)
    if not ok:
        raise AnchorFailure("fan admits no strictly convex support vector")
    subset_sums = [VirtualPolytope(fan, (Fraction(0),) * fan.nrays)]
    for vp in summands:
        subset_sums += [s + vp for s in subset_sums]
    anchor = witness
    for _ in range(80):
        if all(is_convex_on(fan, anchor + s) for s in subset_sums):
            return anchor
        anchor = anchor.scale(2)
    raise AnchorFailure("anchor scaling did not terminate")


def i_f_value(fan: Fan, f: QPolynomial, vp: VirtualPolytope) -> Fraction:
    """I_f at a convex support vector: a direct integral."""
    return integrate_over_polytope(f, polytope_from_support(fan, vp))


def _require_complete(fan: Fan) -> None:
    """P(h) is bounded for every h only on a complete fan."""
    if not is_complete(fan):
        raise FanError("integral polynomials need a complete fan")


def mixed_integral(fan: Fan, f: QPolynomial, args) -> Fraction:
    """Polarization of Delta |-> int_Delta f at the given virtual polytopes.

    Requires len(args) = m = fan.dim + deg(f).  With P the closed-form
    :func:`i_f_polynomial` of the top homogeneous part of f (a form of
    degree m; lower parts have lower degree and polarize to 0), the value is

        (1/m!) sum_S (-1)^(m - |S|) P(sum_{i in S} args_i),

    summed over sub-multisets S of the arguments: equal arguments are
    grouped, so S runs over the counts j_v <= k_v of each distinct argument
    v, weighted by prod_v binom(k_v, j_v).  Raises :class:`FanError` on a
    fan that is not complete.
    """
    args = list(args)
    m = len(args)
    deg = max(f.degree(), 0)
    if m != fan.dim + deg:
        raise DegreeMismatch(
            f"need {fan.dim + deg} arguments for degree-{deg} integrand, got {m}"
        )
    if any(arg.fan != fan for arg in args):
        raise FanError("virtual polytopes on different fans")
    poly = i_f_polynomial(fan, f.homogeneous_part(deg))
    counts: dict[tuple[Fraction, ...], int] = {}
    for arg in args:
        counts[arg.h] = counts.get(arg.h, 0) + 1
    distinct = list(counts.items())
    total = Fraction(0)
    for js in itertools.product(*(range(k + 1) for _, k in distinct)):
        weight = (-1) ** (m - sum(js))
        for (_, k), j in zip(distinct, js):
            weight *= comb(k, j)
        point = [
            sum((j * h[i] for (h, _), j in zip(distinct, js)), Fraction(0))
            for i in range(fan.nrays)
        ]
        total += weight * poly.evaluate(point)
    return total / factorial(m)


def integral_over_virtual(fan: Fan, f: QPolynomial, vp: VirtualPolytope) -> Fraction:
    """The polynomial extension of I_f evaluated at a virtual polytope.

    The sum over the homogeneous parts f_d of f of the closed-form
    :func:`i_f_polynomial` of f_d at vp.h; it agrees with the direct
    integral when vp is convex.  Raises :class:`FanError` on a fan that is
    not complete.
    """
    _require_complete(fan)
    if vp.fan != fan:
        raise FanError("virtual polytopes on different fans")
    total = Fraction(0)
    for d in range(f.degree() + 1):
        part = f.homogeneous_part(d)
        if part:
            total += i_f_polynomial(fan, part).evaluate(vp.h)
    return total


def _multinomial(expo) -> int:
    """|expo|! / prod_i expo_i!"""
    out = factorial(sum(expo))
    for e in expo:
        out //= factorial(e)
    return out


def _power_decomposition(fan: Fan, f: QPolynomial, m: int):
    """Integer forms l_k and rationals c_k with f = sum_k c_k <l_k, x>^m.

    The forms are l_k = g + alpha_k over the exponents |alpha_k| = m, with
    g = (1, t, t^2, ..., t^(n-1)) for the first t = 1, 2, ... at which every
    <l_k, adj_{sigma,j}> is nonzero (the forms are regular on every cone).
    Each of those pairings is a nonzero polynomial in t of degree <= n - 1,
    so at most (n - 1) * #forms * #columns values of t are ruled out.  The
    l_k lie on the hyperplane sum(l) = sum(g) + m > 0, where the principal
    lattice is unisolvent for degree-m forms (Chung-Yao 1977), so their m-th
    powers span the degree-m forms (apolarity) and the c_k come from one
    square exact solve that does not depend on h.  Raises
    :class:`VerificationFailed` when no t up to the bound works.
    """
    n = fan.dim
    alphas = monomials_of_degree(n, m)
    columns = {col for cone in fan.cone_data() for col in cone.adj}
    # the coefficient of x^beta in <l, x>^m is multinomial(m; beta) l^beta
    rhs = [f.coefficient(beta) / _multinomial(beta) for beta in alphas]
    for t in range(1, (n - 1) * len(alphas) * len(columns) + 2):
        g = [t**i for i in range(n)]
        forms = [tuple(a + b for a, b in zip(g, alpha)) for alpha in alphas]
        if any(_int_dot(l, col) == 0 for l in forms for col in columns):
            continue
        system = QMatrix(
            [[prod(x**e for x, e in zip(l, beta)) for l in forms] for beta in alphas]
        )
        coeffs = solve(system, rhs)
        if coeffs is not None:
            return forms, coeffs
    raise VerificationFailed(
        f"no regular power-of-linear-forms decomposition of {f!r}"
    )


def i_f_polynomial(fan: Fan, f: QPolynomial) -> QPolynomial:
    """The homogeneous polynomial in h_1..h_s restricting to I_f.

    Convention: P(h) = {x : <x, e_i> <= h_i}.  The vertex of P(h) at a
    maximal cone sigma is A_sigma(h) = E_sigma^-1 h_sigma, and the tangent
    cone there is generated by the -u_{sigma,j}, where u_{sigma,j} =
    adj_j / det E_sigma are the columns of E_sigma^-1 (:meth:`Fan.cone_data`).
    For a form l with every <l, u_{sigma,j}> != 0, the vertex-cone formula
    (Brion 1988; Lawrence 1991) for int_P exp<l, x>, cut to its degree-d
    part, gives with d = n + m

        int_P(h) <l, x>^m  =  m!/d! * sum_sigma <l, A_sigma(h)>^d
                               / (|det E_sigma| * prod_j <l, u_{sigma,j}>).

    The right side is a polynomial in h; it is the polynomial extension of
    I_f to virtual polytopes (Khovanskii-Pukhlikov 1992).  A homogeneous f
    of degree m is first written as sum_k c_k <l_k, x>^m by
    :func:`_power_decomposition` (the power-of-linear-forms route of
    Baldoni, Berline, De Loera, Koeppe and Vergne 2011).  With the integers
    a_j = <l_k, adj_j> and D = det E_sigma, the term of (k, sigma) is

        c_k (sum_j a_j h_{sigma_j})^d / (D^m |D| prod_j a_j),

    which is expanded multinomially on Python ints over one common
    denominator.  Nothing is interpolated; the result is re-verified by
    direct integration (:func:`i_f_value`) at three points c*h* + beta with
    |beta| = d + 1, where h* is the :func:`is_projective` witness (every
    wall gap >= 1) and c = ceil((d + 1) * max ||wall row||_1) + 1, so that
    every wall gap there is >= 1; each point's convexity is checked too.
    Raises :class:`FanError` on a fan that is not complete and
    :class:`VerificationFailed` when a check fails.
    """
    _require_complete(fan)
    m = max(require_homogeneous(f), 0)
    n = fan.dim
    d = n + m
    s = fan.nrays
    hvars = tuple(f"h{i + 1}" for i in range(s))
    if not f:
        return QPolynomial.zero(hvars)
    ok, witness = is_projective(fan)
    if not ok:
        raise AnchorFailure("fan admits no strictly convex support vector")
    forms, coeffs = _power_decomposition(fan, f, m)
    gammas = [(gamma, _multinomial(gamma)) for gamma in monomials_of_degree(n, d)]

    # per cone: (rays, [(c_k numerator, denominator, a)]) over the forms
    cone_terms = []
    for cone in fan.cone_data():
        per_form = []
        for l, c in zip(forms, coeffs):
            if c:
                a = [_int_dot(l, col) for col in cone.adj]
                den = c.denominator * cone.det**m * abs(cone.det) * prod(a)
                per_form.append((c.numerator, den, a))
        cone_terms.append((cone.rays, per_form))
    common = lcm(*(den for _, per_form in cone_terms for _, den, _ in per_form))
    acc: dict[tuple[int, ...], int] = {}
    for rays, per_form in cone_terms:
        sums = [0] * len(gammas)
        for num, den, a in per_form:
            weight = num * (common // den)
            powers = [[x**e for e in range(d + 1)] for x in a]
            for g, (gamma, multinomial) in enumerate(gammas):
                v = weight * multinomial
                for pw, e in zip(powers, gamma):
                    if e:
                        v *= pw[e]
                sums[g] += v
        for (gamma, _), v in zip(gammas, sums):
            if v:
                expo = [0] * s
                for i, e in zip(rays, gamma):
                    expo[i] = e
                expo = tuple(expo)
                acc[expo] = acc.get(expo, 0) + v
    scale = common * factorial(d)
    poly = QPolynomial(
        hvars,
        {
            mono: Fraction(acc[mono] * factorial(m), scale)
            for mono in monomials_of_degree(s, d)
            if acc.get(mono)
        },
    )

    norm = max((sum(abs(x) for x in row) for row in fan.wall_rows()), default=0)
    c = ceil((d + 1) * norm) + 1
    base = witness.scale(c).h
    for beta in itertools.islice(monomials_of_degree(s, d + 1), 3):
        vp = VirtualPolytope(fan, tuple(b + x for b, x in zip(base, beta)))
        if not is_convex_on(fan, vp):
            raise VerificationFailed(f"self-check point {vp.h} is not convex")
        if poly.evaluate(vp.h) != i_f_value(fan, f, vp):
            raise VerificationFailed(f"vertex-sum self-check failed at {vp.h}")
    return poly


# ---------------------------------------------------------------------------
# test oracles from the differentiation lemmas
# ---------------------------------------------------------------------------


def square_free_derivative_check(
    fan: Fan, f: QPolynomial, delta: VirtualPolytope, ray_set
) -> Fraction:
    """d_I of the I_f polynomial at a strictly convex Delta.

    Checks the closed form, raising :class:`VerificationFailed` when it
    fails: 0 when the rays of I span no cone, and f(A) / |det(e_i : i in I)|
    for cone-spanning sets of full size n, with A the vertex of Delta dual to
    the cone.  (Index sets larger than n never span a cone, so they must
    give 0.)
    """
    ray_set = tuple(sorted(ray_set))
    poly = i_f_polynomial(fan, f)
    for i in ray_set:
        poly = poly.partial(i)
    value = poly.evaluate(delta.h)
    if not fan.spans_cone(ray_set):
        if value != 0:
            raise VerificationFailed(f"d_I I_f != 0 on non-cone {ray_set}")
    elif len(ray_set) == fan.dim:
        a = dual_vertex(fan, ray_set, delta.h)
        det = abs(exactlin.det([fan.rays[i] for i in ray_set]))
        # det is 1 on smooth cones; the corner region scales with the dual
        # basis, hence the division for merely simplicial ones.
        if value != f.evaluate(a) / det:
            raise VerificationFailed(
                f"derivative closed form failed on cone {ray_set}"
            )
    return value


def convex_chain_identity_check(
    fan: Fan, f: QPolynomial, delta: VirtualPolytope, ray_set, lams
) -> bool:
    """Inclusion-exclusion over facet shifts against the corner box.

    For a cone-spanning index set I and small lambda_i > 0, the alternating
    sum of integrals over the shifted polytopes equals the integral over the
    parallelepiped spanned by lambda_i e_i at the dual vertex; with any
    lambda_i = 0 both sides vanish.
    """
    ray_set = tuple(sorted(ray_set))
    lams = [Fraction(x) for x in lams]
    n = fan.dim
    if len(ray_set) != n:
        raise DegreeMismatch("need exactly dim-many ray indices")
    lhs = Fraction(0)
    for bits in itertools.product((0, 1), repeat=len(ray_set)):
        h = list(delta.h)
        for take, i, lam in zip(bits, ray_set, lams):
            if take:
                h[i] += lam
        vp = VirtualPolytope(fan, tuple(h))
        sign = (-1) ** (n + sum(bits))
        lhs += sign * i_f_value(fan, f, vp)

    if any(lam == 0 for lam in lams) or not fan.spans_cone(ray_set):
        rhs = Fraction(0)
    else:
        # corner box at the dual vertex: edges lambda_i * u_i where the u_i
        # are dual to the cone generators (<u_i, e_j> = delta_ij), i.e. the
        # region of points beyond exactly the shifted facets; its facets are
        # h_i <= <x, e_i> <= h_i + lambda_i (for lambda_i > 0), i in I
        k = fan.max_cones.index(ray_set)
        cone = fan.cone_data()[k]
        a = cone_vertices(fan, delta.h)[k]
        duals = [[Fraction(x, cone.det) for x in col] for col in cone.adj]
        corners = []
        for bits in itertools.product((0, 1), repeat=n):
            pt = list(a)
            for take, w, lam in zip(bits, duals, lams):
                if take:
                    for c in range(n):
                        pt[c] += lam * w[c]
            corners.append(tuple(pt))
        halfspaces = []
        for i, lam in zip(ray_set, lams):
            ray = fan.rays[i]
            halfspaces.append((ray, delta.h[i] + max(lam, 0)))
            halfspaces.append(([-x for x in ray], -delta.h[i] - min(lam, 0)))
        box = Polytope.from_vertices(corners, halfspaces, reduce=False)
        rhs = integrate_over_polytope(f, box)
    return lhs == rhs
