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
over a simplex").

A polytope is integrated over a triangulation read off its vertices and
the halfspaces every :class:`~toricbundle.polyhedral.Polytope` carries, on
integers throughout: the vertices are cleared of denominators once per
polytope, one forward-pass rank tests full dimension, and the vertices
tight on each halfspace are found by comparing integer sums with integer
bounds.  The facets of a face are the inclusion-maximal proper, nonempty
intersections of the face with those tight sets, so no rank is computed
per face.  :func:`triangulate` returns the simplices on the cleared
points with their one denominator, and the integer moment numerators of
every simplex and term of f are summed before one Fraction is built.
This direct integral is the oracle that checks everything else.  On P(h)
(:func:`i_f_value`, and each shifted P(h) and box of one clearing in
:func:`convex_chain_identity_check`) it runs on integers from h to the
moments, from cone vertices checked against <x, e_i> <= h_i, so wrong cone
data raise instead of passing for a polytope.  At a strictly convex h the
face lattice of P(h) is the fan's and one triangulation per fan serves; zero
wall gaps merge vertices, and then the measured vertices are triangulated.
Nothing of the closed form below is read.

With the sign convention of :mod:`toricbundle.polyhedral`,
P(h) = {x : <x, e_i> <= h_i}, the integral I_f(h) = int_{P(h)} f of a form f
of degree m over a complete simplicial fan is a form of degree n + m in h.
:func:`i_f_polynomial` writes it in closed form as a sum over the vertices
A_sigma(h) of P(h), one per maximal cone sigma (Brion 1988; Lawrence 1991),
after splitting f into powers of linear forms that are regular on every
cone (Baldoni-Berline-De Loera-Koeppe-Vergne 2011).  That sum is the
polynomial extension of I_f to virtual polytopes (Khovanskii-Pukhlikov
1992); mixed integrals are its polarization.  It is memoised by value
(``functools.cache``), so equal fans of different specs share one sum.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache
from math import ceil, comb, factorial, lcm, prod
from operator import sub

from toricbundle import exactlin
from toricbundle.errors import (
    AnchorFailure,
    DegreeMismatch,
    DimensionMismatch,
    FanError,
    LowerDimensional,
    VerificationFailed,
)
from toricbundle.exactlin import _cleared, solve
from toricbundle.polyhedral import (
    Fan,
    Polytope,
    VirtualPolytope,
    _int_dot,
    _pulling,
    _scaled_vertices,
    dual_vertex,
    is_convex_on,
    is_projective,
    polytope_from_support,
)
from toricbundle.qpoly import (
    QPolynomial,
    monomials_of_degree,
    require_homogeneous,
)


def _integral(f: QPolynomial, den: int, simplices) -> Fraction:
    """Sum of the integrals of f over n-simplices given by integer points:
    the vertices of each are s_k = S_k / D, with D = ``den``.

    A term c*x^a of f is c * D^-|a| * prod_i L_i^{a_i} with the integer
    linear forms L_i = sum_k S_{k,i} lambda_k; its expansion
    sum_b c_b lambda^b runs on ints (the powers of each L_i are kept for the
    whole simplex), and the Dirichlet moments make the term's integral

        |det S_k - S_0| * c * sum_b c_b prod_k b_k!  /  ((|a| + n)! D^{|a| + n}).

    With f = sum c_a x^a / F on integer numerators, every term lies over
    F (deg f + n)! D^(deg f + n), which does not depend on the simplex, so
    the integer numerators are summed over all simplices and terms and one
    Fraction is built per call.  Raises :class:`DimensionMismatch` unless
    every simplex has n + 1 points, n the number of variables of f.
    """
    n = len(f.vars)
    if any(len(pts) != n + 1 for pts in simplices):
        raise DimensionMismatch("simplex/polynomial dimension mismatch")
    if n == 0:
        return Fraction(0)
    terms = list(f.num.items())
    moments = [0] * len(terms)
    top = max(f.degree(), 0)
    # a monomial lambda^b is the int sum_k b_k * base**k; every b_k is at most
    # deg f < base, so adding keys multiplies monomials without carries
    base = top + 1
    for pts in simplices:
        v0 = pts[0]
        edges = [[a - b for a, b in zip(p, v0)] for p in pts[1:]]
        scale = abs(exactlin.det_int(edges))
        if scale == 0:
            continue
        linear = [
            {base**k: p[i] for k, p in enumerate(pts) if p[i]} for i in range(n)
        ]
        powers = [[{0: 1}] for _ in range(n)]
        for t, (expo, _) in enumerate(terms):
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
            moments[t] += scale * moment
    d = top + n
    total = 0
    for (expo, coeff), moment in zip(terms, moments):
        k = sum(expo) + n
        total += coeff * moment * (factorial(d) // factorial(k)) * den ** (d - k)
    return Fraction(total, f.den * factorial(d) * den**d)


def _times(p, q):
    """Product of two polynomials stored as {packed exponent: int}."""
    out = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            k = k1 + k2
            out[k] = out.get(k, 0) + c1 * c2
    return out


def triangulate(p: Polytope) -> tuple[int, tuple]:
    """Pulling triangulation from the lex-smallest vertex
    (:func:`~toricbundle.polyhedral._pulling`), as (D, simplices): each
    simplex is a tuple of integer points V, the vertices v = V / D of p.

    Each halfspace <x, a> <= b of ``p.halfspaces``, scaled to an integer
    normal A = m*a, gives the set of vertices tight on it: those with
    <V, A> = b*m*D, compared on ints; a non-integral b*m*D gives an empty
    set.  Raises :class:`LowerDimensional` unless the rank of the
    rows (1, V_k) is d + 1 (one forward pass), that is unless p spans its
    ambient space R^d.
    """
    den, points = _cleared(p.vertices)
    tight = []
    for normal, bound in p.halfspaces:
        m, (row,) = _cleared([normal])
        rhs = bound * (den * m)
        if rhs.denominator == 1:  # no integer sum equals a non-integral bound
            b = rhs.numerator
            tight.append(
                frozenset(k for k, v in enumerate(points) if _int_dot(v, row) == b)
            )
    d = p.ambient_dim
    if exactlin.rank([(1, *v) for v in points]) <= d:
        raise LowerDimensional("polytope not full-dimensional")
    index = _pulling(tight, len(points), d)
    return den, tuple(tuple(points[k] for k in s) for s in index)


def integrate_over_polytope(f: QPolynomial, p: Polytope) -> Fraction:
    """Integral over p in ambient measure; 0 for lower-dimensional p.

    The simplices of one :func:`triangulate` are integrated by
    :func:`_integral` from the integer points and the denominator they
    share.
    """
    try:
        den, simplices = triangulate(p)
    except LowerDimensional:
        return Fraction(0)
    return _integral(f, den, simplices)


def volume(p: Polytope) -> Fraction:
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
    """I_f at a convex support vector, ``integrate_over_polytope(f,
    polytope_from_support(fan, vp))``: :func:`_i_f_value` on h cleared once.
    Raises :class:`FanError` on a fan that is not complete or a vp on another
    fan and :class:`NotConvex` unless vp is convex."""
    _require_integrable(fan, vp)
    hden, (hint,) = _cleared([vp.h])
    return _i_f_value(fan, f, hint, hden)


def _i_f_value(fan: Fan, f: QPolynomial, hint, hden: int) -> Fraction:
    """I_f at h = H / den(h), H = ``hint``, on integers to the moments: the
    vertices V_sigma = L den(h) A_sigma(h) of :func:`_scaled_vertices` are
    checked against the bounds L H_j, <V_sigma, e_j> <= L H_j for every ray
    j, with equality exactly for j in sigma.  Then h is strictly convex and
    P(h) is simple with the fan as normal fan, so :attr:`Fan.pulling`
    triangulates it.  At the first gap that fails, the value is the
    definition itself, whose vertices :func:`support_points` checks; both
    routes triangulate the same sorted points with the same tight sets."""
    scale, vertices = _scaled_vertices(fan, hint)
    bounds = [x * scale for x in hint]
    for cone, v in zip(fan.max_cones, vertices):
        gaps = map(sub, bounds, map(_int_dot, itertools.repeat(v), fan.rays))
        if any(g < 0 or (g > 0) == (i in cone) for i, g in enumerate(gaps)):
            vp = VirtualPolytope(fan, tuple(Fraction(x, hden) for x in hint))
            return integrate_over_polytope(f, polytope_from_support(fan, vp))
    return _integral(f, scale * hden, [[vertices[k] for k in s] for s in fan.pulling])


def _require_integrable(fan: Fan, *vps: VirtualPolytope) -> None:
    """P(h) is bounded for every h only on a complete fan, and a support
    vector is read on its own fan only."""
    if not fan.complete:
        raise FanError("integral polynomials need a complete fan")
    if any(vp.fan != fan for vp in vps):
        raise FanError("virtual polytopes on different fans")


def _ray_indices(fan: Fan, ray_set) -> tuple[int, ...]:
    """I sorted; raises :class:`DegreeMismatch` for a repeated index and
    :class:`FanError` for one that names no ray."""
    ray_set = tuple(sorted(ray_set))
    if len(set(ray_set)) != len(ray_set):
        raise DegreeMismatch(f"repeated ray index in {ray_set}")
    if any(i < 0 or i >= fan.nrays for i in ray_set):
        raise FanError(f"ray index out of range in {ray_set}")
    return ray_set


def mixed_integral(fan: Fan, f: QPolynomial, args) -> Fraction:
    """Polarization of Delta |-> int_Delta f at the given virtual polytopes.

    Requires len(args) = m = fan.dim + deg(f).  With P the closed-form
    :func:`i_f_polynomial` of the top homogeneous part of f (a form of
    degree m; lower parts have lower degree and polarize to 0), the value is

        (1/m!) sum_S (-1)^(m - |S|) P(sum_{i in S} args_i),

    summed over sub-multisets S of the arguments: equal arguments are
    grouped, so S runs over the counts j_v <= k_v of each distinct argument
    v, weighted by prod_v binom(k_v, j_v).  Raises what :func:`i_f_polynomial`
    raises, and :class:`FanError` for an argument on another fan.
    """
    args = list(args)
    m = len(args)
    deg = max(f.degree(), 0)
    if m != fan.dim + deg:
        raise DegreeMismatch(
            f"need {fan.dim + deg} arguments for degree-{deg} integrand, got {m}"
        )
    _require_integrable(fan, *args)
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
    _require_integrable(fan, vp)
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
    columns = {col for cone in fan.cone_data for col in cone.adj}
    # the coefficient of x^beta in <l, x>^m is multinomial(m; beta) l^beta
    rhs = [f.coefficient(beta) / _multinomial(beta) for beta in alphas]
    for t in range(1, (n - 1) * len(alphas) * len(columns) + 2):
        g = [t**i for i in range(n)]
        forms = [tuple(a + b for a, b in zip(g, alpha)) for alpha in alphas]
        if any(_int_dot(l, col) == 0 for l in forms for col in columns):
            continue
        system = (
            [prod(x**e for x, e in zip(l, beta)) for l in forms] for beta in alphas
        )
        coeffs = solve(system, rhs)
        if coeffs is not None:
            return forms, coeffs
    raise VerificationFailed(
        f"no regular power-of-linear-forms decomposition of {f!r}"
    )


@cache
def i_f_polynomial(fan: Fan, f: QPolynomial) -> QPolynomial:
    """The homogeneous polynomial in h_1..h_s restricting to I_f.

    I_f depends on the fan and f alone, so the memo, keyed by value (a fan
    hashes its rays and maximal cones; f is kept in lowest terms), changes
    no value: the vertex sum and its self-checks run once per equal
    (fan, f), and a call that raises keeps nothing.  Sharing it is not
    circular: ``ring_via_sr`` never reads I_f, and the ``sd`` and ``diff``
    rings are each compared with ``sr``.  Callers must not mutate the
    polynomial returned.

    Convention: P(h) = {x : <x, e_i> <= h_i}.  The vertex of P(h) at a
    maximal cone sigma is A_sigma(h) = E_sigma^-1 h_sigma, and the tangent
    cone there is generated by the -u_{sigma,j}, where u_{sigma,j} =
    adj_j / det E_sigma are the columns of E_sigma^-1 (:attr:`Fan.cone_data`).
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
    Raises :class:`FanError` on a fan that is not complete,
    :class:`DimensionMismatch` unless f has fan.dim variables and
    :class:`VerificationFailed` when a check fails.
    """
    _require_integrable(fan)
    n = fan.dim
    if len(f.vars) != n:
        raise DimensionMismatch(f"f in {len(f.vars)} variables on a dim-{n} fan")
    m = max(require_homogeneous(f), 0)
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
    for cone in fan.cone_data:
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
    poly = QPolynomial.from_numerators(
        hvars,
        {
            mono: acc[mono] * factorial(m)
            for mono in monomials_of_degree(s, d)
            if mono in acc
        },
        scale,
    )

    norm = max((sum(abs(x) for x in row) for row in fan.wall_rows), default=0)
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
    give 0.)  Ray sets are checked by :func:`_ray_indices`.
    """
    ray_set = _ray_indices(fan, ray_set)
    _require_integrable(fan, delta)
    poly = i_f_polynomial(fan, f)
    for i in ray_set:
        poly = poly.partial(i)
    value = poly.evaluate(delta.h)
    if not fan.spans_cone(ray_set):
        if value != 0:
            raise VerificationFailed(f"d_I I_f != 0 on non-cone {ray_set}")
    elif len(ray_set) == fan.dim:
        a = dual_vertex(fan, ray_set, delta.h)
        det = abs(exactlin.det_int([fan.rays[i] for i in ray_set]))
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

    For a cone-spanning index set I and small nonzero lambda_i, the
    alternating sum of the integrals over the shifted P(h), an iterated
    difference of I_f, is prod_i sign(lambda_i) (a negative step turns a
    difference around) times the integral over the box a + sum_i t_i
    lambda_i u_i, 0 <= t_i <= 1, at the dual vertex a (<u_i, e_j> =
    delta_ij).  With any lambda_i = 0 both sides vanish.  h and the lambdas
    are cleared together once, to H / D and Lam / D; the box is cut into its
    n! Kuhn simplices on the one denominator L D, with its corner at the
    :func:`_scaled_vertices` of H and edge i Lam_i times column i of L E^-1.
    """
    ray_set = _ray_indices(fan, ray_set)
    lams = [Fraction(x) for x in lams]
    n = fan.dim
    if len(ray_set) != n or len(lams) != n:
        raise DegreeMismatch("need exactly dim-many ray indices and lambdas")
    _require_integrable(fan, delta)
    den, (hint, steps) = _cleared([delta.h, lams])
    lhs = Fraction(0)
    for bits in itertools.product((0, 1), repeat=n):
        h = list(hint)
        for take, i, step in zip(bits, ray_set, steps):
            h[i] += take * step
        lhs += (-1) ** (n + sum(bits)) * _i_f_value(fan, f, h, den)

    if 0 in steps or not fan.spans_cone(ray_set):
        return lhs == 0
    k = fan.max_cones.index(ray_set)
    scale, matrices = fan.scaled_inverses
    corner = _scaled_vertices(fan, hint)[1][k]
    edges = [[step * x for x in col] for col, step in zip(zip(*matrices[k]), steps)]
    simplices = []  # n! Kuhn simplices: the edges added to the corner in each order
    for order in itertools.permutations(edges):
        pts = [corner]
        for e in order:
            pts.append(tuple(x + y for x, y in zip(pts[-1], e)))
        simplices.append(pts)
    sign = prod(1 if step > 0 else -1 for step in steps)
    return lhs == sign * _integral(f, scale * den, simplices)
