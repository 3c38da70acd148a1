"""Lattices, fans, rational polytopes and virtual polytopes.

A virtual polytope on a simplicial fan is stored as its vector of support
values at the primitive ray generators; the sign convention throughout is

    P(h) = { x : <x, e_i> <= h_i  for every ray generator e_i }

so that support functions of honest polytopes are convex and Minkowski
addition is coordinatewise addition of support vectors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from toricbundle import _lp
from toricbundle.errors import (
    BadFaceIntersection,
    DegenerateCone,
    FanError,
    FanTooCoarse,
    LowerDimensional,
    NonPrimitiveRay,
    NotConvex,
    NotPure,
    VerificationFailed,
)
from toricbundle.exactlin import _cleared, adjugate, det_int, kernel_int, rank, solve

Point = tuple[Fraction, ...]


def dot(u, v) -> Fraction:
    """<u, v> as a Fraction, for vectors of ints and Fractions."""
    s = sum(a * b for a, b in zip(u, v))
    return s if type(s) is Fraction else Fraction(s)


# ---------------------------------------------------------------------------
# fans
# ---------------------------------------------------------------------------


class ConeData(NamedTuple):
    """One full-dimensional maximal cone sigma, on integers.

    ``rays`` are its ray indices in the order of ``Fan.max_cones``, ``det``
    is det E_sigma (E_sigma has those rays as rows) and ``adj`` holds the
    columns of the adjugate of E_sigma, so the columns of E_sigma^-1 are
    u_j = adj[j] / det, with <u_j, e_{rays[k]}> = delta_jk.
    """

    rays: tuple[int, ...]
    det: int
    adj: tuple[tuple[int, ...], ...]


class Fan:
    """Simplicial rational fan given by primitive rays and maximal cones.

    Construct through :func:`validate_fan`; instances are immutable.  The
    cone data (see :func:`_cone_data`), the wall rows (see
    :func:`_wall_rows`) in their rational and integer forms, and the
    :func:`is_projective` verdict with its witness are computed on first use
    and kept.  So are the cone-index triangulation of P(h)
    (``_pulling_cache``) and the closed-form I_f polynomials: ``_i_f_cache``
    maps f to :func:`~toricbundle.integrate.i_f_polynomial` of (fan, f).
    """

    __slots__ = (
        "dim",
        "rays",
        "max_cones",
        "_cone_data_cache",
        "_wall_row_cache",
        "_wall_int_cache",
        "_projective_cache",
        "_pulling_cache",
        "_i_f_cache",
    )

    def __init__(self, dim, rays, max_cones):
        self.dim = dim
        self.rays = rays
        self.max_cones = max_cones
        self._cone_data_cache = None
        self._wall_row_cache = None
        self._wall_int_cache = None
        self._projective_cache = None
        self._pulling_cache = None
        self._i_f_cache = {}

    @property
    def nrays(self) -> int:
        return len(self.rays)

    def __eq__(self, other):
        return (
            isinstance(other, Fan)
            and self.rays == other.rays
            and self.max_cones == other.max_cones
        )

    def __hash__(self):
        return hash((self.rays, self.max_cones))

    def __repr__(self):
        return f"Fan(dim={self.dim}, rays={len(self.rays)}, max_cones={len(self.max_cones)})"

    def ridges(self):
        """Map ridge (frozen (n-1)-subset of ray indices) -> cone indices."""
        out: dict[frozenset, list[int]] = {}
        for ci, cone in enumerate(self.max_cones):
            for ridge in itertools.combinations(cone, len(cone) - 1):
                out.setdefault(frozenset(ridge), []).append(ci)
        return out

    def walls(self):
        """(cone_a, cone_b, ridge) triples for ridges shared by two cones."""
        out = []
        for ridge, cones in sorted(
            self.ridges().items(), key=lambda kv: sorted(kv[0])
        ):
            if len(cones) == 2:
                out.append((cones[0], cones[1], ridge))
        return out

    def spans_cone(self, ray_indices) -> bool:
        """True iff the given rays together span a cone of the fan."""
        s = set(ray_indices)
        return any(s.issubset(cone) for cone in self.max_cones)

    def cone_data(self) -> tuple[ConeData, ...]:
        """:func:`_cone_data`, one entry per maximal cone, computed once."""
        if self._cone_data_cache is None:
            self._cone_data_cache = _cone_data(self)
        return self._cone_data_cache

    def wall_rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The rows of :func:`_wall_rows`, computed once per fan."""
        if self._wall_row_cache is None:
            self._wall_row_cache = _wall_rows(self)
        return self._wall_row_cache

    def wall_rows_int(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Each row of :meth:`wall_rows` times the lcm of its denominators,
        as (ray index, int) pairs at its nonzero entries; computed once.

        A positive multiple has the sign of the row at every h, which is all
        :func:`is_convex_on` reads.  The rational rows stay as they are,
        because the LP of :func:`is_projective` and the self-check scale in
        :func:`~toricbundle.integrate.i_f_polynomial` depend on their size.
        """
        if self._wall_int_cache is None:
            self._wall_int_cache = tuple(
                tuple((i, a) for i, a in enumerate(_cleared([row])[1][0]) if a)
                for row in self.wall_rows()
            )
        return self._wall_int_cache


def _fan_int(x, what: str) -> int:
    """x itself if it is a plain int; a float, bool or string is refused
    rather than truncated or coerced."""
    if type(x) is not int:
        raise FanError(f"{what} entry {x!r} is not an integer")
    return x


def validate_fan(rays, max_cones) -> Fan:
    rays = tuple(tuple(_fan_int(x, "ray") for x in r) for r in rays)
    if not rays:
        raise FanError("fan needs at least one ray")
    dim = len(rays[0])
    if any(len(r) != dim for r in rays):
        raise FanError("rays of mixed dimension")
    for r in rays:
        g = 0
        for x in r:
            g = gcd(g, x)
        if g != 1:
            raise NonPrimitiveRay(f"ray {r} is not primitive")
    if len(set(rays)) != len(rays):
        raise FanError("duplicate rays")

    cones = []
    for cone in max_cones:
        cone = tuple(sorted(_fan_int(i, "cone index") for i in cone))
        if len(set(cone)) != len(cone):
            raise DegenerateCone(f"repeated ray index in cone {cone}")
        if any(i < 0 or i >= len(rays) for i in cone):
            raise FanError(f"ray index out of range in cone {cone}")
        if rank([rays[i] for i in cone]) != len(cone):
            raise DegenerateCone(f"generators of cone {cone} are dependent")
        cones.append(cone)
    if len(set(cones)) != len(cones):
        raise FanError("duplicate maximal cones")
    # a listed cone spanned by some of another's rays is a face of it, not
    # a maximal cone; the pairwise LPs below would accept it
    for (ca, cb) in itertools.permutations(cones, 2):
        if set(ca) < set(cb):
            raise FanError(f"cone {ca} is a face of cone {cb}")
    # every ray is a cone of the fan: the builders read each one as a facet
    # of P(h) and a generator of the ring
    unused = set(range(len(rays))).difference(*cones)
    if unused:
        raise FanError(f"ray {rays[min(unused)]} lies in no maximal cone")

    # pairwise face condition: a separating functional that vanishes exactly
    # on the common generators certifies cone_a /\ cone_b = cone(common).
    for (ca, cb) in itertools.combinations(cones, 2):
        common = set(ca) & set(cb)
        only_a = [i for i in ca if i not in common]
        only_b = [i for i in cb if i not in common]
        if not only_a and not only_b:
            continue
        ge_rows = [[-x for x in rays[i]] for i in only_a]
        ge_rows += [list(rays[i]) for i in only_b]
        eq_rows = [list(rays[i]) for i in sorted(common)]
        w = _lp.solve_inequalities(ge_rows, [1] * len(ge_rows), eq_rows)
        if w is None:
            raise BadFaceIntersection(f"cones {ca} and {cb} do not meet in a face")
    return Fan(dim, rays, tuple(cones))


def is_smooth(fan: Fan) -> bool:
    """Each maximal cone's generators extend to a lattice basis."""
    for cone in fan.max_cones:
        gens = [fan.rays[i] for i in cone]
        k = len(gens)
        if k == fan.dim:
            if abs(det_int(gens)) != 1:
                return False
        else:
            g = 0
            for cols in itertools.combinations(range(fan.dim), k):
                minor = [[row[c] for c in cols] for row in gens]
                g = gcd(g, abs(det_int(minor)))
            if g != 1:
                return False
    return True


def is_complete(fan: Fan) -> bool:
    """Ridge pairing + connectivity test for pure full-dimensional fans."""
    if any(len(cone) != fan.dim for cone in fan.max_cones):
        raise NotPure("maximal cone of deficient dimension")
    ridges = fan.ridges()
    if any(len(cones) != 2 for cones in ridges.values()):
        return False
    # connectivity of the cone adjacency graph
    n = len(fan.max_cones)
    adj: dict[int, set[int]] = {i: set() for i in range(n)}
    for a, b in ((c[0], c[1]) for c in ridges.values()):
        adj[a].add(b)
        adj[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == n


def dual_vertex(fan: Fan, cone, h) -> Point:
    """The point A with <A, e_i> = h_i for every ray i of the full cone."""
    sol = solve([fan.rays[i] for i in cone], [h[i] for i in cone])
    if sol is None:
        raise VerificationFailed(f"cone {cone} has dependent generators")
    return sol


def _cone_data(fan: Fan) -> tuple[ConeData, ...]:
    """det E_sigma and the adjugate columns of every maximal cone, from
    :func:`exactlin.adjugate`.

    Raises :class:`NotPure` for a maximal cone that is not
    full-dimensional, which has no vertex.  Callers read the cached
    :meth:`Fan.cone_data`.
    """
    out = []
    for cone in fan.max_cones:
        if len(cone) != fan.dim:
            raise NotPure(f"maximal cone {cone} is not full-dimensional")
        d, adj = adjugate([fan.rays[i] for i in cone])
        out.append(ConeData(cone, d, adj))
    return tuple(out)


def _int_dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def _scaled_vertices(fan: Fan, hint) -> tuple[int, list[tuple[int, ...]]]:
    """(L, points) for an integer support vector H: L = lcm_sigma |det
    E_sigma| and, one per maximal cone in the order of ``fan.max_cones``,
    the integer point V_sigma = (L / det E_sigma) adj_sigma H_sigma, so that
    A_sigma(H) = V_sigma / L."""
    cones = fan.cone_data()
    scale = lcm(*(abs(cone.det) for cone in cones))
    out = []
    for cone in cones:
        q = scale // cone.det
        hs = [hint[i] for i in cone.rays]
        out.append(
            tuple(
                q * sum(col[c] * x for col, x in zip(cone.adj, hs))
                for c in range(fan.dim)
            )
        )
    return scale, out


def cone_vertices(fan: Fan, h) -> list[Point]:
    """The points A_sigma(h) = sum_j u_{sigma,j} h_{sigma_j}, one per maximal
    cone in the order of ``fan.max_cones``, from :meth:`Fan.cone_data`.

    h is cleared of denominators once, so each coordinate is one Fraction
    made from an int of :func:`_scaled_vertices`.
    """
    den, (hint,) = _cleared([h])
    scale, points = _scaled_vertices(fan, hint)
    return [tuple(Fraction(x, scale * den) for x in v) for v in points]


def _wall_rows(fan: Fan):
    """One linear functional of h per wall; >= 0 on all walls iff h convex.

    For the wall between cones a and b with opposite ray j' in b, the row is
    h_{j'} - <A_a(h), e_{j'}> = h_{j'} - sum_j <u_{a,j}, e_{j'}> h_{a_j},
    expressed in the coordinates h_1..h_s and read off the cone data.
    Callers read the cached :meth:`Fan.wall_rows`.
    """
    cones = fan.cone_data()
    rows = []
    for ca, cb, ridge in fan.walls():
        cone_a = cones[ca]
        (jp,) = [i for i in fan.max_cones[cb] if i not in ridge]
        row = [Fraction(0)] * fan.nrays
        row[jp] += 1
        for col, i in zip(cone_a.adj, cone_a.rays):
            row[i] -= Fraction(_int_dot(col, fan.rays[jp]), cone_a.det)
        rows.append(tuple(row))
    return tuple(rows)


def is_convex_on(fan: Fan, vp: "VirtualPolytope", strict: bool = False) -> bool:
    """Every wall gap of h is >= 0 (> 0 when ``strict``).

    vp is a :class:`VirtualPolytope` or a raw support vector.  h is cleared
    of denominators once and each gap is read, by its sign only, from the
    integer rows of :meth:`Fan.wall_rows_int`.  Raises :class:`FanError`
    for a support vector whose length is not the number of rays, as
    :class:`VirtualPolytope` does.
    """
    h = vp.h if isinstance(vp, VirtualPolytope) else tuple(Fraction(x) for x in vp)
    if len(h) != fan.nrays:
        raise FanError("support vector length != number of rays")
    hint = _cleared([h])[1][0]
    least = 1 if strict else 0  # the gaps are ints
    return all(sum(a * hint[i] for i, a in row) >= least for row in fan.wall_rows_int())


def is_projective(fan: Fan) -> tuple[bool, "VirtualPolytope | None"]:
    """Existence of a strictly convex support vector, with witness.

    The strict system (all wall gaps > 0) is homogeneous, hence equivalent
    to the exact feasibility of gaps >= 1.  The answer depends on the fan
    alone, so the LP is solved once per fan and its result kept.
    """
    if fan._projective_cache is None:
        fan._projective_cache = _projectivity(fan)
    return fan._projective_cache


def _projectivity(fan: Fan) -> tuple[bool, "VirtualPolytope | None"]:
    rows = fan.wall_rows()
    if not rows:  # single-cone or wall-free degenerate fans
        return True, VirtualPolytope(fan, (Fraction(0),) * fan.nrays)
    w = _lp.solve_inequalities(rows, [1] * len(rows))
    if w is None:
        return False, None
    return True, VirtualPolytope(fan, tuple(w))


# ---------------------------------------------------------------------------
# virtual polytopes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VirtualPolytope:
    """Support values at the ray generators of a fixed simplicial fan."""

    fan: Fan
    h: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "h", tuple(Fraction(x) for x in self.h)
        )
        if len(self.h) != self.fan.nrays:
            raise FanError("support vector length != number of rays")

    def __add__(self, other: "VirtualPolytope") -> "VirtualPolytope":
        if self.fan != other.fan:
            raise FanError("virtual polytopes on different fans")
        return VirtualPolytope(self.fan, tuple(a + b for a, b in zip(self.h, other.h)))

    def __sub__(self, other: "VirtualPolytope") -> "VirtualPolytope":
        if self.fan != other.fan:
            raise FanError("virtual polytopes on different fans")
        return VirtualPolytope(self.fan, tuple(a - b for a, b in zip(self.h, other.h)))

    def scale(self, r) -> "VirtualPolytope":
        r = Fraction(r)
        return VirtualPolytope(self.fan, tuple(r * x for x in self.h))

    @classmethod
    def of_point(cls, fan: Fan, m) -> "VirtualPolytope":
        return cls(fan, tuple(dot(m, e) for e in fan.rays))

    @classmethod
    def coordinate(cls, fan: Fan, i: int) -> "VirtualPolytope":
        """The i-th coordinate virtual polytope: 1 at ray i, 0 elsewhere."""
        h = [Fraction(0)] * fan.nrays
        h[i] = Fraction(1)
        return cls(fan, tuple(h))


@dataclass(frozen=True)
class AffineVirtualPolytope:
    """A virtual polytope plus a shift in a complement space.

    The shift coordinates live in whatever complement the consumer declares
    (degree-2 base classes for bundle computations); only its length is kept
    here.
    """

    virtual: VirtualPolytope
    shift: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "shift", tuple(Fraction(x) for x in self.shift))


# ---------------------------------------------------------------------------
# polytopes
# ---------------------------------------------------------------------------


def affine_dim(points) -> int:
    """The dimension of the affine hull, -1 for no points: one less than the
    rank of the rows (1, D*p), with the points cleared of denominators."""
    return rank([(1, *row) for row in _cleared(list(points))[1]]) - 1


class Polytope:
    """Rational polytope; vertices canonical (irredundant, sorted).

    ``halfspaces`` is an optional sequence of (normal, bound) pairs known to
    cut out the same set; it is kept because faces are cheap to read off an
    H-representation.
    """

    __slots__ = ("vertices", "halfspaces")

    def __init__(self, vertices, halfspaces=None):
        self.vertices = vertices
        self.halfspaces = halfspaces

    @classmethod
    def from_vertices(cls, points, halfspaces=None, reduce=True) -> "Polytope":
        pts = sorted({tuple(Fraction(x) for x in p) for p in points})
        if reduce and len(pts) > 1:
            keep = []
            for i, p in enumerate(pts):
                others = [q for j, q in enumerate(pts) if j != i]
                if not _lp.in_convex_hull(p, others):
                    keep.append(p)
            pts = keep
        hs = None
        if halfspaces is not None:
            hs = tuple(
                (tuple(Fraction(x) for x in n), Fraction(b)) for n, b in halfspaces
            )
        return cls(tuple(pts), hs)

    @classmethod
    def from_halfspaces(cls, halfspaces, dim: int) -> "Polytope":
        """Brute-force vertex enumeration of {x : <x, n_k> <= b_k}."""
        hs = [
            (tuple(Fraction(x) for x in n), Fraction(b)) for n, b in halfspaces
        ]
        pts = set()
        for subset in itertools.combinations(range(len(hs)), dim):
            mat = [hs[k][0] for k in subset]
            if rank(mat) != dim:
                continue
            x = solve(mat, [hs[k][1] for k in subset])
            if x is None:
                continue
            if all(dot(x, n) <= b for n, b in hs):
                pts.add(x)
        return cls(tuple(sorted(pts)), tuple(hs))

    @property
    def ambient_dim(self) -> int:
        return len(self.vertices[0]) if self.vertices else 0

    def is_empty(self) -> bool:
        return not self.vertices

    def __eq__(self, other):
        return isinstance(other, Polytope) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"Polytope({len(self.vertices)} vertices, dim {self.ambient_dim})"

    def facet_halfspaces(self):
        """An H-representation: stored one, or computed by hyperplane search."""
        if self.halfspaces is not None:
            return self.halfspaces
        d = self.ambient_dim
        verts = self.vertices
        if affine_dim(verts) != d:
            raise LowerDimensional("H-rep search requires full dimension")
        found = {}
        for combo in itertools.combinations(verts, d):
            v0 = combo[0]
            diffs = ([a - b for a, b in zip(p, v0)] for p in combo[1:])
            kernel = kernel_int(map(enumerate, diffs), d)
            if len(kernel) != 1:
                continue
            normal = [kernel[0][1].get(c, 0) for c in range(d)]
            bound = dot(normal, v0)
            sides = {(dot(v, normal) > bound) - (dot(v, normal) < bound) for v in verts}
            if 1 in sides and -1 in sides:
                continue
            if -1 in sides:
                normal = [-x for x in normal]
                bound = -bound
            # normalize for dedup
            g = 0
            for x in normal:
                g = g or abs(x)
            scale = Fraction(1, g)
            key = (tuple(x * scale for x in normal), bound * scale)
            found[key] = key
        return tuple(found)


class SupportPoints(NamedTuple):
    """P(h) of a convex support vector on integers.

    The vertices are ``points[k] / den``, distinct and sorted; ``tight[i]``
    holds the indices k of the vertices on the facet hyperplane
    <x, e_i> = h_i of ray i.
    """

    den: int
    points: list[tuple[int, ...]]
    tight: list[frozenset[int]]


def support_points(fan: Fan, vp: VirtualPolytope) -> SupportPoints:
    """The vertices A_sigma(h) of P(h) over one common denominator, with the
    vertices tight on each ray's halfspace.

    h is cleared once, h = H / den(h), and with L = lcm_sigma |det E_sigma|
    every A_sigma is V / D for D = L den(h) and the integer V of
    :func:`_scaled_vertices`.  Each distinct V is checked on integers
    against the H-representation: <V, e_j> <= h_j D = L H_j for every ray
    j, with equality at the rays of sigma, so cone data that do not invert
    E_sigma raise :class:`VerificationFailed` instead of giving a wrong
    polytope.  The same integer dot products give the tight sets.  Raises
    :class:`NotConvex` unless h is convex on the fan.
    """
    if not is_convex_on(fan, vp):
        raise NotConvex(f"support vector {vp.h} not convex on the fan")
    hden, (hint,) = _cleared([vp.h])
    scale, vertices = _scaled_vertices(fan, hint)
    bounds = [x * scale for x in hint]
    dots = {}
    for cone, v in zip(fan.cone_data(), vertices):
        g = dots.get(v)
        if g is None:
            g = dots[v] = [_int_dot(v, ray) for ray in fan.rays]
            if any(x > b for x, b in zip(g, bounds)):
                raise VerificationFailed(f"vertex of cone {cone.rays} outside P(h)")
        if any(g[i] != bounds[i] for i in cone.rays):
            raise VerificationFailed(f"vertex of cone {cone.rays} off its facets")
    points = sorted(dots)
    tight = [
        frozenset(k for k, v in enumerate(points) if dots[v][i] == b)
        for i, b in enumerate(bounds)
    ]
    return SupportPoints(scale * hden, points, tight)


def polytope_from_support(fan: Fan, vp: VirtualPolytope) -> Polytope:
    """V- and H-representation of a convex support vector: the
    :func:`support_points` as Fractions, and one halfspace (e_i, h_i) per
    ray."""
    den, points, _ = support_points(fan, vp)
    verts = tuple(tuple(Fraction(x, den) for x in v) for v in points)
    hs = tuple(
        (tuple(Fraction(x) for x in ray), vp.h[i]) for i, ray in enumerate(fan.rays)
    )
    return Polytope(verts, hs)


def support_function(p: Polytope, fan: Fan) -> VirtualPolytope:
    """Support values of p at the fan's rays, with round-trip verification."""
    if p.is_empty():
        raise FanTooCoarse("empty polytope has no support function")
    h = tuple(max(dot(v, ray) for v in p.vertices) for ray in fan.rays)
    vp = VirtualPolytope(fan, h)
    if not is_convex_on(fan, vp):
        raise FanTooCoarse("fan does not refine the normal fan")
    back = polytope_from_support(fan, vp)
    if back.vertices != p.vertices:
        raise FanTooCoarse("fan does not refine the normal fan")
    return vp


def minkowski_sum(p: Polytope, q: Polytope) -> Polytope:
    if p.ambient_dim != q.ambient_dim:
        raise FanError("Minkowski sum of polytopes in different spaces")
    sums = {
        tuple(a + b for a, b in zip(v, w))
        for v in p.vertices
        for w in q.vertices
    }
    return Polytope.from_vertices(sums)
