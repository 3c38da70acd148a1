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
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from toricbundle import _lp
from toricbundle.errors import (
    BadFaceIntersection,
    DegenerateCone,
    FanError,
    NonPrimitiveRay,
    NotConvex,
    NotPure,
    VerificationFailed,
)
from toricbundle.exactlin import _cleared, adjugate, det_int, rank, solve

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

    ``Fan(rays, max_cones)`` validates its input and raises
    :class:`FanError` (or a subclass) unless the rays are distinct
    primitive integer vectors of one dimension, each in some maximal cone,
    and the maximal cones have independent generators, are not faces of
    one another and meet pairwise in a common face.  Instances are
    immutable.  Every fact that depends on the fan alone is a cached
    property, computed on first use.  ``i_f_polynomials`` maps f to
    :func:`~toricbundle.integrate.i_f_polynomial` of (fan, f).
    """

    def __init__(self, rays, max_cones):
        rays = tuple(tuple(_fan_int(x, "ray") for x in r) for r in rays)
        if not rays:
            raise FanError("fan needs at least one ray")
        dim = len(rays[0])
        if any(len(r) != dim for r in rays):
            raise FanError("rays of mixed dimension")
        for r in rays:
            if gcd(*r) != 1:
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
        self.dim = dim
        self.rays = rays
        self.max_cones = tuple(cones)
        self.i_f_polynomials = {}

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
        ridges = sorted(self.ridges().items(), key=lambda kv: sorted(kv[0]))
        return [(c[0], c[1], ridge) for ridge, c in ridges if len(c) == 2]

    def spans_cone(self, ray_indices) -> bool:
        """True iff the given rays together span a cone of the fan."""
        s = set(ray_indices)
        return any(s.issubset(cone) for cone in self.max_cones)

    @cached_property
    def cone_data(self) -> tuple[ConeData, ...]:
        """det E_sigma and the adjugate columns of every maximal cone, from
        :func:`exactlin.adjugate`.  Raises :class:`NotPure` for a maximal
        cone that is not full-dimensional, which has no vertex."""
        out = []
        for cone in self.max_cones:
            if len(cone) != self.dim:
                raise NotPure(f"maximal cone {cone} is not full-dimensional")
            d, adj = adjugate([self.rays[i] for i in cone])
            out.append(ConeData(cone, d, adj))
        return tuple(out)

    @cached_property
    def scaled_inverses(self) -> tuple[int, tuple]:
        """(L, matrices): L = lcm_sigma |det E_sigma| and, one per maximal
        cone in the order of ``max_cones``, the integer matrix L E_sigma^-1
        as a tuple of rows (its column j is L / det E_sigma times adj_j).
        The vertex of P(h) at sigma is A_sigma(h) = L E_sigma^-1 h_sigma / L
        (:func:`_scaled_vertices`)."""
        scale = lcm(*(abs(cone.det) for cone in self.cone_data))
        return scale, tuple(
            tuple(tuple(scale // cone.det * x for x in row) for row in zip(*cone.adj))
            for cone in self.cone_data
        )

    @cached_property
    def wall_rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """One linear functional of h per wall; >= 0 on all walls iff h
        convex.

        For the wall between cones a and b with opposite ray j' in b, the
        row is h_{j'} - <A_a(h), e_{j'}> = h_{j'} - sum_j <u_{a,j}, e_{j'}>
        h_{a_j}, expressed in the coordinates h_1..h_s and read off the cone
        data.
        """
        rows = []
        for ca, cb, ridge in self.walls():
            cone_a = self.cone_data[ca]
            (jp,) = [i for i in self.max_cones[cb] if i not in ridge]
            row = [Fraction(0)] * self.nrays
            row[jp] += 1
            for col, i in zip(cone_a.adj, cone_a.rays):
                row[i] -= Fraction(_int_dot(col, self.rays[jp]), cone_a.det)
            rows.append(tuple(row))
        return tuple(rows)

    @cached_property
    def wall_rows_int(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Each row of :attr:`wall_rows` times the lcm of its denominators,
        as (ray index, int) pairs at its nonzero entries.

        A positive multiple has the sign of the row at every h, which is all
        :func:`is_convex_on` reads.  The rational rows stay as they are,
        because the LP of :attr:`projective` and the self-check scale in
        :func:`~toricbundle.integrate.i_f_polynomial` depend on their size.
        """
        return tuple(
            tuple((i, a) for i, a in enumerate(_cleared([row])[1][0]) if a)
            for row in self.wall_rows
        )

    @cached_property
    def complete(self) -> bool:
        """Ridge pairing + connectivity test; raises :class:`NotPure` for a
        maximal cone of deficient dimension."""
        if any(len(cone) != self.dim for cone in self.max_cones):
            raise NotPure("maximal cone of deficient dimension")
        ridges = self.ridges()
        if any(len(cones) != 2 for cones in ridges.values()):
            return False
        # connectivity of the cone adjacency graph
        adj: dict[int, set[int]] = {i: set() for i in range(len(self.max_cones))}
        for a, b in ridges.values():
            adj[a].add(b)
            adj[b].add(a)
        seen, stack = {0}, [0]
        while stack:
            new = adj[stack.pop()] - seen
            seen |= new
            stack += new
        return len(seen) == len(self.max_cones)

    @cached_property
    def projective(self) -> tuple[bool, "VirtualPolytope | None"]:
        """Existence of a strictly convex support vector, with witness.

        The strict system (all wall gaps > 0) is homogeneous, hence
        equivalent to the exact feasibility of gaps >= 1.
        """
        rows = self.wall_rows
        if not rows:  # single-cone or wall-free degenerate fans
            return True, VirtualPolytope(self, (Fraction(0),) * self.nrays)
        w = _lp.solve_inequalities(rows, [1] * len(rows))
        if w is None:
            return False, None
        return True, VirtualPolytope(self, tuple(w))

    @cached_property
    def pulling(self) -> list[tuple[int, ...]]:
        """The :func:`_pulling` triangulation of P(h) at every strictly
        convex h, as tuples of cone indices: P(h) is simple with the fan as
        its normal fan, so the vertex of cone sigma is on the facet of ray i
        exactly when i is in sigma.  Raises :class:`FanError` on a fan that
        is not complete."""
        if not self.complete:
            raise FanError("integral polynomials need a complete fan")
        cones = self.max_cones
        facets = [{k for k, c in enumerate(cones) if i in c} for i in range(self.nrays)]
        return _pulling(facets, len(cones), self.dim)


def _fan_int(x, what: str) -> int:
    """x itself if it is a plain int; a float, bool or string is refused
    rather than truncated or coerced."""
    if type(x) is not int:
        raise FanError(f"{what} entry {x!r} is not an integer")
    return x


def validate_fan(rays, max_cones) -> Fan:
    """``Fan(rays, max_cones)``, which validates."""
    return Fan(rays, max_cones)


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
    """:attr:`Fan.complete`."""
    return fan.complete


def dual_vertex(fan: Fan, cone, h) -> Point:
    """The point A with <A, e_i> = h_i for every ray i of the full cone."""
    sol = solve([fan.rays[i] for i in cone], [h[i] for i in cone])
    if sol is None:
        raise VerificationFailed(f"cone {cone} has dependent generators")
    return sol


def _pulling(tight, count: int, d: int):
    """Pulling triangulation (Bueler-Enge-Fukuda 2000) of a d-polytope with
    vertices 0..count-1, as index tuples, from ``tight``: per halfspace of
    an H-representation, the set T of vertices on it.  The facets of a face
    F are the inclusion-maximal proper F & T with at least dim F vertices,
    in order of first occurrence; no rank is computed.  A face's simplices
    are its smallest vertex joined to those of each facet that misses it.
    """

    def rec(face, a):
        if len(face) == a + 1:
            return [tuple(sorted(face))]
        apex = min(face)
        proper = [
            c for c in dict.fromkeys(face & t for t in tight)
            if a <= len(c) < len(face)
        ]
        out = []
        for facet in proper:
            if apex not in facet and not any(facet < c for c in proper):
                out += [(apex,) + s for s in rec(facet, a - 1)]
        return out

    return rec(frozenset(range(count)), d)


def _int_dot(u, v) -> int:
    """<u, v> for integer vectors, multiplied and summed in C."""
    return sum(map(mul, u, v))


def _scaled_vertices(fan: Fan, hint) -> tuple[int, list[tuple[int, ...]]]:
    """(L, points) for an integer support vector H, from
    :attr:`Fan.scaled_inverses`: one integer point V_sigma = L E_sigma^-1
    H_sigma per maximal cone in the order of ``fan.max_cones``, so that
    A_sigma(H) = V_sigma / L."""
    scale, matrices = fan.scaled_inverses
    return scale, [
        tuple(map(_int_dot, rows, itertools.repeat([hint[i] for i in cone])))
        for cone, rows in zip(fan.max_cones, matrices)
    ]


def is_convex_on(fan: Fan, vp: "VirtualPolytope", strict: bool = False) -> bool:
    """Every wall gap of h is >= 0 (> 0 when ``strict``).

    vp is a :class:`VirtualPolytope` or a raw support vector.  h is cleared
    of denominators once and each gap is read, by its sign only, from the
    integer rows of :attr:`Fan.wall_rows_int`.  Raises :class:`FanError`
    for a support vector whose length is not the number of rays, as
    :class:`VirtualPolytope` does.
    """
    h = vp.h if isinstance(vp, VirtualPolytope) else tuple(Fraction(x) for x in vp)
    if len(h) != fan.nrays:
        raise FanError("support vector length != number of rays")
    hint = _cleared([h])[1][0]
    least = 1 if strict else 0  # the gaps are ints
    return all(sum(a * hint[i] for i, a in row) >= least for row in fan.wall_rows_int)


def is_projective(fan: Fan) -> tuple[bool, "VirtualPolytope | None"]:
    """:attr:`Fan.projective`: whether a strictly convex support vector
    exists, with one as witness; the LP is solved once per fan."""
    return fan.projective


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


# ---------------------------------------------------------------------------
# polytopes
# ---------------------------------------------------------------------------


class Polytope:
    """Rational polytope given by both of its representations.

    ``vertices`` are canonical (irredundant, sorted) and ``halfspaces`` is a
    sequence of (normal, bound) pairs that cut out the same set; both are
    required, and faces are read off the halfspaces.  The package builds
    polytopes through :meth:`from_halfspaces` and
    :func:`polytope_from_support`.
    """

    __slots__ = ("vertices", "halfspaces")

    def __init__(self, vertices, halfspaces):
        self.vertices = vertices
        self.halfspaces = halfspaces

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

    def __eq__(self, other):
        return isinstance(other, Polytope) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"Polytope({len(self.vertices)} vertices, dim {self.ambient_dim})"


def support_points(fan: Fan, vp: VirtualPolytope) -> tuple[int, list]:
    """(D, points): the vertices A_sigma(h) of P(h) as ``points[k] / D``,
    distinct and sorted, over one common denominator.

    h is cleared once, h = H / den(h), and with L = lcm_sigma |det E_sigma|
    every A_sigma is V / D for D = L den(h) and the integer V of
    :func:`_scaled_vertices`.  Each distinct V is checked on integers
    against the H-representation: <V, e_j> <= h_j D = L H_j for every ray
    j, with equality at the rays of sigma, so a scaled inverse that does not
    invert E_sigma raises :class:`VerificationFailed` instead of giving a
    wrong polytope.  Raises :class:`NotConvex` unless h is convex on the
    fan.
    """
    if not is_convex_on(fan, vp):
        raise NotConvex(f"support vector {vp.h} not convex on the fan")
    hden, (hint,) = _cleared([vp.h])
    scale, vertices = _scaled_vertices(fan, hint)
    bounds = [x * scale for x in hint]
    dots = {}
    for cone, v in zip(fan.max_cones, vertices):
        g = dots.get(v)
        if g is None:
            g = dots[v] = [_int_dot(v, ray) for ray in fan.rays]
            if any(x > b for x, b in zip(g, bounds)):
                raise VerificationFailed(f"vertex of cone {cone} outside P(h)")
        if any(g[i] != bounds[i] for i in cone):
            raise VerificationFailed(f"vertex of cone {cone} off its facets")
    return scale * hden, sorted(dots)


def polytope_from_support(fan: Fan, vp: VirtualPolytope) -> Polytope:
    """V- and H-representation of a convex support vector: the
    :func:`support_points` as Fractions, and one halfspace (e_i, h_i) per
    ray."""
    den, points = support_points(fan, vp)
    verts = tuple(tuple(Fraction(x, den) for x in v) for v in points)
    hs = tuple(
        (tuple(Fraction(x) for x in ray), vp.h[i]) for i, ray in enumerate(fan.rays)
    )
    return Polytope(verts, hs)
