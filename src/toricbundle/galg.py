"""Finite-dimensional commutative graded algebras over the rationals.

Everything is concentrated in even degrees (all targets here have vanishing
odd cohomology), so no Koszul signs appear anywhere.  The module provides

* ``GradedAlgebra``: per-degree bases plus structure constants, each stored
  once as its nonzero (index, coefficient) pairs; dense vectors are built
  only for the dense readers (``basis_product``, ``multiply``);
* ``product_keys``: the one rule for which structure constants a table
  stores, and in which order; every builder, checker and serializer walks
  the table through it;
* ``FreeAlgebra``: R[x_1..x_s] on its monomials, in a deterministic order,
  with products computed when read rather than stored; it is the one owner
  of free-monomial coordinates (``FreeAlgebra.element``);
* ``build_quotient``: the degreewise quotient engine for presented algebras
  R[x_1..x_s]/(relations); relation multiples are sparse rows over the free
  monomials, and the kernel's integer RREF rows (``exactlin.echelon_int``)
  become the reducer of each degree.  The Stanley-Reisner and self-dual
  rings are both quotients of one ``FreeAlgebra`` by such reducers, and a
  class in either is the degree's reducer applied to a free element;
* Frobenius forms, the self-dual quotient B/I(L_ell) obtained by factoring
  out the radical of the Frobenius form.  The radical comes from the top
  degree down, as Macaulay's inverse system describes B/Ann(ell): ker ell on
  top, and below it the p with p * g radical for every generator g of B.
  Each degree is one integer kernel, and classes are computed only at the
  surviving basis columns (``exactlin.Reducer``).  ``_pairing_rows`` reads
  the pairing entries off the structure constants for ``frobenius_matrix``,
  and ``check_poincare`` checks full rank in degrees k <= n/2 only, the rest
  being transposes;
* the differential-operator model Diff(V)/Ann(f): one RREF per degree of
  the images d^alpha f, whose pivot columns are the basis operators and
  whose column alpha is the class of d^alpha, so products are lookups;
* graded isomorphism checking by multiplicative extension of a degree-2 map.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm, prod
from operator import add

from toricbundle.errors import (
    DimensionMismatch,
    NonHomogeneousRelation,
    NotGenerated,
    NotHomogeneous,
    VerificationFailed,
    ZeroFunctional,
)
from toricbundle.exactlin import (
    ONE as _ONE,
    ZERO as _ZERO,
    QMatrix,
    Reducer,
    Span,
    SparseRow,
    echelon_int,
    kernel_int,
    rank,
    rref,
)
from toricbundle.qpoly import QPolynomial, apply_operator, monomials_of_degree

Vec = tuple[Fraction, ...]


def _vscale(c, a: Vec) -> Vec:
    c = Fraction(c)
    return tuple(c * x for x in a)


class GradedAlgebra:
    """Commutative graded algebra in even degrees with a degree-0 unit.

    ``labels[d]`` names the basis of the degree-d component.  ``products``
    maps each key of :func:`product_keys` to the product of the two basis
    elements in degree a+b, stored once as (t, c) pairs with c != 0 and t
    ascending; a product with the unit, or in a degree above the top or an
    empty degree, is never read from the table.  The constructor takes
    dense coefficient vectors; :meth:`from_pairs` takes the pairs themselves.
    """

    __slots__ = ("top", "labels", "products")

    def __init__(self, top, labels, products):
        self._set_degrees(top, labels)
        self.products = {
            k: tuple(
                (t, x if type(x) is Fraction else Fraction(x))
                for t, x in enumerate(v)
                if x
            )
            for k, v in products.items()
        }

    @classmethod
    def from_pairs(cls, top, labels, products) -> "GradedAlgebra":
        """An algebra whose ``products`` are already (t, c) pair tuples."""
        alg = cls.__new__(cls)
        alg._set_degrees(top, labels)
        alg.products = products
        return alg

    def _set_degrees(self, top, labels):
        self.top = int(top)
        self.labels = {int(d): tuple(ls) for d, ls in labels.items() if ls}
        if self.top % 2 or any(d % 2 for d in self.labels):
            raise ValueError("odd degree in even-degree algebra")
        if self.dim(0) != 1:
            raise ValueError("degree 0 must be one-dimensional")

    def degrees(self):
        return sorted(self.labels)

    def dim(self, d: int) -> int:
        return len(self.labels.get(d, ()))

    def dims(self) -> tuple[int, ...]:
        return tuple(self.dim(d) for d in range(0, self.top + 1, 2))

    def total_dim(self) -> int:
        return sum(self.dims())

    def product_pairs(self, a, i, b, j) -> SparseRow:
        """The product of two basis elements as (t, c) pairs, c != 0."""
        if a > b or (a == b and i > j):
            a, i, b, j = b, j, a, i
        d = a + b
        if d > self.top or d not in self.labels:
            return ()
        if a == 0:
            return ((j, _ONE),)
        return self.products[(a, i, b, j)]

    def basis_product(self, a, i, b, j) -> Vec:
        return _dense(self.dim(a + b), self.product_pairs(a, i, b, j))

    def multiply(self, a: int, avec, b: int, bvec) -> Vec:
        out = [_ZERO] * self.dim(a + b)
        for i, ca in enumerate(avec):
            if not ca:
                continue
            for j, cb in enumerate(bvec):
                if not cb:
                    continue
                cab = ca * cb
                for t, cp in self.product_pairs(a, i, b, j):
                    out[t] += cab * cp
        return tuple(out)

    def times_basis(self, a: int, avec, b: int, j: int) -> Vec:
        """Product of a degree-a element with the j-th degree-b basis element."""
        out = [_ZERO] * self.dim(a + b)
        for i, ca in enumerate(avec):
            if not ca:
                continue
            for t, cp in self.product_pairs(a, i, b, j):
                out[t] += ca * cp
        return tuple(out)

    def generators(self) -> list[tuple[int, int]]:
        """(degree, index) of basis elements that generate the algebra."""
        return _ideal_generators(self)

    def power_of_element(self, a: int, avec, k: int):
        """(degree, vector) of the k-th power of a homogeneous element."""
        deg, vec = 0, (Fraction(1),)
        for _ in range(k):
            vec = self.multiply(deg, vec, a, avec)
            deg += a
        return deg, vec

    def check_associative(self) -> bool:
        """(xy)z == x(yz) on all basis triples; exhaustive, so desk scale only."""
        degs = self.degrees()
        for da, db, dc in itertools.product(degs, repeat=3):
            if da + db + dc > self.top:
                continue
            for i in range(self.dim(da)):
                for j in range(self.dim(db)):
                    ij = self.basis_product(da, i, db, j)
                    for k in range(self.dim(dc)):
                        jk = self.basis_product(db, j, dc, k)
                        lhs = self.times_basis(da + db, ij, dc, k)
                        rhs = self.times_basis(db + dc, jk, da, i)
                        if lhs != rhs:
                            return False
        return True

    def __repr__(self):
        return f"GradedAlgebra(top={self.top}, dims={self.dims()})"


def product_keys(labels):
    """The keys (a, i, b, j) of the products a structure-constant table
    stores, in the order reports list them: 0 < a <= b with a + b a nonempty
    degree, and i <= j when a == b.

    ``labels`` maps each degree to its basis (any sized sequence; empty
    degrees are allowed).  :meth:`GradedAlgebra.product_pairs` answers every
    other pair without the table: by the unit, as zero, or by swapping the
    factors into a key.
    """
    degs = sorted(d for d, ls in labels.items() if d > 0 and ls)
    for n, a in enumerate(degs):
        for b in degs[n:]:
            if not labels.get(a + b):
                continue
            for i in range(len(labels[a])):
                for j in range(i if a == b else 0, len(labels[b])):
                    yield a, i, b, j


def _dense(n: int, pairs) -> Vec:
    v = [_ZERO] * n
    for t, c in pairs:
        v[t] = c
    return tuple(v)


def _unit(n: int, i: int) -> Vec:
    return _dense(n, ((i, _ONE),))


@dataclass(frozen=True)
class TopFunctional:
    """Linear functional supported on one (top) degree of an algebra."""

    algebra: GradedAlgebra
    degree: int
    values: Vec

    def __post_init__(self):
        object.__setattr__(
            self, "values", tuple(Fraction(x) for x in self.values)
        )
        if len(self.values) != self.algebra.dim(self.degree):
            raise ValueError("functional length mismatch")
        if not any(self.values):
            raise ZeroFunctional("top functional is identically zero")

    def of(self, deg: int, vec) -> Fraction:
        if deg != self.degree:
            return Fraction(0)
        return sum((a * b for a, b in zip(self.values, vec)), Fraction(0))

    def scale(self, c) -> "TopFunctional":
        return TopFunctional(self.algebra, self.degree, _vscale(c, self.values))


def _pairing_rows(b: GradedAlgebra, ell: TopFunctional, k: int) -> list:
    """Sparse rows of the pairing B^k x B^{n-k} -> Q, (i, j) |-> ell(b_i * b_j).

    Row i holds the nonzero ``scale * ell(b_i * b_j)`` as ascending (j,
    value) pairs, with ``scale`` the lcm of the denominators of ell, so the
    values are ints wherever the structure constants are.
    """
    n = ell.degree
    scale = lcm(*(v.denominator for v in ell.values))
    values = [v.numerator * (scale // v.denominator) for v in ell.values]
    rows = []
    for i in range(b.dim(k)):
        row = []
        for j in range(b.dim(n - k)):
            entry = 0
            for t, c in b.product_pairs(k, i, n - k, j):
                v = values[t]
                if v:
                    entry += v * c.numerator if c.denominator == 1 else v * c
            if entry:
                row.append((j, entry))
        rows.append(row)
    return rows


def frobenius_matrix(b: GradedAlgebra, ell: TopFunctional, k: int) -> QMatrix:
    """Pairing matrix of B^k x B^{n-k} -> Q, (i, j) |-> ell(b_i * b_j).

    The dense view of ``_pairing_rows``; an empty side counts as one zero
    row or column.
    """
    scale = lcm(*(v.denominator for v in ell.values))
    rows = _pairing_rows(b, ell, k)
    ncols = b.dim(ell.degree - k)
    if not rows or not ncols:
        return QMatrix([[_ZERO] * max(ncols, 1) for _ in range(max(len(rows), 1))])
    return QMatrix(
        _dense(ncols, ((j, Fraction(x, scale)) for j, x in row)) for row in rows
    )


def check_poincare(a: GradedAlgebra, ell: TopFunctional) -> bool:
    """Poincare duality of the pairing induced by ell on its degree.

    The pairing matrix of degree n - k is the transpose of that of degree k
    (the algebra is commutative), so with symmetric dims full rank is
    checked for k <= n/2 only.
    """
    n = ell.degree
    if a.dim(n) != 1 or any(d > n for d in a.degrees()):
        return False
    if any(a.dim(k) != a.dim(n - k) for k in range(0, n + 1, 2)):
        return False
    for k in range(0, n // 2 + 1, 2):
        if a.dim(k) and len(rref(frobenius_matrix(a, ell, k))[1]) != a.dim(k):
            return False
    return True


# ---------------------------------------------------------------------------
# self-dual quotient
# ---------------------------------------------------------------------------


def _class(reducers, d: int, pairs) -> Vec:
    """Quotient coordinates of a degree-d element given as (column,
    coefficient) pairs; a degree without a reducer is zero."""
    red = reducers.get(d)
    return _dense(len(red.keep), red.pairs(pairs)) if red else ()


@dataclass
class SdQuotient:
    """Quotient of B by the radical of the Frobenius form of ell."""

    algebra: GradedAlgebra
    functional: TopFunctional  # induced ell_* on the quotient top degree
    reducers: dict[int, Reducer]  # the radical per degree; basis at .keep

    def project(self, d: int, pairs) -> Vec:
        """Coordinates of the class of a degree-d element of B, given as
        (column, coefficient) pairs."""
        return _class(self.reducers, d, pairs)


def _radical_rows(
    b: GradedAlgebra, ell: TopFunctional, k: int, gens, reducers
) -> list[tuple[int, dict[int, int]]]:
    """The radical of the Frobenius form in degree k as primitive integer
    RREF rows (``Reducer`` input), given ``reducers`` of the radical in the
    nonempty degrees from k + 2 to n.

    On top it is ker ell.  Below, p is radical exactly when p * g is radical
    for each generator g in ``gens``, a product above n being radical: the
    classes of b_t * g at the kept columns of degree k + deg g are rows over
    t, and the radical is their kernel.
    """
    n = ell.degree
    if k == n:
        return kernel_int([enumerate(ell.values)], b.dim(n))
    rows: dict[tuple[int, int, int], list] = {}  # (generator, kept column)
    for e, j in gens:
        red = reducers.get(k + e)
        if red is None or not red.keep:
            continue  # above n, an empty degree, or all of it radical
        for t in range(b.dim(k)):
            for u, x in red.pairs(b.product_pairs(k, t, e, j)):
                rows.setdefault((e, j, u), []).append((t, x))
    return kernel_int(rows.values(), b.dim(k))


def _quotient_algebra(b: GradedAlgebra, reducers) -> GradedAlgebra:
    """B modulo an ideal, given in each degree d by ``reducers[d]``; a degree
    without a reducer is zero.  The basis is B's at the kept columns, and a
    product is the class of the product in B."""
    kept = {d: red.keep for d, red in reducers.items() if red.keep}
    labels = {d: tuple(b.labels[d][j] for j in js) for d, js in kept.items()}

    def product(a, i, e, j):
        prod = b.product_pairs(a, kept[a][i], e, kept[e][j])
        return reducers[a + e].pairs(prod)

    products = {key: product(*key) for key in product_keys(kept)}
    return GradedAlgebra.from_pairs(max(kept), labels, products)


def _ideal_generators(b: GradedAlgebra) -> list[tuple[int, int]]:
    """(degree, index) of a generating set of B as an algebra.

    Degree by degree, the products of the lower generators with B span a
    subspace of B^d; the basis elements at the non-pivot columns of its
    echelon form span a complement, and they are the new generators.  A
    basis with a degree gap gets generators above degree 2.
    """
    gens: list[tuple[int, int]] = []
    for d in b.degrees():
        dim = b.dim(d)
        if d == 0:
            continue
        span = Span()
        products = (
            b.product_pairs(e, j, d - e, i)
            for e, j in gens
            for i in range(b.dim(d - e))
        )
        for prod in products:
            if len(span) == dim:
                break
            span.add(prod)
        gens += [(d, t) for t in range(dim) if t not in span.pivots]
    return gens


def sd_quotient(b: GradedAlgebra, ell: TopFunctional) -> SdQuotient:
    """B / I(L_ell): factor out the radical of the Frobenius form.

    B must be commutative and associative, as every ``build_quotient``
    output over an associative base is (``serialize.base_from_dict``
    refuses a base whose products are not associative).  The radical is
    built from the top degree down (``_radical_rows``) on the generators
    ``b.generators()``: B/Ann(ell) is Gorenstein, fixed by its inverse
    system.  It is an ideal by construction, since each degree is
    everything that a generator maps into the radical above; degrees above
    n are entirely radical.  Radical rows stay on Python ints from the
    elimination to the reducers, and a class becomes ``Fraction`` only at
    its output entries.  A wrong radical leaves a quotient without a unit,
    without a one-dimensional top or without Poincare duality, and each
    raises ``VerificationFailed``.
    """
    n = ell.degree
    gens = b.generators()
    reducers: dict[int, Reducer] = {}
    for k in range(n, -1, -2):
        if b.dim(k):
            rows = _radical_rows(b, ell, k, gens, reducers)
            reducers[k] = Reducer(rows, b.dim(k))
    reducers = dict(sorted(reducers.items()))
    kept = {k: red.keep for k, red in reducers.items() if red.keep}
    if 0 not in kept or len(kept.get(n, ())) != 1:
        raise VerificationFailed("self-dual quotient must have 1-dim degrees 0, n")
    alg = _quotient_algebra(b, reducers)
    # induced top functional: ell on a lift of the single top basis class
    functional = TopFunctional(alg, n, (ell.values[kept[n][0]],))
    if not check_poincare(alg, functional):
        raise VerificationFailed("sd quotient not Poincare")
    return SdQuotient(alg, functional, reducers)


# ---------------------------------------------------------------------------
# presented algebras and the quotient engine
# ---------------------------------------------------------------------------

# a relation is a homogeneous element of R[x_1..x_s]:
# dict  exponent tuple beta  ->  (base degree, base coefficient vector)
Relation = dict[tuple[int, ...], tuple[int, Vec]]


@dataclass(frozen=True)
class PresentedAlgebra:
    base: GradedAlgebra
    gen_names: tuple[str, ...]
    relations: tuple[Relation, ...]
    truncation: int

    def __post_init__(self):
        if self.truncation % 2:
            raise ValueError("truncation degree must be even")
        for rel in self.relations:
            degs = {rdeg + 2 * sum(beta) for beta, (rdeg, _) in rel.items()}
            if len(degs) > 1:
                raise NonHomogeneousRelation(f"relation of mixed degrees {degs}")


def _mono_sort_key(mono):
    """Descending monomial order: degrevlex on the x-part, base index tiebreak.

    ``mono`` is (base_degree, base_index, beta).  Larger monomials sort
    first, so rref pivots eliminate leading monomials and the quotient basis
    consists of trailing (standard) monomials.
    """
    rdeg, ridx, beta = mono
    return (-sum(beta), tuple(reversed(beta)), ridx)


def _powers(names, beta) -> list[str]:
    """The factors of a monomial: name^e for each e > 0, with ^1 left out."""
    return [name + (f"^{e}" if e > 1 else "") for name, e in zip(names, beta) if e]


def _mono_label(base: GradedAlgebra, gen_names, mono) -> str:
    rdeg, ridx, beta = mono
    bits = ([base.labels[rdeg][ridx]] if rdeg else []) + _powers(gen_names, beta)
    return "*".join(bits) if bits else base.labels[0][0]


@dataclass
class QuotientModel:
    """A built quotient of the free algebra ``free``: ``reducers[d]`` holds
    the relation span in degree d, and the basis is the free monomials at
    ``reducers[d].keep``."""

    presented: PresentedAlgebra
    algebra: GradedAlgebra
    free: FreeAlgebra
    reducers: dict[int, Reducer]

    def class_of(self, beta, gdeg: int = 0, gamma=None) -> Vec:
        """Quotient coordinates of p^*(gamma) * x^beta (see
        :meth:`FreeAlgebra.element`); zero above the truncation."""
        return _class(self.reducers, *self.free.element(beta, gdeg, gamma))


class FreeAlgebra(GradedAlgebra):
    """R[x_1..x_s] truncated above degree ``top``, on its free monomials
    (base degree, base index, beta): ``monomials[d]`` lists them in
    ``_mono_sort_key`` order, and ``column[d]`` maps each to its index.
    Callers name an element by (beta, base degree, base vector) through
    :meth:`element` and never build the monomial keys themselves.

    No product table is stored: a product of two monomials is computed when
    it is read, from the exponent sum and the base's structure constants.
    The monomials of one beta and one base degree sort by base index, so
    the product's columns ascend with the base's.  The generators are the
    x_i and the generators of the base.
    """

    __slots__ = ("base", "monomials", "column")

    def __init__(self, base: GradedAlgebra, gen_names, top: int):
        self.base = base
        self.monomials, self.column, labels = {}, {}, {}
        for d in range(0, top + 1, 2):
            monos = [
                (d - 2 * m, ridx, beta)
                for m in range(d // 2 + 1)
                for beta in monomials_of_degree(len(gen_names), m)
                for ridx in range(base.dim(d - 2 * m))
            ]
            monos.sort(key=_mono_sort_key)
            self.monomials[d] = monos
            self.column[d] = {m: t for t, m in enumerate(monos)}
            labels[d] = tuple(_mono_label(base, gen_names, m) for m in monos)
        self._set_degrees(top, labels)

    def product_pairs(self, a, i, b, j) -> SparseRow:
        d = a + b
        if d > self.top:
            return ()
        r1, i1, b1 = self.monomials[a][i]
        r2, i2, b2 = self.monomials[b][j]
        beta = tuple(map(add, b1, b2))
        column = self.column[d]
        return tuple(
            (column[(r1 + r2, t, beta)], c)
            for t, c in self.base.product_pairs(r1, i1, r2, i2)
        )

    def element(self, beta, gdeg: int = 0, gamma=None):
        """(degree, column pairs) of p^*(gamma) * x^beta, with gamma a
        coefficient vector of base degree ``gdeg`` (the unit by default);
        above the top the element is zero and has no pairs."""
        beta = tuple(beta)
        d = gdeg + 2 * sum(beta)
        if d > self.top:
            return d, ()
        column = self.column[d]
        gamma = (_ONE,) if gamma is None else gamma
        return d, [(column[(gdeg, u, beta)], c) for u, c in enumerate(gamma) if c]

    def generators(self) -> list[tuple[int, int]]:
        zero = self.monomials[0][0][2]
        xs = [(2, t) for t, m in enumerate(self.monomials.get(2, ())) if m[0] == 0]
        lifts = [(d, self.column[d][(d, u, zero)]) for d, u in self.base.generators()]
        return xs + lifts


def _relation_rows(base: GradedAlgebra, rel: Relation, multipliers, column):
    """The rows of mono * rel over the given multiplier monomials, as
    {column: coefficient} maps (empty when the product vanishes).

    The relation is scaled to integer coefficients first, which leaves the
    row space unchanged, so entries stay ints wherever the base structure
    constants are integers.
    """
    scale = lcm(
        *(cg.denominator for _, vec_g in rel.values() for cg in vec_g)
    )
    terms = [
        (beta_g, rg, tg, cg.numerator * (scale // cg.denominator))
        for beta_g, (rg, vec_g) in rel.items()
        for tg, cg in enumerate(vec_g)
        if cg
    ]
    rows = []
    for rm, im, bm in multipliers:
        row: dict[int, int | Fraction] = {}
        for beta_g, rg, tg, cg in terms:
            beta = tuple(map(add, bm, beta_g))
            for tt, cb in base.product_pairs(rm, im, rg, tg):
                col = column[(rm + rg, tt, beta)]
                x = cg * cb.numerator if cb.denominator == 1 else cg * cb
                row[col] = row.get(col, 0) + x
        rows.append(row)
    return rows


def build_quotient(p: PresentedAlgebra) -> QuotientModel:
    """Degreewise quotient of R[x_1..x_s] by homogeneous relations.

    For each even degree up to the truncation bound: enumerate every
    relation multiple landing there as a sparse row over the free
    monomials, row-reduce, and keep the non-pivot (standard) monomials as
    the quotient basis.
    """
    free = FreeAlgebra(p.base, p.gen_names, p.truncation)
    reducers: dict[int, Reducer] = {}
    for d, monos in free.monomials.items():
        rows = []
        for rel in p.relations:
            rel_deg = next(
                rdeg + 2 * sum(beta) for beta, (rdeg, _) in rel.items()
            )
            multipliers = free.monomials.get(d - rel_deg, [])
            rows += _relation_rows(p.base, rel, multipliers, free.column[d])
        reducers[d] = Reducer(echelon_int(row.items() for row in rows), len(monos))
    return QuotientModel(p, _quotient_algebra(free, reducers), free, reducers)


# ---------------------------------------------------------------------------
# differential-operator model
# ---------------------------------------------------------------------------


def _degree_classes(f: QPolynomial, j: int):
    """(basis, classes) of degree 2j, from the RREF of the matrix M_j whose
    columns are the images d^alpha f of the order-j monomials, in order.

    The pivot columns are the first alphas with independent images: the
    basis.  Column alpha holds the coordinates of d^alpha f on the basis
    images, the class of d^alpha; kernel row k is RREF row k times its pivot.
    """
    alphas = monomials_of_degree(len(f.vars), j)
    rows: dict[tuple[int, ...], list] = {}  # target monomial -> (column, value)
    for t, alpha in enumerate(alphas):
        image = apply_operator(QPolynomial(f.vars, {alpha: _ONE}), f)
        for e, c in image.terms.items():
            rows.setdefault(e, []).append((t, c))
    reduced = echelon_int(rows.values())
    classes = {alpha: () for alpha in alphas}
    for k, (p, row) in enumerate(reduced):
        for t, x in row.items():
            classes[alphas[t]] += ((k, Fraction(x, row[p])),)
    return [alphas[p] for p, _ in reduced], classes


@dataclass
class AnnModel:
    """Diff(V)/Ann(f) for homogeneous f of degree n: the graded algebra whose
    degree-2j part is the image of order-j operators applied to f.
    ``classes[2j]`` maps each order-j monomial alpha to the class of d^alpha
    as (index into ``op_basis[2j]``, value) pairs."""

    f: QPolynomial
    order: int
    algebra: GradedAlgebra
    op_basis: dict[int, list]
    classes: dict[int, dict[tuple[int, ...], SparseRow]]

    def operator_class(self, op: QPolynomial) -> tuple[int, Vec]:
        """(degree, coordinates) of the class of a homogeneous operator:
        the sum of c * class(d^alpha) over its terms c * x^alpha."""
        if op.vars != self.f.vars:
            raise DimensionMismatch("operator and polynomial over different variables")
        degs = {sum(e) for e in op.terms}
        if len(degs) != 1:
            raise NotHomogeneous("operator not homogeneous")
        j = degs.pop()
        if j > self.order:
            return 2 * j, ()
        out = [_ZERO] * len(self.op_basis[2 * j])
        for alpha, c in op.terms.items():
            for i, x in self.classes[2 * j][alpha]:
                out[i] += c * x
        return 2 * j, tuple(out)


def ann_quotient(f: QPolynomial, order: int) -> AnnModel:
    """The algebra of constant-coefficient operators modulo Ann(f).

    One elimination per degree (``_degree_classes``) gives the basis, the
    first (monomial-ordered) operators whose images d(f) are independent,
    and the class of every monomial; a structure constant is the class of
    the composed monomial.  ``ring_via_diff`` checks Poincare duality.
    """
    if not f.is_homogeneous() or f.degree() != order:
        raise NotHomogeneous(f"f must be homogeneous of degree {order}")
    op_basis, classes = {}, {}
    for j in range(order + 1):
        op_basis[2 * j], classes[2 * j] = _degree_classes(f, j)
    labels = {d: [_op_label(f.vars, a) for a in ops] for d, ops in op_basis.items()}
    products = {
        (a, i, b, k): classes[a + b][tuple(map(add, op_basis[a][i], op_basis[b][k]))]
        for a, i, b, k in product_keys(labels)
    }
    algebra = GradedAlgebra.from_pairs(2 * order, labels, products)
    return AnnModel(f, order, algebra, op_basis, classes)


def ann_top_functional(model: AnnModel) -> TopFunctional:
    """ell(d) = d(f)/order! on the (one-dimensional) top degree, where
    d^alpha f = alpha! * (the coefficient of x^alpha in f) for |alpha| = n."""
    n = model.order
    (alpha,) = model.op_basis[2 * n]
    value = model.f.coefficient(alpha) * prod(map(factorial, alpha)) / factorial(n)
    return TopFunctional(model.algebra, 2 * n, (value,))


def _op_label(vars, alpha) -> str:
    return "*".join(_powers([f"d{v}" for v in vars], alpha)) or "1"


# ---------------------------------------------------------------------------
# graded isomorphism checking
# ---------------------------------------------------------------------------


def graded_isomorphic(
    a: GradedAlgebra,
    b: GradedAlgebra,
    gen_map,
    extension: dict[int, list] | None = None,
) -> bool:
    """Does the degree-2 map extend to a graded algebra isomorphism?

    ``gen_map``: rows = images in B^2-coordinates of A's degree-2 basis.
    Higher degrees are generated as A^2 * A^(d-2); if some degree of A is not
    spanned this way, an explicit ``extension[d]`` matrix must be supplied,
    otherwise ``NotGenerated`` is raised.  The candidate maps are then
    verified against every structure constant.
    """
    if a.top != b.top:
        return False
    for d in range(0, a.top + 1, 2):
        if a.dim(d) != b.dim(d):
            return False
    phi: dict[int, list[Vec]] = {0: [(Fraction(1),)]}
    if a.dim(2):
        phi[2] = [tuple(Fraction(x) for x in row) for row in gen_map]
        if len(phi[2]) != a.dim(2) or any(
            len(r) != b.dim(2) for r in phi[2]
        ):
            return False

    for d in range(4, a.top + 1, 2):
        if a.dim(d) == 0:
            continue
        if extension and d in extension:
            phi[d] = [tuple(Fraction(x) for x in row) for row in extension[d]]
            continue
        rows_a, rows_b = [], []
        for i in range(a.dim(2)):
            for j in range(a.dim(d - 2)):
                rows_a.append(list(a.basis_product(2, i, d - 2, j)))
                img = b.multiply(2, phi[2][i], d - 2, phi[d - 2][j])
                rows_b.append(list(img))
        if not rows_a:
            raise NotGenerated(f"degree {d} not reachable from degree 2")
        aug, pivots = rref(QMatrix([ra + rb for ra, rb in zip(rows_a, rows_b)]))
        na = a.dim(d)
        if any(p >= na for p in pivots):
            return False  # a combination vanishing in A does not vanish in B
        if len(pivots) < na:
            raise NotGenerated(f"degree {d} not spanned by degree-2 products")
        phi_d = [None] * na
        for r, p in enumerate(pivots):
            phi_d[p] = tuple(aug.entries[r][na:])
        # pivots cover every A-column exactly when rank == dim A^d
        phi[d] = phi_d

    # bijectivity in each degree
    for d, rows in phi.items():
        if rank(QMatrix(rows)) != a.dim(d):
            return False

    # multiplicativity on every stored structure constant; the pairs that
    # product_keys leaves out agree by construction: products with the unit
    # (phi fixes it), products into an empty degree (the dims were checked
    # equal first) and swapped factors (both algebras are commutative)
    for da, i, db, j in product_keys(a.labels):
        d = da + db
        lhs = [_ZERO] * b.dim(d)
        for t, c in a.product_pairs(da, i, db, j):
            for u, x in enumerate(phi[d][t]):
                lhs[u] += c * x
        if tuple(lhs) != b.multiply(da, phi[da][i], db, phi[db][j]):
            return False
    return True
