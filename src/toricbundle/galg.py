"""Finite-dimensional commutative graded algebras over the rationals.

Everything is concentrated in even degrees (all targets here have vanishing
odd cohomology), so no Koszul signs appear anywhere.  The module provides

* ``GradedAlgebra``: per-degree bases plus structure constants;
* ``build_quotient``: the degreewise quotient engine for presented algebras
  R[x_1..x_s]/(relations), with deterministic monomial order;
* Frobenius forms, the self-dual quotient B/I(L_ell) obtained by factoring
  out the radical of the Frobenius form degree by degree.  Pairing entries
  and products are read from the structure constants, and classes are
  computed only at the surviving basis columns (``exactlin.reduce_onto``);
  the exhaustive check that the radical is an ideal stays;
* the differential-operator model Diff(V)/Ann(f);
* graded isomorphism checking by multiplicative extension of a degree-2 map.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from toricbundle.errors import (
    NonHomogeneousRelation,
    NotGenerated,
    NotHomogeneous,
    VerificationFailed,
    ZeroFunctional,
)
from toricbundle.exactlin import QMatrix, kernel_basis, reduce_onto, rref, solve
from toricbundle.qpoly import QPolynomial, apply_operator, monomials_of_degree

Vec = tuple[Fraction, ...]


def _vzero(n: int) -> Vec:
    return (Fraction(0),) * n


def _vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def _vscale(c, a: Vec) -> Vec:
    c = Fraction(c)
    return tuple(c * x for x in a)


class GradedAlgebra:
    """Commutative graded algebra in even degrees with a degree-0 unit.

    ``labels[d]`` names the basis of the degree-d component; ``products``
    maps ``(a, i, b, j)`` with a <= b to the coefficient vector of the
    product in degree a+b (zero vector when a+b exceeds the top degree).
    """

    __slots__ = ("top", "labels", "products")

    def __init__(self, top, labels, products):
        self.top = int(top)
        self.labels = {int(d): tuple(ls) for d, ls in labels.items() if ls}
        if self.top % 2 or any(d % 2 for d in self.labels):
            raise ValueError("odd degree in even-degree algebra")
        if self.dim(0) != 1:
            raise ValueError("degree 0 must be one-dimensional")
        self.products = {
            k: tuple(x if type(x) is Fraction else Fraction(x) for x in v)
            for k, v in products.items()
        }

    def degrees(self):
        return sorted(self.labels)

    def dim(self, d: int) -> int:
        return len(self.labels.get(d, ()))

    def dims(self) -> tuple[int, ...]:
        return tuple(self.dim(d) for d in range(0, self.top + 1, 2))

    def total_dim(self) -> int:
        return sum(self.dims())

    def basis_product(self, a, i, b, j) -> Vec:
        if a > b or (a == b and i > j):
            a, i, b, j = b, j, a, i
        d = a + b
        if d > self.top or not self.dim(d):
            return _vzero(self.dim(d))
        if a == 0:
            return _unit(self.dim(d), j)
        return self.products[(a, i, b, j)]

    def multiply(self, a: int, avec, b: int, bvec) -> Vec:
        d = a + b
        out = list(_vzero(self.dim(d)))
        for i, ca in enumerate(avec):
            if not ca:
                continue
            for j, cb in enumerate(bvec):
                if not cb:
                    continue
                for t, cp in enumerate(self.basis_product(a, i, b, j)):
                    if cp:
                        out[t] += ca * cb * cp
        return tuple(out)

    def times_basis(self, a: int, avec, b: int, j: int) -> Vec:
        """Product of a degree-a element with the j-th degree-b basis element."""
        out = list(_vzero(self.dim(a + b)))
        for i, ca in enumerate(avec):
            if not ca:
                continue
            for t, cp in enumerate(self.basis_product(a, i, b, j)):
                if cp:
                    out[t] += ca * cp
        return tuple(out)

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


def _unit(n: int, i: int) -> Vec:
    v = list(_vzero(n))
    v[i] = Fraction(1)
    return tuple(v)


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


def frobenius_matrix(b: GradedAlgebra, ell: TopFunctional, k: int) -> QMatrix:
    """Pairing matrix of B^k x B^{n-k} -> Q, (i, j) |-> ell(b_i * b_j).

    Each entry sums ell_t * (b_i * b_j)_t over the t where both are nonzero.
    """
    n = ell.degree
    support = [(t, v) for t, v in enumerate(ell.values) if v]
    rows = []
    for i in range(b.dim(k)):
        row = []
        for j in range(b.dim(n - k)):
            prod = b.basis_product(k, i, n - k, j)
            terms = (v * prod[t] for t, v in support if prod[t])
            row.append(sum(terms, Fraction(0)))
        rows.append(row)
    if not rows or not rows[0]:
        dims = (max(b.dim(k), 1), max(b.dim(n - k), 1))
        return QMatrix([[Fraction(0)] * dims[1] for _ in range(dims[0])])
    return QMatrix(rows)


def check_poincare(a: GradedAlgebra, ell: TopFunctional) -> bool:
    """Poincare duality of the pairing induced by ell on its degree."""
    n = ell.degree
    if a.dim(n) != 1 or any(d > n for d in a.degrees()):
        return False
    for k in range(0, n + 1, 2):
        if a.dim(k) != a.dim(n - k):
            return False
        if a.dim(k) == 0:
            continue
        m = frobenius_matrix(a, ell, k)
        if len(rref(m)[1]) != a.dim(k):
            return False
    return True


# ---------------------------------------------------------------------------
# self-dual quotient
# ---------------------------------------------------------------------------


@dataclass
class SdQuotient:
    """Quotient of B by the radical of the Frobenius form of ell."""

    algebra: GradedAlgebra
    functional: TopFunctional  # induced ell_* on the quotient top degree
    kept: dict[int, tuple[int, ...]]  # surviving basis positions per degree
    reducers: dict[int, tuple[tuple[Vec, ...], tuple[int, ...]]]

    def project(self, d: int, vec) -> Vec:
        """Coordinates of the class of a degree-d element of B."""
        if d not in self.kept:
            return ()
        rows, pivots = self.reducers[d]
        return reduce_onto(rows, pivots, self.kept[d], vec)


def sd_quotient(b: GradedAlgebra, ell: TopFunctional) -> SdQuotient:
    """B / I(L_ell): factor the radical of the Frobenius form degreewise.

    The radical in degree k is the left kernel of the pairing matrix
    B^k x B^{n-k}; degrees above n are entirely radical.  Well-definedness of
    the induced multiplication is re-verified exhaustively rather than
    assumed: every radical row times every basis element of B must project
    to zero.  Those products are built from the nonzero entries of the row
    and the structure constants, and projected only onto the surviving
    columns.  A failed check raises ``VerificationFailed``.
    """
    n = ell.degree
    kept: dict[int, tuple[int, ...]] = {}
    reducers: dict[int, tuple[tuple[Vec, ...], tuple[int, ...]]] = {}
    for k in range(0, n + 1, 2):
        dk = b.dim(k)
        if dk == 0:
            continue
        if b.dim(n - k) == 0:
            rad = [_unit(dk, j) for j in range(dk)]
        else:
            m = frobenius_matrix(b, ell, k)
            # radical = left kernel of the pairing matrix
            rad = kernel_basis(m.transpose())
        if rad:
            rr, rp = rref(QMatrix(rad))
            rows = tuple(rr.entries[i] for i in range(len(rp)))
        else:
            rows, rp = (), ()
        reducers[k] = (rows, rp)
        kept[k] = tuple(j for j in range(dk) if j not in set(rp))
        if not kept[k]:
            del kept[k]

    out = SdQuotient(None, None, kept, reducers)
    labels = {
        d: tuple(b.labels[d][j] for j in idxs) for d, idxs in kept.items()
    }
    products = {}
    degs = sorted(kept)
    for a in degs:
        for e in degs:
            if a > e or a == 0:
                continue
            for i, bi in enumerate(kept[a]):
                for j, bj in enumerate(kept[e]):
                    if a == e and i > j:
                        continue
                    prod = b.basis_product(a, bi, e, bj)
                    products[(a, i, e, j)] = out.project(a + e, prod)
    alg = GradedAlgebra(n, labels, products)

    # induced top functional: ell on a lift of the single top basis class
    if alg.dim(n) != 1:
        raise VerificationFailed("self-dual quotient must have 1-dim top degree")
    lift = [Fraction(0)] * b.dim(n)
    lift[kept[n][0]] = Fraction(1)
    out.algebra = alg
    out.functional = TopFunctional(alg, n, (ell.of(n, lift),))

    # well-definedness: radical * (every original basis element) is radical
    for k, (rows, _) in reducers.items():
        for r in rows:
            for d in b.degrees():
                if k + d > n:
                    continue
                for j in range(b.dim(d)):
                    if any(out.project(k + d, b.times_basis(k, r, d, j))):
                        raise VerificationFailed(
                            "induced multiplication ill-defined"
                        )

    if not check_poincare(alg, out.functional):
        raise VerificationFailed("sd quotient not Poincare")
    return out


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


def _mono_label(base: GradedAlgebra, gen_names, mono) -> str:
    rdeg, ridx, beta = mono
    bits = []
    if rdeg != 0:
        bits.append(base.labels[rdeg][ridx])
    for name, e in zip(gen_names, beta):
        if e == 1:
            bits.append(name)
        elif e > 1:
            bits.append(f"{name}^{e}")
    return "*".join(bits) if bits else base.labels[0][0]


@dataclass
class QuotientModel:
    """A built quotient: algebra plus the normal-form machinery behind it."""

    presented: PresentedAlgebra
    algebra: GradedAlgebra
    monomials: dict[int, list]
    column: dict[int, dict]
    reducers: dict[int, tuple]
    basis_monos: dict[int, list]

    def normal_form(self, d: int, coeff_map) -> Vec:
        """Quotient coordinates of sum coeff * monomial in degree d."""
        if d > self.presented.truncation or d not in self.monomials:
            return ()
        v = [Fraction(0)] * len(self.monomials[d])
        for mono, c in coeff_map.items():
            v[self.column[d][mono]] += Fraction(c)
        rows, pivots = self.reducers[d]
        basis_cols = [self.column[d][m] for m in self.basis_monos[d]]
        return reduce_onto(rows, pivots, basis_cols, v)

    def monomial_class(self, mono) -> tuple[int, Vec]:
        rdeg, ridx, beta = mono
        d = rdeg + 2 * sum(beta)
        return d, self.normal_form(d, {mono: Fraction(1)})

    def free_dims(self) -> dict[int, int]:
        return {d: len(ms) for d, ms in self.monomials.items()}


def _expand_product(base: GradedAlgebra, m1, m2):
    """Product of two free monomials as a coefficient map on free monomials."""
    r1, i1, b1 = m1
    r2, i2, b2 = m2
    beta = tuple(a + b for a, b in zip(b1, b2))
    d = r1 + r2
    out = {}
    if d > base.top:
        return out
    prod = base.basis_product(r1, i1, r2, i2)
    for t, c in enumerate(prod):
        if c:
            out[(d, t, beta)] = c
    return out


def build_quotient(p: PresentedAlgebra) -> QuotientModel:
    """Degreewise quotient of R[x_1..x_s] by homogeneous relations.

    For each even degree up to the truncation bound: enumerate the monomial
    spanning set, enumerate every relation multiple landing there, row-reduce,
    and keep the non-pivot (standard) monomials as the quotient basis.
    """
    base = p.base
    s = len(p.gen_names)
    monomials: dict[int, list] = {}
    column: dict[int, dict] = {}
    reducers: dict[int, tuple] = {}
    basis_monos: dict[int, list] = {}

    for d in range(0, p.truncation + 1, 2):
        monos = []
        for m in range(d // 2 + 1):
            rdeg = d - 2 * m
            if base.dim(rdeg) == 0:
                continue
            for beta in monomials_of_degree(s, m):
                for ridx in range(base.dim(rdeg)):
                    monos.append((rdeg, ridx, beta))
        monos.sort(key=_mono_sort_key)
        monomials[d] = monos
        column[d] = {m: t for t, m in enumerate(monos)}

    for d in range(0, p.truncation + 1, 2):
        rows = []
        for rel in p.relations:
            rel_deg = next(
                rdeg + 2 * sum(beta) for beta, (rdeg, _) in rel.items()
            )
            mult_deg = d - rel_deg
            if mult_deg < 0:
                continue
            for mono in monomials.get(mult_deg, []):
                row = [Fraction(0)] * len(monomials[d])
                rm, im, bm = mono
                nonzero = False
                for beta_g, (rg, vec_g) in rel.items():
                    if rm + rg > base.top:
                        continue
                    for tg, cg in enumerate(vec_g):
                        if not cg:
                            continue
                        bprod = base.basis_product(rm, im, rg, tg)
                        beta = tuple(a + b for a, b in zip(bm, beta_g))
                        for tt, cb in enumerate(bprod):
                            if cb:
                                row[column[d][(rm + rg, tt, beta)]] += cg * cb
                                nonzero = True
                if nonzero:
                    rows.append(row)
        if rows:
            rr, pivots = rref(QMatrix(rows))
            rrows = tuple(rr.entries[i] for i in range(len(pivots)))
        else:
            rrows, pivots = (), ()
        reducers[d] = (rrows, pivots)
        pivset = set(pivots)
        basis_monos[d] = [
            m for t, m in enumerate(monomials[d]) if t not in pivset
        ]

    labels = {
        d: tuple(_mono_label(base, p.gen_names, m) for m in ms)
        for d, ms in basis_monos.items()
        if ms
    }
    model = QuotientModel(p, None, monomials, column, reducers, basis_monos)

    products = {}
    degs = sorted(d for d in labels)
    for a in degs:
        for b in degs:
            if a > b or a == 0:
                continue
            for i, m1 in enumerate(basis_monos[a]):
                for j, m2 in enumerate(basis_monos[b]):
                    if a == b and i > j:
                        continue
                    d = a + b
                    if d > p.truncation or not labels.get(d):
                        products[(a, i, b, j)] = ()
                        continue
                    coeff_map = _expand_product(base, m1, m2)
                    products[(a, i, b, j)] = model.normal_form(d, coeff_map)

    top = max(degs)
    model.algebra = GradedAlgebra(top, labels, products)
    return model


# ---------------------------------------------------------------------------
# differential-operator model
# ---------------------------------------------------------------------------


@dataclass
class AnnModel:
    """Diff(V)/Ann(f) for homogeneous f of degree n: the graded algebra whose
    degree-2j part is the image of order-j operators applied to f."""

    f: QPolynomial
    order: int
    algebra: GradedAlgebra
    op_basis: dict[int, list]
    image_rows: dict[int, QMatrix]  # images of basis operators, as rows

    def operator_class(self, op: QPolynomial) -> tuple[int, Vec]:
        """(degree, coordinates) of the class of a homogeneous operator."""
        degs = {sum(e) for e in op.terms}
        if len(degs) != 1:
            raise NotHomogeneous("operator not homogeneous")
        j = degs.pop()
        if j > self.order:
            return 2 * j, ()
        img = apply_operator(op, self.f)
        target = monomials_of_degree(len(self.f.vars), self.order - j)
        rhs = [img.coefficient(e) for e in target]
        if 2 * j not in self.image_rows:
            assert not any(rhs), "nonzero image in a zero component"
            return 2 * j, ()
        sol = solve(self.image_rows[2 * j].transpose(), rhs)
        assert sol is not None, "operator image outside the model"
        return 2 * j, sol


def ann_quotient(f: QPolynomial, order: int) -> AnnModel:
    """The algebra of constant-coefficient operators modulo Ann(f).

    Degree-2j basis: the first (monomial-ordered) operators of order j whose
    images under d |-> d(f) are linearly independent; multiplication is
    operator composition followed by application to f; the top functional is
    d |-> d(f)/order! on order-n operators.
    """
    nvars = len(f.vars)
    if not f.is_homogeneous() or f.degree() != order:
        raise NotHomogeneous(f"f must be homogeneous of degree {order}")
    op_basis: dict[int, list] = {}
    image_rows: dict[int, QMatrix] = {}
    labels = {}
    for j in range(order + 1):
        target = monomials_of_degree(nvars, order - j)
        chosen = []
        rows = []
        rank = 0
        for alpha in monomials_of_degree(nvars, j):
            op = QPolynomial(f.vars, {alpha: Fraction(1)})
            img = apply_operator(op, f)
            row = [img.coefficient(e) for e in target]
            if not any(row):
                continue
            new_rank = len(rref(QMatrix(rows + [row]))[1])
            if new_rank > rank:
                chosen.append(alpha)
                rows.append(row)
                rank = new_rank
        op_basis[2 * j] = chosen
        if rows:
            image_rows[2 * j] = QMatrix(rows)
            labels[2 * j] = tuple(_op_label(f.vars, a) for a in chosen)

    model = AnnModel(f, order, None, op_basis, image_rows)
    products = {}
    degs = sorted(labels)
    for a in degs:
        for b in degs:
            if a > b or a == 0:
                continue
            for i, al in enumerate(op_basis[a]):
                for j, be in enumerate(op_basis[b]):
                    if a == b and i > j:
                        continue
                    comp = tuple(x + y for x, y in zip(al, be))
                    if a + b > 2 * order or not op_basis.get(a + b):
                        products[(a, i, b, j)] = ()
                        continue
                    _, vec = model.operator_class(
                        QPolynomial(f.vars, {comp: Fraction(1)})
                    )
                    products[(a, i, b, j)] = vec
    model.algebra = GradedAlgebra(2 * order, labels, products)
    return model


def ann_top_functional(model: AnnModel) -> TopFunctional:
    """ell(d) = d(f)/order! on the (one-dimensional) top degree."""
    (alpha,) = model.op_basis[2 * model.order]
    op = QPolynomial(model.f.vars, {alpha: Fraction(1)})
    const = apply_operator(op, model.f).coefficient((0,) * len(model.f.vars))
    return TopFunctional(
        model.algebra,
        2 * model.order,
        (const / factorial(model.order),),
    )


def _op_label(vars, alpha) -> str:
    bits = [
        f"d{v}" + (f"^{e}" if e > 1 else "")
        for v, e in zip(vars, alpha)
        if e
    ]
    return "*".join(bits) if bits else "1"


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
        if len(rref(QMatrix([list(r) for r in rows]))[1]) != a.dim(d):
            return False

    # exhaustive verification of multiplicativity
    for da in a.degrees():
        for db in a.degrees():
            if da > db:
                continue
            d = da + db
            for i in range(a.dim(da)):
                for j in range(a.dim(db)):
                    prod = a.basis_product(da, i, db, j)
                    if d <= a.top and a.dim(d):
                        lhs = [Fraction(0)] * b.dim(d)
                        for t, c in enumerate(prod):
                            if c:
                                for u, x in enumerate(phi[d][t]):
                                    lhs[u] += c * x
                    else:
                        lhs = []
                    rhs = b.multiply(da, phi[da][i], db, phi[db][j]) if (
                        d <= b.top and b.dim(d)
                    ) else ()
                    if tuple(lhs) != tuple(rhs):
                        return False
    return True
