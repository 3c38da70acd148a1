"""Graded algebras: quotient engine, Frobenius forms, self-dual quotients,
operator models, isomorphism checking."""

import functools
import random
from fractions import Fraction as F
from math import factorial
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    apply_operator,
    column_degree_classes,
    eager_quotient_algebra,
    full_functional,
    full_table,
    int_rows,
    kernel_basis,
    rel_degree,
    relation_rows,
    substituted_element,
)
from toricbundle import galg
from toricbundle.catalog import SPECS
from toricbundle.errors import (
    EmptyRelation,
    NonHomogeneousRelation,
    VerificationFailed,
    ZeroFunctional,
)
from toricbundle.exactlin import (
    QMatrix,
    Reducer,
    Span,
    echelon_int,
    kernel_int,
    rank,
    rref,
    solve,
)
from toricbundle.galg import (
    FreeAlgebra,
    GradedAlgebra,
    PresentedAlgebra,
    TopFunctional,
    _unit,
    ann_quotient,
    ann_top_functional,
    build_quotient,
    check_poincare,
    frobenius_matrix,
    graded_isomorphic,
    product_keys,
    sd_quotient,
)
from toricbundle.qpoly import QPolynomial, monomials_of_degree

PT = GradedAlgebra(0, {0: ("1",)}, {})


def trunc_poly_algebra(ngens: int, top: int):
    names = tuple(f"x{i + 1}" for i in range(ngens))
    return build_quotient(PresentedAlgebra(PT, names, (), top))


def test_odd_degree_algebra_rejected():
    """Odd and negative degrees are refused where an algebra is built, so
    no such base reaches the bundle builders (a negative one once ended in
    a bare KeyError from the associativity check)."""
    with pytest.raises(ValueError, match="odd degree"):
        GradedAlgebra(3, {0: ("1",), 2: ("H",)}, {})
    with pytest.raises(ValueError, match="odd degree"):
        GradedAlgebra(2, {0: ("1",), 1: ("e",), 2: ("H",)}, {})
    with pytest.raises(ValueError, match="negative degree -2 in a graded algebra"):
        GradedAlgebra(2, {-2: ("z",), 0: ("1",), 2: ("H",)}, {})


def test_build_quotient_p1():
    rel_sr = {(1, 1): (0, (F(1),))}
    rel_lin = {(1, 0): (0, (F(1),)), (0, 1): (0, (F(-1),))}
    m = build_quotient(PresentedAlgebra(PT, ("x1", "x2"), (rel_sr, rel_lin), 4))
    assert m.algebra.dims() == (1, 1)
    assert m.class_of((2, 0)) == ()  # x1^2 = 0


def test_build_quotient_p2():
    r1 = {(1, 1, 1): (0, (F(1),))}
    r2 = {(1, 0, 0): (0, (F(1),)), (0, 0, 1): (0, (F(-1),))}
    r3 = {(0, 1, 0): (0, (F(1),)), (0, 0, 1): (0, (F(-1),))}
    m = build_quotient(PresentedAlgebra(PT, ("x1", "x2", "x3"), (r1, r2, r3), 6))
    assert m.algebra.dims() == (1, 1, 1)
    # x1*x1 equals the top class x1*x3
    assert m.class_of((2, 0, 0)) == m.class_of((1, 0, 1))


# P^1 x P^1 as a base table: two degree-2 classes with a*b the point
P1XP1 = GradedAlgebra(
    4,
    {0: ("1",), 2: ("a", "b"), 4: ("ab",)},
    {(2, 0, 2, 0): (), (2, 0, 2, 1): ((0, F(1)),), (2, 1, 2, 1): ()},
)


def _all_multiples_quotient(p):
    """(free, reducers, algebra): every relation multiple over all the x_i
    eliminated in each degree, the route that build_quotient replaced; kept
    as its oracle."""
    free = FreeAlgebra(p.base, p.gen_names, p.truncation)
    reducers = {}
    for d, monos in free.monomials.items():
        rows = []
        for rel in p.relations:
            multipliers = free.monomials.get(d - rel_degree(rel), [])
            rows += relation_rows(p.base, rel, multipliers, free.column[d])
        reducers[d] = Reducer(echelon_int(row.items() for row in rows), len(monos))
    return free, reducers, eager_quotient_algebra(free, reducers)


@st.composite
def presentations(draw):
    """R[x_1..x_s] over the point or over P^1 x P^1, modulo random degree-2
    relations (perhaps a dependent one, perhaps one without x-part) and
    random degree-4 relations."""
    base = draw(st.sampled_from((PT, P1XP1)))
    s = draw(st.integers(1, 3))
    names = tuple(f"x{i + 1}" for i in range(s))
    zero = (0,) * s
    coeffs = st.integers(-2, 2)
    # a degree-2 element: coefficients of x_1..x_s, then of the base classes
    width = s + base.dim(2)
    lin = draw(st.lists(st.lists(coeffs, min_size=width, max_size=width), max_size=2))
    if lin and draw(st.booleans()):
        c1, c2 = draw(coeffs), draw(coeffs)
        lin.append([c1 * a + c2 * b for a, b in zip(lin[0], lin[-1])])
    if base.dim(2) and draw(st.booleans()):
        lin.append([0] * s + draw(st.lists(coeffs, min_size=2, max_size=2)))
    rels = []
    for row in lin:
        rel = {
            tuple(int(j == i) for j in range(s)): (0, (F(c),))
            for i, c in enumerate(row[:s])
            if c
        }
        if any(row[s:]):
            rel[zero] = (2, tuple(F(c) for c in row[s:]))
        if rel:
            rels.append(rel)
    for _ in range(draw(st.integers(0, 2))):
        rel = {}
        for e in monomials_of_degree(s, 2):
            if c := draw(coeffs):
                rel[e] = (0, (F(c),))
        for e in monomials_of_degree(s, 1) if base.dim(2) else ():
            vec = tuple(F(draw(coeffs)) for _ in range(base.dim(2)))
            if any(vec):
                rel[e] = (2, vec)
        if base.dim(4) and (c := draw(coeffs)):
            rel[zero] = (4, (F(c),))
        if rel:
            rels.append(rel)
    top = draw(st.sampled_from((4, 6)))
    return PresentedAlgebra(base, names, tuple(rels), top)


@settings(max_examples=80, deadline=None)
@given(presentations())
def test_build_quotient_matches_all_multiples(p):
    """Solving the degree-2 relations first gives the oracle's labels and
    structure constants, and the class of every free monomial over all the
    x_i, an eliminated one included, is the oracle's."""
    free, reducers, want = _all_multiples_quotient(p)
    model = build_quotient(p)
    assert model.algebra.top == want.top
    assert model.algebra.labels == want.labels
    assert full_table(model.algebra) == full_table(want)
    for d, monos in free.monomials.items():
        for t, (rdeg, ridx, beta) in enumerate(monos):
            gamma = _unit(p.base.dim(rdeg), ridx)
            oracle = galg._class(reducers, d, ((t, F(1)),))
            assert model.class_of(beta, rdeg, gamma) == oracle


@settings(max_examples=60, deadline=None)
@given(presentations(), st.data())
def test_computed_tables_match_the_eager_oracle(p, data):
    """A quotient's table, computed on first read, equals the table built up
    front (``helpers.eager_quotient_algebra``), for a presented algebra and
    for its self-dual quotient by a random functional.  The keys are read
    in a random order, each once with the factors swapped, so no product
    depends on which ones the table already holds."""
    model = build_quotient(p)
    alg = model.algebra
    deg = data.draw(st.sampled_from(alg.degrees()))
    width = alg.dim(deg)
    values = data.draw(st.lists(st.integers(-3, 3), min_size=width, max_size=width))
    quotients = [(model.free, model.reducers)]
    if any(values):
        sq = sd_quotient(alg, TopFunctional(alg, deg, values))
        quotients.append((alg, sq.reducers))
    for b, reducers in quotients:
        lazy = galg._quotient_algebra(b, reducers)
        eager = eager_quotient_algebra(b, reducers)
        assert (lazy.top, lazy.labels) == (eager.top, eager.labels)
        keys = data.draw(st.permutations(list(galg.product_keys(eager.labels))))
        for a, i, e, j in keys:
            want = eager.product_pairs(a, i, e, j)
            assert lazy.product_pairs(e, j, a, i) == want
            assert lazy.product_pairs(a, i, e, j) == want


@settings(max_examples=80, deadline=None)
@given(presentations())
def test_free_element_matches_dense_substitution(p):
    """The memoised element map of the built free algebra is the dense
    substitution, one power of an eliminated x_p at a time, on every free
    monomial over all the x_i, an eliminated one included."""
    model = build_quotient(p)
    full = FreeAlgebra(p.base, p.gen_names, p.truncation)
    for d, monos in full.monomials.items():
        for rdeg, ridx, beta in monos:
            gamma = _unit(p.base.dim(rdeg), ridx)
            got_d, pairs = model.free.element(beta, rdeg, gamma)
            assert got_d == d
            assert dict(pairs) == substituted_element(model.free, beta, rdeg, gamma)


def test_build_quotient_solves_degree_two_relations():
    """x1 = x2 + a is solved for x1, the leading monomial, so the free
    algebra holds x2 alone; b = 0, without x-part, stays a relation."""
    rels = (
        {(1, 0): (0, (F(1),)), (0, 1): (0, (F(-1),)), (0, 0): (2, (F(-1), F(0)))},
        {(0, 0): (2, (F(0), F(1)))},
    )
    model = build_quotient(PresentedAlgebra(P1XP1, ("x1", "x2"), rels, 4))
    assert model.free.solved == {0: (((0, 0, (0, 1)), F(1)), ((2, 0, (0, 0)), F(1)))}
    assert model.free.labels[2] == ("x2", "a", "b")
    assert model.algebra.labels == {0: ("1",), 2: ("x2", "a"), 4: ("x2^2", "a*x2")}
    assert model.class_of((1, 0)) == (F(1), F(1))  # x1 = x2 + a
    assert model.class_of((2, 0)) == (F(1), F(2))  # a^2 = 0 on P^1 x P^1


def test_build_quotient_truncated_free():
    m = trunc_poly_algebra(1, 4)
    assert m.algebra.dims() == (1, 1, 1)


def test_build_quotient_rejects_mixed_degree():
    bad = {(1, 0): (0, (F(1),)), (0, 0): (0, (F(1),))}
    with pytest.raises(NonHomogeneousRelation):
        PresentedAlgebra(PT, ("x1", "x2"), (bad,), 4)


def test_presented_algebra_rejects_an_empty_relation():
    """The zero polynomial as a relation has no degree; it is refused when
    the presentation is built, before any quotient is."""
    with pytest.raises(EmptyRelation):
        PresentedAlgebra(PT, ("x1",), ({},), 4)


def test_algebra_is_associative():
    m = trunc_poly_algebra(2, 6)
    assert m.algebra.check_associative()


def _nested_loop_keys(labels):
    """The table walk each builder used to write out by hand."""
    degs = sorted(d for d, ls in labels.items() if ls)
    for a in degs:
        for b in degs:
            if a > b or a == 0 or a + b not in degs:
                continue
            for i in range(len(labels[a])):
                for j in range(len(labels[b])):
                    if a == b and i > j:
                        continue
                    yield a, i, b, j


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.integers(1, 8).map(lambda k: 2 * k), st.integers(0, 3), max_size=8
    )
)
def test_product_keys_match_nested_loop(dims):
    """product_keys yields the keys of the old nested loop, in its order, on
    degree maps with empty degrees and gaps."""
    labels = {d: tuple(f"e{d}_{i}" for i in range(n)) for d, n in dims.items()}
    labels[0] = ("1",)
    assert list(galg.product_keys(labels)) == list(_nested_loop_keys(labels))


def test_frobenius_examples():
    b = trunc_poly_algebra(1, 4).algebra  # Q[x]/(x^3) in degrees 0,2,4
    ell = TopFunctional(b, 4, (F(1),))
    assert frobenius_matrix(b, ell, 2).entries == ((F(1),),)
    assert frobenius_matrix(b, ell, 0).entries == ((F(1),),)
    assert check_poincare(b, ell)


def test_frobenius_p1xp1_rank():
    rels = (
        {(1, 0, 1, 0): (0, (F(1),))},
        {(0, 1, 0, 1): (0, (F(1),))},
        {(1, 0, 0, 0): (0, (F(1),)), (0, 0, 1, 0): (0, (F(-1),))},
        {(0, 1, 0, 0): (0, (F(1),)), (0, 0, 0, 1): (0, (F(-1),))},
    )
    m = build_quotient(
        PresentedAlgebra(PT, ("x1", "x2", "x3", "x4"), rels, 6)
    )
    assert m.algebra.dims() == (1, 2, 1)
    ell = TopFunctional(m.algebra, 4, (F(1),))
    fm = frobenius_matrix(m.algebra, ell, 2)
    assert rank(fm.entries) == 2


def test_zero_functional_rejected():
    b = trunc_poly_algebra(1, 4).algebra
    with pytest.raises(ZeroFunctional):
        TopFunctional(b, 4, (F(0),))


def test_poincare_fails_with_dead_generator():
    # Q[x]/(x^2) with an extra degree-2 generator killing everything
    labels = {0: ("1",), 2: ("x", "y"), 4: ("x^2",)}
    products = {
        (2, 0, 2, 0): ((0, F(1)),),
        (2, 0, 2, 1): (),
        (2, 1, 2, 1): (),
        (2, 0, 4, 0): (),
        (2, 1, 4, 0): (),
        (4, 0, 4, 0): (),
    }
    b = GradedAlgebra(4, labels, products)
    ell = TopFunctional(b, 4, (F(1),))
    assert not check_poincare(b, ell)
    # the self-dual quotient removes y and restores duality
    sq = sd_quotient(b, ell)
    assert sq.algebra.dims() == (1, 1, 1)
    assert check_poincare(sq.algebra, sq.functional)


def test_sd_quotient_monomial_case():
    m = trunc_poly_algebra(1, 8)
    ell = TopFunctional(m.algebra, 6, (F(1),))  # ell(x^3) = 1
    sq = sd_quotient(m.algebra, ell)
    assert sq.algebra.dims() == (1, 1, 1, 1)


def test_sd_quotient_scaling_invariance():
    m = trunc_poly_algebra(2, 6)
    ell = TopFunctional(m.algebra, 4, (F(1), F(2), F(-1)))
    a1 = sd_quotient(m.algebra, ell)
    a5 = sd_quotient(m.algebra, ell.scale(5))
    assert a1.algebra.dims() == a5.algebra.dims()
    assert full_table(a1.algebra) == full_table(a5.algebra)
    assert a5.functional.values == tuple(5 * v for v in a1.functional.values)


def test_sd_quotient_idempotent():
    m = trunc_poly_algebra(2, 6)
    ell = TopFunctional(m.algebra, 4, (F(1), F(0), F(1)))
    first = sd_quotient(m.algebra, ell)
    again = sd_quotient(first.algebra, first.functional)
    assert again.algebra.dims() == first.algebra.dims()
    assert full_table(again.algebra) == full_table(first.algebra)


def _random_presentation(rng: random.Random) -> PresentedAlgebra:
    ngens = rng.choice((1, 2, 3))
    top = rng.choice((4, 6))
    names = tuple(f"x{i + 1}" for i in range(ngens))
    rels = []
    if rng.random() < 0.5 and ngens >= 2:
        # one random homogeneous quadratic relation
        from toricbundle.qpoly import monomials_of_degree

        rel = {}
        for expo in monomials_of_degree(ngens, 2):
            c = rng.randint(-2, 2)
            if c:
                rel[expo] = (0, (F(c),))
        if rel:
            rels.append(rel)
    return PresentedAlgebra(PT, names, tuple(rels), top)


def _random_presented(rng: random.Random):
    return build_quotient(_random_presentation(rng))


def test_sd_quotient_randomized_properties():
    """Criterion-4 style: random B, random ell; Poincare + idempotence."""
    rng = random.Random(2024)
    done = 0
    while done < 5:
        m = _random_presented(rng)
        alg = m.algebra
        deg = rng.choice([d for d in alg.degrees() if d > 0])
        values = tuple(F(rng.randint(-3, 3)) for _ in range(alg.dim(deg)))
        if not any(values):
            continue
        ell = TopFunctional(alg, deg, values)
        sq = sd_quotient(alg, ell)
        assert check_poincare(sq.algebra, sq.functional)
        again = sd_quotient(sq.algebra, sq.functional)
        assert again.algebra.dims() == sq.algebra.dims()
        assert full_table(again.algebra) == full_table(sq.algebra)
        scaled = sd_quotient(alg, ell.scale(F(7, 3)))
        assert scaled.algebra.dims() == sq.algebra.dims()
        assert full_table(scaled.algebra) == full_table(sq.algebra)
        done += 1


def _reference_frobenius(b, ell, k):
    """Pairing entries by multiplying unit vectors and applying ell densely."""
    n, dk, dl = ell.degree, b.dim(k), b.dim(ell.degree - k)
    return [
        [
            ell.of(n, b.multiply(k, _unit(dk, i), n - k, _unit(dl, j)))
            for j in range(dl)
        ]
        for i in range(dk)
    ]


def _reference_sd_products(b, ell):
    """Structure constants of B/I(L_ell) by dense sequential elimination."""
    n = ell.degree
    kept, reducers = {}, {}
    for k in range(0, n + 1, 2):
        dk = b.dim(k)
        if dk == 0:
            continue
        if b.dim(n - k) == 0:
            rad = [_unit(dk, j) for j in range(dk)]
        else:
            pairing = _reference_frobenius(b, ell, k)
            rad = kernel_basis(list(zip(*pairing)))
        rr, rp = rref(QMatrix(rad)) if rad else (None, ())
        reducers[k] = ([rr.entries[i] for i in range(len(rp))], rp)
        kept[k] = [j for j in range(dk) if j not in rp]

    def project(d, vec):
        v = list(vec)
        for row, p in zip(*reducers[d]):
            c = v[p]
            for t in range(len(v)):
                v[t] -= c * row[t]
        return tuple(v[t] for t in kept[d])

    products = {}
    degs = [d for d in sorted(kept) if kept[d]]
    for a in degs:
        for e in degs:
            if a > e or a == 0:
                continue
            for i, bi in enumerate(kept[a]):
                for j, bj in enumerate(kept[e]):
                    if a == e and i > j:
                        continue
                    if not kept.get(a + e):
                        products[(a, i, e, j)] = ()
                        continue
                    prod = b.multiply(
                        a, _unit(b.dim(a), bi), e, _unit(b.dim(e), bj)
                    )
                    products[(a, i, e, j)] = project(a + e, prod)
    return products


def test_sparse_pairing_and_projection_match_dense_reference():
    """frobenius_matrix and the sd structure constants equal the dense route."""
    rng = random.Random(7)
    done = 0
    while done < 8:
        alg = _random_presented(rng).algebra
        deg = rng.choice([d for d in alg.degrees() if d > 0])
        values = tuple(
            F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(alg.dim(deg))
        )
        if not any(values):
            continue
        ell = TopFunctional(alg, deg, values)
        for k in range(0, deg + 1, 2):
            if alg.dim(k) and alg.dim(deg - k):
                ref = tuple(map(tuple, _reference_frobenius(alg, ell, k)))
                assert frobenius_matrix(alg, ell, k).entries == ref
        quotient = sd_quotient(alg, ell).algebra
        reference = _reference_sd_products(alg, ell)
        assert set(full_table(quotient)) <= set(reference)
        for key, vec in reference.items():
            assert quotient.basis_product(*key) == vec
        done += 1


def _dense_structure_constants(pres, model):
    """Products of the standard monomials of ``model``, built from the
    presentation ``pres`` over the point, by dense elimination of the
    relation multiples in each degree."""
    reduced = {}
    for d, monos in model.free.monomials.items():
        col = {m: t for t, m in enumerate(monos)}
        rows = []
        for rel in pres.relations:
            rel_deg = 2 * sum(next(iter(rel)))
            for _, _, bm in model.free.monomials.get(d - rel_deg, []):
                row = [F(0)] * len(monos)
                for beta_g, (_, (c,)) in rel.items():
                    beta = tuple(a + b for a, b in zip(bm, beta_g))
                    row[col[(0, 0, beta)]] += c
                rows.append(row)
        r, pivots = rref(QMatrix(rows)) if rows else (None, ())
        red = r.entries[: len(pivots)] if rows else ()
        keep = [t for t in range(len(monos)) if t not in pivots]
        reduced[d] = (col, red, pivots, keep)

    def product(m1, m2):
        beta = tuple(a + b for a, b in zip(m1[2], m2[2]))
        d = 2 * sum(beta)
        if d not in reduced:
            return ()
        col, red, pivots, keep = reduced[d]
        v = [F(0)] * len(col)
        v[col[(0, 0, beta)]] = F(1)
        for row, p in zip(red, pivots):
            c = v[p]
            v = [a - c * b for a, b in zip(v, row)]
        return tuple(v[t] for t in keep)

    return product


vectors = st.lists(
    st.one_of(st.just(F(0)), st.builds(F, st.integers(-5, 5), st.integers(1, 4))),
    min_size=64,
    max_size=64,
)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), vectors, vectors)
def test_sparse_products_match_dense_reference(seed, xs, ys):
    """basis_product, times_basis and multiply on the stored (t, c) pairs
    equal products computed from dense elimination."""
    pres = _random_presentation(random.Random(seed))
    model = build_quotient(pres)
    alg = model.algebra
    product = _dense_structure_constants(pres, model)
    basis = {
        d: [model.free.monomials[d][t] for t in red.keep]
        for d, red in model.reducers.items()
    }
    degs = alg.degrees()
    for a in degs:
        for b in degs:
            d = a + b
            table = {
                (i, j): product(basis[a][i], basis[b][j])
                if d <= alg.top
                else (F(0),) * alg.dim(d)
                for i in range(alg.dim(a))
                for j in range(alg.dim(b))
            }
            for (i, j), vec in table.items():
                assert alg.basis_product(a, i, b, j) == vec
            avec, bvec = xs[: alg.dim(a)], ys[: alg.dim(b)]
            want = [F(0)] * alg.dim(d)
            for (i, j), vec in table.items():
                for t, c in enumerate(vec):
                    want[t] += avec[i] * bvec[j] * c
            assert alg.multiply(a, avec, b, bvec) == tuple(want)
            for j in range(alg.dim(b)):
                want = [F(0)] * alg.dim(d)
                for i in range(alg.dim(a)):
                    for t, c in enumerate(table[(i, j)]):
                        want[t] += avec[i] * c
                assert alg.times_basis(a, avec, b, j) == tuple(want)


def test_sd_quotient_wrong_radical_raises(monkeypatch):
    """A radical missing a vector below the top degree is caught by explicit
    checks, not asserts."""
    real = galg._radical_rows
    monkeypatch.setattr(
        galg,
        "_radical_rows",
        lambda b, ell, k, *rest: (
            real(b, ell, k, *rest)[: -1 if k < ell.degree else None]
        ),
    )
    labels = {0: ("1",), 2: ("x", "y"), 4: ("x^2",)}
    products = {
        (2, 0, 2, 0): ((0, F(1)),),
        (2, 0, 2, 1): (),
        (2, 1, 2, 1): (),
    }
    b = GradedAlgebra(4, labels, products)
    with pytest.raises(VerificationFailed):
        sd_quotient(b, TopFunctional(b, 4, (F(1),)))


def test_left_right_radical_symmetry():
    """Lemma on I1 = I2: pairing matrices are mutual transposes."""
    m = trunc_poly_algebra(2, 6)
    ell = TopFunctional(m.algebra, 6, tuple(F(x) for x in (1, 2, 0, -1)))
    for k in (0, 2, 4, 6):
        a = frobenius_matrix(m.algebra, ell, k)
        b = frobenius_matrix(m.algebra, ell, 6 - k)
        assert tuple(zip(*a.entries)) == b.entries


def test_ann_quotient_examples():
    hv = ("h1", "h2", "h3")
    vol_p2 = QPolynomial.linear_form(hv, [1, 1, 1]) ** 2 * F(1, 2)
    am = ann_quotient(vol_p2, 2)
    assert am.algebra.dims() == (1, 1, 1)
    g = QPolynomial(("h1", "h2"), {(1, 1): F(1)})
    assert ann_quotient(g, 2).algebra.dims() == (1, 2, 1)
    h = QPolynomial(("h",), {(4,): F(1, 24)})
    assert ann_quotient(h, 4).algebra.dims() == (1, 1, 1, 1, 1)


def test_ann_quotient_matches_sd_of_free():
    """The operator model equals the self-dual quotient of the free algebra
    with ell(d) = d(f)/n! (the reduction behind the general theorem)."""
    hv = ("h1", "h2")
    f = QPolynomial(hv, {(1, 1): F(1), (2, 0): F(1, 2)})
    order = 2
    am = ann_quotient(f, order)

    free = FreeAlgebra(PT, hv, 2 * order)
    values = []
    for _, _, beta in free.monomials[2 * order]:
        op = QPolynomial(hv, {beta: F(1)})
        values.append(
            apply_operator(op, f).coefficient((0, 0)) / factorial(order)
        )
    ell = TopFunctional(free, 2 * order, tuple(values))
    sq = sd_quotient(free, ell)
    assert sq.algebra.dims() == am.algebra.dims()

    # canonical generator map: class of x_i in sq  ->  class of d_i in ann
    gen_rows = []
    for j in sq.reducers[2].keep:
        beta = free.monomials[2][j][2]
        op = QPolynomial(hv, {beta: F(1)})
        gen_rows.append(list(am.operator_class(op)[1]))
    assert graded_isomorphic(sq.algebra, am.algebra, gen_rows)


def test_ann_top_functional():
    hv = ("h1", "h2", "h3")
    vol_p2 = QPolynomial.linear_form(hv, [1, 1, 1]) ** 2 * F(1, 2)
    am = ann_quotient(vol_p2, 2)
    assert ann_top_functional(am).values == (F(1, 2),)


def test_ann_quotient_rejects_inhomogeneous():
    from toricbundle.errors import NotHomogeneous

    f = QPolynomial(("h",), {(2,): F(1), (1,): F(1)})
    with pytest.raises(NotHomogeneous):
        ann_quotient(f, 2)


def test_graded_isomorphic_not_generated():
    """A degree gap needs an explicit extension map."""
    from toricbundle.errors import NotGenerated

    labels = {0: ("1",), 4: ("t",), 8: ("t^2",)}
    products = {(4, 0, 4, 0): ((0, F(1)),), (4, 0, 8, 0): ()}
    a = GradedAlgebra(8, labels, products)
    with pytest.raises(NotGenerated):
        graded_isomorphic(a, a, [])
    ident = {4: [(F(1),)], 8: [(F(1),)]}
    assert graded_isomorphic(a, a, [], extension=ident)
    # t -> t, t^2 -> 2 t^2 is bijective but not multiplicative
    assert not graded_isomorphic(a, a, [], extension={4: [(F(1),)], 8: [(F(2),)]})


def test_graded_isomorphic_negative():
    a = trunc_poly_algebra(1, 4).algebra
    b = trunc_poly_algebra(1, 6).algebra
    assert not graded_isomorphic(a, b, [(F(1),)])
    # wrong scaling on the generator is not an isomorphism of Q[x]/(x^3)?
    # x -> 2x IS an isomorphism; x -> 0 is not
    assert graded_isomorphic(a, a, [(F(2),)])
    assert not graded_isomorphic(a, a, [(F(0),)])


# -- fast paths pinned to the slow paths they replace -------------------------


def _exhaustive_ideal_check(b, reducers):
    """Every radical row times every basis element of B projects to zero."""
    for k, red in reducers.items():
        for row in int_rows(red):
            for d in b.degrees():
                target = reducers.get(k + d)
                if target is None or not target.keep:
                    continue
                for j in range(b.dim(d)):
                    acc = {}
                    for t, c in row:
                        for u, x in b.product_pairs(k, t, d, j):
                            acc[u] = acc.get(u, F(0)) + c * x
                    if target.pairs(acc.items()):
                        raise VerificationFailed(
                            "induced multiplication ill-defined"
                        )


@st.composite
def algebras_with_functionals(draw):
    """A truncated polynomial algebra, perhaps modulo one quadratic relation,
    with a nonzero functional on one positive degree."""
    ngens = draw(st.integers(1, 3))
    names = tuple(f"x{i + 1}" for i in range(ngens))
    rels = ()
    if ngens >= 2 and draw(st.booleans()):
        coeffs = draw(
            st.lists(
                st.integers(-2, 2),
                min_size=len(monomials_of_degree(ngens, 2)),
                max_size=len(monomials_of_degree(ngens, 2)),
            )
        )
        rel = {
            e: (0, (F(c),))
            for e, c in zip(monomials_of_degree(ngens, 2), coeffs)
            if c
        }
        rels = (rel,) if rel else ()
    top = draw(st.sampled_from((4, 6)))
    b = build_quotient(PresentedAlgebra(PT, names, rels, top)).algebra
    deg = draw(st.sampled_from([d for d in b.degrees() if d > 0]))
    values = draw(
        st.lists(
            st.builds(F, st.integers(-3, 3), st.integers(1, 3)),
            min_size=b.dim(deg),
            max_size=b.dim(deg),
        ).filter(any)
    )
    return b, TopFunctional(b, deg, tuple(values))


def _generated_span(b, gens):
    """An echelon basis, per degree, of the subalgebra the generators
    generate: each generator, and each generator times a lower vector."""
    span = {0: [(F(1),)]}
    for d in b.degrees():
        if d == 0:
            continue
        vecs = [_unit(b.dim(d), j) for e, j in gens if e == d]
        for e, j in gens:
            for v in span.get(d - e, ()) if e < d else ():
                vecs.append(b.times_basis(d - e, v, e, j))
        reduced, pivots = rref(QMatrix(vecs)) if vecs else (None, ())
        span[d] = reduced.entries[: len(pivots)] if vecs else []
    return span


@functools.cache
def _catalog_free_case(name):
    return full_functional(SPECS[name]())


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        algebras_with_functionals(),
        st.sampled_from(sorted(SPECS)).map(_catalog_free_case),
    )
)
def test_radical_recursion_matches_pairing_kernel(case):
    """The radical built from the top degree down on generators equals the
    left kernel of the pairing matrix B^k x B^{n-k} in every degree, and it
    is an ideal: every radical row times every basis element is radical."""
    b, ell = case
    n = ell.degree
    span = _generated_span(b, b.generators())
    assert all(len(span[d]) == b.dim(d) for d in b.degrees())
    sq = sd_quotient(b, ell)
    for k in range(0, n + 1, 2):
        if b.dim(k):
            oracle = kernel_int(galg._pairing_rows(b, ell, n - k), b.dim(k))
            assert int_rows(sq.reducers[k]) == int_rows(Reducer(oracle, b.dim(k)))
    _exhaustive_ideal_check(b, sq.reducers)


def test_generators_of_gapped_algebra():
    """A degree gap puts a generator above degree 2."""
    labels = {0: ("1",), 4: ("t",), 8: ("t^2",)}
    b = GradedAlgebra(8, labels, {(4, 0, 4, 0): ((0, F(1)),), (4, 0, 8, 0): ()})
    assert galg._ideal_generators(b) == [(4, 0)]
    free = trunc_poly_algebra(2, 6).algebra
    assert galg._ideal_generators(free) == [(2, 0), (2, 1)]


@st.composite
def operators_on_forms(draw):
    """A homogeneous f in up to three variables, with rational coefficients
    and often missing terms, and a homogeneous operator."""
    nvars = draw(st.integers(1, 3))
    hv = tuple(f"h{i + 1}" for i in range(nvars))
    order = draw(st.integers(1, 4))
    monos = monomials_of_degree(nvars, order)
    coeff = st.one_of(st.just(0), st.builds(F, st.integers(-3, 3), st.integers(1, 3)))
    coeffs = draw(
        st.lists(coeff, min_size=len(monos), max_size=len(monos)).filter(any)
    )
    f = QPolynomial(hv, {e: c for e, c in zip(monos, coeffs) if c})
    j = draw(st.integers(0, order))
    ops = monomials_of_degree(nvars, j)
    op_coeffs = draw(
        st.lists(
            st.builds(F, st.integers(-3, 3), st.integers(1, 3)),
            min_size=len(ops),
            max_size=len(ops),
        ).filter(any)
    )
    op = QPolynomial(hv, {e: c for e, c in zip(ops, op_coeffs) if c})
    return f, order, op, j


def _greedy_ann_model(f, order):
    """The operator model by the greedy route, as a reference: a ``Span``
    picks the first order-j monomials with independent images, and the
    class of an order-j operator solves image_rows^T x = image."""
    nvars = len(f.vars)
    basis, images = {}, {}
    for j in range(order + 1):
        target = monomials_of_degree(nvars, order - j)
        span, rows = Span(), []
        basis[2 * j] = []
        for alpha in monomials_of_degree(nvars, j):
            img = apply_operator(QPolynomial(f.vars, {alpha: F(1)}), f)
            row = [img.coefficient(e) for e in target]
            if span.add(enumerate(row)):
                basis[2 * j].append(alpha)
                rows.append(row)
        images[2 * j] = list(zip(*rows))

    def operator_class(op, j):
        img = apply_operator(op, f)
        rhs = [img.coefficient(e) for e in monomials_of_degree(nvars, order - j)]
        if not basis[2 * j]:
            assert not any(rhs)
            return ()
        return solve(images[2 * j], rhs)

    return basis, operator_class


@settings(max_examples=150, deadline=None)
@given(operators_on_forms())
def test_degree_classes_match_column_construction(case):
    """M_j read off the terms of f gives the basis and classes of building
    it column by column from the image d^alpha f of every order-j alpha."""
    f, order, _, j = case
    assert galg._degree_classes(f, j) == column_degree_classes(f, j)
    assert galg._degree_classes(f, order - j) == column_degree_classes(f, order - j)


@settings(max_examples=80, deadline=None)
@given(operators_on_forms())
def test_ann_model_matches_greedy_route(case):
    """Bases, operator classes and structure constants read off one RREF
    per degree equal those of the greedy basis and per-operator solves."""
    f, order, op, j = case
    model = ann_quotient(f, order)
    basis, operator_class = _greedy_ann_model(f, order)
    assert model.op_basis == basis
    assert model.operator_class(op) == (2 * j, operator_class(op, j))
    for a, i, b, k in product_keys(model.algebra.labels):
        comp = tuple(map(add, basis[a][i], basis[b][k]))
        expected = operator_class(QPolynomial(f.vars, {comp: F(1)}), (a + b) // 2)
        assert model.algebra.basis_product(a, i, b, k) == expected
