"""Polynomial arithmetic, substitution and the operator action."""

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import FractionPolynomial, apply_operator, fraction_apply_operator
from toricbundle.errors import DegreeMismatch, DimensionMismatch
from toricbundle.qpoly import QPolynomial, monomials_of_degree

XY = ("x", "y")


def test_arithmetic_and_eval():
    x = QPolynomial.variable(XY, 0)
    y = QPolynomial.variable(XY, 1)
    p = (x + y) ** 2
    assert p.coefficient((1, 1)) == 2
    assert p.evaluate((F(1, 2), F(1, 2))) == 1
    assert (p - p).terms == {}
    assert p.degree() == 2 and p.is_homogeneous()
    assert not (x - x)


def test_partial_derivatives():
    x = QPolynomial.variable(XY, 0)
    y = QPolynomial.variable(XY, 1)
    p = x**3 * y
    assert p.partial(0) == 3 * (x**2 * y)
    assert p.partial(1) == x**3


def test_substitute_affine():
    x = QPolynomial.variable(XY, 0)
    y = QPolynomial.variable(XY, 1)
    uv = ("u", "v")
    images = [
        QPolynomial.linear_form(uv, [1, 1], const=1),  # x = u + v + 1
        QPolynomial.linear_form(uv, [0, 2]),  # y = 2v
    ]
    q = (x * y).substitute(images)
    u = QPolynomial.variable(uv, 0)
    v = QPolynomial.variable(uv, 1)
    assert q == (u + v + 1) * (2 * v)


def test_substitute_requires_all_images():
    x = QPolynomial.variable(XY, 0)
    with pytest.raises(DimensionMismatch):
        x.substitute([x])


def test_operator_action():
    x = QPolynomial.variable(XY, 0)
    y = QPolynomial.variable(XY, 1)
    f = x**2 * y
    d = QPolynomial(XY, {(1, 1): F(1)})  # d/dx d/dy
    assert apply_operator(d, f) == 2 * x
    d2 = QPolynomial(XY, {(2, 0): F(1)})
    assert apply_operator(d2, f) == 2 * y
    assert apply_operator(QPolynomial(XY, {(3, 0): 1}), f).terms == {}


_exponents = st.lists(st.integers(0, 3), min_size=3, max_size=3).map(tuple)
_polys = st.dictionaries(
    _exponents, st.builds(F, st.integers(-4, 4), st.integers(1, 4)), max_size=5
).map(lambda terms: QPolynomial(("x", "y", "z"), terms))


@settings(max_examples=100, deadline=None)
@given(_polys, _polys)
def test_operator_action_matches_repeated_partials(op, f):
    """Each term c * x^alpha of the operator acts as alpha_i partial
    derivatives in each variable i, times c."""
    expected = QPolynomial.zero(f.vars)
    for alpha, c in op.terms.items():
        g = f
        for i, a in enumerate(alpha):
            for _ in range(a):
                g = g.partial(i)
        expected = expected + c * g
    assert apply_operator(op, f) == expected


@pytest.mark.parametrize("k", [0.5, 1.9, -1, F(2), "2"])
def test_power_refuses_other_exponents(k):
    x = QPolynomial.variable(XY, 0)
    with pytest.raises(DegreeMismatch):
        (x + 1) ** k


def test_monomials_of_degree_count_and_order():
    ms = monomials_of_degree(3, 2)
    assert len(ms) == 6
    assert ms[0] == (2, 0, 0) and ms[-1] == (0, 0, 2)
    assert len(set(ms)) == len(ms)


# -- the integer representation against the Fraction-per-term oracle ------

_coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def _spaces(draw, count):
    """(vars, [terms, ...]): ``count`` random term dicts over one random
    variable tuple, zero coefficients and all."""
    vars = tuple(draw(st.lists(st.sampled_from("xyzuvw"), unique=True, max_size=3)))
    expo = st.tuples(*[st.integers(0, 3)] * len(vars))
    return vars, [
        draw(st.dictionaries(expo, _coeffs, max_size=5)) for _ in range(count)
    ]


def _same(p, oracle):
    """p is in canonical form and equals the oracle polynomial, term by term
    and in repr."""
    assert p.den > 0 and 0 not in p.num.values()
    assert gcd(p.den, *p.num.values()) == 1 and (p.num or p.den == 1)
    assert p.vars == oracle.vars
    assert p.terms == oracle.terms
    assert repr(p) == repr(oracle)


def _both(vars, terms):
    return QPolynomial(vars, terms), FractionPolynomial(vars, terms)


@settings(max_examples=150, deadline=None)
@given(_spaces(2), _coeffs, st.integers(-3, 3), st.integers(0, 3), st.data())
def test_integer_polynomial_matches_fraction_oracle(space, c, n, k, data):
    vars, (t1, t2) = space
    (p, po), (q, qo) = _both(vars, t1), _both(vars, t2)
    _same(p, po)
    _same(p + q, po + qo)
    _same(p - q, po - qo)
    _same(p + c, po + c)
    _same(p - n, po - n)
    _same(-p, -po)
    _same(p * c, po * c)
    _same(n * p, po * n)
    _same(p * q, po * qo)
    _same(p**k, po**k)
    _same(apply_operator(p, q), fraction_apply_operator(po, qo))
    for d in range(-1, 8):
        _same(p.homogeneous_part(d), po.homogeneous_part(d))
    assert p.degree() == po.degree()
    assert p.is_homogeneous() == po.is_homogeneous()
    point = data.draw(st.lists(_coeffs, min_size=len(vars), max_size=len(vars)))
    assert p.evaluate(point) == po.evaluate(point)
    for i in range(len(vars)):
        _same(p.partial(i), po.partial(i))
    for expo in list(t1) + [(0,) * len(vars)]:
        assert p.coefficient(expo) == po.coefficient(expo)


@settings(max_examples=60, deadline=None)
@given(_spaces(1), _spaces(3))
def test_substitute_matches_fraction_oracle(source, target):
    vars, (terms,) = source
    tvars, images = target
    images = images[: len(vars)]
    p, po = _both(vars, terms)
    got = p.substitute([QPolynomial(tvars, t) for t in images])
    want = po.substitute([FractionPolynomial(tvars, t) for t in images])
    _same(got, want)


@settings(max_examples=100, deadline=None)
@given(_spaces(2), _coeffs)
def test_equal_polynomials_hash_alike(space, c):
    """Equal polynomials built by different routes are equal and hash alike
    (the I_f memo is keyed by polynomial)."""
    vars, (t1, t2) = space
    p, q = QPolynomial(vars, t1), QPolynomial(vars, t2)
    routes = [
        p,
        (p + q) - q,
        -(-p),
        p * 3 - p * 2,
        QPolynomial.from_numerators(
            vars, {e: 6 * x for e, x in p.num.items()}, -6 * p.den
        ) * -1,
        QPolynomial(vars, p.terms),
    ]
    if c:
        routes.append((p * c) * (1 / c))
    for r in routes:
        assert r == p and hash(r) == hash(p)
        assert r.num == p.num and r.den == p.den
