"""Polynomial arithmetic, substitution and the operator action."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricbundle.errors import DimensionMismatch
from toricbundle.qpoly import QPolynomial, apply_operator, monomials_of_degree

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


def test_monomials_of_degree_count_and_order():
    ms = monomials_of_degree(3, 2)
    assert len(ms) == 6
    assert ms[0] == (2, 0, 0) and ms[-1] == (0, 0, 2)
    assert len(set(ms)) == len(ms)


def test_embed():
    x = QPolynomial.variable(("a",), 0)
    big = (x**2).embed(("z", "a"))
    assert big.coefficient((0, 2)) == 1
