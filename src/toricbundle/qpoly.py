"""Multivariate polynomials with exact rational coefficients.

A ``QPolynomial`` is a map from exponent tuples to nonzero ``Fraction``
coefficients over a fixed, ordered variable tuple.  The same object doubles
as a constant-coefficient differential operator: ``apply_operator`` reads
the exponents as orders of partial derivatives.
"""

from __future__ import annotations

from fractions import Fraction
from math import perm, prod
from operator import le, sub

from toricbundle.errors import DimensionMismatch, NotHomogeneous


class QPolynomial:
    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        self.vars = tuple(vars)
        clean = {}
        for expo, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff:
                expo = tuple(int(e) for e in expo)
                if len(expo) != len(self.vars):
                    raise DimensionMismatch("exponent length != variable count")
                clean[expo] = clean.get(expo, Fraction(0)) + coeff
        self.terms = {e: c for e, c in clean.items() if c}

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, vars):
        return cls(vars, {})

    @classmethod
    def constant(cls, vars, c):
        vars = tuple(vars)
        return cls(vars, {(0,) * len(vars): Fraction(c)})

    @classmethod
    def variable(cls, vars, i):
        vars = tuple(vars)
        e = [0] * len(vars)
        e[i] = 1
        return cls(vars, {tuple(e): Fraction(1)})

    @classmethod
    def linear_form(cls, vars, coeffs, const=0):
        vars = tuple(vars)
        terms = {}
        for i, c in enumerate(coeffs):
            if c:
                e = [0] * len(vars)
                e[i] = 1
                terms[tuple(e)] = Fraction(c)
        if const:
            terms[(0,) * len(vars)] = Fraction(const)
        return cls(vars, terms)

    # -- basic protocol ---------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, QPolynomial)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for expo in sorted(self.terms, reverse=True):
            c = self.terms[expo]
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.vars, expo)
                if e
            )
            bits.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)

    def _check(self, other):
        if self.vars != other.vars:
            raise DimensionMismatch("polynomials over different variables")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPolynomial.constant(self.vars, other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return QPolynomial(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return QPolynomial(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPolynomial.constant(self.vars, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QPolynomial(
                self.vars, {e: c * other for e, c in self.terms.items()}
            )
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return QPolynomial(self.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        result = QPolynomial.constant(self.vars, 1)
        base = self
        k = int(k)
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- queries ---------------------------------------------------------

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def homogeneous_part(self, d: int) -> "QPolynomial":
        return QPolynomial(
            self.vars, {e: c for e, c in self.terms.items() if sum(e) == d}
        )

    def coefficient(self, expo) -> Fraction:
        return self.terms.get(tuple(expo), Fraction(0))

    # -- calculus ----------------------------------------------------------

    def evaluate(self, point) -> Fraction:
        if len(point) != len(self.vars):
            raise DimensionMismatch("point dimension mismatch")
        point = [Fraction(x) for x in point]
        total = Fraction(0)
        for expo, coeff in self.terms.items():
            v = coeff
            for x, e in zip(point, expo):
                if e:
                    v *= x**e
            total += v
        return total

    def partial(self, i: int) -> "QPolynomial":
        terms = {}
        for expo, coeff in self.terms.items():
            if expo[i]:
                e = list(expo)
                e[i] -= 1
                terms[tuple(e)] = coeff * expo[i]
        return QPolynomial(self.vars, terms)

    def substitute(self, images: list["QPolynomial"]) -> "QPolynomial":
        """Substitute variable i by ``images[i]`` (all over one target space)."""
        if len(images) != len(self.vars):
            raise DimensionMismatch("one image per variable required")
        target = images[0].vars if images else ()
        out = QPolynomial.zero(target)
        for expo, coeff in self.terms.items():
            term = QPolynomial.constant(target, coeff)
            for img, e in zip(images, expo):
                if e:
                    term = term * img**e
            out = out + term
        return out

    def embed(self, vars) -> "QPolynomial":
        """Reinterpret over a larger variable tuple (by name)."""
        vars = tuple(vars)
        pos = [vars.index(v) for v in self.vars]
        terms = {}
        for expo, coeff in self.terms.items():
            e = [0] * len(vars)
            for p, k in zip(pos, expo):
                e[p] = k
            terms[tuple(e)] = coeff
        return QPolynomial(vars, terms)


def apply_operator(op: QPolynomial, f: QPolynomial) -> QPolynomial:
    """Apply ``op`` read as a constant-coefficient differential operator.

    A term c * x^alpha of ``op`` acts as c * d^alpha/dx^alpha: it takes x^e
    to e!/(e - alpha)! * x^(e - alpha) when alpha <= e, and to 0 otherwise.
    """
    if op.vars != f.vars:
        raise DimensionMismatch("operator and polynomial over different variables")
    out: dict[tuple[int, ...], Fraction] = {}
    for alpha, c in op.terms.items():
        for expo, coeff in f.terms.items():
            if all(map(le, alpha, expo)):
                new = tuple(map(sub, expo, alpha))
                out[new] = out.get(new, 0) + c * coeff * prod(map(perm, expo, alpha))
    return QPolynomial(f.vars, out)


def monomials_of_degree(nvars: int, d: int) -> list[tuple[int, ...]]:
    """All exponent tuples of total degree d, in a fixed deterministic order."""
    if nvars == 0:
        return [()] if d == 0 else []
    out = []
    for first in range(d, -1, -1):
        for rest in monomials_of_degree(nvars - 1, d - first):
            out.append((first,) + rest)
    return out


def require_homogeneous(f: QPolynomial) -> int:
    if not f.is_homogeneous():
        raise NotHomogeneous(f"not homogeneous: {f!r}")
    return f.degree()
