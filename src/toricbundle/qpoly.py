"""Multivariate polynomials with exact rational coefficients.

A ``QPolynomial`` over a fixed, ordered variable tuple is ``num / den``:
``num`` maps exponent tuples to nonzero ints and ``den`` is one positive
int, in lowest terms (gcd(den, *num.values()) == 1, and den == 1 for the
zero polynomial).  So equal polynomials have equal fields and hash alike,
and the arithmetic runs on ints: ``Fraction`` appears only at constructor
input, :meth:`~QPolynomial.coefficient`, :meth:`~QPolynomial.evaluate`, the
read-only :attr:`~QPolynomial.terms` view and ``repr``.  A polynomial
also names a constant-coefficient differential operator, its exponents the
orders of partial derivatives; ``galg`` applies such operators to f by
reading the terms of f.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import add

from toricbundle.errors import DegreeMismatch, DimensionMismatch, NotHomogeneous


class QPolynomial:
    __slots__ = ("vars", "num", "den")

    def __init__(self, vars, terms=None):
        """The polynomial sum c * x^e over ``terms``, a map from exponent
        tuples to ints, Fractions or anything ``Fraction`` takes; repeated
        exponents add up.  An exponent entry that is not an int >= 0 raises
        :class:`DegreeMismatch`."""
        self.vars = tuple(vars)
        clean = {}
        for expo, coeff in (terms or {}).items():
            expo = tuple(expo)
            if not all(isinstance(e, int) and e >= 0 for e in expo):
                raise DegreeMismatch(f"exponent {expo} is not of ints >= 0")
            coeff = Fraction(coeff)
            if coeff:
                if len(expo) != len(self.vars):
                    raise DimensionMismatch("exponent length != variable count")
                clean[expo] = clean.get(expo, 0) + coeff
        # over the lcm of the denominators the numerators share no factor with it
        self.den = lcm(*(c.denominator for c in clean.values()))
        self.num = {
            e: c.numerator * (self.den // c.denominator) for e, c in clean.items() if c
        }
        if not self.num:
            self.den = 1

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_numerators(cls, vars, num, den=1) -> "QPolynomial":
        """The polynomial sum num[e] * x^e / den from ints, brought to lowest
        terms.  ``num`` may hold zeros; ``den`` is a nonzero int.  Exponents
        are taken as given, one entry per variable."""
        self = object.__new__(cls)
        self.vars = tuple(vars)
        num = {e: c for e, c in num.items() if c}
        if not num:
            den = 1
        elif den != 1:
            g = gcd(den, *num.values())
            if den < 0:
                g = -g
            if g != 1:
                num = {e: c // g for e, c in num.items()}
                den //= g
        self.num, self.den = num, den
        return self

    @classmethod
    def zero(cls, vars):
        return cls.from_numerators(vars, {})

    @classmethod
    def constant(cls, vars, c):
        vars = tuple(vars)
        return cls(vars, {(0,) * len(vars): c})

    @classmethod
    def variable(cls, vars, i):
        vars = tuple(vars)
        e = [0] * len(vars)
        e[i] = 1
        return cls.from_numerators(vars, {tuple(e): 1})

    @classmethod
    def linear_form(cls, vars, coeffs, const=0):
        vars = tuple(vars)
        terms = {}
        for i, c in enumerate(coeffs):
            if c:
                e = [0] * len(vars)
                e[i] = 1
                terms[tuple(e)] = c
        if const:
            terms[(0,) * len(vars)] = const
        return cls(vars, terms)

    # -- basic protocol ---------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """A fresh {exponent: Fraction coefficient} dict of the nonzero terms."""
        return {e: Fraction(c, self.den) for e, c in self.num.items()}

    def __eq__(self, other):
        return (
            isinstance(other, QPolynomial)
            and self.vars == other.vars
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.vars, self.den, frozenset(self.num.items())))

    def __bool__(self):
        return bool(self.num)

    def __repr__(self):
        if not self.num:
            return "0"
        bits = []
        for expo in sorted(self.num, reverse=True):
            c = Fraction(self.num[expo], self.den)
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
            other = QPolynomial.from_numerators(
                self.vars, {(0,) * len(self.vars): other.numerator}, other.denominator
            )
        self._check(other)
        g = gcd(self.den, other.den)
        mine, theirs = other.den // g, self.den // g
        num = {e: c * mine for e, c in self.num.items()}
        for e, c in other.num.items():
            num[e] = num.get(e, 0) + c * theirs
        return QPolynomial.from_numerators(self.vars, num, self.den * mine)

    __radd__ = __add__

    def __neg__(self):
        return QPolynomial.from_numerators(
            self.vars, {e: -c for e, c in self.num.items()}, self.den
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QPolynomial.from_numerators(
                self.vars,
                {e: c * other.numerator for e, c in self.num.items()},
                self.den * other.denominator,
            )
        self._check(other)
        num = {}
        for e1, c1 in self.num.items():
            for e2, c2 in other.num.items():
                e = tuple(map(add, e1, e2))
                num[e] = num.get(e, 0) + c1 * c2
        return QPolynomial.from_numerators(self.vars, num, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k):
        """self**k for an int k >= 0; raises :class:`DegreeMismatch` on any
        other exponent."""
        if not isinstance(k, int) or k < 0:
            raise DegreeMismatch(f"exponent must be an int >= 0, got {k!r}")
        result = QPolynomial.from_numerators(self.vars, {(0,) * len(self.vars): 1})
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- queries ---------------------------------------------------------

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.num), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.num}
        return len(degs) <= 1

    def homogeneous_part(self, d: int) -> "QPolynomial":
        return QPolynomial.from_numerators(
            self.vars, {e: c for e, c in self.num.items() if sum(e) == d}, self.den
        )

    def coefficient(self, expo) -> Fraction:
        return Fraction(self.num.get(tuple(expo), 0), self.den)

    # -- calculus ----------------------------------------------------------

    def evaluate(self, point) -> Fraction:
        """The value at ``point``: the point is cleared to integers P / D
        once, a term c * x^e adds c * P^e * D^(deg - |e|) to an int, and the
        sum over den * D^deg is the one Fraction built."""
        if len(point) != len(self.vars):
            raise DimensionMismatch("point dimension mismatch")
        point = [Fraction(x) for x in point]
        scale = lcm(*(x.denominator for x in point))
        ints = [x.numerator * (scale // x.denominator) for x in point]
        top = max(self.degree(), 0)
        total = 0
        for expo, c in self.num.items():
            v = c * scale ** (top - sum(expo))
            for x, e in zip(ints, expo):
                if e:
                    v *= x**e
            total += v
        return Fraction(total, self.den * scale**top)

    def partial(self, i: int) -> "QPolynomial":
        num = {}
        for expo, c in self.num.items():
            if k := expo[i]:
                num[expo[:i] + (k - 1,) + expo[i + 1 :]] = c * k
        return QPolynomial.from_numerators(self.vars, num, self.den)

    def substitute(self, images: list["QPolynomial"]) -> "QPolynomial":
        """Substitute variable i by ``images[i]`` (all over one target space)."""
        if len(images) != len(self.vars):
            raise DimensionMismatch("one image per variable required")
        target = images[0].vars if images else ()
        out = QPolynomial.zero(target)
        for expo, c in self.num.items():
            term = QPolynomial.from_numerators(target, {(0,) * len(target): c})
            for img, e in zip(images, expo):
                if e:
                    term = term * img**e
            out = out + term
        return QPolynomial.from_numerators(target, out.num, out.den * self.den)


@cache
def monomials_of_degree(nvars: int, d: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples of total degree d, in a fixed deterministic order.

    Memoised: the tuple returned is shared between callers.
    """
    if nvars == 0:
        return ((),) if d == 0 else ()
    return tuple(
        (first,) + rest
        for first in range(d, -1, -1)
        for rest in monomials_of_degree(nvars - 1, d - first)
    )


def require_homogeneous(f: QPolynomial) -> int:
    if not f.is_homogeneous():
        raise NotHomogeneous(f"not homogeneous: {f!r}")
    return f.degree()
