"""Exact rational linear programming (feasibility only).

A single phase-1 simplex with Bland's rule backs every feasibility question
in the package: strictly convex support vectors and pairwise face checks
of fans.  Bland's rule guarantees termination.

The tableau is kept on Python ints by integer-preserving elimination
(Edmonds 1967, Bareiss 1968): the system is cleared by one common
denominator D, and the rational tableau is an integer matrix over one
positive scale d, the determinant of the current basis.  Each pivot divides
by the previous scale exactly (Sylvester's identity).  Clearing by one D is a
positive rescaling of the artificial columns and of the phase-1 objective,
so every sign, ratio order and basis-index tie-break, hence Bland's pivot
path and the basic solution returned, is that of the same tableau over
``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction

from toricbundle.exactlin import _cleared


def feasible_nonneg(a_rows, b) -> list[Fraction] | None:
    """Find x >= 0 with ``A x = b``, or None.

    ``a_rows`` is a list of rows of ints or rationals, ``b`` the right-hand
    side.  Phase-1 simplex: minimise the sum of one artificial variable per
    row.  The returned vertex is a list of ``Fraction``.
    """
    m = len(a_rows)
    if m == 0:
        return []
    n = len(a_rows[0])
    _, cleared = _cleared([(*row, b[i]) for i, row in enumerate(a_rows)])
    ncols = n + m
    # tableau rows: [a_1 .. a_n | art_1 .. art_m | rhs] on ints, representing
    # tab / d; the basis starts on the artificials, where d = 1
    tab = []
    for i, row in enumerate(cleared):
        if row[n] < 0:
            row = [-x for x in row]
        art = [0] * m
        art[i] = 1
        tab.append([*row[:n], *art, row[n]])
    basis = list(range(n, ncols))
    d = 1
    # phase-1 reduced costs z_j - c_j (times d) with the all-artificial
    # basis: the column sums, less the unit cost of each artificial
    obj = [sum(col) for col in zip(*tab)]
    for j in range(n, ncols):
        obj[j] -= 1

    while True:
        enter = -1
        for j in range(ncols):  # Bland: smallest index with positive reduced cost
            if obj[j] > 0:
                enter = j
                break
        if enter < 0:
            break
        # ratio test rhs_i / a_i over a_i > 0 by cross-multiplication (d > 0
        # cancels); ties go to the smaller basis index
        leave = -1
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                lhs = tab[i][ncols] * tab[leave][enter]
                rhs = tab[leave][ncols] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            # cannot happen: the phase-1 objective is a sum of nonnegative
            # variables, so it is bounded below by 0, and an entering column
            # with no positive entry would make it unbounded below
            return None
        prow = tab[leave]
        p = prow[enter]  # > 0, so the new scale stays positive
        for i in range(m):
            if i != leave:
                f = tab[i][enter]
                if f:
                    tab[i] = [(p * x - f * y) // d for x, y in zip(tab[i], prow)]
                elif p != d:
                    tab[i] = [p * x // d for x in tab[i]]
        f = obj[enter]
        obj = [(p * x - f * y) // d for x, y in zip(obj, prow)]
        d = p
        basis[leave] = enter

    if obj[ncols] != 0:
        return None
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = Fraction(tab[i][ncols], d)
    return x


def solve_inequalities(ge_rows, ge_rhs, eq_rows=()) -> list[Fraction] | None:
    """Find a free vector y with ``G y >= g`` and ``E y = 0``, or None.

    Free variables are split as y = u - v with u, v >= 0; each inequality
    gets a slack.  Used with g in {0, 1}: a homogeneous strict system
    ``G y > 0`` is equivalent to ``G y >= 1`` by scaling.  Int rows pass
    through; rational rows and right-hand sides are cleared by one common
    denominator first, the clearing :func:`feasible_nonneg` would do.
    """
    rows = list(ge_rows)
    eq_rows = list(eq_rows)
    nvars = len(rows[0]) if rows else (len(eq_rows[0]) if eq_rows else 0)
    den, cleared = _cleared(rows + eq_rows + [ge_rhs])
    g = cleared.pop()
    nslack = len(rows)
    a_rows = []
    for k, row in enumerate(cleared):
        slack = [0] * nslack
        if k < nslack:
            slack[k] = -den
        a_rows.append([*row, *(-x for x in row), *slack])
    b = [*g, *(0 for _ in eq_rows)]
    sol = feasible_nonneg(a_rows, b)
    if sol is None:
        return None
    return [sol[j] - sol[nvars + j] for j in range(nvars)]
