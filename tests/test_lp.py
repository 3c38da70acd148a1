"""The integer-preserving simplex of ``_lp`` against a Fraction tableau.

``fraction_feasible_nonneg`` is the phase-1 simplex with Bland's rule over
``Fraction``, the kernel ``_lp.feasible_nonneg`` replaced.  The integer
tableau is a positive rescaling of it, so both must follow one pivot path
and return the same value: None, or the same basic solution.
"""

import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricbundle import _lp
from toricbundle.polyhedral import validate_fan


def fraction_feasible_nonneg(a_rows, b):
    """x >= 0 with A x = b by a Fraction phase-1 tableau, or None."""
    m = len(a_rows)
    if m == 0:
        return []
    n = len(a_rows[0])
    tab = []
    for i, row in enumerate(a_rows):
        row = [F(x) for x in row]
        rhs = F(b[i])
        if rhs < 0:
            row = [-x for x in row]
            rhs = -rhs
        art = [F(0)] * m
        art[i] = F(1)
        tab.append(row + art + [rhs])
    basis = list(range(n, n + m))
    ncols = n + m
    obj = [sum(tab[i][j] for i in range(m)) for j in range(ncols + 1)]
    for j in range(n, ncols):
        obj[j] -= 1
    while True:
        enter = next((j for j in range(ncols) if obj[j] > 0), -1)
        if enter < 0:
            break
        leave, best = -1, None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][ncols] / tab[i][enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best, leave = ratio, i
        assert leave >= 0, "phase 1 is bounded below"
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter]:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        f = obj[enter]
        obj = [x - f * y for x, y in zip(obj, tab[leave])]
        basis[leave] = enter
    if obj[ncols] != 0:
        return None
    x = [F(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = tab[i][ncols]
    return x


def fraction_solve_inequalities(ge_rows, ge_rhs, eq_rows=()):
    """``_lp.solve_inequalities`` as it was built on the Fraction oracle."""
    rows = list(ge_rows)
    nvars = len(rows[0]) if rows else (len(eq_rows[0]) if eq_rows else 0)
    nslack = len(rows)
    a_rows, b = [], []
    for k, row in enumerate(rows):
        slack = [F(0)] * nslack
        slack[k] = F(-1)
        a_rows.append([F(x) for x in row] + [-F(x) for x in row] + slack)
        b.append(F(ge_rhs[k]))
    for row in eq_rows:
        a_rows.append([F(x) for x in row] + [-F(x) for x in row] + [F(0)] * nslack)
        b.append(F(0))
    sol = fraction_feasible_nonneg(a_rows, b)
    if sol is None:
        return None
    return [sol[j] - sol[nvars + j] for j in range(nvars)]


# small entries with mixed denominators; zero often, so that zero rows,
# zero columns and degenerate vertices come up
entries = st.one_of(
    st.just(0),
    st.integers(-4, 4),
    st.builds(F, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4, 6))),
)


@st.composite
def systems(draw, max_rows=5, max_cols=6):
    """(A, b) with mixed denominators, negative right-hand sides, zero rows
    and repeated rows.  Half the systems draw small ints and right-hand
    sides in {0, 1}, so that degenerate vertices and ties in the ratio test,
    decided by the basis-index tie-break, come up often."""
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_cols))
    if draw(st.booleans()):
        entry, rhs = st.integers(-1, 2), st.integers(0, 1)
    else:
        entry, rhs = entries, entries
    rows = []
    b = []
    for _ in range(m):
        kind = draw(st.sampled_from(("random", "random", "zero", "repeat")))
        if kind == "zero":
            rows.append([0] * n)
        elif kind == "repeat" and rows:
            k = draw(st.integers(0, len(rows) - 1))
            scale = draw(st.sampled_from((1, 1, 2, F(1, 2), -1)))
            rows.append([scale * x for x in rows[k]])
            if draw(st.booleans()):
                b.append(scale * b[k])
                continue
        else:
            rows.append([draw(entry) for _ in range(n)])
        b.append(draw(rhs))
    return rows, b


@settings(max_examples=400, deadline=None)
@given(systems())
def test_feasible_nonneg_matches_fraction_tableau(system):
    a_rows, b = system
    got = _lp.feasible_nonneg(a_rows, b)
    assert got == fraction_feasible_nonneg(a_rows, b)
    if got is not None:
        assert all(type(x) is F and x >= 0 for x in got)
        assert all(
            sum(F(a) * x for a, x in zip(row, got)) == bi
            for row, bi in zip(a_rows, b)
        )


@settings(max_examples=200, deadline=None)
@given(systems(max_rows=4, max_cols=4), st.data())
def test_solve_inequalities_matches_fraction_tableau(system, data):
    rows, rhs = system
    n = len(rows[0])
    eq_rows = data.draw(
        st.lists(st.lists(entries, min_size=n, max_size=n), max_size=2)
    )
    got = _lp.solve_inequalities(rows, rhs, eq_rows)
    assert got == fraction_solve_inequalities(rows, rhs, eq_rows)
    if got is not None:
        assert all(
            sum(F(a) * y for a, y in zip(row, got)) >= g for row, g in zip(rows, rhs)
        )
        assert all(sum(F(a) * y for a, y in zip(row, got)) == 0 for row in eq_rows)


# systems with two equal rows whose vertex depends on the tie-break: giving
# ratio ties to the larger basis index ends elsewhere (the first at
# (0, 1/7, 2/7, 3/7)).  Random systems rarely show this (under 1 in 200 of
# such small systems), so they are pinned here.
TIE_CASES = [
    ([[2, 1, 1, -1], [2, 1, 1, -1], [0, 2, -1, 0], [-1, 1, 0, 2]], [0, 0, 0, 1]),
    ([[1, 1, 1, 1], [2, -1, -1, 0], [1, 2, 1, -1], [1, 1, 1, 1]], [1, 0, 0, 1]),
    ([[1, -1, 0, 2], [2, -1, -1, 2], [1, -1, 0, 2], [2, 1, 0, -1]], [1, 1, 1, 1]),
]


@pytest.mark.parametrize("a_rows, b", TIE_CASES)
def test_ratio_tie_goes_to_smaller_basis_index(a_rows, b):
    assert _lp.feasible_nonneg(a_rows, b) == fraction_feasible_nonneg(a_rows, b)


def test_ratio_tie_vertex_pinned():
    a_rows, b = TIE_CASES[0]
    assert _lp.feasible_nonneg(a_rows, b) == [F(1, 3), F(0), F(0), F(2, 3)]


def test_infeasible_and_empty_systems():
    assert _lp.feasible_nonneg([], []) == []
    assert _lp.feasible_nonneg([[1, 1]], [-1]) is None
    assert _lp.feasible_nonneg([[0, 0]], [F(1, 3)]) is None
    assert _lp.solve_inequalities([[1], [-1]], [1, 1]) is None
    assert _lp.solve_inequalities([[F(1, 2), 0]], [1], [[0, 1]]) == [F(2), F(0)]


def test_wall_rows_with_denominators_keep_the_fraction_witness():
    """P(1,1,2) with its cones listed so that the wall across ray 1 is read
    from the det-2 cone: a wall row has denominator 2, so the system is
    cleared by D = 2 before the integer tableau, and the witness is 2e_0."""
    fan = validate_fan([(1, 0), (0, 1), (-1, -2)], [(0, 2), (1, 2), (0, 1)])
    rows = fan.wall_rows
    assert any(x.denominator > 1 for row in rows for x in row)
    ones = [1] * len(rows)
    expected = fraction_solve_inequalities(rows, ones)
    assert expected == [F(2), F(0), F(0)]
    assert _lp.solve_inequalities(rows, ones) == expected


def test_pivot_loop_runs_on_ints():
    """Every tableau entry, objective entry and the scale are Python ints at
    every line the pivot loop runs, on a system with rational entries."""
    seen = []

    def local_trace(frame, event, arg):
        if event == "line" and "obj" in frame.f_locals:
            loc = frame.f_locals
            values = [x for row in loc["tab"] for x in row] + loc["obj"] + [loc["d"]]
            seen.append(all(type(x) is int for x in values))
        return local_trace

    def trace(frame, event, arg):
        if frame.f_code is _lp.feasible_nonneg.__code__:
            return local_trace
        return None

    a_rows = [[F(1, 2), F(1, 3), 1, 0], [F(2, 3), -1, 0, 1], [1, F(-1, 4), 0, 0]]
    b = [F(5, 6), F(1, 6), F(1, 2)]
    sys.settrace(trace)
    try:
        x = _lp.feasible_nonneg(a_rows, b)
    finally:
        sys.settrace(None)
    assert x == fraction_feasible_nonneg(a_rows, b)
    assert len(seen) > 20 and all(seen)
