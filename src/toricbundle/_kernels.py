"""Fraction-free integer Gauss-Jordan on sparse rows.

The one row-reduction kernel of the package: :mod:`toricbundle.exactlin`
builds every elimination on :func:`gauss_jordan_int`.  Rows are
``{column: int}`` dicts with zeros never stored, so the work follows the
nonzero entries only.
"""

from __future__ import annotations

from math import gcd


def _primitive(row: dict[int, int], p: int) -> dict[int, int]:
    """The row divided by the gcd of its entries, positive at column p."""
    g = gcd(*row.values())
    if row[p] < 0:
        g = -g
    if g == 1:
        return row
    return {c: x // g for c, x in row.items()}


def _eliminate(row: dict[int, int], prow: dict[int, int], p: int) -> dict[int, int]:
    """A positive multiple of ``row`` minus a multiple of ``prow``, 0 at p.

    ``prow`` is positive at p; the result is gcd-reduced and keeps the sign
    of every entry of ``row`` outside the support of ``prow``.
    """
    v, pv = row[p], prow[p]
    g = gcd(v, pv)
    a, b = pv // g, v // g
    out = {c: a * x for c, x in row.items()} if a != 1 else dict(row)
    for c, y in prow.items():
        x = out.get(c)
        if x is None:
            out[c] = -b * y
        else:
            x -= b * y
            if x:
                out[c] = x
            else:
                del out[c]
    if not out:
        return out
    g = gcd(*out.values())
    if g == 1:
        return out
    return {c: x // g for c, x in out.items()}


def gauss_jordan_int(rows) -> list[tuple[int, dict[int, int]]]:
    """Fraction-free Gauss-Jordan on sparse integer rows ``{column: int}``.

    Returns ``(pivot, row)`` in pivot order: the rows are primitive,
    positive at their own pivot and 0 at every other pivot, and span the
    same space as the input.  Rows are taken one at a time; a new row is
    reduced at the existing pivots, its first column becomes a new pivot,
    and that column is cleared from the earlier rows.  Each kept row's first
    column stays its pivot (a later pivot q is cleared from a row only
    where the row is nonzero, which needs q beyond the row's first column),
    so the result is the reduced row echelon form up to row scaling.
    """
    basis: dict[int, dict[int, int]] = {}
    for row in rows:
        if not row:
            continue
        # clearing one pivot column adds entries only at non-pivot columns
        for q in [c for c in row if c in basis]:
            row = _eliminate(row, basis[q], q)
            if not row:
                break
        if not row:
            continue
        p = min(row)
        row = _primitive(row, p)
        for q, other in basis.items():
            if p in other:
                basis[q] = _eliminate(other, row, p)
        basis[p] = row
    return sorted(basis.items())
