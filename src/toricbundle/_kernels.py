"""Fraction-free integer Gauss-Jordan on sparse rows.

The one row-reduction kernel of the package: :mod:`toricbundle.exactlin`
builds every elimination on it.  Rows are ``{column: int}`` dicts with zeros
never stored, so the work follows the nonzero entries only.

Elimination runs in two passes.  The forward pass (:func:`forward_int`,
one :func:`insert_row` per input row) reduces each new row at the existing
pivots only, in ascending pivot order, and keeps the remainder as a new
pivot row: an echelon form, enough for a rank or for a span test.
:func:`gauss_jordan_int` adds one back substitution in descending pivot
order, which clears each row at the later pivots and gives the reduced row
echelon form.  Every row stays primitive (gcd 1) and positive at its pivot.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
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


def insert_row(basis: dict[int, dict[int, int]], row: dict[int, int]) -> int | None:
    """Add a row to an echelon form; return its new pivot, or None if the
    row lies in the span of ``basis``.

    ``basis`` maps each pivot to a primitive row that is positive there and
    0 at every smaller column.  The row is reduced at the pivots in its
    support in ascending order (a heap of them): clearing pivot q adds
    entries only beyond q, so no pivot is visited twice.  The remainder is 0
    at every pivot of ``basis``; its first column becomes the new pivot.
    """
    heap = [c for c in row if c in basis]
    if heap:
        heapify(heap)
        while heap:
            q = heappop(heap)
            if q not in row:
                continue
            prow = basis[q]
            for c in prow:
                if c != q and c not in row and c in basis:
                    heappush(heap, c)
            row = _eliminate(row, prow, q)
            if not row:
                return None
    if not row:
        return None
    p = min(row)
    basis[p] = _primitive(row, p)
    return p


def forward_int(rows) -> dict[int, dict[int, int]]:
    """Echelon form of sparse integer rows: pivot -> primitive row, positive
    at its pivot and 0 at every smaller column and at every earlier pivot.

    The pivots are those of the reduced row echelon form, so their number
    is the rank.
    """
    basis: dict[int, dict[int, int]] = {}
    for row in rows:
        if row:
            insert_row(basis, row)
    return basis


def gauss_jordan_int(rows) -> list[tuple[int, dict[int, int]]]:
    """Fraction-free Gauss-Jordan on sparse integer rows ``{column: int}``.

    Returns ``(pivot, row)`` in pivot order: the rows are primitive,
    positive at their own pivot and 0 at every other pivot, and span the
    same space as the input.  After the forward pass a row is nonzero only
    at pivots found after it; the back substitution visits the pivots in
    descending order, so each row is cleared with rows that are already
    final, and clearing them adds no entry at any pivot.  The result is the
    reduced row echelon form up to row scaling.
    """
    basis = forward_int(rows)
    for p in sorted(basis, reverse=True):
        row = basis[p]
        later = [q for q in row if q != p and q in basis]
        for q in later:
            row = _eliminate(row, basis[q], q)
        basis[p] = row
    return sorted(basis.items())
