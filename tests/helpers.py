"""Shared test helpers that read package internals."""


def int_rows(reducer):
    """The primitive integer rows of an ``exactlin.Reducer`` in full column
    coordinates, as ascending (column, int) pairs, in pivot order."""
    keep = reducer.keep
    return tuple(
        tuple(sorted(((p, pv),) + tuple((keep[i], x) for i, x in tail)))
        for p, (pv, tail) in reducer._rows.items()
    )
