"""Exact linear algebra over Q: the pivots of a sparse rational matrix.

`rank_kernel` reduces the columns left to right, always clearing the lowest
row, and returns {pivot column: lowest row}.  Its length is the rank, and
the pivots give the rank of every lower-left block at once:

    rank m[rows >= r, cols < j] = #{pivots j' < j with low(j') >= r},

since the reduction only adds earlier columns to later ones and leaves
distinct lowest rows (Edelsbrunner-Letscher-Zomorodian 2002).

The reduction runs over Z: each column is scaled by the lcm of its
denominators, eliminated with col <- p*col - f*prev, and each pivot column
is divided by the gcd of its entries.  Scaling a column by a nonzero
rational changes neither the pivots nor the lowest rows, so they are those
of the elimination over Q.
"""

from __future__ import annotations

from math import gcd, lcm


class QMatrix:
    """Sparse matrix over Q, by columns: entries[j] is {row: nonzero int or
    Fraction}, kept as given."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        self.rows = rows
        self.cols = cols
        self.entries = [{i: x for i, x in col.items() if x} for col in entries]
        assert len(self.entries) == cols
        assert all(0 <= i < rows for col in self.entries for i in col)

    def __repr__(self):
        return f"QMatrix({self.rows}x{self.cols})"


def _integral(col: dict) -> dict:
    """col times the lcm of its denominators, as ints, in a new dict: the
    elimination changes it in place.  An integral column is copied as is."""
    if all(type(x) is int for x in col.values()):
        return dict(col)
    den = lcm(*(x.denominator for x in col.values()))
    return {i: int(x * den) for i, x in col.items()}


def rank_kernel(m: QMatrix) -> dict:
    """{pivot column: lowest row} of m, ascending by column.

    Each column is reduced against the earlier pivot columns, always
    clearing its lowest row, and becomes a pivot column if anything is left.
    The name is kept because the benchmark's tracer spans this function by
    name; no kernel basis is computed.
    """
    reduced = {}  # lowest row -> reduced pivot column, primitive, > 0 there
    pivots = {}
    for j, col in enumerate(m.entries):
        col = _integral(col)
        while col:
            low = max(col)
            prev = reduced.get(low)
            if prev is None:
                g = gcd(*col.values())
                if col[low] < 0:
                    g = -g
                reduced[low] = {i: x // g for i, x in col.items()} if g != 1 else col
                pivots[j] = low
                break
            p, f = prev[low], col[low]
            g = gcd(p, f)
            p, f = p // g, f // g
            if p != 1:
                col = {i: p * x for i, x in col.items()}
            for i, x in prev.items():
                y = col.get(i, 0) - f * x
                if y:
                    col[i] = y
                else:
                    del col[i]
    return pivots
