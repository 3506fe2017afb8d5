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

A `QMatrix` checks its rows and zeros and takes each column over Z once,
when it is built; `QMatrix.prefix` shares those columns with a matrix of
its first columns, which is not checked again.  `rank_kernel` never writes
a column it was given: it copies a column when it first reduces it, and
stores a column that becomes a pivot unchanged as it is.
"""

from __future__ import annotations

from math import gcd, lcm


class QMatrix:
    """Sparse matrix over Q, by columns: entries[j] is {row: nonzero int or
    Fraction}, kept as given, and integral[j] is that column times the lcm
    of its denominators.  A column without zero entries is the caller's
    dict itself, and an integral column is its own integral form; neither
    the caller nor `rank_kernel` changes them after."""

    __slots__ = ("rows", "cols", "entries", "integral")

    def __init__(self, rows: int, cols: int, entries):
        self.rows = rows
        self.cols = cols
        self.entries = [col if all(col.values()) else {i: x for i, x in col.items() if x} for col in entries]
        assert len(self.entries) == cols
        assert all(0 <= i < rows for col in self.entries for i in col)
        self.integral = [_integral(col) for col in self.entries]

    def prefix(self, cols: int, rows: int | None = None, tail=()) -> QMatrix:
        """The first `cols` columns on `rows` >= self.rows rows, then the
        columns `tail`.  The first columns and their integral forms are
        shared and not checked again; only `tail` is checked."""
        rows = self.rows if rows is None else rows
        assert 0 <= cols <= self.cols and rows >= self.rows
        extra = QMatrix(rows, len(tail), tail)
        m = QMatrix.__new__(QMatrix)
        m.rows, m.cols = rows, cols + extra.cols
        m.entries = self.entries[:cols] + extra.entries
        m.integral = self.integral[:cols] + extra.integral
        return m

    def __repr__(self):
        return f"QMatrix({self.rows}x{self.cols})"


def _integral(col: dict) -> dict:
    """col times the lcm of its denominators, as ints: an integral column
    is returned as is, a rational one rebuilt in a new dict."""
    if all(type(x) is int for x in col.values()):
        return col
    den = lcm(*(x.denominator for x in col.values()))
    return {i: int(x * den) for i, x in col.items()}


def rank_kernel(m: QMatrix) -> dict:
    """{pivot column: lowest row} of m, ascending by column.

    Each column is reduced against the earlier pivot columns, always
    clearing its lowest row, and becomes a pivot column if anything is left.
    A column is copied on its first reduction step; m's columns are never
    written.  The name is kept because the benchmark's tracer spans this
    function by name; no kernel basis is computed.
    """
    reduced = {}  # lowest row -> reduced pivot column, primitive, > 0 there
    pivots = {}
    for j, col in enumerate(m.integral):
        own = False  # is col a copy this elimination may change?
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
            elif not own:
                col = dict(col)
            own = True
            for i, x in prev.items():
                y = col.get(i, 0) - f * x
                if y:
                    col[i] = y
                else:
                    del col[i]
            assert low not in col, "the pivot did not clear its row"
    return pivots
