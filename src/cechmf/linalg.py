"""Exact linear algebra over Q: the echelon of a sparse rational matrix.

`rank_kernel` reduces the columns left to right, always clearing the lowest
row, and returns the echelon {lowest row: (pivot column, reduced column)}
in column order; its length is the rank.  The reduction only adds earlier
columns to later ones, so the reduced columns j < n span the first n
columns, and their lowest rows are distinct (Edelsbrunner-Letscher-
Zomorodian 2002).  One echelon of a matrix therefore serves every prefix
of its columns: the rank of every lower-left block is a count,

    rank m[rows >= r, cols < n] = #{pivots j < n with low(j) >= r},

and a column lies in the span of the first n columns exactly when it
reduces to zero against the reduced columns j < n (`in_span`).  Both run
the one reduction loop, `_reduce`.

The reduction runs over Z: each column is scaled by the lcm of its
denominators, eliminated with col <- p*col - f*prev, and each pivot column
is divided by the gcd of its entries.  Scaling a column by a nonzero
rational changes neither the pivots nor the lowest rows, so they are those
of the elimination over Q.

A `QMatrix` checks its rows and zeros and takes each column over Z once,
when it is built.  Neither `rank_kernel` nor `in_span` writes a column it
was given or one an echelon keeps: a column is copied when it is first
reduced, and a column that becomes a pivot unchanged is kept as it is.
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

    def __repr__(self):
        return f"QMatrix({self.rows}x{self.cols})"


def _integral(col: dict) -> dict:
    """col times the lcm of its denominators, as ints: an integral column
    is returned as is, a rational one rebuilt in a new dict."""
    if all(type(x) is int for x in col.values()):
        return col
    den = lcm(*(x.denominator for x in col.values()))
    return {i: int(x * den) for i, x in col.items()}


def _reduce(col: dict, echelon: dict, n: int) -> tuple:
    """(col, its lowest row) after reducing col against the echelon's
    reduced columns j < n, always clearing the lowest row, until col is
    zero (lowest row None) or no such column has its lowest row.  col is
    copied on its first step; no column given or kept is written."""
    own = False  # is col a copy this reduction may change?
    while col:
        low = max(col)
        pivot = echelon.get(low)
        if pivot is None or pivot[0] >= n:
            return col, low
        prev = pivot[1]
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
    return col, None


def rank_kernel(m: QMatrix) -> dict:
    """The echelon of m: {lowest row: (pivot column, reduced column)}, in
    column order.  Each column is reduced against the earlier pivot
    columns, and what is left becomes a pivot column, primitive and
    positive at its lowest row.  The name is kept because the benchmark's
    tracer spans this function by name; no kernel basis is computed."""
    echelon = {}
    for j, col in enumerate(m.integral):
        col, low = _reduce(col, echelon, j)
        if col:
            g = gcd(*col.values())
            if col[low] < 0:
                g = -g
            echelon[low] = (j, {i: x // g for i, x in col.items()} if g != 1 else col)
    return echelon


def in_span(echelon: dict, n: int, col: dict) -> bool:
    """Does col, {row: int or Fraction}, lie in the span of the first n
    columns of the matrix whose echelon (`rank_kernel`) is given?  It does
    exactly when it reduces to zero against the reduced columns j < n."""
    return _reduce(_integral({i: x for i, x in col.items() if x}), echelon, n)[1] is None
