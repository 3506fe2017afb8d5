"""Exact linear algebra over Q: the rank of a sparse Fraction matrix.

`rank_kernel` eliminates the columns in order, so it gives the rank of
every leading block of columns at once: the rank of the first j columns is
the number of pivot columns below j.
"""

from __future__ import annotations

from fractions import Fraction


class QMatrix:
    """Sparse matrix over Q, by columns: entries[j] is {row: nonzero Fraction}."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        self.rows = rows
        self.cols = cols
        self.entries = [{i: Fraction(x) for i, x in col.items() if x} for col in entries]
        assert len(self.entries) == cols
        assert all(0 <= i < rows for col in self.entries for i in col)

    def __repr__(self):
        return f"QMatrix({self.rows}x{self.cols})"


def rank_kernel(m: QMatrix) -> list:
    """The pivot columns of m, ascending; the rank is their number.

    Each column is reduced against the earlier pivot columns, always
    clearing its lowest row, and becomes a pivot column if anything is left.
    The name is kept because the benchmark's tracer spans this function by
    name; no kernel basis is computed.
    """
    reduced = {}  # lowest row -> reduced pivot column, 1 at that row
    pivots = []
    for j, col in enumerate(m.entries):
        col = dict(col)
        while col:
            low = max(col)
            prev = reduced.get(low)
            if prev is None:
                inv = 1 / col[low]
                reduced[low] = {i: x * inv for i, x in col.items()}
                pivots.append(j)
                break
            f = col[low]
            for i, x in prev.items():
                y = col.get(i, 0) - f * x
                if y:
                    col[i] = y
                else:
                    del col[i]
    return pivots
