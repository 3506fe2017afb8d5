import random
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from cechmf.linalg import QMatrix, rank_kernel


def _qm(a) -> QMatrix:
    """QMatrix from dense rows."""
    rows, cols = len(a), len(a[0])
    return QMatrix(rows, cols, [{i: a[i][j] for i in range(rows)} for j in range(cols)])


def test_zero_matrix():
    assert rank_kernel(QMatrix(2, 2, [{}, {}])) == []
    assert rank_kernel(_qm([[0, 0], [0, 0]])) == []


def test_identity():
    assert rank_kernel(_qm([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == [0, 1, 2]


def test_rank_one():
    # the second column is twice the first
    assert rank_kernel(_qm([[1, 2], [2, 4]])) == [0]
    assert rank_kernel(_qm([[0, 2], [0, 4]])) == [1]


def test_fractions_and_zero_entries():
    m = QMatrix(3, 3, [{0: Fraction(1, 3), 2: 0}, {0: Fraction(2, 3)}, {1: Fraction(-1, 2)}])
    assert m.entries[0] == {0: Fraction(1, 3)}
    assert rank_kernel(m) == [0, 2]


def _minor_rank(a) -> int:
    """Independent oracle: rank = size of the largest nonsingular minor."""
    rows, cols = len(a), len(a[0])
    best = 0
    for k in range(1, min(rows, cols) + 1):
        found = False
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                if _det([[a[i][j] for j in cs] for i in rs]) != 0:
                    found = True
                    break
            if found:
                break
        if found:
            best = k
        else:
            break
    return best


def _det(a):
    a = [[Fraction(x) for x in row] for row in a]
    n = len(a)
    sign = 1
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        det *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det * sign


def _check_against_oracle(a):
    """The rank, and the rank of every leading column block, equal the oracle's."""
    pivots = rank_kernel(_qm(a))
    assert pivots == sorted(set(pivots))
    assert len(pivots) == _minor_rank(a)
    for j in range(1, len(a[0]) + 1):
        lead = [row[:j] for row in a]
        assert sum(1 for c in pivots if c < j) == _minor_rank(lead)


def test_against_minor_oracle():
    rng = random.Random(0)
    for _ in range(40):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        _check_against_oracle([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda rows: st.integers(1, 5).flatmap(
            lambda cols: st.lists(
                st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            )
        )
    )
)
def test_against_minor_oracle_hypothesis(a):
    _check_against_oracle(a)
