import copy
import random
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from cechmf.linalg import QMatrix, in_span, rank_kernel
from cechmf.suites import _sparse_rank


def _qm(a) -> QMatrix:
    """QMatrix from dense rows."""
    rows, cols = len(a), len(a[0])
    return QMatrix(rows, cols, [{i: a[i][j] for i in range(rows)} for j in range(cols)])


def _pivots(m: QMatrix) -> dict:
    """{pivot column: lowest row} of m's echelon, ascending by column."""
    return {j: low for low, (j, _) in rank_kernel(m).items()}


def test_zero_matrix():
    assert _pivots(QMatrix(2, 2, [{}, {}])) == {}
    assert _pivots(_qm([[0, 0], [0, 0]])) == {}


def test_identity():
    assert list(_pivots(_qm([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))) == [0, 1, 2]


def test_rank_one():
    # the second column is twice the first
    assert list(_pivots(_qm([[1, 2], [2, 4]]))) == [0]
    assert list(_pivots(_qm([[0, 2], [0, 4]]))) == [1]


def test_fractions_and_zero_entries():
    m = QMatrix(3, 3, [{0: Fraction(1, 3), 2: 0}, {0: Fraction(2, 3)}, {1: Fraction(-1, 2)}])
    assert m.entries[0] == {0: Fraction(1, 3)}
    assert list(_pivots(m)) == [0, 2]


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
    """The rank, and the rank of every lower-left block, equal the oracle's.

    rank a[rows >= r, cols < j] is the number of pivots j' < j whose lowest
    row is >= r; `homology._dims` reads its ranks this way."""
    pivots = _pivots(_qm(a))
    assert list(pivots) == sorted(pivots)
    assert len(set(pivots.values())) == len(pivots)
    assert len(pivots) == _minor_rank(a)
    for r in range(len(a)):
        for j in range(1, len(a[0]) + 1):
            block = [row[:j] for row in a[r:]]
            assert sum(1 for c, low in pivots.items() if c < j and low >= r) == _minor_rank(block)


def _check_sparse_rank(a, keys):
    """The homology oracle's rank of the rows of a, each a sparse dict over
    the tuple keys, equals the minor oracle's, for int and Fraction entries
    and whichever order the keys sort in."""
    for scale in (1, Fraction(2, 3)):
        rows = [{keys[j]: x * scale for j, x in enumerate(row) if x} for row in a]
        assert _sparse_rank(rows) == _minor_rank(a)


def _ambient_keys(rng, cols):
    """Distinct keys shaped like the oracle's (tag, I, K, mono), shuffled so
    that the least key is not the first column."""
    keys = [(rng.choice("ab"), (0, rng.randint(1, 2)), (), (j, -j)) for j in range(cols)]
    rng.shuffle(keys)
    return keys


def test_against_minor_oracle():
    rng = random.Random(0)
    for _ in range(40):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        a = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        _check_against_oracle(a)
        _check_sparse_rank(a, _ambient_keys(rng, cols))


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
    _check_sparse_rank(a, [(j % 2, (j,)) for j in range(len(a[0]))])


def test_sparse_rank_of_sparse_rational_rows():
    """Rows with Fraction entries, zero entries and large entries, mostly
    zero, over keys that need not all occur; a repeated row and the zero
    row add nothing."""
    rng = random.Random(4)
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 7)
        bound = rng.choice((3, 10**6))
        a = [
            [rng.choice((0, 0, Fraction(rng.randint(-bound, bound), rng.randint(1, 9)))) for _ in range(cols)]
            for _ in range(rows)
        ]
        keys = _ambient_keys(rng, cols)
        _check_sparse_rank(a, keys)
        sparse = [{keys[j]: x for j, x in enumerate(row) if x} for row in a]
        assert _sparse_rank(sparse + sparse[:1] + [{}]) == _minor_rank(a)
    assert _sparse_rank([]) == 0
    assert _sparse_rank([{("a",): 0}]) == 0


def _random_matrix(rng, rows, cols, bound):
    return [[rng.choice((0, rng.randint(-bound, bound))) for _ in range(cols)] for _ in range(rows)]


def test_scaling_a_column_keeps_pivots_and_lows():
    """Over Z the columns are scaled; scaling by a nonzero rational does
    not move a pivot or its lowest row."""
    rng = random.Random(1)
    for _ in range(40):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        m = _qm(_random_matrix(rng, rows, cols, 3))
        factors = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 50), rng.randint(1, 50)) for _ in range(cols)]
        scaled = QMatrix(rows, cols, [{i: x * s for i, x in col.items()} for col, s in zip(m.entries, factors)])
        assert _pivots(scaled) == _pivots(m)


def test_large_entries():
    """Entries up to 10^6 in size: the eliminations' products stay exact."""
    rng = random.Random(2)
    for _ in range(20):
        _check_against_oracle(_random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), 10**6))
    # a rank-2 matrix whose third column is a big combination of the first two
    u, v = [10**6, -999_983, 3], [7, 10**6 - 1, -10**6]
    w = [654_321 * x - 123_457 * y for x, y in zip(u, v)]
    pivots = _pivots(_qm([list(t) for t in zip(u, v, w)]))
    assert list(pivots) == [0, 1]


def test_rank_kernel_leaves_its_matrix_unchanged():
    """The elimination copies a column when it first reduces it and keeps
    an unreduced pivot column as it is, so it never writes a column it was
    given: not one shared by two matrices, nor one of a matrix of its first
    columns, nor the integral form of a rational column.  A span test
    writes neither its target nor a column the echelon keeps."""
    rng = random.Random(3)
    for _ in range(30):
        a = _random_matrix(rng, rng.randint(2, 6), rng.randint(2, 6), 3)
        for rows in (a, [[Fraction(x, 2) for x in row] for row in a]):
            m = _qm(rows)
            n, k = m.cols, rng.randint(0, m.cols)
            # three matrices over the same column dicts: reversed, and the first k
            other = QMatrix(m.rows, n, m.entries[::-1])
            head = QMatrix(m.rows, k, m.entries[:k])
            assert all(x is y for x, y in zip(other.entries, m.entries[::-1]))
            assert all(x is y for x, y in zip(head.entries, m.entries))
            tail = {rng.randrange(m.rows): rng.choice((1, Fraction(1, 3)))}
            dense = [row[:k] + [tail.get(i, 0)] for i, row in enumerate(rows)]
            echelon = rank_kernel(m)
            before = copy.deepcopy((m.entries, m.integral, tail, echelon))
            want = _pivots(_qm(rows))
            for _ in range(2):
                assert _pivots(m) == want
                assert _pivots(other) == _pivots(_qm([row[::-1] for row in rows]))
                assert _pivots(head) == {j: low for j, low in want.items() if j < k}
                assert in_span(echelon, k, tail) == (k not in _pivots(_qm(dense)))
            assert (m.entries, m.integral, tail, echelon) == before


_RATIONALS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda rows: st.integers(1, 4).flatmap(
            lambda cols: st.tuples(
                st.lists(st.lists(_RATIONALS, min_size=cols, max_size=cols), min_size=rows, max_size=rows),
                st.lists(_RATIONALS, min_size=rows, max_size=rows),
                st.lists(_RATIONALS, min_size=cols, max_size=cols),
            )
        )
    )
)
def test_span_test_against_minor_oracle(case):
    """A target lies in the span of the first n columns exactly when it
    adds nothing to their rank.  The targets are the drawn one (zero
    entries kept), the zero target, and a combination of the first n
    columns, which always lies in their span."""
    a, t, coeffs = case
    echelon = rank_kernel(_qm(a))
    for n in range(len(a[0]) + 1):
        combo = [sum(c * x for c, x in zip(coeffs[:n], row[:n])) for row in a]
        for target in (t, [0] * len(a), combo):
            block = [row[:n] + [x] for row, x in zip(a, target)]
            want = _minor_rank(block) == _minor_rank([row[:n] for row in a])
            assert in_span(echelon, n, dict(enumerate(target))) == want
        assert in_span(echelon, n, dict(enumerate(combo)))
