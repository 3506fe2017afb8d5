"""Windowed homology of the total complexes, by exact sparse rank.

The Z/2-graded total complex is restricted to the finite window of monomials
with |exponent| sum <= D (inverted variables range over negative exponents
too).  Differentials are evaluated exactly; images may leave the window, so
homology is computed as ker(d restricted to the window) modulo the part of
the image that lands back inside the window.  A stability flag compares the
dimensions at windows D and D+1: the differential is assembled once, at
D+1 or above (`_assemble`), and every smaller window is a prefix of its
columns.  Each parity q takes one elimination of d on parity q, over Z.
Its columns run window D first; its rows run the window-D basis of parity
1-q, the rest of the window-(D+1) basis, then every other key the images
reach.  Every rank the dimensions need is then a count of the echelon's
pivots (`linalg`), so `_dims` counts them once for every window size and
drops the rest.

A basis key is x^m dx_K on one tuple I, with a tag for its summand.
`_SUMMANDS` is the one place the tags are defined: per complex, each
summand's tag, parity shift, whether it lives on the divisor, and how a
section is taken apart into it and built from it.  The window keys, the
parities, `expand_cochain` and the basis cochains all read that table.  The
total differential is linear over restriction, so the column of x^m dx_K
is built from one table of d(dx_K) (`_dtable`, `_expand`), which depends
on neither m nor the window: assembling a window runs cech_total_d once
per (tag, I, K), and drops the tables once its columns are expanded.  The
scene keeps, per complex, only the dimensions (H_even, H_odd) at every
window size up to D+1, D the largest window asked so far
(`Scene._windows`).  A call at a window no larger reads two of them and
eliminates nothing, and a larger window replaces them.  A boundary test is the fallback of a
check whose routes differ, so it assembles its own window, appends its
target as one more column, and keeps nothing.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

from .cech import CONE, OMEGA, OMEGA_Y, _COMPLEXES, Cochain, cech_total_d
from .forms import ConeForm, Form, LogForm, _merge_indices, index_sets
from .linalg import QMatrix, rank_kernel
from .rings import _normal_terms
from .scene import Scene


def _cone_section(ctx, w: Form, slot: int) -> ConeForm:
    """The cone section with w in its regular (0), log-regular (1) or
    log-residue (2) slot and zero in the other two."""
    parts = [Form.zero(w.ring)] * 3
    parts[slot] = w
    return ConeForm(parts[0], LogForm(ctx, parts[1], parts[2]))


# The summands of each complex's window basis, in basis order: (tag, parity
# shift, on the divisor, section -> its Form in the summand, (ctx, Form) ->
# the section with that Form in the summand and zero elsewhere).  A summand
# on the divisor lives on tuples with a pole, with no dx_pole and no power
# of the pole; its keys follow the others' on each tuple.
_SUMMANDS = {
    OMEGA: (("f", 0, False, lambda s: s, lambda ctx, w: w),),
    OMEGA_Y: (("y", 0, True, lambda s: s, lambda ctx, w: w),),
    CONE: (
        ("cr", 0, False, lambda s: s.reg, lambda ctx, w: _cone_section(ctx, w, 0)),
        ("clr", 1, False, lambda s: s.log.regular, lambda ctx, w: _cone_section(ctx, w, 1)),
        ("cls", 0, True, lambda s: s.log.residue, lambda ctx, w: _cone_section(ctx, w, 2)),
    ),
}
_SHIFT = {tag: shift for summands in _SUMMANDS.values() for tag, shift, _, _, _ in summands}


def _summands(complex_kind: str):
    if complex_kind not in _SUMMANDS:
        raise ValueError(f"windowed homology does not support the {complex_kind!r} complex")
    return _SUMMANDS[complex_kind]


def _monomials(ring, D, forbid=None):
    """All Laurent exponent tuples with sum |e_i| <= D (0 at `forbid`)."""
    lau = ring.inverted

    def rec(i, budget):
        if i == ring.nvars:
            yield ()
            return
        lo = -budget if (i in lau and i != forbid) else 0
        hi = 0 if i == forbid else budget
        for e in range(lo, hi + 1):
            for rest in rec(i + 1, budget - abs(e)):
                yield (e,) + rest

    return list(rec(0, D))


def _window_keys(scene: Scene, complex_kind: str, D: int):
    """The window-D basis keys, per tuple: the summands off the divisor,
    then those on it, each by K, then m, then tag."""
    summands = _summands(complex_kind)
    groups = [(on_y, [s[0] for s in summands if s[2] == on_y]) for on_y in (False, True)]
    keys = []
    for I in scene.atlas.tuples:
        ctx = scene.ctx(I)
        for on_y, tags in groups:
            if not tags or (on_y and ctx.pole is None):
                continue
            pole = ctx.pole if on_y else None
            monos = _monomials(ctx.ring, D, forbid=pole)
            for K in index_sets(ctx.ring.nvars):
                if pole not in K:
                    keys.extend((tag, I, K, m) for m in monos for tag in tags)
    return keys


def _parity(key) -> int:
    """The parity of a key (tag, I, K, m), or of its (tag, I, K)."""
    tag, I, K = key[:3]
    return (len(I) - 1 + len(K) + _SHIFT[tag]) % 2


def expand_cochain(c: Cochain, complex_kind: str) -> dict:
    """{basis key: coefficient} of c, a section of the complex's kind."""
    summands = _summands(complex_kind)
    kind = _COMPLEXES[complex_kind][0]
    if c.kind != kind:
        raise ValueError(
            f"a {c.kind!r} cochain is not a section of the {complex_kind!r} complex, "
            f"whose sections are {kind!r}"
        )
    out: dict = {}
    for I, s in c.entries.items():
        for tag, _, _, part, _ in summands:
            for (K, mono), coeff in part(s).flat.items():
                key = (tag, I, K, mono)
                out[key] = out.get(key, 0) + coeff
    return _normal_terms(out)


def _basis_cochain(scene: Scene, complex_kind: str, key) -> Cochain:
    tag, I, K, mono = key
    ctx = scene.ctx(I)
    (make,) = [s[4] for s in _summands(complex_kind) if s[0] == tag]
    w = Form._new(ctx.ring, {(K, mono): 1})
    return Cochain(scene, _COMPLEXES[complex_kind][0], {I: make(ctx, w)})


def _dtable(scene: Scene, complex_kind: str, key) -> list:
    """d(dx_K) under the key's tag, expanded and grouped by tuple J, with
    res(I, J) and J's pole.

    Both parts of the total differential are linear over restriction, so
    the entry at J of d(x^m b) is res(I, J)(x^m) times the entry at J of
    d(b), with b = 1 dx_K under the key's tag: the one table serves every
    exponent m (`_expand`) and every window.  The tag fixes the complex.
    Callers read the table and do not change it."""
    tag, I, K, m = key
    b = _basis_cochain(scene, complex_kind, (tag, I, K, (0,) * len(m)))
    by_tuple: dict = {}
    for k, v in expand_cochain(cech_total_d(b, complex_kind), complex_kind).items():
        by_tuple.setdefault(k[1], []).append((k, v))
    return [
        (J, scene.atlas.res(I, J), scene.ctx(J).pole, entries)
        for J, entries in by_tuple.items()
    ]


def _expand(table: list, m) -> dict:
    """The column of x^m times the table's d(dx_K): per tuple J, each
    entry times res(I, J)(x^m).  A product can gain a power of the pole;
    it is renormalized as LogForm and y_normalize do: a residue term
    x^e dx_K' with e_pole > 0 is the regular term
    dx_pole ^ x^(e - 1_pole) dx_K', and a divisor term with e_pole > 0 is
    zero.  Integral coefficients are ints (the normal form of `rings`), so
    the elimination over Z copies each column of an integral differential
    as is."""
    out: dict = {}
    for J, res, pole, entries in table:
        image = res._mono_image(m).terms.items()
        add_exp = res.dst.add_exp
        for (tag_j, _, K_j, e), c in entries:
            for e_m, c_m in image:
                exp = add_exp(e, e_m)
                coeff = c * c_m
                k = (tag_j, J, K_j, exp)
                if pole is not None and exp[pole] > 0:
                    if tag_j == "y":
                        continue
                    if tag_j == "cls":
                        K_r, sign = _merge_indices((pole,), K_j)
                        k = ("clr", J, K_r, exp[:pole] + (exp[pole] - 1,) + exp[pole + 1:])
                        coeff *= sign
                out[k] = out.get(k, 0) + coeff
    return {k: v for k, v in out.items() if v}


def _size(key) -> int:
    return sum(map(abs, key[3]))


def _assemble(scene: Scene, complex_kind: str, D: int) -> tuple:
    """(basis, ambient, matrix): the matrices of d on the window-D basis,
    in shared ambient rows.

    The basis is the stable sort of `_window_keys` by exponent size,
    split by parity, so the basis of any smaller window is a prefix of it.
    The ambient rows of a parity are its basis keys in that order, then
    the other keys the images reach.  A key outside the basis can be small
    (a `cls` key with a pole exponent), so rows are split by basis
    membership, not by size.  `matrix[par]` holds the columns of d on the
    parity-par basis, numbered in the ambient rows of parity 1 - par; each
    is expanded from its (tag, I, K)'s `_dtable`, which only this call
    keeps."""
    basis = {0: [], 1: []}
    for k in sorted(_window_keys(scene, complex_kind, D), key=_size):
        basis[_parity(k)].append(k)
    ambient = {par: {k: i for i, k in enumerate(basis[par])} for par in (0, 1)}
    cells = {k[:3]: k for par in (0, 1) for k in basis[par]}
    tables = {cell: _dtable(scene, complex_kind, k) for cell, k in cells.items()}
    matrix = {}
    for par in (0, 1):
        amb = ambient[1 - par]
        cols = [
            {amb.setdefault(kk, len(amb)): v for kk, v in _expand(tables[k[:3]], k[3]).items()}
            for k in basis[par]
        ]
        matrix[par] = QMatrix(len(amb), len(cols), cols)
    return basis, ambient, matrix


def _dims(scene: Scene, complex_kind: str, D: int) -> list:
    """[(H_even, H_odd) at window w for w <= D], from one elimination of
    each parity's matrix at window D (`linalg.rank_kernel`).

    With W_par the window's basis of parity par,
    H_par = |W_par| - rank d|par - dim(im d|1-par meet W_par).  The matrix
    of d|q at window w is a prefix of the columns, and W_{1-q} at w a
    prefix of the rows, so both are counts of the echelon's pivots j < n
    (`linalg`): all of them give the rank, and those with lowest row < r
    give the dimension of the columns' span within the first r rows, since
    the reduced columns j < n span it and their lowest rows are distinct.
    In sizes: a pivot counts at window w once its column, and for the
    meet also its lowest row, has size <= w."""
    basis, _, matrix = _assemble(scene, complex_kind, D)
    sizes = {par: [_size(k) for k in basis[par]] for par in (0, 1)}
    # per parity q and size s, the pivots of d|q whose column enters at
    # window s, and those whose column and lowest row both do
    grown = {}
    for q in (0, 1):
        col, both, rows = [0] * (D + 2), [0] * (D + 2), sizes[1 - q]
        for low, (j, _) in rank_kernel(matrix[q]).items():
            col[sizes[q][j]] += 1
            both[max(sizes[q][j], rows[low] if low < len(rows) else D + 1)] += 1
        grown[q] = list(accumulate(col)), list(accumulate(both))
    return [
        tuple(bisect_right(sizes[par], w) - grown[par][0][w] - grown[1 - par][1][w] for par in (0, 1))
        for w in range(D + 1)
    ]


def _check_window(D) -> None:
    if not isinstance(D, int) or isinstance(D, bool) or D < 0:
        raise ValueError(f"window D={D!r} is not a non-negative int")


def homology_dims(scene: Scene, complex_kind: str, D: int | None = None) -> dict:
    """Exact homology dimensions per parity in the window, with stability flag.

    Both windows are read from the scene's kept dimensions of the complex
    (`Scene._windows`), counted at window D+1 or above; a larger window
    replaces them."""
    if D is None:
        D = scene.window
    _check_window(D)
    dims = scene._windows.get(complex_kind)
    if dims is None or len(dims) < D + 2:
        dims = scene._windows[complex_kind] = _dims(scene, complex_kind, D + 1)
    here, there = dims[D], dims[D + 1]
    return {
        "window": D,
        "even": here[0],
        "odd": here[1],
        "even_next": there[0],
        "odd_next": there[1],
        "stable": here == there,
    }


def is_boundary_within_window(c: Cochain, complex_kind: str, D: int) -> bool:
    """Does c = d(v) for some v supported on the window-D basis?

    The call assembles window D for itself and keeps nothing.  Each parity
    part of c is appended as one more column after the columns of d on the
    other parity's basis; it is a boundary exactly when it lies in their
    span, that is when their elimination (`linalg.rank_kernel`) makes it
    no pivot.  A key that no column reaches gets a fresh row, so a target
    with such a key is no boundary."""
    _check_window(D)
    target = expand_cochain(c, complex_kind)
    if not target:
        return True
    _, ambient, matrix = _assemble(c.scene, complex_kind, D)
    parts: dict = {}  # parity -> {key: coefficient}
    for k, v in target.items():
        parts.setdefault(_parity(k), {})[k] = v
    for p, part in parts.items():
        rows, m = ambient[p], matrix[1 - p]
        col = {rows.setdefault(k, len(rows)): v for k, v in part.items()}
        echelon = rank_kernel(QMatrix(len(rows), m.cols + 1, m.entries + [col]))
        if any(j == m.cols for j, _ in echelon.values()):
            return False
    return True
