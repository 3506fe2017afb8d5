"""Windowed homology of the total complexes, by exact sparse rank.

The Z/2-graded total complex is restricted to the finite window of monomials
with |exponent| sum <= D (inverted variables range over negative exponents
too).  Differentials are evaluated exactly; images may leave the window, so
homology is computed as ker(d restricted to the window) modulo the part of
the image that lands back inside the window.  A stability flag compares the
dimensions at windows D and D+1: the differential is assembled once, at
D+1 or above, and every smaller window is a prefix of its columns.  Each
parity q takes one elimination of d on parity q, over Z, when the window
is assembled.  Its columns run window D first; its rows run the window-D
basis of parity 1-q, the rest of the window-(D+1) basis, then every other
key the images reach.  Every rank the dimensions need is then the rank of
a lower-left block, which is a count of the echelon's pivots (`linalg`,
`_dims`), and a boundary test reduces its target against the echelon.

A basis key is x^m dx_K on one tuple I, with a tag for its summand.
`_SUMMANDS` is the one place the tags are defined: per complex, each
summand's tag, parity shift, whether it lives on the divisor, and how a
section is taken apart into it and built from it.  The window keys, the
parities, `expand_cochain` and the basis cochains all read that table.  The
total differential is linear over restriction, so the column of x^m dx_K
is built from one table of d(dx_K) (`_dtable`, `_expand`), which depends
on neither m nor the window: assembling a window runs cech_total_d once
per (tag, I, K), and drops the tables once its columns are expanded.  The
scene keeps, per complex, the assembled window of the largest D asked so
far (`Scene._windows`): its basis in size order, row numbers, and per
parity one checked `QMatrix` and its echelon.  This is the one homology
state a scene holds: a call at a window no larger reads it and eliminates
nothing, and a larger window replaces it.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import add, itemgetter

from .cech import CONE, OMEGA, OMEGA_Y, _SECTION_OF_COMPLEX, Cochain, cech_total_d
from .forms import ConeForm, Form, LogForm, _merge_indices, index_sets
from .linalg import QMatrix, in_span, rank_kernel
from .rings import _fr
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
    if c.kind != _SECTION_OF_COMPLEX[complex_kind]:
        raise ValueError(
            f"a {c.kind!r} cochain is not a section of the {complex_kind!r} complex, "
            f"whose sections are {_SECTION_OF_COMPLEX[complex_kind]!r}"
        )
    out: dict = {}
    for I, s in c.entries.items():
        for tag, _, _, part, _ in summands:
            for K, poly in part(s).terms.items():
                for coeff, mono in poly.monomials():
                    key = (tag, I, K, mono)
                    out[key] = out.get(key, 0) + coeff
    return {k: _fr(v) for k, v in out.items() if v}


def _basis_cochain(scene: Scene, complex_kind: str, key) -> Cochain:
    tag, I, K, mono = key
    ctx = scene.ctx(I)
    (make,) = [s[4] for s in _summands(complex_kind) if s[0] == tag]
    w = Form(ctx.ring, {K: ctx.ring.monomial(mono)})
    return Cochain(scene, _SECTION_OF_COMPLEX[complex_kind], {I: make(ctx, w)})


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
        for (tag_j, _, K_j, e), c in entries:
            for e_m, c_m in image:
                exp = tuple(map(add, e, e_m))
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


class _WindowedDifferential:
    """The matrices of d on the window-D basis, in shared ambient rows.

    The basis is the stable sort of `_window_keys` by exponent size,
    split by parity, so the basis of any smaller window is a prefix of it,
    and `ends[par][s]` is the length of the parity-par prefix of sizes
    <= s.  The ambient rows of a parity are its basis keys in that order,
    then the other keys the images reach.  A key outside the basis can be
    small (a `cls` key with a pole exponent), so rows are split by basis
    membership, not by size.  `matrix[par]` holds the columns of d on the
    parity-par basis, numbered in the ambient rows of parity 1 - par and
    checked once; each is expanded from its (tag, I, K)'s `_dtable`, which
    only this build keeps.  `echelon[par]` is the one elimination of
    `matrix[par]` (`linalg.rank_kernel`), which serves every window up to
    D.  The scene keeps one window per complex (`_window`); nothing here
    changes after it is built."""

    def __init__(self, scene: Scene, complex_kind: str, D: int):
        self.D = D
        self.basis = {0: [], 1: []}
        sizes = {0: [], 1: []}
        keys = ((sum(map(abs, k[3])), k) for k in _window_keys(scene, complex_kind, D))
        for size, k in sorted(keys, key=itemgetter(0)):
            par = _parity(k)
            self.basis[par].append(k)
            sizes[par].append(size)
        self.ends = {par: [bisect_right(sizes[par], s) for s in range(D + 1)] for par in (0, 1)}
        self.ambient = {par: {k: i for i, k in enumerate(self.basis[par])} for par in (0, 1)}
        cells = {k[:3]: k for par in (0, 1) for k in self.basis[par]}
        tables = {cell: _dtable(scene, complex_kind, k) for cell, k in cells.items()}
        self.matrix = {}
        for par in (0, 1):
            amb = self.ambient[1 - par]
            cols = [
                {amb.setdefault(kk, len(amb)): v for kk, v in _expand(tables[k[:3]], k[3]).items()}
                for k in self.basis[par]
            ]
            self.matrix[par] = QMatrix(len(amb), len(cols), cols)
        self.echelon = {par: rank_kernel(self.matrix[par]) for par in (0, 1)}


def _window(scene: Scene, complex_kind: str, D: int) -> _WindowedDifferential:
    """The scene's kept window of the complex if it holds window D, else
    the window-D one, which replaces it."""
    wd = scene._windows.get(complex_kind)
    if wd is None or wd.D < D:
        wd = scene._windows[complex_kind] = _WindowedDifferential(scene, complex_kind, D)
    return wd


def _dims(wd: _WindowedDifferential, D: int) -> tuple:
    """H_even and H_odd at windows D and D+1, read from wd's echelon of d
    on each parity; wd is assembled at window D+1 or above.

    H_par = rank[d|1-par | W_par] - rank d|par - rank d|1-par, with W_par
    the window's basis of parity par: nullity(d|par) minus the dimension
    of im(d|1-par) meet W_par.  The unit columns of W are not eliminated:
    rank[d | W] = |W| + rank of d with the rows of W deleted.

    The matrix of d|q is a prefix of wd's columns: window D first, then
    the rest of window D+1.  Its rows of parity 1-q run W_{1-q} at D, then
    the rest of W_{1-q} at D+1, then every other ambient key: the rest of
    wd's basis, if wd is larger, sits among the keys outside W, and only
    the first two row blocks have to come first.  Each of the four ranks of q (d|q, and
    d|q without the rows of W_{1-q}, at D and at D+1) is then the rank of
    a lower-left block, which is a count of the echelon's pivots:
    rank m[rows >= r, cols < n] = #{pivots j < n with low >= r}."""
    r_d, r_dw = {}, {}  # (window, q) -> rank d|q, rank [d|q | W_{1-q}]
    for q in (0, 1):
        for w in (D, D + 1):
            n_d, n_w = wd.ends[q][w], wd.ends[1 - q][w]
            lows = [low for low, (j, _) in wd.echelon[q].items() if j < n_d]
            r_d[w, q] = len(lows)
            r_dw[w, q] = n_w + sum(low >= n_w for low in lows)
    return tuple(
        {par: r_dw[w, 1 - par] - r_d[w, par] - r_d[w, 1 - par] for par in (0, 1)}
        for w in (D, D + 1)
    )


def _check_window(D) -> None:
    if not isinstance(D, int) or isinstance(D, bool) or D < 0:
        raise ValueError(f"window D={D!r} is not a non-negative int")


def homology_dims(scene: Scene, complex_kind: str, D: int | None = None) -> dict:
    """Exact homology dimensions per parity in the window, with stability flag.

    The differential is read from the scene's kept window, assembled at
    window D+1 or above, and both windows are read from its echelon per
    parity (see `_dims`)."""
    if D is None:
        D = scene.window
    _check_window(D)
    here, there = _dims(_window(scene, complex_kind, D + 1), D)
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

    d is read from the scene's kept window, assembled at window D+1 or
    above as in `homology_dims`.  No kept column reaches a key outside the
    kept rows, so c with such a key is no boundary.  Otherwise each parity
    part of c is a boundary exactly when it lies in the span of the
    window-D prefix of the kept columns of the other parity: when it
    reduces to zero against their reduced columns in the kept echelon
    (`linalg.in_span`)."""
    _check_window(D)
    target = expand_cochain(c, complex_kind)
    if not target:
        return True
    wd = _window(c.scene, complex_kind, D + 1)
    parts: dict = {}  # parity -> {kept row: coefficient}
    for k, v in target.items():
        p = _parity(k)
        i = wd.ambient[p].get(k)
        if i is None:
            return False
        parts.setdefault(p, {})[i] = v
    return all(in_span(wd.echelon[1 - p], wd.ends[1 - p][D], part) for p, part in parts.items())
