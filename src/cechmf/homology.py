"""Windowed homology of the total complexes, by exact sparse rank.

The Z/2-graded total complex is restricted to the finite window of monomials
with |exponent| sum <= D (inverted variables range over negative exponents
too).  Differentials are evaluated exactly; images may leave the window, so
homology is computed as ker(d restricted to the window) modulo the part of
the image that lands back inside the window.  A stability flag compares the
dimensions at windows D and D+1: the differential is assembled once, at
D+1, and window D is a subset of its columns.  Each window and parity q
takes one column-order elimination of [d on parity q | window of parity
1-q], whose pivots give both rank d|q and the rank of the whole block.
"""

from __future__ import annotations

import bisect
import itertools
from fractions import Fraction

from .cech import (
    CONE,
    CONEF,
    FORM,
    OMEGA,
    OMEGA_Y,
    YFORM,
    Cochain,
    _ctx,
    cech_total_d,
)
from .forms import ConeForm, Form, LogForm
from .linalg import QMatrix, rank_kernel
from .scene import Scene

_KIND_OF = {OMEGA: FORM, OMEGA_Y: YFORM, CONE: CONEF}


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
    keys = []
    for I in scene.atlas.tuples:
        ctx = _ctx(scene, I)
        ring = ctx.ring
        subsets = list(
            itertools.chain.from_iterable(
                itertools.combinations(range(ring.nvars), k)
                for k in range(ring.nvars + 1)
            )
        )
        if complex_kind == OMEGA:
            for K in subsets:
                for m in _monomials(ring, D):
                    keys.append(("f", I, K, m))
        elif complex_kind == OMEGA_Y:
            if ctx.pole is None:
                continue
            for K in subsets:
                if ctx.pole in K:
                    continue
                for m in _monomials(ring, D, forbid=ctx.pole):
                    keys.append(("y", I, K, m))
        elif complex_kind == CONE:
            for K in subsets:
                for m in _monomials(ring, D):
                    keys.append(("cr", I, K, m))
                    keys.append(("clr", I, K, m))
            if ctx.pole is not None:
                for K in subsets:
                    if ctx.pole in K:
                        continue
                    for m in _monomials(ring, D, forbid=ctx.pole):
                        keys.append(("cls", I, K, m))
        else:
            raise ValueError(complex_kind)
    return keys


def _parity(key) -> int:
    tag, I, K, _ = key
    p = len(I) - 1
    if tag in ("f", "y", "cr", "cls"):
        return (p + len(K)) % 2
    if tag == "clr":
        return (p + len(K) + 1) % 2
    raise ValueError(tag)


def _expand_form(scene, I, w: Form, tag):
    for K, c in w.terms.items():
        for coeff, mono in c.monomials():
            yield (tag, I, K, mono), coeff


def _expand_section(scene, complex_kind, I, s):
    if complex_kind == OMEGA:
        yield from _expand_form(scene, I, s, "f")
    elif complex_kind == OMEGA_Y:
        yield from _expand_form(scene, I, s, "y")
    elif complex_kind == CONE:
        yield from _expand_form(scene, I, s.reg, "cr")
        yield from _expand_form(scene, I, s.log.regular, "clr")
        yield from _expand_form(scene, I, s.log.residue, "cls")


def expand_cochain(c: Cochain, complex_kind: str) -> dict:
    out: dict = {}
    for I, s in c.entries.items():
        for key, coeff in _expand_section(c.scene, complex_kind, I, s):
            out[key] = out.get(key, Fraction(0)) + coeff
    return {k: v for k, v in out.items() if v != 0}


def _basis_cochain(scene: Scene, complex_kind: str, key) -> Cochain:
    tag, I, K, mono = key
    ring = scene.atlas.ring(I)
    coeff = ring.monomial(mono)
    w = Form(ring, {K: coeff})
    kind = _KIND_OF[complex_kind]
    if tag in ("f", "y"):
        return Cochain(scene, kind, {I: w})
    ctx = _ctx(scene, I)
    if tag == "cr":
        s = ConeForm(w, LogForm.zero(ctx))
    elif tag == "clr":
        s = ConeForm(Form.zero(ring), LogForm(ctx, w, Form.zero(ring)))
    else:
        s = ConeForm(Form.zero(ring), LogForm(ctx, Form.zero(ring), w))
    return Cochain(scene, CONEF, {I: s})


def _in_window(key, D: int) -> bool:
    return sum(map(abs, key[3])) <= D


class _WindowedDifferential:
    """Columns of d on the window basis, in shared ambient coordinates."""

    def __init__(self, scene: Scene, complex_kind: str, D: int):
        self.scene = scene
        self.complex_kind = complex_kind
        keys = _window_keys(scene, complex_kind, D)
        self.basis = {0: [], 1: []}
        for k in keys:
            self.basis[_parity(k)].append(k)
        self.images = {0: [], 1: []}
        ambient: dict = {0: {}, 1: {}}
        for par in (0, 1):
            for k in self.basis[par]:
                img = expand_cochain(
                    cech_total_d(_basis_cochain(scene, complex_kind, k), complex_kind),
                    complex_kind,
                )
                self.images[par].append(img)
                amb = ambient[1 - par]
                for kk in img:
                    amb.setdefault(kk, len(amb))
        # window keys are always ambient coordinates too
        for par in (0, 1):
            amb = ambient[par]
            for k in self.basis[par]:
                amb.setdefault(k, len(amb))
        self.ambient = ambient

    def matrix_with_window(self, par: int, D: int) -> tuple:
        """[d on the parity-par basis | inclusion of the parity-(1-par)
        basis], both cut to window D, with the number of d columns.

        Ranks do not see the ambient rows the cut leaves empty."""
        amb = self.ambient[1 - par]
        cols = [
            {amb[kk]: v for kk, v in img.items()}
            for k, img in zip(self.basis[par], self.images[par])
            if _in_window(k, D)
        ]
        n_d = len(cols)
        cols += [{amb[k]: 1} for k in self.basis[1 - par] if _in_window(k, D)]
        return QMatrix(len(amb), len(cols), cols), n_d


def _dims_at(wd: _WindowedDifferential, D: int) -> dict:
    """H_par = rank[d|1-par, window par] - rank d|par - rank d|1-par.

    That is nullity(d|par) - dim(im(d|1-par) meet window_par); the rank of
    d|q is the number of pivots among the leading d columns of the
    elimination of matrix_with_window(q)."""
    r_d, r_dw = {}, {}
    for q in (0, 1):
        m, n_d = wd.matrix_with_window(q, D)
        pivots = rank_kernel(m)
        r_d[q] = bisect.bisect_left(pivots, n_d)
        r_dw[q] = len(pivots)
    return {par: r_dw[1 - par] - r_d[par] - r_d[1 - par] for par in (0, 1)}


def homology_dims(scene: Scene, complex_kind: str, D: int | None = None) -> dict:
    """Exact homology dimensions per parity in the window, with stability flag.

    The differential is assembled once, at window D+1; window D is the
    keys of it whose exponent has |e| sum <= D."""
    if D is None:
        D = scene.window
    wd = _WindowedDifferential(scene, complex_kind, D + 1)
    here = _dims_at(wd, D)
    there = _dims_at(wd, D + 1)
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

    Each parity part of c is solved on its own: it is a boundary exactly
    when it is not a pivot column of [d | part]."""
    target = expand_cochain(c, complex_kind)
    if not target:
        return True
    wd = _WindowedDifferential(c.scene, complex_kind, D)
    for p in {_parity(k) for k in target}:
        part = {k: v for k, v in target.items() if _parity(k) == p}
        amb = dict(wd.ambient[p])
        for k in part:
            amb.setdefault(k, len(amb))
        cols = [{amb[kk]: v for kk, v in img.items()} for img in wd.images[1 - p]]
        cols.append({amb[k]: v for k, v in part.items()})
        if len(cols) - 1 in rank_kernel(QMatrix(len(amb), len(cols), cols)):
            return False
    return True
