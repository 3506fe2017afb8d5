"""Windowed homology of the total complexes, by exact rank computation.

The Z/2-graded total complex is restricted to the finite window of monomials
with |exponent| sum <= D (inverted variables range over negative exponents
too).  Differentials are evaluated exactly; images may leave the window, so
homology is computed as ker(d restricted to the window) modulo the part of
the image that lands back inside the window.  A stability flag compares the
dimensions at windows D and D+1.
"""

from __future__ import annotations

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

    def matrix(self, par: int) -> QMatrix:
        """d restricted to window basis of parity `par`, ambient rows."""
        amb = self.ambient[1 - par]
        cols = self.images[par]
        m = QMatrix(len(amb), len(cols))
        for j, img in enumerate(cols):
            for kk, v in img.items():
                m.entries[amb[kk]][j] = v
        return m

    def matrix_with_window(self, par: int) -> QMatrix:
        """[d on parity-par basis | inclusion of the (1-par) window]."""
        amb = self.ambient[1 - par]
        cols = self.images[par]
        extra = self.basis[1 - par]
        m = QMatrix(len(amb), len(cols) + len(extra))
        for j, img in enumerate(cols):
            for kk, v in img.items():
                m.entries[amb[kk]][j] = v
        for j, k in enumerate(extra):
            m.entries[amb[k]][len(cols) + j] = Fraction(1)
        return m


def _dims_at(scene: Scene, complex_kind: str, D: int):
    wd = _WindowedDifferential(scene, complex_kind, D)
    out = {}
    for par in (0, 1):
        r_d = rank_kernel(wd.matrix(par))[0]            # rank of d on parity par
        r_dw = rank_kernel(wd.matrix_with_window(1 - par))[0]  # d from 1-par, plus window included
        # H_par = nullity(d|par) - dim(im(d|1-par) meet window_par)
        n_basis = len(wd.basis[par])
        r_opp = rank_kernel(wd.matrix(1 - par))[0]
        out[par] = (n_basis - r_d) - (r_opp + n_basis - r_dw)
    return out


def homology_dims(scene: Scene, complex_kind: str, D: int | None = None) -> dict:
    """Exact homology dimensions per parity in the window, with stability flag."""
    if D is None:
        D = scene.window
    here = _dims_at(scene, complex_kind, D)
    there = _dims_at(scene, complex_kind, D + 1)
    return {
        "window": D,
        "even": here[0],
        "odd": here[1],
        "even_next": there[0],
        "odd_next": there[1],
        "stable": here == there,
    }


def is_boundary_within_window(c: Cochain, complex_kind: str, D: int) -> bool:
    """Does c = d(v) for some v supported on the window-D basis?"""
    target = expand_cochain(c, complex_kind)
    if not target:
        return True
    par = {_parity(k) for k in target}
    if len(par) > 1:
        # mixed parity: solve each part separately
        for p in par:
            part = {k: v for k, v in target.items() if _parity(k) == p}
            cc = _rebuild(c.scene, complex_kind, part)
            if not is_boundary_within_window(cc, complex_kind, D):
                return False
        return True
    (p,) = par
    src = 1 - p
    wd = _WindowedDifferential(c.scene, complex_kind, D)
    amb = dict(wd.ambient[p])
    for k in target:
        amb.setdefault(k, len(amb))
    cols = wd.images[src]
    m = QMatrix(len(amb), len(cols) + 1)
    for j, img in enumerate(cols):
        for kk, v in img.items():
            m.entries[amb[kk]][j] = v
    for kk, v in target.items():
        m.entries[amb[kk]][len(cols)] = v
    m_no = QMatrix(len(amb), len(cols), [row[:-1] for row in m.entries])
    return rank_kernel(m)[0] == rank_kernel(m_no)[0]


def _rebuild(scene, complex_kind, coords: dict) -> Cochain:
    out = None
    for key, v in coords.items():
        piece = _basis_cochain(scene, complex_kind, key).scale(Fraction(v))
        out = piece if out is None else out + piece
    return out if out is not None else Cochain(scene, _KIND_OF[complex_kind], {})
