"""The HKR chain maps: curved-line chains to twisted forms, and two-term
algebra chains to the cone complex.

Targets follow the curvature: chains over the line with curvature c map to
(Omega, dc^(-)); the sheaf-algebra map has the three element classes, with
the odd factor stripped to its coefficient (which is differentiated like
the rest) and everything with two or more odd factors sent to zero.

Every slot of a basis tensor is a monomial a_i = x^(m_i), so its form has
a closed form.  Since da_i = sum_v m_i[v] x^(m_i - e_v) dx_v,

    (c/k!) a_0 da_1 ^ ... ^ da_k
        = sum_{|K| = k} (c/k!) det(M_K) x^(m_0 + ... + m_k - e_K) dx_K,

where M_K is the k x k matrix of the slot exponents m_i[v] with v in K,
and e_K is the indicator of K: the wedge of k one-forms with constant
coefficients takes the k x k minors of their coefficient matrix.  The sum
is zero for k > nvars, so `hkr_xf` and `hkr_y` skip a tensor of more
than nvars + 1 slots before they read its exponents.  Every part of
`hkr_A` wedges one more one-form in (dx/x, dx or du/u), so it is zero
already for k >= nvars, and `hkr_A` skips a tensor of more than nvars
slots before it reads its symbols.  `_hkr_mono` accumulates the other
terms into one flat {(K, exponent): coefficient} dict per tuple, the
layout a Form stores, and `Form.from_flat` makes it a Form in one
normalizing pass.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import factorial

from .cdg import CurvedLine, OYAlgebra, SheafAlgebraA
from .cech import CONEF, FORM, YFORM, Cochain, _build, _empty
from .forms import Form, add_into, dlog_of, map_form_into, wedge_into
from .hochschild import CechHochChain, map_slots
from .rings import quotient_restrict


def _hkr_mono(monos, c, acc: dict) -> None:
    """acc += (c/k!) x^(m_0) d(x^(m_1)) ^ ... ^ d(x^(m_k)) for the
    exponents monos = (m_0, ..., m_k), as {(K, exponent): coefficient}.

    The minors det(M_K) are expanded one slot at a time: appending the
    one-form sum_v m[v] dx_v to dx_K moves dx_v past the members of K
    above v.
    """
    k = len(monos) - 1
    minors = {(): 1}
    for m in monos[1:]:
        nxt: dict = {}
        for K, det in minors.items():
            for v, mv in enumerate(m):
                if not mv or v in K:
                    continue
                pos = bisect_left(K, v)
                key = K[:pos] + (v,) + K[pos:]
                term = det * mv if (len(K) - pos) % 2 == 0 else -det * mv
                nxt[key] = nxt[key] + term if key in nxt else term
        minors = {K: det for K, det in nxt.items() if det}
        if not minors:
            return
    if k > 1:
        c = c * Fraction(1, factorial(k))
    total = tuple(map(sum, zip(*monos)))
    for K, det in minors.items():
        e = list(total)
        for v in K:
            e[v] -= 1
        key = (K, tuple(e))
        acc[key] = acc[key] + c * det if key in acc else c * det


def _hkr_cochain(c: CechHochChain, kind: str) -> Cochain:
    """a_0[a_1|...|a_k] -> (1/k!) a_0 da_1 ^ ... ^ da_k on every tuple,
    as a cochain of the given kind."""
    entries: dict = {}
    for I, ch in c.entries.items():
        ring = c.scene.atlas.ring(I)
        top = ring.nvars + 1  # a tensor of more slots maps to 0
        flat: dict = {}
        for (path, syms, monos), coeff in ch.terms.items():
            if len(monos) <= top:
                _hkr_mono(monos, coeff, flat)
        entries[I] = Form.from_flat(ring, flat)
    return Cochain(c.scene, kind, entries)


def hkr_xf(c: CechHochChain) -> Cochain:
    """a_0[a_1|...|a_k] -> (1/k!) a_0 da_1 ^ ... ^ da_k."""
    assert isinstance(c.presheaf, CurvedLine), "chains must live over a curved line"
    return _hkr_cochain(c, FORM)


def hkr_y(c: CechHochChain) -> Cochain:
    """Classical HKR on the divisor: same formula, divisor coefficients."""
    assert isinstance(c.presheaf, OYAlgebra)
    return _hkr_cochain(c, YFORM)


def hkr_A(c: CechHochChain) -> Cochain:
    """The cone-valued HKR map of the two-term algebra.

    Internal degree 0:   (1/k!) a_0 (dx/x) ^ da_1 ^ ... ^ da_k      (log)
                       + (1/k!) a_0 dx ^ dg ^ da_1 ^ ... ^ da_k     (regular)
                       - sum_{j<i_0} ((-1)^p/k!) a_0 (du/u) ^ da_1 ^ ... (Cech+1)
    one odd factor in slot l: ((-1)^l/k!) a_0 dx ^ da_1 ^ ... ^ da_k (regular)
    two or more odd factors: 0.

    The map is linear in the tensors of one tuple I, so it is computed from
    two sums there: S, of (1/k!) a_0 da_1 ^ ... ^ da_k over the tensors
    with no odd factor, and T, of the same signed by (-1)^l over those with
    one.  The regular part on I gains dx ^ (dg ^ S + T) and the log residue
    gains S.  Each extension K = I + {j} with j < i_0 gains
    (-1)^(p+1) (du/u) ^ res*(S), one pullback of S along R_I -> R_K: the
    pullback along a ring map commutes with d and ^, so res*(S) is the sum
    of (1/k!) res(a_0) d res(a_1) ^ ... ^ d res(a_k) over the terms of S.
    Every part goes into its tuple's cone accumulator (`cech._FLATS`), and
    each cone section is built once, from an accumulator that received a
    term.  The scene keeps du/u per (I, K) (`_unit_dlog`).
    """
    assert isinstance(c.presheaf, SheafAlgebraA)
    scene = c.scene
    atlas = scene.atlas
    accs: dict = {}  # the cone accumulator of each tuple

    def acc_at(K):
        acc = accs.get(K)
        if acc is None:
            acc = accs[K] = _empty(CONEF)
        return acc

    for I, ch in c.entries.items():
        ctx = scene.ctx(I)
        top = ctx.ring.nvars  # a tensor of more slots maps to 0
        s_flat: dict = {}
        t_flat: dict = {}
        for (path, syms, monos), coeff in ch.terms.items():
            if len(syms) > top:
                continue
            eps_slots = [l for l, s in enumerate(syms) if s == "e"]
            if not eps_slots:
                _hkr_mono(monos, coeff, s_flat)
            elif len(eps_slots) == 1:
                _hkr_mono(monos, -coeff if eps_slots[0] % 2 else coeff, t_flat)
        if not (s_flat or t_flat):
            continue
        S = Form.from_flat(ctx.ring, s_flat)
        wedge_into(t_flat, ctx.dg, S)  # now dg ^ S + T
        reg, _, residue = acc_at(I)
        wedge_into(reg, ctx.dx, Form._new(ctx.ring, t_flat))
        if S.is_zero():
            continue
        add_into(residue, S)
        raised = -1 if len(I) % 2 else 1  # (-1)^(p+1), p = len(I) - 1
        for j, pos, K in atlas.extensions(I):
            if pos == 0:
                flat: dict = {}
                map_form_into(flat, S, atlas.res(I, K), raised)
                w = Form._new(atlas.ring(K), flat)
                wedge_into(acc_at(K)[0], _unit_dlog(scene, I, K), w)
    return Cochain(
        scene, CONEF, {K: _build(scene, CONEF, K, acc) for K, acc in accs.items() if any(acc)}
    )


def _unit_dlog(scene, I, K) -> Form:
    """du/u for u = u_{i_0 j} over U_K, K = I + {j} with j < i_0: derived
    once per (I, K) and kept in `scene._unit_dlogs`."""
    got = scene._unit_dlogs.get((I, K))
    if got is None:
        got = scene._unit_dlogs[I, K] = dlog_of(scene.atlas.unit(I[0], K[0], K))
    return got


def a_to_oy(c: CechHochChain, oy: OYAlgebra) -> CechHochChain:
    """The quotient chain map from the two-term algebra to divisor functions:
    1 -> 1, eps -> 0, coefficients reduced mod the divisor."""
    assert isinstance(c.presheaf, SheafAlgebraA)
    scene = c.scene
    entries = {}
    for I, ch in c.entries.items():
        if not oy.live(I):
            continue
        pole = scene.ctx(I).pole
        ring = scene.atlas.ring(I)

        def slot(sym, mono):
            return {} if sym == "e" else {sym: quotient_restrict(ring.monomial(mono), pole)}

        entries[I] = map_slots(ch, oy, I, slot)
    return CechHochChain(oy, entries)
