"""The HKR chain maps: curved-line chains to twisted forms, and two-term
algebra chains to the cone complex.

Targets follow the curvature: chains over the line with curvature c map to
(Omega, dc^(-)); the sheaf-algebra map has the three element classes, with
the odd factor stripped to its coefficient (which is differentiated like
the rest) and everything with two or more odd factors sent to zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .cdg import CurvedLine, OYAlgebra, SheafAlgebraA
from .cech import FORM, LOG, YFORM, Cochain, cone_cochain
from .forms import Form, LogForm, d_of, dlog_of
from .hochschild import CechHochChain, map_slots
from .rings import quotient_restrict
from .scene import add_piece


def _hkr_terms(a0, c, k: int, das, head: Form | None = None) -> Form:
    """(c/k!) a_0 [^ head] ^ da_1 ^ ... ^ da_k.

    `das` yields da_1, ..., da_k; no further item is read once the product
    vanishes, so a generator keeps their computation lazy.
    """
    w = Form.scalar(a0).scale(c * Fraction(1, factorial(k)))
    if head is not None:
        w = w.wedge(head)
    for da in das:
        w = w.wedge(da)
        if w.is_zero():
            break
    return w


def _hkr_cochain(c: CechHochChain, kind: str) -> Cochain:
    """a_0[a_1|...|a_k] -> (1/k!) a_0 da_1 ^ ... ^ da_k on every tuple,
    as a cochain of the given kind."""
    scene = c.scene
    entries: dict = {}
    for I, ch in c.entries.items():
        ring = scene.atlas.ring(I)
        acc = Form.zero(ring)
        for (path, syms, monos), coeff in ch.terms.items():
            das = (d_of(ring.monomial(mono)) for mono in monos[1:])
            acc = acc + _hkr_terms(ring.monomial(monos[0]), coeff, len(syms) - 1, das)
        entries[I] = acc
    return Cochain(scene, kind, entries)


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
    """
    assert isinstance(c.presheaf, SheafAlgebraA)
    scene = c.scene
    reg_acc: dict = {}
    log_acc: dict = {}
    for I, ch in c.entries.items():
        ctx = scene.ctx(I)
        ring = ctx.ring
        p = len(I) - 1
        dx_dg = ctx.dx.wedge(d_of(ctx.g))
        raising = None  # (K, restriction to K, du/u) for j < i_0, on first use
        for (path, syms, monos), coeff in ch.terms.items():
            k = len(syms) - 1
            eps_slots = [i for i, s in enumerate(syms) if s == "e"]
            if len(eps_slots) >= 2:
                continue
            m = [ring.monomial(mono) for mono in monos]
            das = [d_of(a) for a in m[1:]]
            if eps_slots:
                sign = (-1) ** eps_slots[0]
                add_piece(reg_acc, I, _hkr_terms(m[0], coeff * sign, k, das, ctx.dx))
                continue
            # log summand: a_0 (dx/x) ^ da_1 ^ ..., as the raw residue
            add_piece(log_acc, I, LogForm(ctx, Form.zero(ring), _hkr_terms(m[0], coeff, k, das)))
            add_piece(reg_acc, I, _hkr_terms(m[0], coeff, k, das, dx_dg))
            # Cech-degree-raising terms over j < i_0
            if raising is None:
                raising = [
                    (K, scene.atlas.res(I, K), dlog_of(scene.atlas.unit(I[0], j, K)))
                    for j, pos, K in scene.atlas.extensions(I)
                    if pos == 0
                ]
            for K, res, dlog_u in raising:
                das_K = (d_of(res(a)) for a in m[1:])
                w = _hkr_terms(res(m[0]), coeff * (-1) ** (p + 1), k, das_K, dlog_u)
                add_piece(reg_acc, K, w)

    return cone_cochain(scene, Cochain(scene, FORM, reg_acc), Cochain(scene, LOG, log_acc))


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
