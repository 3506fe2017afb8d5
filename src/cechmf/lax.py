"""Lax morphisms of presheaves of dg algebras and their Cech chain maps.

A lax morphism is a family of functors, one per tuple, together with
invertible even closed natural-isomorphism components alpha(V, W) for
V inside W, satisfying the cocycle alpha(V, K) = res(alpha(V, W)) *
alpha(W, K).  The induced map on Cech-Hochschild complexes is a sum of
operators that restrict through intermediate tuples and insert inverse
isomorphism components; two chain homotopies compare the lax map with the
strict one and with maps induced by isomorphic lax structures.

All of them run on one descent driver: `_descents` picks the ordered
chart choices and their levels, `_descent_summands` realizes the slots at
their levels and inserts the inverse components, and the shared kernels
`insertion_layouts`, `interleave` and `add_tensor` of `hochschild` lay out
the gaps and expand each summand into basis tensors.  The restriction
homotopy is the same operator started at the GLOBAL level (p = -1).

Everything here is for one-object presheaves, which covers the algebra
actors of the build; signs follow the displayed formulas.
"""

from __future__ import annotations

import itertools

from . import signs
from .cdg import CdgPresheaf, elem_add, elem_scale
from .hochschild import (
    CechHochChain,
    HochChain,
    add_tensor,
    insertion_layouts,
    interleave,
    slot_terms,
)
from .scene import Scene


def sort_sign(J, I):
    """Sign of the permutation arranging (j_1..j_q, i_0..i_p) increasingly."""
    seq = list(J) + list(I)
    sign = 1
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                sign = -sign
    return sign


def restrict_elem(ph: CdgPresheaf, elem: dict, I, J) -> dict:
    """Restriction of an element from the tuple I to J (the identity for J = I)."""
    if tuple(I) == tuple(J):
        return {sym: c for sym, c in elem.items() if not c.is_zero()}
    out: dict = {}
    for sym, c in elem.items():
        rc = ph.restrict_coeff(I, J, c)
        for sym2, c2 in ph.restrict_sym(I, J, sym).items():
            add = {sym2: c2 * rc}
            out = elem_add(out, add)
    return out


GLOBAL = ("X",)


class GlobalModel:
    """One-object global-sections algebra: enough structure to run the
    Hochschild differential and restrict into the atlas."""

    def __init__(self, scene: Scene, chart_presheaf: CdgPresheaf, basis,
                 d_fn, curvature_elem=None, compose_fn=None, sym_image=None):
        self.scene = scene
        self.chart = chart_presheaf
        self._basis = tuple(basis)
        self._d = d_fn                      # sym -> Element over global ring
        self._h = curvature_elem or {}
        self._compose = compose_fn or chart_presheaf.compose
        # sym_image(i, sym) -> Element over chart i; identity by default
        self._sym_image = sym_image
        assert scene.global_ring is not None, "scene declares no global ring"

    def ring(self, I):
        return self.scene.global_ring

    def objects(self, I):
        return ("*",)

    def hom_basis(self, I, x, y):
        return self._basis

    def parity(self, sym):
        return self.chart.parity(sym)

    def identity(self, I, x):
        return {"1": self.scene.global_ring.one()}

    def compose(self, I, a, b):
        # symbol-level products agree with the chart presheaf; coefficients
        # are global, so reuse the table over any chart
        out = self._compose((self.scene.atlas.chart_ids[0],), a, b)
        ring = self.scene.global_ring
        return {
            s: ring.const(sum(c.terms.values()))
            if c.terms.keys() <= {(0,) * c.ring.nvars}
            else self._fail(s)
            for s, c in out.items()
        }

    @staticmethod
    def _fail(s):
        raise NotImplementedError("non-scalar structure constants at the global level")

    def d(self, I, sym):
        return self._d(sym)

    def curvature(self, I, x):
        return self._h

    def to_tuple(self, elem: dict, K) -> dict:
        """Restrict a global element into an atlas tuple."""
        scene = self.scene
        i = K[0]
        gmap = scene.global_res[i]
        out: dict = {}
        for sym, c in elem.items():
            chart_c = gmap(c)
            if self._sym_image is None:
                chart_elem = {sym: chart_c}
            else:
                chart_elem = elem_scale(self._sym_image(i, sym), chart_c)
            piece = restrict_elem(self.chart, chart_elem, (i,), K)
            out = elem_add(out, piece)
        return out


class OneObjectLax:
    """Lax morphism data between one-object presheaves of dg algebras."""

    def __init__(self, scene: Scene, src: CdgPresheaf, dst: CdgPresheaf,
                 functor_sym, alpha_elem, dst_obj="*"):
        self.scene = scene
        self.src = src
        self.dst = dst
        self.functor_sym = functor_sym      # (I, sym) -> Element over dst at I
        self.alpha_elem = alpha_elem        # (V, W) -> Element over dst at W
        self.dst_obj = dst_obj

    def alpha(self, V, W) -> dict:
        return self.alpha_elem(tuple(V), tuple(W))

    def alpha_inv(self, V, W) -> dict:
        return _unit_inverse(self.alpha(V, W))

    def cocycle_ok(self) -> bool:
        atlas = self.scene.atlas
        for V in atlas.tuples:
            for W in atlas.tuples:
                if not set(V) < set(W):
                    continue
                for U in atlas.tuples:
                    if not (set(V) < set(U) and set(U) < set(W)):
                        continue
                    lhs = self.alpha(V, W)
                    mid = restrict_elem(self.dst, self.alpha(V, U), U, W)
                    rhs = _elem_mul(self.dst, W, mid, self.alpha(U, W))
                    if lhs != rhs:
                        return False
        return True


def _elem_mul(ph: CdgPresheaf, I, a: dict, b: dict) -> dict:
    out: dict = {}
    for sa, ca in a.items():
        for sb, cb in b.items():
            for s, c in ph.compose(I, sa, sb).items():
                add = {s: c * ca * cb}
                out = elem_add(out, add)
    return out


class CocycleError(ValueError):
    pass


def _unit_inverse(elem: dict) -> dict:
    """Inverse of an invertible even element, a unit multiple of one symbol."""
    assert len(elem) == 1, "isomorphism components must be unit multiples"
    return {sym: c.inverse() for sym, c in elem.items()}


def _apply_functor(lax: OneObjectLax, T, elem: dict) -> dict:
    out: dict = {}
    for sym, c in elem.items():
        out = elem_add(out, elem_scale(lax.functor_sym(T, sym), c))
    return out


def _from_source(lax: OneObjectLax, I):
    """Slot realization for chains of the source presheaf over I: restrict
    the slot to the level, apply the functor there, restrict into K."""
    src_ring = lax.src.ring(I)

    def realize(sym, mono, level, K):
        elem = restrict_elem(lax.src, {sym: src_ring.monomial(mono)}, I, level)
        return restrict_elem(lax.dst, _apply_functor(lax, level, elem), level, K)

    return realize


def _from_global(lax: OneObjectLax, model: GlobalModel):
    """Slot realization for global chains: at the GLOBAL level the functor
    acts on the global algebra before the model restricts into K."""
    gring = model.scene.global_ring

    def realize(sym, mono, level, K):
        gelem = {sym: gring.monomial(mono)}
        if level == GLOBAL:
            return model.to_tuple(_apply_functor(lax, GLOBAL, gelem), K)
        felem = _apply_functor(lax, level, model.to_tuple(gelem, level))
        return restrict_elem(lax.dst, felem, level, K)

    return realize


def _descents(scene: Scene, I, q: int):
    """Every ordered choice J of q charts outside I whose partial unions are
    atlas tuples, as (sigma, levels): levels[s] = sorted(I + J[:s]), with
    levels[0] = GLOBAL when I = (), and sigma the sign of sorting J + I."""
    atlas = scene.atlas
    I = tuple(I)
    others = [j for j in atlas.chart_ids if j not in I]
    for J in itertools.permutations(others, q):
        levels = [I or GLOBAL]
        for s in range(1, q + 1):
            T = tuple(sorted(I + J[:s]))
            if not atlas.has_tuple(T):
                break
            levels.append(T)
        else:
            yield sort_sign(J, I), levels


def _descent_summands(lax: OneObjectLax, chain: HochChain, levels, realize, head_factor):
    """The h^q summands of one descent, for every term of chain.

    Yields (coeff, parities, ls, eps, seq) per term and gap layout: slot i
    realized at levels[q - depth[i]], and after slot ls[s] the inverse
    isomorphism alpha^{-1}(levels[q-s-1], levels[q-s]) restricted to K =
    levels[q].  Slot 0 sits at K, multiplied on the left by head_factor
    unless that is None.  seq lists the slot terms in order.
    """
    q = len(levels) - 1
    K = levels[-1]
    dst = lax.dst
    ins = [
        slot_terms(restrict_elem(
            dst, lax.alpha_inv(levels[q - s - 1], levels[q - s]), levels[q - s], K
        ))
        for s in range(q)
    ]
    for (path, syms, monos), coeff in chain.terms.items():
        parities = [chain.presheaf.parity(s) for s in syms]
        head = realize(syms[0], monos[0], K, K)
        if head_factor is not None:
            head = _elem_mul(dst, K, head_factor, head)
        head = slot_terms(head)
        realized: dict = {}

        def slot(i, level):
            if (i, level) not in realized:
                realized[i, level] = slot_terms(realize(syms[i], monos[i], level, K))
            return realized[i, level]

        for ls, eps, depth in insertion_layouts(parities, q):
            slots = [head] + [
                slot(i, levels[q - depth[i]]) for i in range(1, len(syms))
            ]
            yield coeff, parities, ls, eps, interleave(slots, ls, ins.__getitem__)


def _add_lax_hq(acc: dict, lax: OneObjectLax, chain: HochChain, q: int, realize):
    """Add the q-th insertion operator of one chain over I = chain.I, or over
    I = () for a global chain, where p = -1, into acc {K: terms}."""
    I = () if chain.I == GLOBAL else chain.I
    p = len(I) - 1
    for sigma, levels in _descents(lax.scene, I, q):
        K = levels[-1]
        head = lax.alpha(levels[0], K) if q else None
        out = acc.setdefault(K, {})
        for coeff, _, _, eps, seq in _descent_summands(lax, chain, levels, realize, head):
            sign = sigma * (-1) ** ((eps + p * q) % 2)
            add_tensor(out, (lax.dst_obj,) * len(seq), seq, sign * coeff)


def _collect(ph: CdgPresheaf, acc: dict) -> CechHochChain:
    return CechHochChain(ph, {K: HochChain(ph, K, terms) for K, terms in acc.items()})


def lax_hq(lax: OneObjectLax, q: int, c: CechHochChain) -> CechHochChain:
    """The q-th insertion operator of the lax morphism."""
    acc: dict = {}
    for I, ch in c.entries.items():
        _add_lax_hq(acc, lax, ch, q, _from_source(lax, I))
    return _collect(lax.dst, acc)


def global_to_cech(model: GlobalModel, chain: HochChain) -> CechHochChain:
    """The vertical restriction map: a global chain to its Cech degree 0 image."""
    scene = model.scene
    entries = {}
    ph = model.chart
    for i in scene.atlas.chart_ids:
        I = (i,)
        out: dict = {}
        for (path, syms, monos), coeff in chain.terms.items():
            slots = [
                slot_terms(model.to_tuple({s: scene.global_ring.monomial(m)}, I))
                for s, m in zip(syms, monos)
            ]
            add_tensor(out, path, slots, coeff)
        ch = HochChain(ph, I, out)
        if not ch.is_zero():
            entries[I] = ch
    return CechHochChain(ph, entries)


def apply_global_functor(model: GlobalModel, chain: HochChain, functor_sym) -> HochChain:
    """Apply a functor sym-wise at the global level."""
    out: dict = {}
    ring = model.scene.global_ring
    for (path, syms, monos), coeff in chain.terms.items():
        slots = [
            slot_terms(elem_scale(functor_sym(GLOBAL, s), ring.monomial(m)))
            for s, m in zip(syms, monos)
        ]
        add_tensor(out, path, slots, coeff)
    return HochChain(model, GLOBAL, out)


def restriction_htilde(lax: OneObjectLax, model: GlobalModel, chain: HochChain) -> CechHochChain:
    """The comparison homotopy between restriction-then-lax-map and
    global-map-then-restriction: the insertion operators with p = -1."""
    acc: dict = {}
    realize = _from_global(lax, model)
    for q in range(1, len(lax.scene.atlas.chart_ids) + 1):
        _add_lax_hq(acc, lax, chain, q, realize)
    return _collect(lax.dst, acc)


def cech_lax_map(lax: OneObjectLax, c: CechHochChain, check: bool = True) -> CechHochChain:
    """Sum of the insertion operators over all q."""
    if check and not lax.cocycle_ok():
        raise CocycleError("isomorphism components fail the cocycle condition")
    out = CechHochChain(lax.dst, {})
    for q in range(len(lax.scene.atlas.chart_ids) + 1):
        piece = lax_hq(lax, q, c)
        if not piece.is_zero():
            out = out + piece
    return out


def cech_strict_map(lax: OneObjectLax, c: CechHochChain) -> CechHochChain:
    """Entrywise functor application (the strict map)."""
    return lax_hq(lax, 0, c)


def strict_vs_lax_homotopy(lax: OneObjectLax, c: CechHochChain) -> CechHochChain:
    """H with two identity insertions: dH + Hd = strict - lax (= -h^1).

    The q = 2 gap layouts over each one-chart extension K of I, every slot
    realized at K, with sign sort_sign((j,), I) * (-1)^eps.
    """
    acc: dict = {}
    for I, ch in c.entries.items():
        realize = _from_source(lax, I)
        for sigma, (_, K) in _descents(lax.scene, I, 1):
            ident = slot_terms(lax.dst.identity(K, lax.dst_obj))
            out = acc.setdefault(K, {})
            for (path, syms, monos), coeff in ch.terms.items():
                slots = [slot_terms(realize(s, m, K, K)) for s, m in zip(syms, monos)]
                out_path = (lax.dst_obj,) * (len(slots) + 2)
                parities = [ch.presheaf.parity(s) for s in syms]
                for ls, eps, _ in insertion_layouts(parities, 2):
                    sign = sigma * (-1) ** (eps % 2)
                    add_tensor(out, out_path, interleave(slots, ls, lambda s: ident), sign * coeff)
    return _collect(lax.dst, acc)


def iso_homotopy(lax_a: OneObjectLax, lax_b: OneObjectLax, tau_elem, c: CechHochChain) -> CechHochChain:
    """Homotopy between the maps of two isomorphic lax morphisms:

        dH + Hd = (first lax map) - (second lax map).

    tau_elem(T) is the natural isomorphism component over the tuple T.  Each
    term is the first t+1 slots of a summand of the first lax map (its head
    also multiplied by tau_I on the left), then tau^{-1}, then the rest of
    the same summand of the second lax map.  The inserted inverse carries
    the component of the level the descent has reached.  With a_r the last
    original slot and n the number of alpha^{-1} insertions before
    tau^{-1}, the term carries sign("iso-homotopy") * (-1)^eps' with

        eps' = eps + |a_0| + ... + |a_r| + r + n + p + q,

    eps being the h^q sign.  Every bar before tau^{-1} counts with its
    shifted degree: a_i with |a_i| + 1, and each alpha^{-1} with 1 (it is
    even, but its bar is not).  The factor (-1)^(p+q) cancels the Cech twist
    (-1)^(p+q) of the Hochschild differential on the target's Cech degree
    p + q; without it the q = 0 homotopies at Cech degrees p and p + 1
    enter with the same sign.  With the ledger's -1 the Cech factor is
    (-1)^(p+q+1) = (-1)^|K|.
    """
    scene = lax_a.scene
    dst = lax_a.dst
    obj = lax_a.dst_obj
    acc: dict = {}
    for I, ch in c.entries.items():
        p = len(I) - 1
        realize_a, realize_b = _from_source(lax_a, I), _from_source(lax_b, I)
        for q in range(len(scene.atlas.chart_ids) + 1):
            for sigma, levels in _descents(scene, I, q):
                K = levels[-1]
                # tau_inv[n]: after n alpha^{-1} insertions the descent is at
                # levels[q - n]
                tau_inv = [
                    slot_terms(_unit_inverse(restrict_elem(dst, tau_elem(T), T, K)))
                    for T in reversed(levels)
                ]
                head = restrict_elem(dst, tau_elem(I), I, K)
                if q:
                    head = _elem_mul(dst, K, head, lax_a.alpha(I, K))
                out = acc.setdefault(K, {})
                pairs = zip(
                    _descent_summands(lax_a, ch, levels, realize_a, head),
                    _descent_summands(lax_b, ch, levels, realize_b, None),
                )
                for (coeff, parities, ls, eps, seq_a), (*_, seq_b) in pairs:
                    prefix = list(itertools.accumulate(parities, initial=0))
                    n = 0
                    for t in range(len(seq_a)):
                        # insertion s sits at position ls[s] + s + 1
                        while n < q and ls[n] + n + 1 <= t:
                            n += 1
                        r = t - n
                        sign = sigma * signs.sign("iso-homotopy") * (-1) ** (
                            (eps + p * q + prefix[r + 1] + r + n + p + q) % 2
                        )
                        add_tensor(
                            out,
                            (obj,) * (len(seq_a) + 1),
                            seq_a[: t + 1] + [tau_inv[n]] + seq_b[t + 1 :],
                            sign * coeff,
                        )
    return _collect(dst, acc)
