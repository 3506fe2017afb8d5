"""Lax morphisms of presheaves of dg algebras and their Cech chain maps.

A lax morphism is a family of functors, one per tuple, together with
invertible even closed natural-isomorphism components alpha(V, W) for
V inside W, satisfying the cocycle alpha(V, K) = res(alpha(V, W)) *
alpha(W, K).  The induced map on Cech-Hochschild complexes is a sum of
operators that restrict through intermediate tuples and insert inverse
isomorphism components; two chain homotopies compare the lax map with the
strict one and with maps induced by isomorphic lax structures.

All of them walk `hochschild.descent_summands`, the gap-insertion kernel
that the shuffle and h^q of `trace` walk too: `_descents` picks the ordered
chart choices and their levels, which depend on the atlas alone and are
kept on it per (I, q), and `_descent_summands` gives the kernel
each slot's realization at its level, the head and the restricted inverse
components for `_add_lax_hq` (behind `lax_hq` and `restriction_htilde`) and
`iso_homotopy`; `strict_vs_lax_homotopy` walks the levels (K, K, K) with
identity insertions.  `cech_lax_map` adds the operators of every q into
one accumulator per K and builds each chain once.  The restriction
homotopy is the same operator started at the GLOBAL level (p = -1).
The strict maps of global chains (`global_to_cech`,
`apply_global_functor`) are `hochschild.map_slots`.  Elements multiply
and restrict along tuples by `cdg.elem_mul` and `cdg.restrict_elem`; the
element algebra lives in `cdg`.

What these operators compute from a lax morphism's data alone is kept on
the morphism (`OneObjectLax.table`) and lives and dies with it: its
components, insertions, slot realizations and heads.  The realizations and
heads of a global chain's slots are kept for one `restriction_htilde`
call, and the heads and inverted tau components of `iso_homotopy`, which
its tau fixes, for one call.

Everything here is for one-object presheaves, which covers the algebra
actors of the build; signs follow the displayed formulas.
"""

from __future__ import annotations

import itertools

from . import signs
from .cdg import CdgPresheaf, elem_mul, elem_scale, elem_sum, restrict_elem
from .hochschild import (
    CechHochChain,
    HochChain,
    _once,
    add_tensor,
    descent_summands,
    map_slots,
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


GLOBAL = ("X",)


class GlobalModel(CdgPresheaf):
    """One-object global-sections algebra: enough structure to run the
    Hochschild differential and restrict into the atlas."""

    def __init__(self, scene: Scene, chart_presheaf: CdgPresheaf, basis,
                 d_fn, sym_image=None):
        super().__init__(scene)
        self.chart = chart_presheaf
        self._basis = tuple(basis)
        self._d = d_fn                      # sym -> Element over global ring
        # sym_image(i, sym) -> Element over chart i; identity by default
        self._sym_image = sym_image
        assert scene.global_ring is not None, "scene declares no global ring"

    def ring(self, I):
        return self.scene.global_ring

    def hom_basis(self, I, x, y):
        return self._basis

    def parity(self, sym):
        return self.chart.parity(sym)

    def compose(self, I, a, b):
        # symbol-level products agree with the chart presheaf; coefficients
        # are global, so reuse the table over any chart
        out = self.chart.compose((self.scene.atlas.chart_ids[0],), a, b)
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

    def to_tuple(self, elem: dict, K) -> dict:
        """Restrict a global element into an atlas tuple."""
        scene = self.scene
        i = K[0]
        gmap = scene.global_res[i]
        pieces = []
        for sym, c in elem.items():
            chart_c = gmap(c)
            if self._sym_image is None:
                chart_elem = {sym: chart_c}
            else:
                chart_elem = elem_scale(self._sym_image(i, sym), chart_c)
            pieces.append(restrict_elem(self.chart, chart_elem, (i,), K))
        return elem_sum(pieces)


class OneObjectLax:
    """Lax morphism data between one-object presheaves of dg algebras; the
    object of the target is "*".

    The data never change, so the lax operators keep what they compute from
    them on the morphism (`table`), as a presheaf keeps its structure: the
    components alpha(V, W) and their inverses, the restricted slot terms of
    each inserted inverse per (V, W, K), each source slot realization with
    its slot terms per (I, sym, mono, level, K) (`table("realize", I)`),
    and the slot terms of each head of the insertion operators,
    alpha(I, K) times the realization at K, per (I, K, sym, mono)
    (`table("head", I, K)`).  alpha(V, W) is read from alpha_elem once
    per (V, W), so alpha_elem must be a pure function of (V, W), and
    functor_sym one of (I, sym).  The descents the operators walk depend
    on the atlas alone, not on the morphism, so the atlas keeps them
    (`_descents`)."""

    def __init__(self, scene: Scene, src: CdgPresheaf, dst: CdgPresheaf,
                 functor_sym, alpha_elem):
        self.scene = scene
        self.src = src
        self.dst = dst
        self.functor_sym = functor_sym      # (I, sym) -> Element over dst at I
        self.alpha_elem = alpha_elem        # (V, W) -> Element over dst at W
        self._tables: dict = {}

    table = CdgPresheaf.table

    def alpha(self, V, W) -> dict:
        V, W = tuple(V), tuple(W)
        return _once(self.table("alpha"), (V, W), self.alpha_elem, V, W)

    def alpha_inv(self, V, W) -> dict:
        V, W = tuple(V), tuple(W)
        return _once(self.table("alpha_inv"), (V, W), lambda: _unit_inverse(self.alpha(V, W)))

    def inserted(self, V, W, K) -> list:
        """The slot terms of alpha^{-1}(V, W) restricted to K."""
        return _once(
            self.table("inserted"),
            (V, W, K),
            lambda: slot_terms(restrict_elem(self.dst, self.alpha_inv(V, W), W, K)),
        )

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
                    rhs = elem_mul(self.dst, W, mid, self.alpha(U, W))
                    if lhs != rhs:
                        return False
        return True


class CocycleError(ValueError):
    pass


def _unit_inverse(elem: dict) -> dict:
    """Inverse of an invertible even element, a unit multiple of one symbol."""
    assert len(elem) == 1, "isomorphism components must be unit multiples"
    return {sym: c.inverse() for sym, c in elem.items()}


def _apply_functor(lax: OneObjectLax, T, elem: dict) -> dict:
    return elem_sum(elem_scale(lax.functor_sym(T, sym), c) for sym, c in elem.items())


def _from_source(lax: OneObjectLax, I):
    """The slot realizations of chains of the source presheaf over I, as
    (realize, heads) (`_descent_summands`): restrict the slot to the level,
    apply the functor there, restrict into K.  Each realization is kept on
    the morphism with its slot terms (`lax.table("realize", I)`), and so
    are the heads of `_add_lax_hq` per K (`lax.table("head", I, K)`)."""
    src_ring = lax.src.ring(I)

    def build(sym, mono, level, K):
        elem = restrict_elem(lax.src, {sym: src_ring.monomial(mono)}, I, level)
        return restrict_elem(lax.dst, _apply_functor(lax, level, elem), level, K)

    return _kept_realize(lax.table("realize", I), build), lambda K: lax.table("head", I, K)


def _from_global(lax: OneObjectLax, model: GlobalModel):
    """The slot realizations of global chains, as (realize, heads): at the
    GLOBAL level the functor acts on the global algebra before the model
    restricts into K.  Each realization and head is kept for the life of
    the returned pair, which is one `restriction_htilde` call."""
    gring = model.scene.global_ring
    heads: dict = {}

    def build(sym, mono, level, K):
        gelem = {sym: gring.monomial(mono)}
        if level == GLOBAL:
            return model.to_tuple(_apply_functor(lax, GLOBAL, gelem), K)
        felem = _apply_functor(lax, level, model.to_tuple(gelem, level))
        return restrict_elem(lax.dst, felem, level, K)

    return _kept_realize({}, build), lambda K: heads.setdefault(K, {})


def _kept_realize(kept: dict, build):
    """realize(sym, mono, level, K): the element build(sym, mono, level, K)
    with its slot terms, as a pair kept in kept."""

    def pair(*key):
        elem = build(*key)
        return elem, slot_terms(elem)

    return lambda *key: _once(kept, key, pair, *key)


def _descents(scene: Scene, I, q: int) -> tuple:
    """Every ordered choice J of q charts outside I whose partial unions are
    atlas tuples, as (sigma, levels): levels[s] = sorted(I + J[:s]), with
    levels[0] = GLOBAL when I = (), and sigma the sign of sorting J + I.
    They depend on the atlas alone, so they are kept on it per (I, q)
    (`Atlas._descents`), as its extensions are."""
    atlas = scene.atlas
    I = tuple(I)
    got = atlas._descents.get((I, q))
    if got is not None:
        return got
    others = [j for j in atlas.chart_ids if j not in I]
    out = []
    for J in itertools.permutations(others, q):
        levels = [I or GLOBAL]
        for s in range(1, q + 1):
            T = tuple(sorted(I + J[:s]))
            if not atlas.has_tuple(T):
                break
            levels.append(T)
        else:
            out.append((sort_sign(J, I), tuple(levels)))
    got = atlas._descents[I, q] = tuple(out)
    return got


def _descent_summands(dst, chain: HochChain, levels, realize, head_factor, heads, inserted):
    """`descent_summands` of chain along one descent, in dst over K = levels[q].

    Slot i is realize(sym, mono, levels[q - depth[i]], K), slot 0 that at
    K, multiplied on the left by head_factor unless that is None, and
    insertion s is inserted(levels[q-s-1], levels[q-s], K), the slot terms
    of an inverse component restricted to K.  realize keeps each of its
    realizations with its slot terms, so equal levels, as in (K, K, K),
    share one; the slot terms of each head are kept in heads, keyed
    (sym, mono), a table the caller keeps for this head factor and K.
    """
    q = len(levels) - 1
    K = levels[-1]
    if head_factor is None:
        head = lambda sym, mono: realize(sym, mono, K, K)[1]
    else:

        def head(sym, mono):
            got = heads.get((sym, mono))
            if got is None:
                elem = elem_mul(dst, K, head_factor, realize(sym, mono, K, K)[0])
                got = heads[sym, mono] = slot_terms(elem)
            return got

    return descent_summands(
        chain,
        q,
        lambda sym, mono, depth: realize(sym, mono, levels[q - depth], K)[1],
        head,
        lambda s, obj: inserted(levels[q - s - 1], levels[q - s], K),
    )


def _add_lax_hq(acc: dict, lax: OneObjectLax, chain: HochChain, q: int, source):
    """Add the q-th insertion operator of one chain over I = chain.I, or over
    I = () for a global chain, where p = -1, into acc {K: terms}.  source
    is the (realize, heads) of `_from_source` or `_from_global`; the head
    factor at K is alpha(levels[0], K), fixed by the source and K."""
    realize, heads = source
    I = () if chain.I == GLOBAL else chain.I
    p = len(I) - 1
    for sigma, levels in _descents(lax.scene, I, q):
        K = levels[-1]
        head, kept = (lax.alpha(levels[0], K), heads(K)) if q else (None, None)
        out = acc.setdefault(K, {})
        summands = _descent_summands(lax.dst, chain, levels, realize, head, kept, lax.inserted)
        for coeff, _, _, eps, path, slots in summands:
            add_tensor(out, path, slots, sigma * (-1) ** ((eps + p * q) % 2) * coeff)


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
    gring = scene.global_ring
    entries = {}
    for i in scene.atlas.chart_ids:
        I = (i,)
        entries[I] = map_slots(
            chain, model.chart, I, lambda s, m: model.to_tuple({s: gring.monomial(m)}, I)
        )
    return CechHochChain(model.chart, entries)


def apply_global_functor(model: GlobalModel, chain: HochChain, functor_sym) -> HochChain:
    """Apply a functor sym-wise at the global level."""
    ring = model.scene.global_ring
    return map_slots(
        chain, model, GLOBAL, lambda s, m: elem_scale(functor_sym(GLOBAL, s), ring.monomial(m))
    )


def restriction_htilde(lax: OneObjectLax, model: GlobalModel, chain: HochChain) -> CechHochChain:
    """The comparison homotopy between restriction-then-lax-map and
    global-map-then-restriction: the insertion operators with p = -1."""
    acc: dict = {}
    source = _from_global(lax, model)
    for q in range(1, len(lax.scene.atlas.chart_ids) + 1):
        _add_lax_hq(acc, lax, chain, q, source)
    return _collect(lax.dst, acc)


def cech_lax_map(lax: OneObjectLax, c: CechHochChain, check: bool = True) -> CechHochChain:
    """Sum of the insertion operators over all q, added into one
    accumulator per K and built once, as `restriction_htilde` does."""
    if check and not lax.cocycle_ok():
        raise CocycleError("isomorphism components fail the cocycle condition")
    acc: dict = {}
    sources = {I: _from_source(lax, I) for I in c.entries}
    for q in range(len(lax.scene.atlas.chart_ids) + 1):
        for I, ch in c.entries.items():
            _add_lax_hq(acc, lax, ch, q, sources[I])
    return _collect(lax.dst, acc)


def cech_strict_map(lax: OneObjectLax, c: CechHochChain) -> CechHochChain:
    """Entrywise functor application (the strict map)."""
    return lax_hq(lax, 0, c)


def strict_vs_lax_homotopy(lax: OneObjectLax, c: CechHochChain) -> CechHochChain:
    """H with two identity insertions: dH + Hd = strict - lax (= -h^1).

    The q = 2 summands over each one-chart extension K of I along the
    levels (K, K, K) with identity insertions, so every slot is realized at
    K, with sign sort_sign((j,), I) * (-1)^eps.
    """
    acc: dict = {}
    dst = lax.dst
    ident = lambda V, W, K: slot_terms(dst.identity(K, "*"))
    for I, ch in c.entries.items():
        realize, _ = _from_source(lax, I)
        for sigma, (_, K) in _descents(lax.scene, I, 1):
            out = acc.setdefault(K, {})
            summands = _descent_summands(dst, ch, (K, K, K), realize, None, None, ident)
            for coeff, _, _, eps, path, slots in summands:
                add_tensor(out, path, slots, sigma * (-1) ** (eps % 2) * coeff)
    return _collect(dst, acc)


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

    Each tau_T^{-1} restricted to K is computed once per (T, K) within the
    call and shared by every descent that inserts it; tau fixes it, so the
    morphisms keep nothing of it.
    """
    scene = lax_a.scene
    dst = lax_a.dst
    acc: dict = {}

    def tau_inverse(T, K):
        return slot_terms(_unit_inverse(restrict_elem(dst, tau_elem(T), T, K)))

    inverses: dict = {}  # (T, K) -> slot terms of tau_T^{-1} over K, for this call
    for I, ch in c.entries.items():
        p = len(I) - 1
        (realize_a, _), (realize_b, _) = _from_source(lax_a, I), _from_source(lax_b, I)
        heads: dict = {}  # K -> (head factor, its kept heads), for this call and I
        for q in range(len(scene.atlas.chart_ids) + 1):
            for sigma, levels in _descents(scene, I, q):
                K = levels[-1]
                # tau_inv[n]: after n alpha^{-1} insertions the descent is at
                # levels[q - n]
                tau_inv = [_once(inverses, (T, K), tau_inverse, T, K) for T in reversed(levels)]
                if K not in heads:
                    head = restrict_elem(dst, tau_elem(I), I, K)
                    if q:
                        head = elem_mul(dst, K, head, lax_a.alpha(I, K))
                    heads[K] = (head, {})
                head, kept = heads[K]
                out = acc.setdefault(K, {})
                pairs = zip(
                    _descent_summands(dst, ch, levels, realize_a, head, kept, lax_a.inserted),
                    _descent_summands(dst, ch, levels, realize_b, None, None, lax_b.inserted),
                )
                for (coeff, parities, ls, eps, _, seq_a), (*_, seq_b) in pairs:
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
                            ("*",) * (len(seq_a) + 1),
                            seq_a[: t + 1] + [tau_inv[n]] + seq_b[t + 1 :],
                            sign * coeff,
                        )
    return _collect(dst, acc)
