"""Truncated Hochschild chains over a cdg presentation and their differentials.

A chain is a Q-linear combination of basis tensors

    c * (m_0 s_0)[m_1 s_1 | ... | m_k s_k]

with s_i hom-basis symbols forming a cyclic composable path (s_i maps the
(i+1)-st path object to the i-th, indices mod k+1) and m_i Laurent monomials
of the tuple ring.  The differential is d_0 (curvature insertion) + d_1
(internal differential) + d_2 (composition), with the standard signs; the
Cech-Hochschild total differential twists the internal part by (-1)^p.

A strict functor F induces a_0[a_1|...|a_k] -> F(a_0)[F(a_1)|...|F(a_k)];
`map_slots` is that one induced map, and the morphism `can`, the
quotient to O_Y (`hkr.a_to_oy`) and the global restriction
(`lax.global_to_cech`) are calls to it.  Restriction along tuples is the
same map with F the restriction functor from I to J, which is fixed, so
`restrict_chain_into` runs its own term loop over a restrictor kept per
(I, J).  It and `hoch_d_into` add sign times their result into the
caller's term dict; `restrict_chain` and `hoch_d` build a HochChain from
a fresh dict.

Inserting q elements into the gaps of a_0[a_1|...|a_k], each slot
realized at the level its depth reaches, is the one walk
`descent_summands`: the shuffle `trace.sh_shuffle`, the trace's h^q
(`trace._hq_descent`) and the lax operators `lax._add_lax_hq` (behind
`lax_hq` and `restriction_htilde`), `lax.iso_homotopy` and
`lax.strict_vs_lax_homotopy` each supply only its realization, head and
insertion.  The gap layouts of a term (insertion positions, parity sign,
depths, output path, gap objects) depend only on its path, the parities
of its symbols and q, so a walk that inserts keeps them on the presheaf
per (path, parities, q) and a term only realizes its slots and reads
each layout's slots off them; a walk that inserts nothing (q = 0) derives
its one layout per term.

The fixed structure these maps use is computed once and kept on the
presheaf (`CdgPresheaf.table`), so it lives and dies with its owner:
`hoch_d` keeps, per tuple and selection of parts, a plan per (path,
symbols) of a basis tensor, whose entries (output path, output symbols,
monomial shift, signed coefficient), grouped by the slot they change,
depend on nothing else, and builds only each output key's monomials from
slices of the tensor's own; a plan is built from the slot terms of the
curvature, d and composition of basis symbols, kept per tuple.
`restrict_chain` keeps one restrictor per (I, J) (`_restrictor`, table
"restrictor"): whether the presheaf lives on J and the slot terms of each
restricted basis element mono * sym (table "restrict"), so a restriction
with a term or two makes one lookup per slot and no other set-up.
`apply_morphism` keeps, per tuple, the slot terms of each image on the
morphism.  Within one `map_slots` call each distinct (sym, mono) slot is
computed once.

A CechHochChain is a Cech cochain of such chains over the atlas; its
linear operations, its Cech differential and the (-1)^p twist come from
scene.AtlasCochain, shared with the form cochains of `cech`.  A chain's
accumulator there is its term dict, so `cech_hoch_d` is one pass of
`AtlasCochain.cech_d`: every restricted chain and every term of hoch_d
goes with its sign into the dict of its target tuple, and each tuple's
HochChain is built once.  `twisted_hoch_d` is the same pass without the
Cech part.

Lengths are capped by the scene truncation; a curvature insertion that
would exceed the cap raises TruncationOverflow rather than dropping terms.
"""

from __future__ import annotations

import bisect
import itertools
from math import prod
from operator import add

from .cdg import CdgPresheaf, elem_scale, restrict_elem
from .rings import _fr, _normal_terms
from .scene import AtlasCochain, Scene


class TruncationOverflow(RuntimeError):
    pass


class HochChain:
    """Chain over one tuple: {(path, syms, monos): nonzero coefficient}, each
    coefficient in the normal form of `rings` (an int when integral, else
    a Fraction)."""

    __slots__ = ("presheaf", "I", "terms")

    def __init__(self, presheaf: CdgPresheaf, I, terms: dict | None = None):
        self.presheaf = presheaf
        self.I = tuple(I)
        self.terms = _normal_terms(terms) if terms else {}

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, HochChain)
            and self.presheaf is other.presheaf
            and self.I == other.I
            and self.terms == other.terms
        )

    def __add__(self, other):
        assert self.I == other.I and self.presheaf is other.presheaf
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0) + c
        return HochChain(self.presheaf, self.I, terms)

    def __neg__(self):
        return HochChain(self.presheaf, self.I, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = _fr(c)
        return HochChain(self.presheaf, self.I, {k: v * c for k, v in self.terms.items()})

    def truncate(self, max_len: int) -> "HochChain":
        return HochChain(
            self.presheaf,
            self.I,
            {k: c for k, c in self.terms.items() if len(k[1]) - 1 <= max_len},
        )

    def __repr__(self):
        bits = []
        for (path, syms, monos), c in sorted(self.terms.items(), key=repr):
            slots = [f"{m}*{s}" for s, m in zip(syms, monos)]
            bits.append(f"{c}*{slots[0]}[{'|'.join(slots[1:])}]")
        return " + ".join(bits) or "0"


def slot_terms(element: dict) -> list:
    """Expand an element {sym: LocPoly} into its (sym, mono, coefficient)
    terms, each coefficient an int when integral, else a Fraction."""
    return [
        (sym, mono, frac)
        for sym, c in element.items()
        for frac, mono in c.monomials()
    ]


def add_tensor(out: dict, path, slots, coeff) -> None:
    """Add coeff * (slot_0 (x) ... (x) slot_k) to out, expanded into basis
    keys (path, syms, monos); each slot is a list of (sym, mono, coefficient).
    The sums in out are left as they fall: the HochChain built from out
    drops the zeros and normalizes the rest."""
    path = tuple(path)
    for terms in itertools.product(*slots):
        syms, monos, fracs = zip(*terms)
        key = (path, syms, monos)
        out[key] = out.get(key, 0) + prod(fracs, start=coeff)


def insertion_layouts(parities, q: int):
    """Every way to insert q elements into the gaps after the k+1 slots.

    Yields (ls, eps, depth) for each l_1 <= ... <= l_q in range(k+1), where
    insertion s goes after slot ls[s], eps = sum_s(|a_0..a_{l_s}| + l_s) and
    depth[i] = #{s : l_s < i} counts the insertions before slot i.
    """
    prefix = list(itertools.accumulate(parities, initial=0))
    k1 = len(parities)
    for ls in itertools.combinations_with_replacement(range(k1), q):
        eps = sum(prefix[l + 1] + l for l in ls)
        depth = [bisect.bisect_left(ls, i) for i in range(k1)]
        yield ls, eps, depth


def interleave(slots, ls, insertion) -> list:
    """slots with insertion(s) placed after slots[ls[s]], in order of s."""
    out = []
    s, q = 0, len(ls)
    for i, slot in enumerate(slots):
        out.append(slot)
        while s < q and ls[s] == i:
            out.append(insertion(s))
            s += 1
    return out


def descent_summands(chain: HochChain, q: int, realize, head, insert):
    """Every way to insert q elements into the gaps of each basis tensor
    a_0[a_1|...|a_k] of chain: the one walk behind the shuffle, the trace's
    h^q and every lax operator.

    Per term and gap layout (`insertion_layouts`), slot 0 is head(sym, mono)
    and slot i >= 1 is realize(sym, mono, depth[i]), computed once per
    (i, depth[i]) within the term; insertion s is insert(s, obj), computed
    once per (s, obj) within the call, with obj the object of its gap (the
    gap after slot i sits at path[i + 1], cyclically).  Each returns a list
    of slot terms (`slot_terms`), so a slot may have any number of terms.
    Yields (coeff, parities, ls, eps, path, slots) with the insertions
    interleaved into both the path and the slots.

    The layouts of a term depend only on its path, the parities of its
    symbols and q, so a walk that inserts (q >= 1) reads them from a table
    kept on the presheaf under that key (`ph.table("layouts")`,
    `_layouts`), each with its output path and the cell of each output
    slot; a term only realizes its cells and reads each layout's slots off
    them.  A walk that inserts nothing (q = 0: h^0 and the strict lax map)
    derives its one layout per term (`_derived_summands`)."""
    if not q:
        return _derived_summands(chain, q, realize, head, insert)
    return _kept_summands(chain, q, realize, head, insert)


def _derived_summands(chain: HochChain, q: int, realize, head, insert):
    """`descent_summands` with each term's layouts derived from
    `insertion_layouts` and interleaved on the spot.  Only q = 0 walks
    take it: through the kept layouts their speed-up raised `perfbench`'s
    `peak_rss_mb` past its bound, since its runner keeps every item's
    latency, so they wait for a runner that keeps per-pass summaries."""
    parity = chain.presheaf.parity
    inserted: dict = {}
    for (path, syms, monos), coeff in chain.terms.items():
        parities = [parity(s) for s in syms]
        gap_objs = path[1:] + path[:1]
        first = head(syms[0], monos[0])
        realized: dict = {}
        for ls, eps, depth in insertion_layouts(parities, q):
            slots = [first] + [
                _once(realized, (i, depth[i]), realize, syms[i], monos[i], depth[i])
                for i in range(1, len(syms))
            ]
            objs = [gap_objs[l] for l in ls]
            ins = lambda s: _once(inserted, (s, objs[s]), insert, s, objs[s])
            out_path = interleave(path, ls, objs.__getitem__)
            yield coeff, parities, ls, eps, out_path, interleave(slots, ls, ins)


def _kept_summands(chain: HochChain, q: int, realize, head, insert):
    """`descent_summands` with each term's layouts read from the table
    kept on the presheaf per (path, parities, q)."""
    ph = chain.presheaf
    parity = ph.parity
    table = ph.table("layouts")
    inserted: dict = {}
    for (path, syms, monos), coeff in chain.terms.items():
        parities = tuple(map(parity, syms))
        entry = table.get((path, parities, q))
        if entry is None:
            entry = table[path, parities, q] = _layouts(path, parities, q)
        layouts, slot_cells, ins_cells = entry
        cells = {0: head(syms[0], monos[0])}
        for i, d in slot_cells:
            cells[i, d] = realize(syms[i], monos[i], d)
        for s, obj in ins_cells:
            got = inserted.get((s, obj))
            if got is None:
                got = inserted[s, obj] = insert(s, obj)
            cells[~s, obj] = got
        get = cells.__getitem__
        for ls, eps, _, out_path, _, keys in layouts:
            yield coeff, parities, ls, eps, out_path, list(map(get, keys))


def _layouts(path, parities, q: int) -> tuple:
    """The gap layouts of any basis tensor with this path and these
    parities, as (layouts, slot cells, insertion cells).  Each layout is
    (ls, eps, depth, output path, gap objects, keys) for one
    (ls, eps, depth) of `insertion_layouts`: gap object s is the object
    of the gap after slot ls[s], and keys names the cell of each output
    slot in order: 0 for the head, (i, depth[i]) for slot i >= 1 and
    (~s, obj) for insertion s.  The slot cells are every (i, d) and the
    insertion cells every (s, obj) that some layout reads."""
    gap_objs = path[1:] + path[:1]
    layouts, slot_cells, ins_cells = [], {}, {}
    for ls, eps, depth in insertion_layouts(parities, q):
        objs = tuple(gap_objs[l] for l in ls)
        slots = [(i, depth[i]) for i in range(1, len(path))]
        keys = tuple(interleave([0] + slots, ls, lambda s: (~s, objs[s])))
        slot_cells.update(dict.fromkeys(slots))
        ins_cells.update(dict.fromkeys(enumerate(objs)))
        out_path = tuple(interleave(path, ls, objs.__getitem__))
        layouts.append((ls, eps, tuple(depth), out_path, objs, keys))
    return tuple(layouts), tuple(slot_cells), tuple(ins_cells)


def _once(table: dict, key, build, *args):
    """build(*args), computed once and kept in table under key."""
    got = table.get(key)
    if got is None:
        got = table[key] = build(*args)
    return got


def make_chain(presheaf, I, path, slots, coeff=1) -> HochChain:
    """Expand element-valued slots (dicts {sym: LocPoly}) into basis terms."""
    terms: dict = {}
    add_tensor(terms, path, [slot_terms(e) for e in slots], coeff)
    return HochChain(presheaf, I, terms)


def map_slots(chain: HochChain, presheaf, I, slot, path=tuple, table=None) -> HochChain:
    """The map a_0[a_1|...|a_k] -> F(a_0)[F(a_1)|...|F(a_k)] that a strict
    functor F induces, as a chain of presheaf over I.

    slot(sym, mono) is F of the basis element mono * sym, an element
    {sym: LocPoly}; path(objects) maps the path of a basis tensor.  A slot
    whose element is empty (or zero) gives the tensor no term.  The slot
    terms of each (sym, mono) are computed once and kept in table, which
    a caller whose F outlives the call passes in (default: a new dict).
    """
    if table is None:
        table = {}
    out: dict = {}
    for (p, syms, monos), coeff in chain.terms.items():
        slots = [_kept(table, (s, m), slot, s, m) for s, m in zip(syms, monos)]
        add_tensor(out, path(p), slots, coeff)
    return HochChain(presheaf, I, out)


def _kept(table: dict, key, build, *args) -> list:
    """slot_terms(build(*args)), computed once and kept in table under key.
    Not a call of `_once`, which would take a closure per slot of every
    term that `map_slots` and `restrict_chain_into` read."""
    terms = table.get(key)
    if terms is None:
        terms = table[key] = slot_terms(build(*args))
    return terms


ALL_PARTS = ("d0", "d1", "d2")

# the part tags of a `_hoch_d_plan` group
_D0, _D1, _D2, _WRAP = range(4)


def hoch_d(chain: HochChain, parts=ALL_PARTS) -> HochChain:
    """d_0 + d_1 + d_2 with the displayed signs (or a subset of the three)."""
    out: dict = {}
    hoch_d_into(out, chain, parts)
    return HochChain(chain.presheaf, chain.I, out)


def hoch_d_into(out: dict, chain: HochChain, parts, sign=1) -> None:
    """out += sign * hoch_d(chain, parts), as basis terms.

    Each basis tensor reads the plan of its (path, syms), kept on the
    presheaf per (tuple, parts) (`_hoch_d_plan`), which holds each output
    path and symbols; the tensor builds only the output monomials, from
    the slices of its own monos around the slot each group replaces."""
    ph = chain.presheaf
    I = chain.I
    plans = ph.table("hoch_d-plan", I, parts)
    for (path, syms, monos), coeff in chain.terms.items():
        plan = plans.get((path, syms))
        if plan is None:
            plan = plans[path, syms] = _hoch_d_plan(ph, I, parts, path, syms)
        if sign < 0:
            coeff = -coeff
        for tag, i, entries in plan:
            if tag == _D0:  # a new slot after slot i, its monomial the shift
                head, tail = monos[: i + 1], monos[i + 1 :]
                for out_path, out_syms, shift, c in entries:
                    key = (out_path, out_syms, head + (shift,) + tail)
                    out[key] = out.get(key, 0) + coeff * c
                continue
            if tag == _D1:  # slot i replaced
                base, head, tail = monos[i], monos[:i], monos[i + 1 :]
            elif tag == _D2:  # slots i and i + 1 replaced by their product
                base = tuple(map(add, monos[i], monos[i + 1]))
                head, tail = monos[:i], monos[i + 2 :]
            else:  # _WRAP: a_k a_0 [a_1 | ... | a_{k-1}], i = k
                base = tuple(map(add, monos[i], monos[0]))
                head, tail = (), monos[1:i]
            for out_path, out_syms, shift, c in entries:
                key = (out_path, out_syms, head + (tuple(map(add, base, shift)),) + tail)
                out[key] = out.get(key, 0) + coeff * c


def _hoch_d_plan(ph: CdgPresheaf, I, parts, path, syms) -> tuple:
    """The terms of hoch_d on any basis tensor with this path and these
    symbols, in the order hoch_d emits them, grouped by the slot they
    change: a tuple of (tag, i, entries), each entry (output path, output
    symbols, monomial shift, signed coefficient).  Tag _D0 inserts the
    curvature of the object after slot i (the shift is the inserted
    monomial), _D1 differentiates slot i, _D2 composes slots i and i + 1,
    and _WRAP composes a_k a_0 (i = k); for the last three the shift
    multiplies the monomial of the slot (or the product of the two slots)
    it replaces.  The output path and symbols depend only on (path, syms),
    so they are built here, once.

    The slot terms of the curvature, d and composition of basis symbols
    over I are kept on the presheaf.  A curvature insertion that would
    exceed the length cap raises TruncationOverflow here, before the plan
    is kept."""
    tab = ph.table("hoch_d", I)
    k = len(syms) - 1
    par = [ph.parity(s) for s in syms]
    prefix = list(itertools.accumulate(par, initial=0))
    plan = []

    def group(tag, i, out_path, lo, hi, terms, sign, end=None):
        """The group of one slot: per slot term, its symbol s takes the
        place of syms[lo:hi], and the symbols end at syms[end]."""
        entries = tuple(
            (out_path, syms[:lo] + (nsym,) + syms[hi:end], nmono, sign * nfrac)
            for nsym, nmono, nfrac in terms
        )
        if entries:
            plan.append((tag, i, entries))

    # d_0: insert the curvature of the object after slot i
    for i in range(k + 1) if "d0" in parts else ():
        j = i + 1
        obj = path[j % (k + 1)]
        h = _kept(tab, ("d0", obj), ph.curvature, I, obj)
        if h and k + 1 > ph.scene.trunc:
            raise TruncationOverflow(
                f"curvature insertion would exceed the length cap {ph.scene.trunc}"
            )
        sign = (-1) ** ((prefix[j] + i) % 2)
        new_path = path[:j] + (obj,) + path[j:]
        group(_D0, i, new_path, j, j, h, sign)

    # d_1: internal differential of slot i
    for i in range(k + 1) if "d1" in parts else ():
        sign = (-1) ** ((prefix[i] + i) % 2)
        ds = _kept(tab, ("d1", syms[i]), ph.d, I, syms[i])
        group(_D1, i, path, i, i + 1, ds, sign)

    # d_2: compositions, then the wrap-around term a_k a_0 [a_1 | ... | a_{k-1}]
    if k >= 1 and "d2" in parts:
        for i in range(k):
            sign = (-1) ** ((prefix[i + 1] + i) % 2)
            comp = _kept(tab, ("d2", syms[i], syms[i + 1]), ph.compose, I, syms[i], syms[i + 1])
            new_path = path[: i + 1] + path[i + 2 :]
            group(_D2, i, new_path, i, i + 2, comp, sign)
        sign = (-1) ** ((1 + (par[k] + 1) * (prefix[k] + k - 1)) % 2)
        comp = _kept(tab, ("d2", syms[k], syms[0]), ph.compose, I, syms[k], syms[0])
        group(_WRAP, k, path[k:] + path[1:k], 0, 1, comp, sign, end=k)
    return tuple(plan)


def restrict_chain(chain: HochChain, J) -> HochChain:
    """Image under the restriction functor to a larger tuple."""
    out: dict = {}
    restrict_chain_into(out, chain, J)
    return HochChain(chain.presheaf, J, out)


def restrict_chain_into(out: dict, chain: HochChain, J, sign=1) -> None:
    """out += sign * restrict_chain(chain, J), as basis terms.

    The restriction from I to J is `map_slots` with F the restriction
    functor, which is fixed, so its set-up is read from the restrictor
    kept on the presheaf per (I, J) (`_restrictor`): whether the presheaf
    lives on J and the table of slot terms of each restricted basis
    element mono * sym.  Each slot of a term is one lookup in that table;
    a missing (or empty) one falls through to `_kept`, which builds it by
    `_restrict_slot`."""
    ph, I, J = chain.presheaf, chain.I, tuple(J)
    live, table = _once(ph.table("restrictor"), (I, J), _restrictor, ph, I, J)
    if not live:
        return
    get = table.get
    for (path, syms, monos), coeff in chain.terms.items():
        slots = [
            get(key) or _kept(table, key, _restrict_slot, ph, I, J, *key)
            for key in zip(syms, monos)
        ]
        add_tensor(out, path, slots, coeff if sign > 0 else -coeff)


def _restrictor(ph: CdgPresheaf, I, J) -> tuple:
    """(live, slot table) of the restriction of ph from I to J: live is
    ph.live(J), and the table is `ph.table("restrict", I, J)`, keyed by
    (sym, mono)."""
    return ph.live(J), ph.table("restrict", I, J)


def _restrict_slot(ph: CdgPresheaf, I, J, sym, mono) -> dict:
    """The restriction of the basis element mono * sym from I to J."""
    return restrict_elem(ph, {sym: ph.ring(I).monomial(mono)}, I, J)


class CechHochChain(AtlasCochain):
    """Cech cochain of Hochschild chains: {tuple: HochChain}.  A chain's
    accumulator is its term dict."""

    __slots__ = ("presheaf",)

    def __init__(self, presheaf: CdgPresheaf, entries: dict | None = None):
        self.presheaf = presheaf
        super().__init__(entries)

    @property
    def scene(self) -> Scene:
        return self.presheaf.scene

    def _same_space(self, other) -> bool:
        return self.presheaf is other.presheaf

    def _acc(self, J) -> dict:
        return {}

    def _restrict_into(self, acc, ch, I, J, sign) -> None:
        restrict_chain_into(acc, ch, J, sign)

    def _build(self, J, acc) -> HochChain:
        return HochChain(self.presheaf, J, acc)

    def truncate(self, max_len: int) -> "CechHochChain":
        return self._new({I: ch.truncate(max_len) for I, ch in self.entries.items()})


def cech_part_d(c: CechHochChain) -> CechHochChain:
    return c.cech_d()


def twisted_hoch_d(c: CechHochChain, parts=ALL_PARTS) -> CechHochChain:
    """(-1)^p (selected internal parts), no Cech summand."""
    return c.twisted(lambda acc, I, ch, sign: hoch_d_into(acc, ch, parts, sign))


def cech_hoch_d(c: CechHochChain) -> CechHochChain:
    """Total differential d_Cech + (-1)^p (d_0 + d_1 + d_2), in one pass
    of `AtlasCochain.cech_d` with hoch_d as its sheaf part."""
    return c.cech_d(lambda acc, I, ch, sign: hoch_d_into(acc, ch, ALL_PARTS, sign))


def apply_morphism(c: CechHochChain, morphism, dst: CdgPresheaf) -> CechHochChain:
    """Entrywise application of a strict presheaf morphism; the slot terms
    of its images over each tuple are kept on the morphism
    (`morphism.table(I)`)."""
    entries = {}
    for I, ch in c.entries.items():
        ring = dst.ring(I)
        entries[I] = map_slots(
            ch,
            dst,
            I,
            lambda s, m: elem_scale(morphism.apply_sym(I, s), ring.monomial(m)),
            path=lambda p: tuple(morphism.object(x) for x in p),
            table=morphism.table(I),
        )
    return CechHochChain(dst, entries)
