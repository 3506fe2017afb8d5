"""The trace map from matrix-factorization chains to curved-line chains.

Three ingredients: the shuffle insertion of twisted differentials, the
chart-reindexing operators h^q that insert inverse transition matrices
while sliding realizations across charts, and the supertrace that collapses
matrix tensors to scalar tensors with parity signs.  The shuffle and h^q
are walks of `hochschild.descent_summands`, the gap-insertion kernel that
the lax operators share, each supplying its own slot realization, head and
insertion; `add_tensor` expands each summand into basis tensors.  The
realization, head and insertion of h^q from I into K are built once per
(I, K) and kept on the category (`_hq_walk`).
"""

from __future__ import annotations

import itertools
from math import comb

from .cdg import CurvedLine, MFCategory, TrivializedCategory
from .hochschild import CechHochChain, HochChain, _once, add_tensor, descent_summands, slot_terms


def sh_shuffle(n: int, chain: HochChain) -> HochChain:
    """Sum over all ways to distribute n twisted-differential slots into the
    k+1 gaps: a_0[d^{i_0}|a_1|d^{i_1}|...|a_k|d^{i_k}], i_0+...+i_k = n.

    A term of length k with k + n over the scene's trunc is dropped, so the
    result is complete on all lengths <= trunc."""
    cat = chain.presheaf
    assert isinstance(cat, MFCategory)
    I = chain.I
    if n == 0:
        return chain
    out: dict = {}
    deltas = {x: slot_terms(cat.delta_element(I, x)) for x in cat.objects(I)}
    same = lambda sym, mono, *_: [(sym, mono, 1)]
    summands = descent_summands(
        chain.truncate(cat.scene.trunc - n), n, same, same, lambda s, obj: deltas[obj]
    )
    for coeff, _, _, _, path, slots in summands:
        add_tensor(out, path, slots, coeff)
    return HochChain(cat, I, out)


def sh_shuffle_cech(n: int, c: CechHochChain) -> CechHochChain:
    return CechHochChain(
        c.presheaf, {I: sh_shuffle(n, ch) for I, ch in c.entries.items()}
    )


def supertrace_tensor(cat: MFCategory, path, syms, monos):
    """sTr of one matrix tensor: scalar tensor with sign
    (m+1)|e_0| + |e_1| + ... + |e_m| when the unit entries close up cyclically."""
    m = len(syms) - 1
    rows, cols = [], []
    for s in syms:
        _, y, x, r, c = s
        rows.append(r)
        cols.append(c)
    for i in range(m + 1):
        if cols[i] != rows[(i + 1) % (m + 1)]:
            return None
    sigma = (m + 1) * cat.mfs[path[0]].parities[rows[0]]
    for i in range(1, m + 1):
        sigma += cat.mfs[path[i]].parities[rows[i]]
    sign = -1 if sigma % 2 else 1
    key = (("*",) * (m + 1), ("1",) * (m + 1), tuple(monos))
    return key, sign


def supertrace(c: CechHochChain, line: CurvedLine) -> CechHochChain:
    cat = c.presheaf
    assert isinstance(cat, MFCategory)
    entries = {}
    for I, ch in c.entries.items():
        out: dict = {}
        for (path, syms, monos), coeff in ch.terms.items():
            got = supertrace_tensor(cat, path, syms, monos)
            if got is None:
                continue
            key, sign = got
            out[key] = out.get(key, 0) + coeff * sign
        hc = HochChain(line, I, out)
        if not hc.is_zero():
            entries[I] = hc
    return CechHochChain(line, entries)


def hq_basis(q: int, c: CechHochChain, triv: TrivializedCategory) -> CechHochChain:
    """Insert q inverse transition matrices while sliding realizations to
    progressively smaller lead charts; lands in trivialized chains.

    Sign: (-1)^{eps + p q + binom(q, 2)} with
    eps = sum_s (|a_0| + ... + |a_{l_s}| + l_s).
    """
    cat = c.presheaf
    assert isinstance(cat, MFCategory)
    atlas = cat.scene.atlas
    acc: dict = {}
    for I, ch in c.entries.items():
        p = len(I) - 1
        i0 = I[0]
        smaller = [j for j in atlas.chart_ids if j < i0]
        for J in itertools.combinations(smaller, q):
            K = J + I
            if atlas.has_tuple(K):
                _hq_descent(acc.setdefault(K, {}), cat, ch, K, J + (i0,),
                            p * q + comb(q, 2))
    out = {K: HochChain(triv, K, terms) for K, terms in acc.items()}
    return CechHochChain(triv, out)


def _hq_descent(out, cat, ch, K, charts, sign_base):
    """The h^q summands of one chain over I into K = (i_{-q} < ... < i_0) + I.

    Slot i is realized at charts[depth[i]]: (F)_c = g_{c,i0} F g_{c,i0}^{-1}
    scales the matrix unit by u_{c,i0}^{tw_row - tw_col}.  Slot 0 also takes
    the head factor g_{i0, i_{-q}}, which scales it by u_{i_{-q},i0}^{-tw_row},
    so it is scaled by u_{i_{-q},i0}^{-tw_col} in all.  Insertion s is
    g^{-1}_{ab}, a = charts[s+1], b = charts[s]: diagonal with entries
    u_{ab}^{-twist} = u_{a,i0}^{-twist} u_{b,i0}^{twist}.  A restricted
    monomial may have several terms, and so may every slot.

    (I, K) fixes the charts (i0 = I[0], q = |K| - |I|), so the walk's
    realization, head and insertion are built once per (I, K) and kept on
    the category (`_hq_walk`).
    """
    realize, head, insert = _hq_walk(cat, ch.I, K)
    summands = descent_summands(ch, len(charts) - 1, realize, head, insert)
    for coeff, _, _, eps, path, slots in summands:
        add_tensor(out, path, slots, coeff * (-1) ** ((eps + sign_base) % 2))


def _hq_walk(cat, I, K):
    """The (realize, head, insert) of `_hq_descent` from I into K, built
    once and kept on the category (`cat.table("hq-walk")`, keyed (I, K)).

    Each slot realization is kept in `cat.table("hq-realize", I, K)`, keyed
    (sym, mono, depth), the head's at depth -1 (the depth-0 slot's own when
    their unit powers agree).  A miss reads the slot's restricted monomial
    from the restriction map's kept image of x^mono (`RingMap._mono_image`,
    checked once per exponent) and multiplies it by the unit power, kept
    per (chart, n) with the walk.  The slot terms
    of each insertion g^{-1}, unit powers included, are kept in
    `cat.table("hq-insert", I, K)`, keyed (s, obj); only q >= 1 inserts,
    so h^0 keeps none.  The walk refers to the category, a cycle that the
    collector frees with it."""
    walks = cat.table("hq-walk")
    got = walks.get((I, K))
    if got is not None:
        return got
    atlas = cat.scene.atlas
    charts = K[: len(K) - len(I) + 1]
    i0 = I[0]
    one = atlas.ring(K).one()
    res = atlas.res(I, K)
    upow: dict = {}
    kept = cat.table("hq-realize", I, K)
    mfs = cat.mfs

    def u_pow(chart, n):
        if chart == i0 or n == 0:
            return one
        got = upow.get((chart, n))
        if got is None:
            got = upow[chart, n] = atlas.unit(chart, i0, K) ** n
        return got

    def realized(sym, mono, chart, n):
        """mono * sym restricted to K, times u_{chart,i0}^n."""
        lp = res._mono_image(mono)
        up = u_pow(chart, n)
        return slot_terms({sym: lp if up is one else up * lp})

    def realize(sym, mono, depth):
        got = kept.get((sym, mono, depth))
        if got is None:
            got = kept[sym, mono, depth] = realized(
                sym, mono, charts[depth], cat.twist_shift(sym)
            )
        return got

    def head(sym, mono):
        got = kept.get((sym, mono, -1))
        if got is None:
            n = -mfs[sym[2]].twists[sym[4]]
            if charts[0] == i0 or n == cat.twist_shift(sym):  # the depth-0 slot
                got = realize(sym, mono, 0)
            else:
                got = realized(sym, mono, charts[0], n)
            kept[sym, mono, -1] = got
        return got

    def g_inv(s, obj):
        a, b = charts[s + 1], charts[s]
        mf = mfs[obj]
        return slot_terms({
            ("E", obj, obj, r, r): u_pow(a, -mf.twists[r]) * u_pow(b, mf.twists[r])
            for r in range(mf.rank)
        })

    inserted = cat.table("hq-insert", I, K) if len(charts) > 1 else None
    insert = lambda s, obj: _once(inserted, (s, obj), g_inv, s, obj)
    got = walks[I, K] = (realize, head, insert)
    return got


def phi(c: CechHochChain, out_max_len: int, line: CurvedLine) -> CechHochChain:
    """phi = sum_{n,q} (-1)^n sTr(h^q(Sh(d^n, -))), complete on all output
    lengths <= out_max_len.  Sh(d^n) adds exactly n bars and h^q exactly q,
    so each stage takes only the input lengths that can still reach
    out_max_len: the cut is exact."""
    cat = c.presheaf
    assert isinstance(cat, MFCategory)
    scene = cat.scene
    assert out_max_len <= scene.trunc
    triv = TrivializedCategory(scene, list(cat.mfs.values()))
    acc = CechHochChain(line, {})
    nq_max = len(scene.atlas.chart_ids)
    for n in range(out_max_len + 1):
        shn = sh_shuffle_cech(n, c.truncate(out_max_len - n))
        if shn.is_zero():
            continue
        sign = (-1) ** n
        for q in range(min(nq_max, out_max_len - n + 1)):
            hq = hq_basis(q, shn.truncate(out_max_len - q), triv)
            if hq.is_zero():
                continue
            tr = supertrace(hq, line)
            if not tr.is_zero():
                acc = acc + tr.scale(sign)
    return acc
