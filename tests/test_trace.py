import collections
import random
from fractions import Fraction

import pytest

from cechmf import trace
from cechmf.cdg import (
    CurvedLine,
    MFCategory,
    MFObject,
    TrivializedCategory,
    build_P,
    can_map,
    end_algebra,
)
from cechmf.diagrams import max_form_degree
from cechmf.hochschild import (
    CechHochChain,
    HochChain,
    add_tensor,
    apply_morphism,
    cech_hoch_d,
    cech_part_d,
    descent_summands,
    hoch_d,
    make_chain,
    slot_terms,
    twisted_hoch_d,
)
from cechmf.hkr import hkr_xf
from cechmf.trace import hq_basis, phi, sh_shuffle, sh_shuffle_cech, supertrace
from cechmf.rand import rand_hoch_chain
from cechmf.scene import load_scene, scene_from_dict
from cechmf.scenes_builtin import all_builtin_names, builtin_scene, builtin_scene_dict
from cechmf.suites import basis_a_chains
from conftest import POLE1_FILE, sheared_a2c

SHEARED = "SCENE-A2C-SHEAR"
POLE1 = "SCENE-A2C-SHEAR-POLE1"
SCENES = {name: builtin_scene(name) for name in all_builtin_names()}
SCENES[SHEARED] = sheared_a2c()
SCENES[POLE1] = load_scene(POLE1_FILE)


def _id_chain(cat, I, extra_slots=0):
    ring = cat.ring(I)
    ident = cat.identity(I, "P")
    slots = [ident] * (extra_slots + 1)
    return make_chain(cat, I, ("P",) * (extra_slots + 1), slots)


def test_sh_zero_is_identity():
    scene = SCENES["SCENE-A2"]
    cat = end_algebra(scene, build_P(scene))
    c = _id_chain(cat, (0,))
    assert sh_shuffle(0, c) == c


def test_sh_one_two_slots():
    scene = SCENES["SCENE-A2"]
    cat = end_algebra(scene, build_P(scene))
    ring = cat.ring((0,))
    delta = cat.delta_element((0,), "P")
    a = cat.identity((0,), "P")
    c = make_chain(cat, (0,), ("P", "P"), [a, a])
    out = sh_shuffle(1, c)
    expected = make_chain(cat, (0,), ("P",) * 3, [a, delta, a]) + make_chain(
        cat, (0,), ("P",) * 3, [a, a, delta]
    )
    assert out == expected


def test_sh_two_on_length_zero():
    scene = SCENES["SCENE-A2"]
    cat = end_algebra(scene, build_P(scene))
    delta = cat.delta_element((0,), "P")
    a = cat.identity((0,), "P")
    c = make_chain(cat, (0,), ("P",), [a])
    out = sh_shuffle(2, c)
    assert out == make_chain(cat, (0,), ("P",) * 3, [a, delta, delta])


def test_sh_overflow():
    # at trunc=2 the length-1 term would shuffle to length 3 and is dropped;
    # the length-0 term shuffles to length 2 and is kept
    scene = scene_from_dict({**builtin_scene_dict("SCENE-A2"), "trunc": 2})
    cat = end_algebra(scene, build_P(scene))
    long_c = _id_chain(cat, (0,), extra_slots=1)
    short_c = _id_chain(cat, (0,))
    assert sh_shuffle(2, long_c).is_zero()
    assert not sh_shuffle(2, short_c).is_zero()
    assert sh_shuffle(2, long_c + short_c) == sh_shuffle(2, short_c)


def test_supertrace_m0():
    # diag(a, b) with parities (even, odd) traces to a - b
    scene = SCENES["SCENE-A2"]
    cat = end_algebra(scene, build_P(scene))
    line = CurvedLine(scene, -1)
    ring = cat.ring((0,))
    a, b = ring.var("x"), ring.var("y")
    c = make_chain(
        cat, (0,), ("P",),
        [{("E", "P", "P", 0, 0): a, ("E", "P", "P", 1, 1): b}],
    )
    out = supertrace(CechHochChain(cat, {(0,): c}), line)
    expected = make_chain(line, (0,), ("*",), [{"1": a - b}])
    assert out.entries[(0,)] == expected


def test_supertrace_of_identity_vanishes():
    scene = SCENES["SCENE-P1"]
    cat = end_algebra(scene, build_P(scene))
    line = CurvedLine(scene, -1)
    c = CechHochChain(cat, {(0,): _id_chain(cat, (0,))})
    assert supertrace(c, line).is_zero()


def test_supertrace_m1_bruteforce():
    # F0 = F1 = delta on SCENE-A2: expand all index pairs by hand:
    # nonzero entries delta_{01} = x, delta_{10} = y
    scene = SCENES["SCENE-A2"]
    cat = end_algebra(scene, build_P(scene))
    line = CurvedLine(scene, -1)
    ring = cat.ring((0,))
    delta = cat.delta_element((0,), "P")
    c = make_chain(cat, (0,), ("P", "P"), [delta, delta])
    out = supertrace(CechHochChain(cat, {(0,): c}), line)
    # j = (0, 1): sigma = 2|e_0| + |e_1| = 1 -> -x[y]
    # j = (1, 0): sigma = 2|e_1| + |e_0| = 2 -> +y[x]
    x, y = ring.var("x"), ring.var("y")
    expected = make_chain(line, (0,), ("*", "*"), [{"1": x}, {"1": y}], -1) + make_chain(
        line, (0,), ("*", "*"), [{"1": y}, {"1": x}]
    )
    assert out.entries[(0,)] == expected


def test_hq_zero_is_realization():
    scene = SCENES["SCENE-P1"]
    cat = end_algebra(scene, build_P(scene))
    triv = TrivializedCategory(scene, [build_P(scene)])
    c = CechHochChain(cat, {(0,): _id_chain(cat, (0,))})
    out = hq_basis(0, c, triv)
    assert set(out.entries) == {(0,)}
    assert out.entries[(0,)].terms == _id_chain(triv, (0,)).terms


@pytest.mark.parametrize("name", sorted(SCENES))
def test_hq_zero_is_the_identity(name):
    """h^0 inserts nothing, restricts along I -> I and realizes every slot
    at i_0 with no unit power, so it gives back the terms of its input."""
    scene = SCENES[name]
    cat = end_algebra(scene, build_P(scene))
    triv = TrivializedCategory(scene, list(cat.mfs.values()))
    rng = random.Random(f"h0:{name}")
    tested = 0
    for I in scene.atlas.tuples:
        for _ in range(10):
            ch = rand_hoch_chain(rng, cat, I, max_len=2)
            out = hq_basis(0, CechHochChain(cat, {I: ch}), triv)
            want = {I: ch.terms} if ch.terms else {}
            assert {J: h.terms for J, h in out.entries.items()} == want
            tested += bool(ch.terms)
    assert tested >= 10 * len(scene.atlas.tuples) // 2


def test_hq_positive_vanishes_on_single_chart():
    scene = SCENES["SCENE-A2"]
    cat = end_algebra(scene, build_P(scene))
    triv = TrivializedCategory(scene, [build_P(scene)])
    c = CechHochChain(cat, {(0,): _id_chain(cat, (0,))})
    assert hq_basis(1, c, triv).is_zero()


def test_hq_one_p1_explicit():
    # id[] over chart {1}: single admissible tuple (0): the h^1 sum has one
    # term g_{10}(id)_0[g_{10}^{-1}] with sign (-1)^{0 + 0*1 + 0}
    scene = SCENES["SCENE-P1"]
    P = build_P(scene)
    cat = end_algebra(scene, P)
    triv = TrivializedCategory(scene, [P])
    c = CechHochChain(cat, {(1,): _id_chain(cat, (1,))})
    out = hq_basis(1, c, triv)
    assert set(out.entries) == {(0, 1)}
    r01 = scene.atlas.ring((0, 1))
    u = scene.atlas.unit(0, 1, (0, 1))  # x_1/x_0 = 1/t
    # head: g_{10} (id)_0 = diag(1, u_{10}) with u_{10} = u^{-1} = t;
    # the inserted slot is g_{10}^{-1} = diag(1, u).
    expected = make_chain(
        triv,
        (0, 1),
        ("P", "P"),
        [
            {("E", "P", "P", 0, 0): r01.one(), ("E", "P", "P", 1, 1): u.inverse()},
            {("E", "P", "P", 0, 0): r01.one(), ("E", "P", "P", 1, 1): u},
        ],
    )
    assert out.entries[(0, 1)] == expected


def _rand_endp_cech(rng, cat, max_len=2, max_deg=1):
    entries = {}
    scene = cat.scene
    for I in scene.atlas.tuples:
        ring = cat.ring(I)
        k = rng.randint(0, max_len)
        syms = cat.hom_basis(I, "P", "P")
        slots = []
        for _ in range(k + 1):
            lau = ring.inverted
            exps = tuple(
                rng.randint(-max_deg if v in lau else 0, max_deg)
                for v in range(ring.nvars)
            )
            slots.append({rng.choice(syms): ring.monomial(exps, rng.randint(-2, 2))})
        ch = make_chain(cat, I, ("P",) * (k + 1), slots)
        if not ch.is_zero():
            entries[I] = ch
    return CechHochChain(cat, entries)


@pytest.mark.parametrize("name", ["SCENE-P1", "SCENE-P2", SHEARED])
def test_lemma_on_hq(name):
    # d2bar h^q + d_Cech h^{q-1} = h^{q-1} d_Cech + h^q d2bar
    scene = SCENES[name]
    P = build_P(scene)
    cat = end_algebra(scene, P)
    triv = TrivializedCategory(scene, [P])
    rng = random.Random(71)
    qmax = len(scene.atlas.chart_ids)
    for _ in range(8):
        c = _rand_endp_cech(rng, cat, max_len=2)
        for q in range(qmax + 1):
            hq = lambda qq, x: hq_basis(qq, x, triv) if qq >= 0 else CechHochChain(triv, {})
            lhs = twisted_hoch_d(hq(q, c), parts=("d2",)) + cech_part_d(hq(q - 1, c))
            rhs = hq(q - 1, cech_part_d(c)) + hq(q, twisted_hoch_d(c, parts=("d2",)))
            assert lhs == rhs, (name, q)


def _hq_descent_by_ring_call(out, cat, ch, K, charts, sign_base):
    """trace._hq_descent as first written: each slot is realized by building
    the monomial in the source ring and applying the restriction map to it,
    rather than by reading the map's kept monomial image."""
    atlas = cat.scene.atlas
    i0 = charts[-1]
    res = atlas.res(ch.I, K)
    src_ring = cat.ring(ch.I)

    def u_pow(chart, n):
        return atlas.unit(chart, i0, K) ** n if chart != i0 else atlas.ring(K).one()

    def realize(sym, mono, chart, n):
        return slot_terms({sym: u_pow(chart, n) * res(src_ring.monomial(mono))})

    def g_inv(s, obj):
        a, b = charts[s + 1], charts[s]
        mf = cat.mfs[obj]
        return slot_terms({
            ("E", obj, obj, r, r): u_pow(a, -mf.twists[r]) * u_pow(b, mf.twists[r])
            for r in range(mf.rank)
        })

    summands = descent_summands(
        ch,
        len(charts) - 1,
        lambda sym, mono, depth: realize(sym, mono, charts[depth], cat.twist_shift(sym)),
        lambda sym, mono: realize(sym, mono, charts[0], -cat.mfs[sym[2]].twists[sym[4]]),
        g_inv,
    )
    for coeff, _, _, eps, path, slots in summands:
        add_tensor(out, path, slots, coeff * (-1) ** ((eps + sign_base) % 2))


HALF_SHEARED = "SCENE-A2C-SHEAR-1/2"


@pytest.mark.parametrize(
    "name",
    [n for n in all_builtin_names() if len(SCENES[n].atlas.chart_ids) > 1]
    + [SHEARED, HALF_SHEARED],
)
def test_hq_matches_ring_call_realization(name, monkeypatch):
    # on the sheared scenes y restricts to y + c*x^2, so a restricted
    # monomial has several terms, with c = 1/2 non-integral ones
    scene = sheared_a2c("1/2") if name == HALF_SHEARED else SCENES[name]
    P = build_P(scene)
    cat = end_algebra(scene, P)
    triv = TrivializedCategory(scene, [P])
    rng = random.Random(97)
    chains = [_rand_endp_cech(rng, cat, max_len=2, max_deg=2) for _ in range(6)]
    qs = range(len(scene.atlas.chart_ids))
    got = [hq_basis(q, c, triv) for c in chains for q in qs]
    monkeypatch.setattr(trace, "_hq_descent", _hq_descent_by_ring_call)
    want = [hq_basis(q, c, triv) for c in chains for q in qs]
    assert got == want, name
    assert any(not x.is_zero() for x in got[1::len(qs)]), name


def test_chain_coefficients_in_normal_form():
    # every coefficient is an int when integral, else a non-integral
    # Fraction; the halves make products such as 1/2 * 2 come back as int
    scene = SCENES["SCENE-P2"]
    P = build_P(scene)
    cat = end_algebra(scene, P)
    triv = TrivializedCategory(scene, [P])
    line = CurvedLine(scene, -1)
    rng = random.Random(89)
    outs = []
    for _ in range(4):
        c = _rand_endp_cech(rng, cat, max_len=2)
        for x in (c, c.scale(Fraction(1, 2)), c.scale(Fraction(1, 2)).scale(2)):
            outs += [hoch_d(ch) for ch in x.entries.values()]
            outs += [hq_basis(q, x, triv) for q in range(len(scene.atlas.chart_ids))]
            outs.append(phi(x, 2, line))
    nonint = 0
    for out in outs:
        for ch in out.entries.values() if isinstance(out, CechHochChain) else [out]:
            for coeff in ch.terms.values():
                assert coeff != 0
                assert type(coeff) is int or (
                    type(coeff) is Fraction and coeff.denominator != 1
                ), repr(coeff)
                nonint += type(coeff) is Fraction
    assert nonint


def test_phi_id_chain_values():
    # SCENE-A2, c = id_P[]: the length-2 output is sTr(id[delta|delta]) = -1[x|y] + 1[y|x]
    scene = SCENES["SCENE-A2"]
    cat = end_algebra(scene, build_P(scene))
    line = CurvedLine(scene, -1)
    c = CechHochChain(cat, {(0,): _id_chain(cat, (0,))})
    out = phi(c, 3, line)
    ring = scene.atlas.ring((0,))
    x, y = ring.var("x"), ring.var("y")
    len2 = HochChain(
        line, (0,), {k: v for k, v in out.entries[(0,)].terms.items() if len(k[1]) == 3}
    )
    expected = make_chain(line, (0,), ("*",) * 3, [{"1": ring.one()}, {"1": x}, {"1": y}], -1) + make_chain(
        line, (0,), ("*",) * 3, [{"1": ring.one()}, {"1": y}, {"1": x}]
    )
    assert len2 == expected
    # the n = 0 term sTr(id) vanishes
    assert not any(len(k[1]) == 1 for k in out.entries.get((0,), HochChain(line, (0,))).terms)


def test_phi_balanced_trace_zero_on_p1():
    scene = SCENES["SCENE-P1"]
    cat = end_algebra(scene, build_P(scene))
    line = CurvedLine(scene, -1)
    c = CechHochChain(cat, {(0,): _id_chain(cat, (0,))})
    out = phi(c, 2, line)
    # with g = 0 the delta matrix over chart 0 is strictly triangular, so all
    # cyclic traces of pure delta insertions vanish over the single chart
    assert (0,) not in out.entries


@pytest.mark.parametrize("name", [*all_builtin_names(), SHEARED])
def test_phi_is_a_chain_map(name):
    scene = SCENES[name]
    cat = end_algebra(scene, build_P(scene))
    line = CurvedLine(scene, -1)
    rng = random.Random(73)
    L = scene.trunc - 2
    for _ in range(5):
        c = _rand_endp_cech(rng, cat, max_len=2)
        lhs = cech_hoch_d(phi(c, L + 1, line)).truncate(L)
        rhs = phi(cech_hoch_d(c), L, line).truncate(L)
        assert lhs == rhs, name


def _phi_uncut(c, L, line):
    """phi with every stage run on its whole input and the sum cut to
    length <= L only at the end."""
    cat = c.presheaf
    triv = TrivializedCategory(cat.scene, list(cat.mfs.values()))
    acc = CechHochChain(line, {})
    for n in range(L + 1):
        for q in range(len(cat.scene.atlas.chart_ids)):
            tr = supertrace(hq_basis(q, sh_shuffle_cech(n, c), triv), line).truncate(L)
            acc = acc + tr.scale(Fraction((-1) ** n))
    return acc


@pytest.mark.parametrize("name", ["SCENE-P1", "SCENE-A2C", "SCENE-P2"])
def test_phi_cut_matches_uncut_sum(name):
    # phi cuts each stage's input at the lengths that can still reach L.
    # The sample takes basis chains of every length k and every lead chart
    # I[0]; h^q needs q charts below I[0], so on SCENE-P2 the short chains
    # led by chart 2 reach the output through h^2.  SCENE-P1 has L = 2, so
    # its length-3 basis chains are longer than L and go to zero.  The
    # uncut sum is slow on long chains, so they get one draw each.  A
    # realized basis chain of length L has phi = 0, so the even matrix unit
    # in all L + 1 slots, whose sTr is 1[1|...|1], checks the n = q = 0
    # term there.
    scene = SCENES[name]
    endp = end_algebra(scene, build_P(scene))
    can = can_map(scene, endp)
    line = CurvedLine(scene, -1)
    L = min(scene.trunc, max_form_degree(scene) + 1)
    strata = collections.defaultdict(list)
    for _, ch in basis_a_chains(scene):
        ((I, hc),) = ch.entries.items()
        strata[len(next(iter(hc.terms))[1]) - 1, I[0]].append(ch)
    assert {k for k, _ in strata} == {0, 1, 2, 3}
    rng = random.Random(83)
    sample = [
        (k, apply_morphism(ch, can, endp))
        for (k, _), chains in sorted(strata.items())
        for ch in rng.sample(chains, 2 if k <= 1 else 1)
    ]
    first = (scene.atlas.chart_ids[0],)
    unit = {("E", "P", "P", 0, 0): endp.ring(first).one()}
    top = make_chain(endp, first, ("P",) * (L + 1), [unit] * (L + 1))
    sample.append((L, CechHochChain(endp, {first: top})))
    nonzero = 0
    for k, c in sample:
        out = phi(c, L, line)
        assert out == _phi_uncut(c, L, line), (name, k)
        if k > L:
            assert out.is_zero(), (name, k)
        nonzero += not out.is_zero()
    assert nonzero


def _yoneda(c: CechHochChain, cat: MFCategory, obj: str) -> CechHochChain:
    """Scalars act on a rank-one even object: the strict inclusion of the
    curved line into the matrix category."""
    assert isinstance(c.presheaf, CurvedLine)
    entries = {}
    for I, ch in c.entries.items():
        out = {}
        for (path, syms, monos), coeff in ch.terms.items():
            m = len(syms)
            key = ((obj,) * m, (("E", obj, obj, 0, 0),) * m, monos)
            out[key] = out.get(key, Fraction(0)) + coeff
        entries[I] = HochChain(cat, I, out)
    return CechHochChain(cat, entries)


@pytest.mark.parametrize("name", ["SCENE-A1", "SCENE-A2", "SCENE-P1"])
def test_phi_composite_is_hkr(name):
    # through the category containing (O, 0), the composite
    # hkr . phi . yoneda equals hkr on curved-line chains
    scene = SCENES[name]
    P = build_P(scene)
    # (O_X, 0) inside the quasi matrix factorizations, curvature -f
    O = MFObject(name="O", parities=(0,), twists=(0,), delta_of=None)
    cat = MFCategory(scene, [P, O])
    line = CurvedLine(scene, -1)
    rng = random.Random(79)
    for _ in range(6):
        entries = {}
        for I in scene.atlas.tuples:
            ring = line.ring(I)
            k = rng.randint(0, 3)
            lau = ring.inverted
            slots = []
            for _ in range(k + 1):
                exps = tuple(
                    rng.randint(-1 if v in lau else 0, 1) for v in range(ring.nvars)
                )
                slots.append({"1": ring.monomial(exps, rng.randint(-2, 2))})
            ch = make_chain(line, I, ("*",) * (k + 1), slots)
            if not ch.is_zero():
                entries[I] = ch
        c = CechHochChain(line, entries)
        back = phi(_yoneda(c, cat, "O"), scene.trunc, line)
        assert hkr_xf(back) == hkr_xf(c), name
