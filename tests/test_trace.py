import random
from fractions import Fraction

import pytest

from cechmf.cdg import CurvedLine, MFCategory, TrivializedCategory, build_P, end_algebra, trivial_line
from cechmf.hochschild import (
    CechHochChain,
    HochChain,
    TruncationOverflow,
    cech_hoch_d,
    cech_part_d,
    make_chain,
    twisted_hoch_d,
)
from cechmf.hkr import hkr_xf
from cechmf.trace import hq_basis, phi, sh_shuffle, supertrace, yoneda
from cechmf.scenes_builtin import all_builtin_names, builtin_scene

SCENES = {name: builtin_scene(name) for name in all_builtin_names()}


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
    scene = builtin_scene("SCENE-A2", trunc=2)
    cat = end_algebra(scene, build_P(scene))
    c = _id_chain(cat, (0,), extra_slots=1)
    with pytest.raises(TruncationOverflow):
        sh_shuffle(2, c)


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


@pytest.mark.parametrize("name", ["SCENE-P1", "SCENE-P2"])
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


@pytest.mark.parametrize("name", all_builtin_names())
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


@pytest.mark.parametrize("name", ["SCENE-A1", "SCENE-A2", "SCENE-P1"])
def test_phi_composite_is_hkr(name):
    # through the category containing (O, 0), the composite
    # hkr . phi . yoneda equals hkr on curved-line chains
    scene = SCENES[name]
    P = build_P(scene)
    O = trivial_line(scene)
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
        back = phi(yoneda(c, cat, "O"), scene.trunc, line)
        assert hkr_xf(back) == hkr_xf(c), name
