import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from cechmf.cdg import CurvedLine, MFCategory, SheafAlgebraA, build_P, end_algebra
from cechmf.hochschild import (
    CechHochChain,
    HochChain,
    TruncationOverflow,
    cech_hoch_d,
    hoch_d,
    insertion_layouts,
    make_chain,
    restrict_chain,
    term_parity,
)
from cechmf.scenes_builtin import all_builtin_names, builtin_scene

SCENES = {name: builtin_scene(name) for name in all_builtin_names()}


def _unit_mono(ring):
    return (0,) * ring.nvars


def test_d1_on_length_zero_dg():
    # dg case: d(a_0[]) is the single internal-differential term [d a_0]
    scene = SCENES["SCENE-A2"]
    alg = SheafAlgebraA(scene)
    ring = scene.atlas.ring((0,))
    c = make_chain(alg, (0,), ("*",), [{"e": ring.one()}])
    out = hoch_d(c)
    # d(e) = x: expect +1 * x[]
    expected = make_chain(alg, (0,), ("*",), [{"1": ring.var("x")}])
    assert out == expected


def test_d2_cancels_on_commutative_unit():
    # c = 1[1] over a commutative dg algebra with d = 0: the two d_2 terms cancel
    scene = SCENES["SCENE-A2"]
    line = CurvedLine(scene, sign=0)
    ring = scene.atlas.ring((0,))
    c = make_chain(line, (0,), ("*", "*"), [{"1": ring.one()}, {"1": ring.one()}])
    assert hoch_d(c).is_zero()


def test_d0_inserts_curvature():
    # curved line O_f: d(a_0[]) is proportional to a_0[f]
    scene = SCENES["SCENE-A2"]
    line = CurvedLine(scene, sign=1)
    ring = scene.atlas.ring((0,))
    a0 = ring.var("y")
    c = make_chain(line, (0,), ("*",), [{"1": a0}])
    out = hoch_d(c)
    expected = make_chain(line, (0,), ("*", "*"), [{"1": a0}, {"1": scene.f_on((0,))}])
    assert out == expected


def test_truncation_overflow_is_loud():
    scene = builtin_scene("SCENE-A2", trunc=2)
    line = CurvedLine(scene, sign=1)
    ring = scene.atlas.ring((0,))
    slots = [{"1": ring.one()}] * 3  # length 2 = trunc
    c = make_chain(line, (0,), ("*",) * 3, slots)
    with pytest.raises(TruncationOverflow):
        hoch_d(c)


def _rand_chain(rng, presheaf, I, max_len, max_deg=1):
    ring = presheaf.ring(I)
    k = rng.randint(0, max_len)
    objs = list(presheaf.objects(I))
    if not objs:
        return HochChain(presheaf, I, {})
    # build a cyclic composable path
    path = [rng.choice(objs) for _ in range(k + 1)]
    slots = []
    for i in range(k + 1):
        tgt = path[i]
        src = path[(i + 1) % (k + 1)]
        syms = presheaf.hom_basis(I, src, tgt)
        sym = rng.choice(syms)
        lau = ring.inverted
        exps = [rng.randint(-max_deg if v in lau else 0, max_deg) for v in range(ring.nvars)]
        slots.append({sym: ring.monomial(exps, rng.randint(-2, 2))})
    return make_chain(presheaf, I, tuple(path), slots)


def _rand_cech_chain(rng, presheaf, max_len, max_deg=1):
    entries = {}
    for I in presheaf.scene.atlas.tuples:
        if not presheaf.objects(I):
            continue
        ch = _rand_chain(rng, presheaf, I, max_len, max_deg)
        if not ch.is_zero():
            entries[I] = ch
    return CechHochChain(presheaf, entries)


@pytest.mark.parametrize("name", all_builtin_names())
def test_hoch_d_squared_zero(name):
    scene = SCENES[name]
    rng = random.Random(43)
    presheaves = [
        CurvedLine(scene, 1),
        CurvedLine(scene, -1),
        SheafAlgebraA(scene),
        end_algebra(scene, build_P(scene)),
    ]
    N = scene.trunc
    for ph in presheaves:
        for _ in range(8):
            for I in scene.atlas.tuples:
                c = _rand_chain(rng, ph, I, N - 2)
                assert hoch_d(hoch_d(c)).is_zero(), (name, type(ph).__name__, I)


@pytest.mark.parametrize("name", all_builtin_names())
def test_cech_hoch_d_squared_zero(name):
    scene = SCENES[name]
    rng = random.Random(47)
    presheaves = [
        CurvedLine(scene, -1),
        SheafAlgebraA(scene),
        end_algebra(scene, build_P(scene)),
    ]
    for ph in presheaves:
        for _ in range(6):
            c = _rand_cech_chain(rng, ph, scene.trunc - 2)
            assert cech_hoch_d(cech_hoch_d(c)).is_zero(), (name, type(ph).__name__)


def test_cech_d_reduces_to_restriction():
    # over a single extension the Cech part is the signed restriction
    scene = SCENES["SCENE-P1"]
    alg = SheafAlgebraA(scene)
    ring0 = scene.atlas.ring((0,))
    c = make_chain(alg, (0,), ("*",), [{"e": ring0.var("t")}])
    cech = CechHochChain(alg, {(0,): c})
    out = cech_hoch_d(cech)
    # d_Cech part lands on (0,1) with sign (+1 for appending at position 1);
    # the sheaf part d(e) = t stays on (0,)
    assert set(out.entries) == {(0,), (0, 1)}
    assert out.entries[(0, 1)] == restrict_chain(c, (0, 1)).scale(-1)


def test_restriction_rescales_eps():
    # e_{lead 1} = u e_{lead 0} when restricting from (1,) into (0,1)
    scene = SCENES["SCENE-P1"]
    alg = SheafAlgebraA(scene)
    ring1 = scene.atlas.ring((1,))
    c = make_chain(alg, (1,), ("*",), [{"e": ring1.one()}])
    out = restrict_chain(c, (0, 1))
    r01 = scene.atlas.ring((0, 1))
    # u_{01} = t^{-1}: e_1 = t^{-1} e_0
    expected = make_chain(alg, (0, 1), ("*",), [{"e": r01.monomial([-1])}])
    assert out == expected


def test_term_parity():
    scene = SCENES["SCENE-A2"]
    alg = SheafAlgebraA(scene)
    assert term_parity(alg, ("1",)) == 0
    assert term_parity(alg, ("e",)) == 1
    assert term_parity(alg, ("1", "1")) == 1
    assert term_parity(alg, ("1", "e")) == 0


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("q", range(4))
def test_insertion_layouts_match_definition(k, q):
    # every l_1 <= ... <= l_q in range(k+1) once, with
    # eps = sum_s(|a_0..a_{l_s}| + l_s) and depth[i] = #{s : l_s < i}
    for parities in itertools.product((0, 1), repeat=k + 1):
        layouts = list(insertion_layouts(list(parities), q))
        assert len(layouts) == comb(k + q, q)
        assert len({ls for ls, _, _ in layouts}) == len(layouts)
        for ls, eps, depth in layouts:
            assert len(ls) == q
            assert all(0 <= l <= k for l in ls)
            assert list(ls) == sorted(ls)
            assert eps == sum(sum(parities[: l + 1]) + l for l in ls)
            assert depth == [sum(1 for l in ls if l < i) for i in range(k + 1)]
