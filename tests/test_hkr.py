import random
from fractions import Fraction

import pytest

from cechmf.cdg import CurvedLine, OYAlgebra, SheafAlgebraA
from cechmf.cech import CONE, FORM, OMEGA, OMEGA_PLUS, OMEGA_Y, Cochain, cech_total_d, _ctx
from cechmf.forms import Form, LogForm
from cechmf.hkr import a_to_oy, hkr_A, hkr_xf, hkr_y
from cechmf.hochschild import CechHochChain, cech_hoch_d, make_chain
from cechmf.ses import cone_to_y
from cechmf.scenes_builtin import all_builtin_names, builtin_scene

SCENES = {name: builtin_scene(name) for name in all_builtin_names()}


def _line_chain(line, I, monos_list, coeff=1):
    ring = line.ring(I)
    slots = [{"1": ring.monomial(m)} for m in monos_list]
    return make_chain(line, I, ("*",) * len(monos_list), slots, coeff)


def test_hkr_xf_examples():
    scene = SCENES["SCENE-A2"]
    line = CurvedLine(scene, -1)
    ring = scene.atlas.ring((0,))
    # a_0[] -> a_0
    c = CechHochChain(line, {(0,): _line_chain(line, (0,), [(1, 0)])})
    assert hkr_xf(c).entries == {(0,): Form.scalar(ring.var("x"))}
    # x[y] -> x dy
    c = CechHochChain(line, {(0,): _line_chain(line, (0,), [(1, 0), (0, 1)])})
    assert hkr_xf(c).entries == {(0,): Form(ring, {(1,): ring.var("x")})}
    # 1[x|x] -> (1/2) dx^dx = 0
    c = CechHochChain(line, {(0,): _line_chain(line, (0,), [(0, 0), (1, 0), (1, 0)])})
    assert hkr_xf(c).is_zero()


def _rand_line_cech(rng, line, max_len=4, max_deg=2):
    entries = {}
    for I in line.scene.atlas.tuples:
        ring = line.ring(I)
        k = rng.randint(0, max_len)
        lau = ring.inverted
        monos = []
        for _ in range(k + 1):
            monos.append(
                tuple(
                    rng.randint(-max_deg if v in lau else 0, max_deg)
                    for v in range(ring.nvars)
                )
            )
        ch = _line_chain(line, I, monos, rng.randint(-2, 2))
        if not ch.is_zero():
            entries[I] = ch
    return CechHochChain(line, entries)


@pytest.mark.parametrize("name", all_builtin_names())
def test_hkr_xf_chain_map(name):
    scene = SCENES[name]
    rng = random.Random(53)
    for sign, kind in ((-1, OMEGA), (1, OMEGA_PLUS)):
        line = CurvedLine(scene, sign)
        for _ in range(12):
            c = _rand_line_cech(rng, line)
            lhs = hkr_xf(cech_hoch_d(c))
            rhs = cech_total_d(hkr_xf(c), kind)
            assert lhs == rhs, (name, sign)


def _a_chain(alg, I, slot_spec, coeff=1):
    # slot_spec: list of (sym, mono)
    ring = alg.ring(I)
    slots = [{s: ring.monomial(m)} for s, m in slot_spec]
    return make_chain(alg, I, ("*",) * len(slot_spec), slots, coeff)


def _rand_a_cech(rng, alg, eps_count, max_len=3, max_deg=1):
    entries = {}
    for I in alg.scene.atlas.tuples:
        ring = alg.ring(I)
        k = rng.randint(max(0, eps_count - 1), max_len)
        lau = ring.inverted
        spec = []
        positions = list(range(k + 1))
        rng.shuffle(positions)
        eps_at = set(positions[:eps_count])
        for i in range(k + 1):
            mono = tuple(
                rng.randint(-max_deg if v in lau else 0, max_deg)
                for v in range(ring.nvars)
            )
            spec.append(("e" if i in eps_at else "1", mono))
        ch = _a_chain(alg, I, spec, rng.randint(-2, 2))
        if not ch.is_zero():
            entries[I] = ch
    return CechHochChain(alg, entries)


def test_hkr_A_examples_on_a2():
    scene = SCENES["SCENE-A2"]
    alg = SheafAlgebraA(scene)
    ring = scene.atlas.ring((0,))
    ctx = _ctx(scene, (0,))
    # 1[] -> dx/x + dx^dy
    c = CechHochChain(alg, {(0,): _a_chain(alg, (0,), [("1", (0, 0))])})
    out = hkr_A(c)
    s = out.entries[(0,)]
    assert s.log == LogForm(ctx, Form.zero(ring), Form.one(ring))
    assert s.reg == Form(ring, {(0, 1): ring.one()})
    # 1[y e] -> (-1)^1 dx ^ d(y) = -dx^dy
    c = CechHochChain(alg, {(0,): _a_chain(alg, (0,), [("1", (0, 0)), ("e", (0, 1))])})
    out = hkr_A(c)
    s = out.entries[(0,)]
    assert s.log.is_zero()
    assert s.reg == Form(ring, {(0, 1): -ring.one()})
    # two odd factors -> 0
    c = CechHochChain(
        alg, {(0,): _a_chain(alg, (0,), [("1", (0, 0)), ("e", (0, 0)), ("e", (0, 1))])}
    )
    assert hkr_A(c).is_zero()


@pytest.mark.parametrize("name", all_builtin_names())
@pytest.mark.parametrize("eps_count", [0, 1, 2])
def test_hkr_A_chain_map(name, eps_count):
    scene = SCENES[name]
    alg = SheafAlgebraA(scene)
    rng = random.Random(59 + eps_count)
    for _ in range(10):
        c = _rand_a_cech(rng, alg, eps_count)
        lhs = hkr_A(cech_hoch_d(c))
        rhs = cech_total_d(hkr_A(c), CONE)
        assert lhs == rhs, (name, eps_count)


def test_hkr_A_kills_d1_of_two_eps():
    # the internal differential of a two-odd-factor element still dies
    scene = SCENES["SCENE-A2"]
    alg = SheafAlgebraA(scene)
    rng = random.Random(61)
    for _ in range(10):
        c = _rand_a_cech(rng, alg, 2)
        assert hkr_A(c).is_zero()
        # d_1 part maps two-eps elements to one-eps elements; the identity
        # hkr_A(d c) = d hkr_A(c) = 0 then forces those images to cancel
        assert hkr_A(cech_hoch_d(c)).is_zero()


@pytest.mark.parametrize("name", ["SCENE-A2", "SCENE-P1", "SCENE-P2"])
def test_hkr_square_to_divisor(name):
    # cone_to_y . hkr_A = hkr_y . (A -> O_Y), elementwise
    scene = SCENES[name]
    alg = SheafAlgebraA(scene)
    oy = OYAlgebra(scene)
    rng = random.Random(67)
    for eps_count in (0, 1, 2):
        for _ in range(8):
            c = _rand_a_cech(rng, alg, eps_count)
            lhs = cone_to_y(hkr_A(c))
            rhs = hkr_y(a_to_oy(c, oy))
            assert lhs == rhs, (name, eps_count)
