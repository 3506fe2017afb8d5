import random
from fractions import Fraction
from math import factorial

import pytest

from cechmf.cdg import CurvedLine, OYAlgebra, SheafAlgebraA
from cechmf.cech import (
    CONE,
    CONEF,
    FORM,
    LOG,
    OMEGA,
    OMEGA_PLUS,
    OMEGA_Y,
    YFORM,
    Cochain,
    cech_total_d,
    cone_cochain,
)
from cechmf.forms import Form, LogForm, d_of, dlog_of
from cechmf.hkr import _hkr_mono, a_to_oy, hkr_A, hkr_xf, hkr_y
from cechmf.hochschild import CechHochChain, cech_hoch_d, make_chain
from cechmf.rand import rand_cech_hoch_chain
from cechmf.scene import load_scene
from cechmf.ses import cone_to_y
from cechmf.scenes_builtin import all_builtin_names, builtin_scene
from cechmf.suites import basis_a_chains
from conftest import POLE1_FILE, SHEARED_FILE, sheared_a2c

SCENES = {name: builtin_scene(name) for name in all_builtin_names()}
SHEARED = "SCENE-A2C-SHEAR"


# -- the definitions the closed form replaces, kept as oracles ---------------


def add_piece(acc: dict, I, piece) -> None:
    """acc[I] += piece, where a missing entry is zero."""
    acc[I] = acc[I] + piece if I in acc else piece


def _wedge_chain(a0, c, k: int, das, head: Form | None = None) -> Form:
    """(c/k!) a_0 [^ head] ^ da_1 ^ ... ^ da_k, one wedge per slot."""
    w = Form.scalar(a0).scale(c * Fraction(1, factorial(k)))
    if head is not None:
        w = w.wedge(head)
    for da in das:
        w = w.wedge(da)
    return w


def _hkr_A_term_by_term(c: CechHochChain) -> Cochain:
    """hkr_A from its formula, each term restricted and wedged slot by slot."""
    scene = c.scene
    reg_acc: dict = {}
    log_acc: dict = {}
    for I, ch in c.entries.items():
        ctx = scene.ctx(I)
        ring = ctx.ring
        p = len(I) - 1
        dx_dg = ctx.dx.wedge(d_of(ctx.g))
        raising = [
            (K, scene.atlas.res(I, K), dlog_of(scene.atlas.unit(I[0], j, K)))
            for j, pos, K in scene.atlas.extensions(I)
            if pos == 0
        ]
        for (path, syms, monos), coeff in ch.terms.items():
            k = len(syms) - 1
            eps_slots = [i for i, s in enumerate(syms) if s == "e"]
            if len(eps_slots) >= 2:
                continue
            m = [ring.monomial(mono) for mono in monos]
            das = [d_of(a) for a in m[1:]]
            if eps_slots:
                sign = (-1) ** eps_slots[0]
                add_piece(reg_acc, I, _wedge_chain(m[0], coeff * sign, k, das, ctx.dx))
                continue
            add_piece(log_acc, I, LogForm(ctx, Form.zero(ring), _wedge_chain(m[0], coeff, k, das)))
            add_piece(reg_acc, I, _wedge_chain(m[0], coeff, k, das, dx_dg))
            for K, res, dlog_u in raising:
                das_K = [d_of(res(a)) for a in m[1:]]
                w = _wedge_chain(res(m[0]), coeff * (-1) ** (p + 1), k, das_K, dlog_u)
                add_piece(reg_acc, K, w)
    return cone_cochain(scene, Cochain(scene, FORM, reg_acc), Cochain(scene, LOG, log_acc))


def _rand_exponent(rng, ring, max_deg=2):
    return tuple(
        rng.randint(-max_deg if v in ring.inverted else 0, max_deg) for v in range(ring.nvars)
    )


@pytest.mark.parametrize("name", all_builtin_names())
def test_hkr_mono_matches_wedge_chain(name):
    scene = SCENES[name]
    rng = random.Random(f"hkr_mono:{name}")
    rings = {scene.atlas.ring(I) for I in scene.atlas.tuples}
    nonzero = 0
    for ring in rings:
        n = ring.nvars
        for k in range(n + 2):
            acc: dict = {}
            want = Form.zero(ring)
            for _ in range(12):
                monos = [_rand_exponent(rng, ring) for _ in range(k + 1)]
                c = rng.choice([1, -1, 2, Fraction(-3, 2), Fraction(1, 3)])
                one: dict = {}
                _hkr_mono(monos, c, one)
                m = [ring.monomial(e) for e in monos]
                term = _wedge_chain(m[0], c, k, [d_of(a) for a in m[1:]])
                assert Form.from_flat(ring, one) == term, (ring, monos, c)
                if k > n:
                    assert not one
                nonzero += bool(one)
                # the kernel accumulates: one dict for many tensors
                _hkr_mono(monos, c, acc)
                want = want + term
            assert Form.from_flat(ring, acc) == want
    assert nonzero


@pytest.mark.parametrize("name", [*all_builtin_names(), SHEARED])
def test_hkr_A_matches_term_by_term(name):
    scene = sheared_a2c() if name == SHEARED else SCENES[name]
    rng = random.Random(f"hkr_A:{name}")
    chains = [c for _, c in basis_a_chains(scene)]
    for c in chains:
        assert hkr_A(c) == _hkr_A_term_by_term(c)
    # sums over several tuples, where terms of one tuple can cancel in S
    for _ in range(10):
        total = CechHochChain(chains[0].presheaf, {})
        for c in rng.sample(chains, min(8, len(chains))):
            total = total + c.scale(rng.choice([1, -1, 2]))
        assert hkr_A(total) == _hkr_A_term_by_term(total)


def _hkr_term_by_term(c: CechHochChain, kind: str) -> Cochain:
    """hkr_xf and hkr_y from their formula, every tensor wedged slot by
    slot, the long ones included."""
    acc: dict = {}
    for I, ch in c.entries.items():
        ring = c.scene.atlas.ring(I)
        for (path, syms, monos), coeff in ch.terms.items():
            m = [ring.monomial(mono) for mono in monos]
            add_piece(acc, I, _wedge_chain(m[0], coeff, len(m) - 1, [d_of(a) for a in m[1:]]))
    return Cochain(c.scene, kind, acc)


SKIP_SCENES = [*all_builtin_names(), "sheared-file", "pole-last"]


@pytest.mark.parametrize("name", SKIP_SCENES)
def test_hkr_maps_skip_only_tensors_they_send_to_zero(name):
    # hkr_xf and hkr_y skip a tensor of more than nvars + 1 slots, hkr_A
    # one of more than nvars; against the per-term formulas, on chains
    # that have such tensors
    files = {"sheared-file": SHEARED_FILE, "pole-last": POLE1_FILE}
    scene = load_scene(files[name]) if name in files else builtin_scene(name)
    rng = random.Random(f"hkr-skip:{name}")
    nvars = {I: scene.atlas.ring(I).nvars for I in scene.atlas.tuples}
    top = max(nvars.values()) + 1

    def skipped(c, extra):
        return sum(
            len(k[1]) > nvars[I] + extra for I, ch in c.entries.items() for k in ch.terms
        )

    long_terms, nonzero = {}, 0
    maps = [
        (CurvedLine(scene, -1), hkr_xf, FORM),
        (OYAlgebra(scene), hkr_y, YFORM),
    ]
    for ph, hkr, kind in maps:
        for _ in range(16):
            c = rand_cech_hoch_chain(rng, ph, max_len=top + 2)
            got = hkr(c)
            assert got == _hkr_term_by_term(c, kind), kind
            nonzero += not got.is_zero()
            long_terms[kind] = long_terms.get(kind, 0) + skipped(c, 1)
    alg = SheafAlgebraA(scene)
    for eps_count in (0, 1, 2):
        for _ in range(8):
            c = _rand_a_cech(rng, alg, eps_count, max_len=top + 1)
            got = hkr_A(c)
            assert got == _hkr_A_term_by_term(c), eps_count
            nonzero += not got.is_zero()
            long_terms[CONEF] = long_terms.get(CONEF, 0) + skipped(c, 0)
    assert all(long_terms.values()) and len(long_terms) == 3 and nonzero


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
    ctx = scene.ctx((0,))
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
