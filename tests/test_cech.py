import gc
import random
import weakref
from fractions import Fraction

import pytest

from cechmf.cech import (
    _FLATS,
    CONE,
    CONEF,
    FORM,
    LOG,
    OMEGA,
    OMEGA_LOG,
    OMEGA_LOG_SHIFTED,
    OMEGA_PLUS,
    OMEGA_Y,
    YFORM,
    Cochain,
    _restricted,
    bar_power,
    bar_wedge,
    c1_minus_Y,
    cech_total_d,
    cech_wedge,
    cone_cochain,
    todd_inverse,
    unit_cochain,
)
from cechmf.forms import ConeForm, Form, LogForm, add_into, dlog_of, map_form, y_normalize
from cechmf.hochschild import (
    ALL_PARTS,
    CechHochChain,
    cech_hoch_d,
    hoch_d,
    restrict_chain,
    twisted_hoch_d,
)
from cechmf.rand import (
    rand_cech_hoch_chain,
    rand_cone_cochain,
    rand_form_cochain,
    rand_log_cochain,
    rand_yform_cochain,
)
from cechmf.scene import SceneError, _loc_divide, load_scene, scene_from_dict
from cechmf.scenes_builtin import all_builtin_names, builtin_scene, builtin_scene_dict
from conftest import POLE1_FILE, PRESHEAVES, SHEARED_FILE, sheared_a2c

SCENES = {name: builtin_scene(name) for name in all_builtin_names()}


def test_scene_is_freed_with_its_tuple_contexts():
    # the scene owns its tuple contexts: a scene nothing else references is
    # collected after use
    scene = builtin_scene("SCENE-P1")
    assert not unit_cochain(scene, YFORM).is_zero()
    ref = weakref.ref(scene)
    del scene
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize(
    "gen", [rand_form_cochain, rand_log_cochain, rand_cone_cochain, rand_yform_cochain]
)
@pytest.mark.parametrize("name", ["SCENE-P1", "SCENE-P2", "SCENE-A2D"])
def test_derived_cochains_match_checked_construction(name, gen):
    # cech_d, twisted and the linear operations build their results without
    # the tuple check and the projection of divisor forms to Y; each must
    # equal the cochain the checked constructor builds
    scene = SCENES[name]
    rng = random.Random(f"derived:{name}:{gen.__name__}")
    for _ in range(4):
        a, b = gen(scene, rng, max_deg=1), gen(scene, rng, max_deg=1)
        derived = [
            a + b, a - b, -a, a.scale(Fraction(-3, 2)), a.scale(0),
            a.cech_d(), a.twisted(lambda acc, I, s, sign: a._restrict_into(acc, s, I, I, sign)),
            a - a,
        ]
        for c in derived:
            assert type(c) is Cochain and c.scene is scene and c.kind == a.kind
            assert c == Cochain(scene, a.kind, c.entries)
            assert not any(s.is_zero() for s in c.entries.values())
        assert (a - a).is_zero() and a.scale(0).is_zero()


def test_total_d_of_unit_on_a2():
    scene = SCENES["SCENE-A2"]
    c = unit_cochain(scene, FORM)
    out = cech_total_d(c, OMEGA)
    ring = scene.atlas.ring((0,))
    # -d(xy) = -(y dx + x dy)
    expected = Form(ring, {(0,): -ring.var("y"), (1,): -ring.var("x")})
    assert out.entries == {(0,): expected}


def test_total_d_squares_to_zero_everywhere():
    rng = random.Random(7)
    for name, scene in SCENES.items():
        for _ in range(12):
            c = rand_form_cochain(scene, rng)
            assert cech_total_d(cech_total_d(c, OMEGA), OMEGA).is_zero(), name
            lc = rand_log_cochain(scene, rng)
            for kind in (OMEGA_LOG, OMEGA_LOG_SHIFTED):
                assert cech_total_d(cech_total_d(lc, kind), kind).is_zero(), name
            yc = rand_yform_cochain(scene, rng)
            assert cech_total_d(cech_total_d(yc, OMEGA_Y), OMEGA_Y).is_zero(), name
            cc = rand_cone_cochain(scene, rng)
            assert cech_total_d(cech_total_d(cc, CONE), CONE).is_zero(), name


@pytest.mark.parametrize("name", all_builtin_names())
def test_cone_d_is_the_sum_of_its_parts(name):
    # the cone's differential, written out as the complexes of its parts:
    # omega on the regular part a, the shifted log complex on the log part
    # b, and the connecting term (-1)^p L(a) added to the log part
    scene = SCENES[name]
    rng = random.Random(f"cone-d:{name}")
    for _ in range(8):
        c = rand_cone_cochain(scene, rng)
        reg = Cochain(scene, FORM, {I: s.reg for I, s in c.entries.items()})
        log = Cochain(scene, LOG, {I: s.log for I, s in c.entries.items()})
        connecting = Cochain(scene, LOG, {
            I: LogForm(scene.ctx(I), a, Form.zero(a.ring))
            for I, a in reg.twisted(lambda acc, I, a, sign: add_into(acc[0], a, sign)).entries.items()
        })
        expected = cone_cochain(
            scene, cech_total_d(reg, OMEGA), cech_total_d(log, OMEGA_LOG_SHIFTED) + connecting
        )
        assert cech_total_d(c, CONE) == expected


def test_p1_c1_entry_is_closed():
    scene = SCENES["SCENE-P1"]
    c1 = c1_minus_Y(scene)
    r01 = scene.atlas.ring((0, 1))
    # u_10 = t, entry = u du^{-1} = -dt/t
    assert c1.entries == {(0, 1): Form(r01, {(0,): r01.monomial([-1], -1)})}
    assert cech_total_d(c1, OMEGA).is_zero()


def test_c1_empty_on_single_chart():
    for name in ("SCENE-A1", "SCENE-A2"):
        assert c1_minus_Y(SCENES[name]).is_zero()


def test_todd_single_chart_is_one():
    scene = SCENES["SCENE-A2"]
    assert todd_inverse(scene) == unit_cochain(scene, FORM)


def test_todd_p1_truncates_at_q1():
    scene = SCENES["SCENE-P1"]
    td = todd_inverse(scene)
    expected = unit_cochain(scene, FORM) + c1_minus_Y(scene).scale(Fraction(1, 2))
    assert td == expected


def test_todd_formulas_agree_termwise():
    # c1^{~^q}/(q+1)! vs (-1)^{binom(q,2)} c1^{^q}/(q+1)!
    for name in ("SCENE-P1", "SCENE-A2C"):
        scene = SCENES[name]
        c1 = c1_minus_Y(scene)
        power_bar = unit_cochain(scene, FORM)
        power_plain = unit_cochain(scene, FORM)
        for q in range(4):
            from math import comb

            assert power_bar == power_plain.scale(Fraction((-1) ** comb(q, 2)))
            power_bar = bar_wedge(power_bar, c1) if q else c1
            power_plain = cech_wedge(power_plain, c1)


def test_cech_wedge_product_rule_instance():
    # degree (1,1).(0,1): (a.b)_{ij} = a_{ij} ^ b_j
    scene = SCENES["SCENE-P1"]
    r01 = scene.atlas.ring((0, 1))
    r1 = scene.atlas.ring((1,))
    a = Cochain(scene, FORM, {(0, 1): Form(r01, {(0,): r01.one()})})
    b = Cochain(scene, FORM, {(1,): Form(r1, {(0,): r1.var("s")})})
    out = cech_wedge(a, b)
    # b_1 = s ds restricts to t^{-1} d(t^{-1}) = -t^{-3} dt, wedged with dt -> 0
    assert out.is_zero()
    b0 = Cochain(scene, FORM, {(1,): Form(r1, {(): r1.var("s")})})
    out0 = cech_wedge(a, b0)
    assert out0.entries == {(0, 1): Form(r01, {(0,): r01.monomial([-1])})}


def test_bar_wedge_unit():
    rng = random.Random(11)
    for name in ("SCENE-P1", "SCENE-A2C"):
        scene = SCENES[name]
        one = unit_cochain(scene, FORM)
        a = rand_form_cochain(scene, rng)
        assert bar_wedge(a, one) == a
        cc = rand_cone_cochain(scene, rng)
        assert bar_wedge(cc, one) == cc


def test_bar_wedge_sign_p1q1():
    # pure Cech-degree-1 pieces: a ~^ g = -(g ^ a)
    scene = SCENES["SCENE-A2C"]
    rng = random.Random(13)
    for _ in range(8):
        a = rand_form_cochain(scene, rng)
        g = rand_form_cochain(scene, rng)
        a1 = Cochain(scene, FORM, {I: s for I, s in a.entries.items() if len(I) == 2})
        g1 = Cochain(scene, FORM, {I: s for I, s in g.entries.items() if len(I) == 2})
        assert bar_wedge(a1, g1) == -cech_wedge(g1, a1)


@pytest.mark.parametrize("name,pair", [("SCENE-A2C", (0, 1)), ("SCENE-P2", (1, 2))])
def test_bar_wedge_yform_by_form(name, pair):
    # a Y-form alpha acted on by a form gamma over a pair overlap that Y
    # meets; each factor restricts to the overlap by its own kind
    scene = SCENES[name]
    ctx = scene.ctx(pair)
    ring = ctx.ring
    x, y = ctx.pole, 1 - ctx.pole
    yv = ring.var(ring.variables[y])
    gamma = Cochain(scene, FORM, {pair: Form(ring, {
        (): ring.one() + yv,
        (y,): yv * yv,
        (x,): yv,
    })})
    alpha = unit_cochain(scene, YFORM)
    out = bar_wedge(alpha, gamma)
    # p = 0, so the sign (-1)^{pq} is +1
    assert out == cech_wedge(gamma, alpha)
    assert not out.is_zero()


def test_products_need_the_union_tuple():
    # SCENE-P2 without its triple overlap: (0,1) and (1,2) compose to (0,1,2)
    spec = builtin_scene_dict("SCENE-P2")
    spec["overlaps"] = [o for o in spec["overlaps"] if len(o["tuple"]) < 3]
    scene = scene_from_dict(spec)
    assert not scene.atlas.has_tuple((0, 1, 2))
    a = Cochain(scene, FORM, {(0, 1): Form.one(scene.atlas.ring((0, 1)))})
    b = Cochain(scene, FORM, {(1, 2): Form.one(scene.atlas.ring((1, 2)))})
    with pytest.raises(SceneError):
        cech_wedge(a, b)
    with pytest.raises(SceneError):
        bar_wedge(b, a)


def test_bar_wedge_module_law():
    # (a ~^ g1) ~^ g2 = a ~^ (g1 ^ g2) up to the documented sign bookkeeping:
    # nontrivial on a three-chart scene where c1 ^ c1 does not vanish
    scene = SCENES["SCENE-P2"]
    rng = random.Random(17)
    c1 = c1_minus_Y(scene)
    assert not cech_wedge(c1, c1).is_zero()
    for _ in range(4):
        a = rand_cone_cochain(scene, rng, max_deg=1)
        lhs = bar_wedge(bar_wedge(a, c1), c1)
        # c1 ~^ c1 = - c1 ^ c1, so (a ~^ c1) ~^ c1 = a ~^ (c1 ~^ c1)
        assert lhs == bar_wedge(a, cech_wedge(c1, c1)).scale(Fraction(-1))
        assert lhs == bar_wedge(a, bar_power(c1, 2))


def test_propontodd_commutes_with_differential():
    rng = random.Random(19)
    for name in ("SCENE-P1", "SCENE-A2", "SCENE-A2C", "SCENE-P2"):
        scene = SCENES[name]
        td = todd_inverse(scene)
        for _ in range(6):
            a = rand_cone_cochain(scene, rng, max_deg=1)
            lhs = cech_total_d(bar_wedge(a, td), CONE)
            rhs = bar_wedge(cech_total_d(a, CONE), td)
            assert lhs == rhs, name


# -- the per-piece definitions the flat accumulation replaces, kept as oracles


def add_piece(acc: dict, I, piece) -> None:
    """acc[I] += piece, where a missing entry is zero."""
    acc[I] = acc[I] + piece if I in acc else piece


def _restrict_form(scene, w, I, J):
    return map_form(w, scene.atlas.res(I, J), scene.atlas.ring(J))


def _restrict_logform(scene, lf, I, J):
    """Restrict w + (dx_I/x_I)^w', rewriting the pole as du/u + dx_J/x_J."""
    ctx_J = scene.ctx(J)
    reg = _restrict_form(scene, lf.regular, I, J)
    if lf.residue.is_zero():
        return LogForm(ctx_J, reg, Form.zero(ctx_J.ring))
    res = _restrict_form(scene, lf.residue, I, J)
    x_old = scene.atlas.res(I, J)(lf.ctx.x)
    if ctx_J.pole is None:
        return LogForm(ctx_J, reg + dlog_of(x_old).wedge(res), Form.zero(ctx_J.ring))
    u = _loc_divide(x_old, ctx_J.x)
    if u.is_one():
        return LogForm(ctx_J, reg, res)
    return LogForm(ctx_J, reg + dlog_of(u).wedge(res), res)


_RESTRICT = {
    FORM: _restrict_form,
    LOG: _restrict_logform,
    YFORM: lambda scene, s, I, J: y_normalize(_restrict_form(scene, s, I, J), scene.ctx(J)),
    CONEF: lambda scene, s, I, J: ConeForm(
        _restrict_form(scene, s.reg, I, J), _restrict_logform(scene, s.log, I, J)
    ),
}


def _wedge_left(lf, gamma):
    """gamma ^ lf, commuting gamma past dx/x termwise."""
    signed = Form(gamma.ring, {k: c.scale((-1) ** len(k)) for k, c in gamma.terms.items()})
    return LogForm(lf.ctx, gamma.wedge(lf.regular), signed.wedge(lf.residue))


def _cone_d(ctx, s):
    w = _wedge_left(s.log, ctx.df)
    return ConeForm(-ctx.df.wedge(s.reg), LogForm(ctx, w.regular + s.reg, w.residue))


_SHEAF_D = {
    OMEGA: lambda ctx, s: -ctx.df.wedge(s),
    OMEGA_PLUS: lambda ctx, s: ctx.df.wedge(s),
    OMEGA_LOG: lambda ctx, s: -_wedge_left(s, ctx.df),
    OMEGA_LOG_SHIFTED: lambda ctx, s: _wedge_left(s, ctx.df),
    OMEGA_Y: lambda ctx, s: Form.zero(s.ring),
    CONE: _cone_d,
}
_KIND = {OMEGA: FORM, OMEGA_PLUS: FORM, OMEGA_LOG: LOG, OMEGA_LOG_SHIFTED: LOG, OMEGA_Y: YFORM, CONE: CONEF}


def _piecewise_cech_d(c, restrict):
    """The alternating Cech differential, one restricted piece at a time."""
    acc: dict = {}
    for I, s in c.entries.items():
        for j, pos, J in c.scene.atlas.extensions(I):
            piece = restrict(s, I, J)
            add_piece(acc, J, -piece if pos % 2 else piece)
    return c._new(acc)


def _piecewise_twisted(c, op):
    return c._new({I: -op(I, s) if (len(I) - 1) % 2 else op(I, s) for I, s in c.entries.items()})


def _piecewise_total_d(c, complex_kind):
    scene = c.scene
    cech = _piecewise_cech_d(c, lambda s, I, J: _RESTRICT[c.kind](scene, s, I, J))
    return cech + _piecewise_twisted(c, lambda I, s: _SHEAF_D[complex_kind](scene.ctx(I), s))


def _piecewise_cup(a, b, kind, product, restrict=None):
    """The cup product with every factor restricted to K, by the per-piece
    restrictions of this file, or by restrict(scene, kind, s, I, K)."""
    scene = a.scene
    if restrict is None:
        restrict = lambda scene, kind, s, I, K: _RESTRICT[kind](scene, s, I, K)
    acc: dict = {}
    for I, sa in a.entries.items():
        for J, sb in b.entries.items():
            K = I + J[1:]
            if I[-1] != J[0] or list(K) != sorted(set(K)):
                continue
            ra = restrict(scene, a.kind, sa, I, K)
            rb = restrict(scene, b.kind, sb, J, K)
            add_piece(acc, K, product(ra, rb, len(I) - 1, len(J) - 1))
    return Cochain(scene, kind, acc)


def _piecewise_bar_wedge(alpha, gamma, restrict=None):
    if alpha.kind in (FORM, YFORM):

        def product(rg, ra, q, p):
            piece = rg.wedge(ra)
            return -piece if (p * q) % 2 else piece

    else:

        def product(rg, s, q, p):
            return ConeForm(
                rg.wedge(s.reg).scale(Fraction((-1) ** (p * q))),
                _wedge_left(s.log, rg).scale(Fraction((-1) ** ((p + 1) * q))),
            )

    return _piecewise_cup(gamma, alpha, alpha.kind, product, restrict)


def _piecewise_hoch(c, parts, cech=True):
    twisted = _piecewise_twisted(c, lambda I, ch: hoch_d(ch, parts))
    if not cech:
        return twisted
    return _piecewise_cech_d(c, lambda ch, I, J: restrict_chain(ch, J)) + twisted


def _nonzero(draw):
    """The sum of three draws, drawn again until it is nonzero: a zero
    input checks nothing, and a single draw has few terms."""
    while True:
        c = draw() + draw() + draw()
        if not c.is_zero():
            return c


ORACLE_SCENES = [*all_builtin_names(), "sheared", "half-sheared", "pole-last"]


@pytest.mark.parametrize("name", ORACLE_SCENES)
def test_flat_differentials_match_piecewise_definition(name):
    # every flat accumulation (total differentials, cup products, the
    # Cech-Hochschild differential) against the per-piece definition it
    # replaces: each piece built, negated and added into its target.  The
    # scene is fresh, so the first pass builds every kept table (cold) and
    # the second reads them (warm).
    if name in ("sheared", "half-sheared"):
        scene = sheared_a2c("1" if name == "sheared" else "1/2")
    elif name == "pole-last":
        scene = load_scene(POLE1_FILE)
    else:
        scene = builtin_scene(name)
    rng = random.Random(f"flat:{name}")
    draws = {
        FORM: lambda: rand_form_cochain(scene, rng, max_deg=1),
        LOG: lambda: rand_log_cochain(scene, rng, max_deg=1),
        YFORM: lambda: rand_yform_cochain(scene, rng, max_deg=1),
        CONEF: lambda: rand_cone_cochain(scene, rng, max_deg=1),
    }
    forms = {kind: [_nonzero(draw) for _ in range(3)] for kind, draw in draws.items()}
    while all(s.residue.is_zero() for c in forms[LOG] for s in c.entries.values()):
        forms[LOG] = [_nonzero(draws[LOG]) for _ in range(3)]
    presheaves = {kind: make(scene) for kind, make in sorted(PRESHEAVES.items())}
    chains = {
        kind: [_nonzero(lambda: rand_cech_hoch_chain(rng, ph, max_len=2)) for _ in range(2)]
        for kind, ph in presheaves.items()
    }
    td = todd_inverse(scene)
    nonzero = 0
    for _ in ("cold", "warm"):
        for complex_kind, kind in _KIND.items():
            for c in forms[kind]:
                got = cech_total_d(c, complex_kind)
                assert got == _piecewise_total_d(c, complex_kind), (complex_kind, c)
                nonzero += not got.is_zero()
        for a in forms[FORM]:
            for b in forms[FORM] + forms[YFORM]:
                assert cech_wedge(a, b) == _piecewise_cup(
                    a, b, b.kind, lambda ra, rb, p, q: ra.wedge(rb)
                )
                assert bar_wedge(b, a) == _piecewise_bar_wedge(b, a)
                nonzero += not cech_wedge(a, b).is_zero()
        for c in forms[CONEF]:
            got = bar_wedge(c, td)
            assert got == _piecewise_bar_wedge(c, td)
            nonzero += not got.is_zero()
        for kind, cs in chains.items():
            for c in cs:
                got = cech_hoch_d(c)
                assert got == _piecewise_hoch(c, ALL_PARTS), kind
                nonzero += not got.is_zero()
                for parts in (ALL_PARTS, ("d1",), ("d2",)):
                    want = _piecewise_hoch(c, parts, cech=False)
                    assert twisted_hoch_d(c, parts) == want, (kind, parts)
    assert nonzero


CUP_SCENES = [*all_builtin_names(), "sheared-file", "pole-last"]


@pytest.mark.parametrize("name", CUP_SCENES)
def test_cup_uses_a_factor_on_its_own_tuple_as_it_stands(name):
    # _cup takes a factor whose tuple already is K as it stands: the
    # identity restriction of every section kind gives the section back,
    # and both products equal the cup that restricts every factor with
    # cech._restricted, the identity ones included
    files = {"sheared-file": SHEARED_FILE, "pole-last": POLE1_FILE}
    scene = load_scene(files[name]) if name in files else builtin_scene(name)
    rng = random.Random(f"cup-identity:{name}")
    draws = {
        FORM: lambda: rand_form_cochain(scene, rng, max_deg=1),
        LOG: lambda: rand_log_cochain(scene, rng, max_deg=1),
        YFORM: lambda: rand_yform_cochain(scene, rng, max_deg=1),
        CONEF: lambda: rand_cone_cochain(scene, rng, max_deg=1),
    }
    assert set(draws) == set(_FLATS)
    forms = {kind: [_nonzero(draw) for _ in range(3)] for kind, draw in draws.items()}
    for kind, cs in forms.items():
        for c in cs:
            for I, s in c.entries.items():
                assert _restricted(scene, kind, s, I, I) == s, (kind, I)
    restrict = lambda scene, kind, s, I, K: _restricted(scene, kind, s, I, K)
    identity = 0
    for a in forms[FORM]:
        for b in forms[FORM] + forms[YFORM]:
            # a pair with a one-chart factor has its other factor on K
            pairs = [(I, J) for I in a.entries for J in b.entries if I[-1] == J[0]]
            identity += sum(min(len(I), len(J)) == 1 for I, J in pairs)
            want = _piecewise_cup(a, b, b.kind, lambda ra, rb, p, q: ra.wedge(rb), restrict)
            assert cech_wedge(a, b) == want
            assert bar_wedge(b, a) == _piecewise_bar_wedge(b, a, restrict)
    td = todd_inverse(scene)
    for c in forms[CONEF]:
        assert bar_wedge(c, td) == _piecewise_bar_wedge(c, td, restrict)
    assert identity


@pytest.mark.parametrize("name", CUP_SCENES)
def test_cochain_restricted_matches_restricted(name):
    # the memo of every section kind against cech._restricted, for every
    # entry and every atlas tuple containing it: the first read fills the
    # memo (cold), the second returns the kept section (warm); a cochain
    # derived from a filled one starts with no memo
    files = {"sheared-file": SHEARED_FILE, "pole-last": POLE1_FILE}
    scene = load_scene(files[name]) if name in files else builtin_scene(name)
    rng = random.Random(f"cochain-restricted:{name}")
    draws = {
        FORM: lambda: rand_form_cochain(scene, rng, max_deg=1),
        LOG: lambda: rand_log_cochain(scene, rng, max_deg=1),
        YFORM: lambda: rand_yform_cochain(scene, rng, max_deg=1),
        CONEF: lambda: rand_cone_cochain(scene, rng, max_deg=1),
    }
    assert set(draws) == set(_FLATS)
    restricted = 0
    for kind, draw in draws.items():
        c = _nonzero(draw)
        assert c._restrictions is None
        pairs = [
            (I, K)
            for I in c.entries
            for K in scene.atlas.tuples
            if K != I and set(I) <= set(K)
        ]
        for I, K in pairs:
            want = _restricted(scene, kind, c.entries[I], I, K)
            got = c.restricted(I, K)
            assert got == want, (kind, I, K)
            assert c.restricted(I, K) is got
        assert set(c._restrictions or {}) == set(pairs)
        restricted += len(pairs)
        for derived in (c.scale(1), c + c, -c):
            assert derived._restrictions is None
    assert restricted or len(scene.atlas.chart_ids) == 1
