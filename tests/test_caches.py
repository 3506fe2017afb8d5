"""The tabulated structure gives the uncached answer, and dies with its owner.

`forms.map_form_into` keeps the pullback of each basis form x^e dx_K on the
restriction's RingMap, and `hochschild` keeps a restrictor per (I, J)
("restrictor": whether the presheaf lives on J and the slot terms of
restricted basis elements), the slot terms of the
curvature, d and composition of basis symbols, and the plan of `hoch_d`
per (path, symbols), on the presheaf, and those of the images of `can`
on the morphism.  A Cech pass reads one plan per tuple, kept on its
owner: the scene for form cochains (`Scene._cech_plans`), the presheaf
per (cech, parts) for Hochschild chains ("cech-plan"), each built once.
A form cochain keeps the restrictions of its entries
that the cup product reads (`Cochain.restricted`) on itself, and a
cochain derived from it starts with none.  A walk of `descent_summands`
that inserts keeps its gap layouts per (path, parities, q) on the
presheaf.  The trace's h^q keeps its walk per (I, K), its slot
realizations and, for q >= 1, its inserted inverse transition matrices
on the category, the atlas keeps the descents of the lax operators per
(I, q), and a lax morphism keeps its components, inverted and restricted
insertions, source realizations with their slot terms, and the heads of
its insertion operators on itself (`lax.OneObjectLax.table`); the heads
and inverted tau components of `iso_homotopy` and a global chain's
realizations live for one call.  The scene keeps the pole rewrite of
each restriction of a log form and the dlog of each transition unit that
`hkr_A` wedges in (`Scene._pole_rewrites`, `Scene._unit_dlogs`), the
fixtures of the trace-vs-residue square (`diagrams.RouteCtx`) and, for
windowed homology, per complex the dimensions at every window size up to
the largest D asked so far (`Scene._windows`), which serve every smaller
window with no cech_total_d run, no column expanded again and no
elimination: a window build makes the d(dx_K) table of each (tag, I, K)
once, drops the tables with its columns expanded, eliminates each
parity's matrix once and keeps only the dimensions it counts.  A
boundary test assembles its own window and keeps nothing.
These tests compare each table and smaller-window answer with the
computation it replaces, and check that a table is never served to an
object other than its owner, also after the owner is freed and its
memory reused.
"""

import gc
import importlib
import itertools
import pkgutil
import random
import weakref
from collections import Counter
from fractions import Fraction

import pytest

import cechmf
from cechmf import diagrams, homology
from cechmf.cdg import (
    CurvedLine,
    MFCategory,
    SheafAlgebraA,
    TrivializedCategory,
    build_P,
    can_map,
    elem_mul,
    end_algebra,
    restrict_elem,
)
from cechmf.cech import (
    CONE,
    FORM,
    OMEGA,
    OMEGA_LOG,
    OMEGA_PLUS,
    OMEGA_Y,
    Cochain,
    _restricted,
    bar_wedge,
    cech_total_d,
    todd_inverse,
    unit_cochain,
)
from cechmf.diagrams import max_form_degree, residue_route, trace_route
from cechmf.forms import (
    Form,
    LogForm,
    _pole_rewrite,
    d_of,
    dlog_of,
    restrict_logform_into,
)
from cechmf.hkr import hkr_A, hkr_xf
from cechmf.hochschild import (
    ALL_PARTS,
    CechHochChain,
    HochChain,
    _layouts,
    apply_morphism,
    cech_hoch_d,
    cech_part_d,
    hoch_d,
    make_chain,
    map_slots,
    slot_terms,
    twisted_hoch_d,
)
from cechmf.homology import homology_dims, is_boundary_within_window
from cechmf.lax import (
    GLOBAL,
    GlobalModel,
    OneObjectLax,
    cech_lax_map,
    iso_homotopy,
    restriction_htilde,
    strict_vs_lax_homotopy,
)
from cechmf.rand import (
    rand_a_class_chain,
    rand_cech_hoch_chain,
    rand_cone_cochain,
    rand_form,
    rand_form_cochain,
    rand_hoch_chain,
    rand_log_cochain,
    rand_yform_cochain,
)
from cechmf.scene import UnsupportedScene, _loc_divide, load_scene, scene_from_dict
from cechmf.scenes_builtin import all_builtin_names, builtin_scene
from cechmf.ses import cone_delta
from cechmf.suites import basis_a_chains, coboundary_lax, oracle_homology_dims, unit_family
from cechmf.trace import _hq_walk, hq_basis, phi
from conftest import POLE1_FILE, PRESHEAVES, pull_back, restrict_to, sheared_a2c

SCENE_NAMES = ("SCENE-P1", "SCENE-P2", "SCENE-A2D")

# the owners of kept tables: every presheaf kind, and a lax morphism (the
# coboundary one of w, over a two-term algebra that only it holds)
OWNERS = {
    **PRESHEAVES,
    "lax": lambda sc: coboundary_lax(sc, SheafAlgebraA(sc), unit_family(sc))[0],
}


def _pairs(scene):
    """(I, J) for every tuple I and J = I or a one-chart extension of I."""
    atlas = scene.atlas
    for I in atlas.tuples:
        yield I, I
        for _, _, J in atlas.extensions(I):
            yield I, J


def _chain_rule(w: Form, m) -> Form:
    """The pullback sum_K m(c_K) dm(x_k1) ^ ... ^ dm(x_kp), term by term."""
    out = Form.zero(m.dst)
    for k, c in w.terms.items():
        piece = Form.scalar(m(c))
        for v in k:
            piece = piece.wedge(d_of(m(w.ring.var(w.ring.variables[v]))))
        out = out + piece
    return out


def _uncached_restrict(chain: HochChain, J) -> HochChain:
    ph, I = chain.presheaf, chain.I
    if not ph.live(J):
        return HochChain(ph, J, {})
    ring = ph.ring(I)
    return map_slots(chain, ph, J, lambda s, m: restrict_elem(ph, {s: ring.monomial(m)}, I, J))


def _chains(rng, ph, count=4):
    """Sampled chains over every tuple where ph has objects."""
    out = []
    for I in ph.scene.atlas.tuples:
        if ph.objects(I):
            out += [rand_hoch_chain(rng, ph, I, max_len=2) for _ in range(count)]
    return out


@pytest.mark.parametrize("name", SCENE_NAMES)
def test_map_form_matches_chain_rule(name):
    scene = builtin_scene(name)
    rng = random.Random(f"map_form:{name}")
    for I, J in _pairs(scene):
        m = scene.atlas.res(I, J)
        for _ in range(6):
            w = rand_form(rng, scene.atlas.ring(I))
            want = _chain_rule(w, m)
            # the first call fills m.form_images, the second reads it
            assert pull_back(w, m, scene.atlas.ring(J)) == want
            assert pull_back(w, m, scene.atlas.ring(J)) == want
        # the entry of x^0 dx_K is the pullback of dx_K itself
        zero = (0,) * m.src.nvars
        for (k, e), image in m.form_images.items():
            if e == zero:
                dx_k = Form(m.src, {k: m.src.one()})
                assert Form.from_flat(m.dst, dict(image)) == _chain_rule(dx_k, m)
    assert any(scene.atlas.res(I, J).form_images for I, J in _pairs(scene) if I != J)


@pytest.mark.parametrize("kind", sorted(PRESHEAVES))
@pytest.mark.parametrize("name", SCENE_NAMES)
def test_restrict_chain_matches_fresh_restrict_elem(name, kind):
    ph = PRESHEAVES[kind](builtin_scene(name))
    rng = random.Random(f"restrict:{name}:{kind}")
    chains = _chains(rng, ph)
    for _ in range(2):  # cold, then warm
        for ch in chains:
            for _, _, J in ph.scene.atlas.extensions(ch.I):
                got = restrict_to(ch, J)
                assert got == _uncached_restrict(ch, J)
                assert got.presheaf is ph


@pytest.mark.parametrize("kind", sorted(PRESHEAVES))
@pytest.mark.parametrize("name", SCENE_NAMES)
def test_hoch_d_on_warm_presheaf_matches_new_presheaf(name, kind):
    scene = builtin_scene(name)
    warm = PRESHEAVES[kind](scene)
    rng = random.Random(f"hoch_d:{name}:{kind}")
    chains = _chains(rng, warm)
    for ch in chains:
        hoch_d(ch)
    for ch in chains:
        fresh = PRESHEAVES[kind](scene)
        want = hoch_d(HochChain(fresh, ch.I, ch.terms))
        got = hoch_d(ch)
        assert got.terms == want.terms
        assert got.presheaf is warm


@pytest.mark.parametrize(
    "scene", [builtin_scene(name) for name in SCENE_NAMES] + [sheared_a2c()], ids=lambda sc: sc.name
)
def test_hq_basis_on_warm_category_matches_new_category(scene):
    warm = end_algebra(scene, build_P(scene))
    triv = TrivializedCategory(scene, list(warm.mfs.values()))
    rng = random.Random(f"hq_basis:{scene.name}")
    chains = [rand_cech_hoch_chain(rng, warm, max_len=2) for _ in range(4)]
    qs = range(len(scene.atlas.chart_ids))
    want = {}
    for i, c in enumerate(chains):
        for q in qs:
            fresh = end_algebra(scene, build_P(scene))
            entries = {I: HochChain(fresh, I, ch.terms) for I, ch in c.entries.items()}
            want[i, q] = hq_basis(q, CechHochChain(fresh, entries), triv)
    for _ in range(2):  # cold, then warm
        for i, c in enumerate(chains):
            for q in qs:
                assert hq_basis(q, c, triv) == want[i, q], (i, q)
    assert any(tag == "hq-realize" and table for (tag, *_), table in warm._tables.items())
    assert any(not want[key].is_zero() for key in want if key[1])


def _module_containers():
    """Every module-level dict, set and list of the package, with its size."""
    out = {}
    for info in pkgutil.iter_modules(cechmf.__path__):
        mod = importlib.import_module(f"cechmf.{info.name}")
        for attr, value in vars(mod).items():
            if isinstance(value, (dict, set, list)) and not attr.startswith("__"):
                out[info.name, attr] = len(value)
    return out


def _signature(owner, seed):
    """What the tables serve for owner on seeded chains.  For a presheaf:
    hoch_d, and chain restriction and form pullback along every
    restriction the chains meet, and for a matrix-factorization category
    every h^q; for a lax morphism: its Cech map and its strict-vs-lax
    homotopy."""
    rng = random.Random(seed)
    scene = owner.scene
    if isinstance(owner, OneObjectLax):
        chains = [rand_a_class_chain(rng, owner.src, i % 2, max_len=1) for i in range(3)]
        outs = [f(owner, c) for c in chains for f in (cech_lax_map, strict_vs_lax_homotopy)]
        return [{I: ch.terms for I, ch in x.entries.items()} for x in outs]
    out = []
    for ch in _chains(rng, owner, count=2):
        out.append(hoch_d(ch).terms)
        for _, _, J in scene.atlas.extensions(ch.I):
            out.append(restrict_to(ch, J).terms)
            w = rand_form(rng, scene.atlas.ring(ch.I))
            out.append(pull_back(w, scene.atlas.res(ch.I, J), scene.atlas.ring(J)).terms)
        if isinstance(owner, MFCategory):
            triv = TrivializedCategory(scene, list(owner.mfs.values()))
            c = CechHochChain(owner, {ch.I: ch})
            for q in range(len(scene.atlas.chart_ids)):
                out.append({K: hc.terms for K, hc in hq_basis(q, c, triv).entries.items()})
    return out


def test_tables_die_with_their_owner():
    before = _module_containers()
    # references from objects that stay alive for the whole test
    keep = {
        (name, kind): OWNERS[kind](builtin_scene(name))
        for name in SCENE_NAMES
        for kind in OWNERS
    }
    want = {key: _signature(ph, f"{key}") for key, ph in keep.items()}
    assert all(owner._tables for owner in keep.values())
    for (name, kind), owner in keep.items():
        if kind != "lax":
            assert ("restrictor",) in owner._tables, (name, kind)
    endp = [{tag for tag, *_ in keep[name, "EndP"]._tables} for name in SCENE_NAMES]
    # SCENE-P1's EndP has no object on chart 1, so its h^q inserts nothing
    assert all({"hq-realize", "hq-walk"} <= tags for tags in endp)
    assert any({"hq-insert", "layouts"} <= tags for tags in endp)
    for name in SCENE_NAMES:
        assert {"realize", "head"} <= {tag for tag, *_ in keep[name, "lax"]._tables}
        # the lax descents are kept on the atlas, so they die with the scene
        assert keep[name, "lax"].scene.atlas._descents
    rng = random.Random("interleave")
    keys = sorted(keep)
    for _ in range(3):
        rng.shuffle(keys)
        scenes = {name: builtin_scene(name) for name in SCENE_NAMES}
        alive = []
        for key in keys:
            name, kind = key
            ph = OWNERS[kind](scenes[name])
            assert _signature(ph, f"{key}") == want[key], key
            if rng.random() < 0.5:
                alive.append(ph)  # interleave: some stay alive a while
            else:
                dead = weakref.ref(ph)
                del ph
                gc.collect()
                assert dead() is None, f"{key}: a table outlives its owner"
            ph = None
        dead_scenes = [weakref.ref(sc) for sc in scenes.values()]
        del scenes, alive
        gc.collect()
        assert all(ref() is None for ref in dead_scenes), "a table outlives its scene"
    assert _module_containers() == before


@pytest.mark.parametrize("name", SCENE_NAMES)
def test_restrictor_and_cochain_memo_match_their_definitions(name):
    # on a fresh scene: each presheaf's restrictor per (I, J) holds
    # ph.live(J) and the "restrict" slot table, whose slots restrict by
    # restrict_elem; the inverse Todd cochain's memo holds what
    # cech._restricted gives, and a cochain made from it, or from its
    # entries, starts with none
    before = _module_containers()
    scene = builtin_scene(name)
    rng = random.Random(f"restrictor-memo:{name}")
    for kind, make in sorted(PRESHEAVES.items()):
        ph = make(scene)
        for ch in _chains(rng, ph):
            for _, _, J in scene.atlas.extensions(ch.I):
                restrict_to(ch, J)
        restrictors = ph.table("restrictor")
        assert restrictors, kind
        # O_Y lives on no extension of a tuple of SCENE-P1 or SCENE-A2D
        assert any(table for live, table in restrictors.values() if live) or (
            kind == "O_Y" and not any(live for live, _ in restrictors.values())
        ), kind
        for (I, J), (live, table) in restrictors.items():
            assert live == ph.live(J)
            assert table is ph.table("restrict", I, J)
            ring = ph.ring(I)
            for (sym, mono), terms in table.items():
                want = restrict_elem(ph, {sym: ring.monomial(mono)}, I, J)
                assert terms == slot_terms(want), (kind, I, J, sym, mono)
    td = todd_inverse(scene)
    assert td._restrictions is None
    cones = [rand_cone_cochain(scene, rng, max_deg=1) for _ in range(3)]
    products = [bar_wedge(c, td) for c in cones]
    assert td._restrictions
    for (I, K), s in td._restrictions.items():
        assert s == _restricted(scene, FORM, td.entries[I], I, K)
    fresh = [Cochain(scene, FORM, td.entries), td.scale(1), -td, td + td, *products]
    assert all(c._restrictions is None for c in fresh)
    assert [bar_wedge(c, td) for c in cones] == products
    assert _module_containers() == before


class _Marker:
    """A weakly referable value, put into a memo to see when it dies."""


def test_restrictor_and_cochain_memo_die_with_their_owners():
    before = _module_containers()
    for name in SCENE_NAMES:
        scene = builtin_scene(name)
        rng = random.Random(f"memo-dies:{name}")
        td = todd_inverse(scene)
        bar_wedge(rand_cone_cochain(scene, rng, max_deg=1), td)
        line = CurvedLine(scene, 1)
        for ch in _chains(rng, line):
            for _, _, J in scene.atlas.extensions(ch.I):
                restrict_to(ch, J)
        assert td._restrictions and line.table("restrictor")
        markers = [_Marker(), _Marker()]
        td._restrictions["marker"] = markers[0]
        line.table("restrictor")["marker"] = markers[1]
        refs = [weakref.ref(x) for x in (*markers, line, scene)]
        del scene, td, line, ch, markers
        gc.collect()
        assert all(ref() is None for ref in refs), f"{name}: a memo outlives its owner"
    assert _module_containers() == before


def test_restrictors_make_no_reference_cycle():
    # a restrictor holds no reference back to its presheaf, so a presheaf
    # that keeps restrictors is freed as soon as its last reference goes,
    # with the cyclic collector off
    scene = builtin_scene("SCENE-P2")
    rng = random.Random("restrictor-cycle")
    gc.disable()
    try:
        for kind, make in sorted(PRESHEAVES.items()):
            ph = make(scene)
            for ch in _chains(rng, ph):
                for _, _, J in scene.atlas.extensions(ch.I):
                    restrict_to(ch, J)
            assert ph.table("restrictor"), kind
            ref = weakref.ref(ph)
            del ph, ch
            assert ref() is None, f"{kind}: a restrictor refers back to its presheaf"
    finally:
        gc.enable()


# the (cech, parts) of every Cech-Hochschild pass: cech_hoch_d,
# cech_part_d and twisted_hoch_d with all, d1 and d2 parts
HOCH_PASSES = (
    (True, ALL_PARTS), (True, None), (False, ALL_PARTS), (False, ("d1",)), (False, ("d2",))
)


def _fill_tuple_plans(scene, presheaves, rng):
    """Run every Cech pass on sampled cochains: each total differential of
    a form cochain, over the scene's plans, and each Cech-Hochschild pass
    of HOCH_PASSES on chains of each presheaf, over the presheaf's.
    Returns a function that runs them all again on the same draws."""
    draws = {
        OMEGA: rand_form_cochain, OMEGA_PLUS: rand_form_cochain, OMEGA_LOG: rand_log_cochain,
        OMEGA_Y: rand_yform_cochain, CONE: rand_cone_cochain,
    }
    forms = {kind: [draw(scene, rng, max_deg=1) for _ in range(3)] for kind, draw in draws.items()}
    chains = [rand_cech_hoch_chain(rng, ph, max_len=2) for ph in presheaves for _ in range(3)]

    def run():
        for kind, cs in forms.items():
            for c in cs:
                cech_total_d(c, kind)
        for c in chains:
            cech_hoch_d(c)
            cech_part_d(c)
            for parts in (ALL_PARTS, ("d1",), ("d2",)):
                twisted_hoch_d(c, parts)

    run()
    return run


def _plan_tables(ph) -> dict:
    """The presheaf's tables of tuple plans, one per (cech, parts)."""
    return {key[1:]: table for key, table in ph._tables.items() if key[0] == "cech-plan"}


@pytest.mark.parametrize("name", [*SCENE_NAMES, "pole-last"])
def test_tuple_plans_are_built_once_and_match_their_definitions(name):
    # on a fresh scene, every Cech pass keeps one plan per tuple on its
    # owner: form cochains on the scene, Hochschild chains on their
    # presheaf per (cech, parts).  A second round of the same passes adds
    # no plan and reads the same plan objects, and each plan holds what
    # its definition gives, sharing the restrictors, hoch_d plan tables
    # and restriction maps that their own owners keep.
    before = _module_containers()
    scene = load_scene(POLE1_FILE) if name == "pole-last" else builtin_scene(name)
    atlas = scene.atlas
    presheaves = [make(scene) for _, make in sorted(PRESHEAVES.items())]

    def snapshot():
        tables = [{k: dict(t) for k, t in _plan_tables(ph).items()} for ph in presheaves]
        return [dict(scene._cech_plans), *tables]

    again = _fill_tuple_plans(scene, presheaves, random.Random(f"plans:{name}"))
    kept = snapshot()
    assert kept[0] and all(set(tables) == set(HOCH_PASSES) for tables in kept[1:])
    again()
    assert snapshot() == kept, "a plan was built twice"
    assert all(scene._cech_plans[I] is plan for I, plan in kept[0].items())
    for I, plan in scene._cech_plans.items():
        assert plan == tuple((J, (-1) ** pos, atlas.res(I, J)) for _, pos, J in atlas.extensions(I))
        assert all(m is atlas.res(I, J) for J, _, m in plan)
    for ph, tables in zip(presheaves, kept[1:]):
        for (cech, parts), plans in _plan_tables(ph).items():
            assert plans
            for I, plan in plans.items():
                assert plan is tables[cech, parts][I]
                restrictions, plan_parts, hoch, add, sign = plan
                want = [(J, (-1) ** pos) for _, pos, J in atlas.extensions(I)] if cech else []
                assert [(J, sgn) for J, sgn, _ in restrictions] == want
                assert all(r is ph.table("restrictor")[I, J] for J, _, r in restrictions)
                assert plan_parts == parts
                assert hoch is (None if parts is None else ph.table("hoch_d-plan", I, parts))
                assert add is ph.ring(I).add_exp
                assert sign == (-1) ** (len(I) - 1)
    assert _module_containers() == before


def test_tuple_plans_die_with_their_owners_and_make_no_reference_cycle():
    # a plan holds no reference back to its scene or presheaf: with the
    # cyclic collector off, each owner is freed, with a marker put into
    # its plans, as soon as its last reference goes
    before = _module_containers()
    gc.disable()
    try:
        for name in SCENE_NAMES:
            scene = builtin_scene(name)
            presheaves = [make(scene) for _, make in sorted(PRESHEAVES.items())]
            _fill_tuple_plans(scene, presheaves, random.Random(f"plans-die:{name}"))
            scene._cech_plans["marker"] = _Marker()
            for ph in presheaves:
                assert set(_plan_tables(ph)) == set(HOCH_PASSES)
                ph.table("cech-plan", True, ALL_PARTS)["marker"] = _Marker()
            refs = [
                weakref.ref(x)
                for ph in presheaves
                for x in (ph, _plan_tables(ph)[True, ALL_PARTS]["marker"])
            ]
            del presheaves, ph
            assert all(ref() is None for ref in refs), f"{name}: a plan outlives its presheaf"
            refs = [weakref.ref(scene._cech_plans["marker"]), weakref.ref(scene)]
            del scene
            assert all(ref() is None for ref in refs), f"{name}: a plan outlives its scene"
    finally:
        gc.enable()
    assert _module_containers() == before


def _fresh_rewrite(scene, I, J):
    """How dx_I/x_I reads on U_J, derived as restriction derived it on
    every call before the scene kept it."""
    x_old = scene.atlas.res(I, J)(scene.ctx(I).x)
    ctx_J = scene.ctx(J)
    if ctx_J.pole is None:
        return dlog_of(x_old), False
    u = _loc_divide(x_old, ctx_J.x)
    return (None if u.is_one() else dlog_of(u)), True


def _fill_scene_tables(scene, seed):
    """Restrict log cochains (the pole rewrites) and run hkr_A on basis
    chains (the dlog of each transition unit)."""
    rng = random.Random(seed)
    for _ in range(50):
        cech_total_d(rand_log_cochain(scene, rng, max_deg=1), OMEGA_LOG)
        if len(scene._pole_rewrites) > 1:
            break
    for _, chain in basis_a_chains(scene, max_len=1):
        hkr_A(chain)


@pytest.mark.parametrize("name", [*SCENE_NAMES, "pole-last"])
def test_scene_keeps_each_pole_rewrite_and_unit_dlog(name):
    scene = load_scene(POLE1_FILE) if name == "pole-last" else builtin_scene(name)
    fresh = load_scene(POLE1_FILE) if name == "pole-last" else builtin_scene(name)
    _fill_scene_tables(scene, f"rewrites:{name}")
    assert scene._pole_rewrites and scene._unit_dlogs
    assert not (fresh._pole_rewrites or fresh._unit_dlogs), "a table is served to another scene"
    for (I, J), kept in scene._pole_rewrites.items():
        assert kept == _fresh_rewrite(fresh, I, J), (I, J)
    for (I, K), kept in scene._unit_dlogs.items():
        assert K[1:] == I and K[0] < I[0]
        assert kept == dlog_of(fresh.atlas.unit(I[0], K[0], K)), (I, K)
    # the basis-form pullbacks of every restriction stay keyed (K, e)
    for (I, J), m in scene.atlas._res_cache.items():
        for k, e in m.form_images:
            assert list(k) == sorted(set(k)) and all(0 <= v < m.src.nvars for v in k)
            assert len(e) == m.src.nvars and all(type(x) is int for x in e), (I, J)


def test_failed_pole_rewrite_is_not_kept():
    """On a scene whose divisor is x on chart 0 and y on chart 1 over an
    overlap that inverts neither, x_1|_01 / x_01 = y / x is no unit: the
    restriction of a log form with a residue from (1,) raises each time,
    and keeps nothing."""
    chart = lambda cid, x, g: {"id": cid, "vars": ["x", "y"], "x": x, "f": "x*y", "g": g}
    scene = scene_from_dict({
        "charts": [chart(0, "x", "y"), chart(1, "y", "x")],
        "overlaps": [{
            "tuple": [0, 1],
            "vars": ["x", "y"],
            "res": {"0": {"x": "x", "y": "y"}, "1": {"x": "x", "y": "y"}},
        }],
    })
    ctx = scene.ctx((1,))
    lf = LogForm(ctx, Form.zero(ctx.ring), Form.one(ctx.ring))
    assert not lf.residue.is_zero()
    res = scene.atlas.res((1,), (0, 1))
    for _ in range(2):
        with pytest.raises(UnsupportedScene, match="incompatible"):
            restrict_logform_into(scene, {}, {}, lf, (1,), (0, 1), res, 1)
        with pytest.raises(UnsupportedScene, match="incompatible"):
            _pole_rewrite(scene, (1,), (0, 1))
        assert not scene._pole_rewrites
    # a log form without a residue needs no rewrite
    regular = LogForm(ctx, Form.one(ctx.ring), Form.zero(ctx.ring))
    reg: dict = {}
    restrict_logform_into(scene, reg, {}, regular, (1,), (0, 1), res, 1)
    assert reg and not scene._pole_rewrites


def test_scene_tables_die_with_their_scene():
    before = _module_containers()
    for name in SCENE_NAMES:
        scene = builtin_scene(name)
        _fill_scene_tables(scene, f"die:{name}")
        assert scene._pole_rewrites and scene._unit_dlogs
        ref = weakref.ref(scene)
        del scene
        gc.collect()
        assert ref() is None, f"{name}: the pole rewrites or unit dlogs outlive their scene"
    assert _module_containers() == before


@pytest.mark.parametrize("name", ["SCENE-A2C", "SCENE-P2", "SCENE-A2D"])
def test_hq_keeps_insertions_only_for_q_at_least_one(name):
    """h^0 inserts nothing and keeps no insertion; for q >= 1 each kept
    insertion g^{-1}_{ab} (a = charts[s + 1], b = charts[s]) is the
    diagonal u_{a,i0}^{-twist} u_{b,i0}^{twist} over K."""
    scene = builtin_scene(name)
    cat = end_algebra(scene, build_P(scene))
    triv = TrivializedCategory(scene, list(cat.mfs.values()))
    rng = random.Random(f"hq-insert:{name}")
    chains = [rand_cech_hoch_chain(rng, cat, max_len=2) for _ in range(3)]
    for c in chains:
        hq_basis(0, c, triv)
    assert not any(tag == "hq-insert" for tag, *_ in cat._tables)
    for c in chains:
        for q in range(1, len(scene.atlas.chart_ids)):
            hq_basis(q, c, triv)
    kept = {key[1:]: table for key, table in cat._tables.items() if key[0] == "hq-insert"}
    assert any(kept.values())
    atlas = scene.atlas
    for (I, K), table in kept.items():
        charts = K[: len(K) - len(I) + 1]
        i0 = I[0]
        u = lambda a, n: atlas.ring(K).one() if a == i0 else atlas.unit(a, i0, K) ** n
        for (s, obj), terms in table.items():
            a, b = charts[s + 1], charts[s]
            mf = cat.mfs[obj]
            want = {
                ("E", obj, obj, r, r): u(a, -mf.twists[r]) * u(b, mf.twists[r])
                for r in range(mf.rank)
            }
            assert terms == slot_terms(want), (I, K, s, obj)


def _descents_by_definition(atlas, I, q):
    """Every ordered choice J of q charts outside I whose partial unions are
    atlas tuples, with its levels and the sign of sorting J + I, derived
    as `lax._descents` derived them on every call before the atlas kept
    them."""
    out = []
    for J in itertools.permutations([j for j in atlas.chart_ids if j not in I], q):
        levels = [I or GLOBAL] + [tuple(sorted(I + J[:s])) for s in range(1, q + 1)]
        if all(atlas.has_tuple(T) for T in levels[1:]):
            seq = J + I
            inversions = sum(a > b for i, a in enumerate(seq) for b in seq[i + 1 :])
            out.append(((-1) ** inversions, tuple(levels)))
    return tuple(out)


@pytest.mark.parametrize("name", SCENE_NAMES + ("SCENE-A2C",))
def test_kept_walk_tables_match_their_definitions(name):
    """The layouts kept on a presheaf, the h^q walk kept on the category per
    (I, K) with its realizations, and the lax descents kept on the atlas
    per (I, q), each against its definition on a fresh scene."""
    scene, fresh = builtin_scene(name), builtin_scene(name)
    cat = end_algebra(scene, build_P(scene))
    triv = TrivializedCategory(scene, list(cat.mfs.values()))
    alg = SheafAlgebraA(scene)
    lax_a, lax_id, tau = coboundary_lax(scene, alg, unit_family(scene))
    rng = random.Random(f"walk-tables:{name}")
    for c in [rand_cech_hoch_chain(rng, cat, max_len=2) for _ in range(3)]:
        for q in range(len(scene.atlas.chart_ids)):
            hq_basis(q, c, triv)
    for c in [rand_a_class_chain(rng, alg, i % 2, max_len=1) for i in range(3)]:
        cech_lax_map(lax_a, c, check=False)
        iso_homotopy(lax_a, lax_id, tau, c)
        strict_vs_lax_homotopy(lax_id, c)
    walks = cat.table("hq-walk")
    assert walks and all(_hq_walk(cat, I, K) is walk for (I, K), walk in walks.items())
    atlas = fresh.atlas
    for (tag, *key), table in cat._tables.items():
        if tag != "hq-realize":
            continue
        I, K = key
        assert (I, K) in walks
        charts, i0 = K[: len(K) - len(I) + 1], I[0]
        for (sym, mono, depth), terms in table.items():
            if depth < 0:  # the head
                chart, n = charts[0], -cat.mfs[sym[2]].twists[sym[4]]
            else:
                chart, n = charts[depth], cat.twist_shift(sym)
            u = atlas.unit(chart, i0, K) ** n if chart != i0 else atlas.ring(K).one()
            lp = atlas.res(I, K)(atlas.ring(I).monomial(mono))
            assert terms == slot_terms({sym: u * lp}), (I, K, sym, mono, depth)
    layouts = {**cat.table("layouts"), **alg.table("layouts")}
    assert layouts
    for (path, parities, q), entry in layouts.items():
        assert q >= 1 and entry == _layouts(path, parities, q)
    assert any(q >= 2 for _, q in scene.atlas._descents)
    for (I, q), descents in scene.atlas._descents.items():
        assert descents == _descents_by_definition(atlas, I, q), (I, q)
    assert not fresh.atlas._descents, "the descents are served to another scene"


@pytest.mark.parametrize("name", ["SCENE-A2C", "SCENE-A2D"])
def test_lax_keeps_heads_and_slot_terms_only_of_its_own_data(name):
    """A lax morphism keeps each realization with its slot terms, and each
    head alpha(I, K) * (realization at K) of its insertion operators.  The
    heads of iso_homotopy, which its tau fixes, and the realizations and
    heads of a global chain live for one call: a second tau on warm
    morphisms gives what new morphisms give, and restriction_htilde keeps
    no realization or head on the morphism."""
    scene = builtin_scene(name)
    alg = SheafAlgebraA(scene)
    w = unit_family(scene)
    lax_a, lax_id, tau = coboundary_lax(scene, alg, w)
    rng = random.Random(f"lax-heads:{name}")
    chains = [rand_a_class_chain(rng, alg, i % 2, max_len=1) for i in range(3)]
    for c in chains:
        iso_homotopy(lax_a, lax_id, tau, c)
    assert not any(tag == "head" for tag, *_ in lax_a._tables)
    tau2 = lambda T: {"1": w[T] * w[T]}
    for c in chains:
        fresh_a, fresh_id, _ = coboundary_lax(scene, alg, w)
        assert iso_homotopy(lax_a, lax_id, tau2, c) == iso_homotopy(fresh_a, fresh_id, tau2, c)
        cech_lax_map(lax_a, c, check=False)
    heads = {key[1:]: t for key, t in lax_a._tables.items() if key[0] == "head"}
    assert any(heads.values())
    for (I, K), table in heads.items():
        realized = lax_a.table("realize", I)
        for (sym, mono), terms in table.items():
            elem, _ = realized[sym, mono, K, K]
            assert terms == slot_terms(elem_mul(alg, K, lax_a.alpha_elem(I, K), elem))
    for key, table in lax_a._tables.items():
        if key[0] == "realize":
            assert all(terms == slot_terms(elem) for elem, terms in table.values())
    line = CurvedLine(scene, -1)
    glax = coboundary_lax(scene, line, w)[0]
    model = GlobalModel(scene, line, ("1",), lambda sym: {})
    gring = scene.global_ring
    x = gring.var(gring.variables[0])
    g = make_chain(model, GLOBAL, ("*", "*"), [{"1": gring.const(3)}, {"1": x}])
    assert not restriction_htilde(glax, model, g).is_zero()
    assert {tag for tag, *_ in glax._tables} <= {"alpha", "alpha_inv", "inserted"}


ROUTE_FIXTURES = ("build_P", "end_algebra", "can_map", "todd_inverse")


def test_route_fixtures_are_built_once_per_scene(monkeypatch):
    calls = dict.fromkeys(ROUTE_FIXTURES, 0)
    for name in ROUTE_FIXTURES:
        fn = getattr(diagrams, name)

        def counted(*args, _name=name, _fn=fn, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(diagrams, name, counted)
    for n in (1, 2):
        scene = builtin_scene("SCENE-P1")
        for _, chain in basis_a_chains(scene):
            trace_route(scene, chain)
            for sign in (1, -1):
                residue_route(scene, chain, sign)
        diagrams.pushforward_unit(scene)
        assert calls == dict.fromkeys(ROUTE_FIXTURES, n)


def _fresh_routes(scene, chain, sign):
    """Both routes from fixtures built for this call alone."""
    endp = end_algebra(scene, build_P(scene))
    realized = apply_morphism(chain, can_map(scene, endp), endp)
    out_len = min(scene.trunc, max_form_degree(scene) + 1)
    top = hkr_xf(phi(realized, out_len, CurvedLine(scene, -1)))
    bottom = cone_delta(bar_wedge(hkr_A(chain), todd_inverse(scene).scale(Fraction(sign))))
    return top, bottom


@pytest.mark.parametrize("name", SCENE_NAMES)
def test_routes_on_warm_scene_match_fresh_fixtures(name):
    scene = builtin_scene(name)
    chains = [c for _, c in basis_a_chains(scene, max_len=2)]
    for chain in chains:  # warm the context and its tables
        trace_route(scene, chain)
    assert any(scene.routes().can.table(I) for I in scene.atlas.tuples)
    for chain in chains[::3]:
        for sign in (1, -1):
            top, bottom = _fresh_routes(scene, chain, sign)
            assert trace_route(scene, chain) == top
            assert residue_route(scene, chain, sign) == bottom


def test_route_context_dies_with_its_scene():
    before = _module_containers()
    for name in SCENE_NAMES:
        scene = builtin_scene(name)
        for _, chain in basis_a_chains(scene, max_len=1):
            trace_route(scene, chain)
            residue_route(scene, chain, -1)
        routes = scene.routes()
        assert routes is scene.routes()
        assert any(routes.can.table(I) for I in scene.atlas.tuples)
        refs = [weakref.ref(x) for x in (scene, routes, routes.can, routes.endp, routes.line)]
        del scene, routes, chain
        gc.collect()
        assert all(ref() is None for ref in refs), f"{name}: the route context outlives its scene"
    assert _module_containers() == before


COMPLEXES = (OMEGA, OMEGA_Y, CONE)


def _cells(scene, kind, D) -> set:
    """The (tag, I, K) of the window-D keys: one d(dx_K) table each."""
    return {key[:3] for key in homology._window_keys(scene, kind, D)}


@pytest.mark.parametrize("name", all_builtin_names())
def test_homology_on_warm_scene_matches_fresh_scene(name):
    runs = [(kind, D) for kind in COMPLEXES for D in (0, 1)]
    want = {(kind, D): homology_dims(builtin_scene(name), kind, D) for kind, D in runs}
    warm = builtin_scene(name)
    rng = random.Random(f"warm-homology:{name}")
    for _ in range(2):  # the complexes interleaved on one scene, cold then warm
        rng.shuffle(runs)
        for kind, D in runs:
            assert homology_dims(warm, kind, D) == want[kind, D], (kind, D)
    assert set(warm._windows) == set(COMPLEXES)


def test_warm_homology_makes_no_cech_total_d_calls(monkeypatch):
    calls = [0]
    fn = homology.cech_total_d

    def counted(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(homology, "cech_total_d", counted)
    scene = builtin_scene("SCENE-A2D")
    for kind in COMPLEXES:
        calls[0] = 0
        homology_dims(scene, kind, 1)
        assert calls[0] == len(_cells(scene, kind, 2)) > 0
        calls[0] = 0
        for D in (0, 1, 0):  # any window the kept one holds
            homology_dims(scene, kind, D)
        assert calls[0] == 0, kind
    # the unit lies in window 1, so its differential is a boundary there;
    # the boundary test assembles window 1 for itself and keeps nothing
    kept = dict(scene._windows)
    assert is_boundary_within_window(fn(unit_cochain(scene, FORM), OMEGA), OMEGA, 1)
    assert calls[0] == len(_cells(scene, OMEGA, 1))
    assert scene._windows == kept and all(scene._windows[k] is kept[k] for k in kept)
    calls[0] = 0
    homology_dims(scene, OMEGA, 1)
    assert calls[0] == 0


def test_homology_tables_die_with_their_scene():
    """The scene keeps one dims table per complex, for the largest window
    asked so far: a list of (H_even, H_odd) int pairs, one per window
    size, and no d(dx_K) table, basis, matrix or echelon.  A larger window
    replaces the table, and the tables die with their scene."""
    before = _module_containers()
    for name in SCENE_NAMES:
        scene = builtin_scene(name)
        for kind in COMPLEXES:
            homology_dims(scene, kind, 0)
        replaced = dict(scene._windows)
        for kind in COMPLEXES:
            homology_dims(scene, kind, 1)
            homology_dims(scene, kind, 0)
        assert set(scene._windows) == set(COMPLEXES)
        for kind, dims in scene._windows.items():
            assert dims is not replaced[kind] and dims[:2] == replaced[kind]
            assert type(dims) is list and len(dims) == 3
            assert all(type(pair) is tuple and [type(h) for h in pair] == [int, int] for pair in dims)
        fresh = builtin_scene(name)
        assert not fresh._windows, "a window is served to another scene"
        ref = weakref.ref(scene)
        del scene
        gc.collect()
        assert ref() is None, f"{name}: the homology tables outlive their scene"
    assert _module_containers() == before


@pytest.mark.parametrize("name", SCENE_NAMES)
def test_oracle_does_not_fill_the_table(name):
    scene = builtin_scene(name)
    for kind in COMPLEXES:
        oracle_homology_dims(scene, kind, 1)
    assert scene._windows == {}


@pytest.mark.parametrize("name", all_builtin_names())
def test_window_sweep_on_warm_scene_matches_fresh_scenes(name, monkeypatch):
    """Windows 0..3 then 3..0 on one scene, against a fresh scene per call.
    Each window built on the way up (1, 2, 3 and 4) builds each (tag, I, K)
    table once; the way down reads the kept dims of window 4 and builds no
    table and expands no column."""
    up, down = (0, 1, 2, 3), (3, 2, 1, 0)
    want = {(kind, D): homology_dims(builtin_scene(name), kind, D) for kind in COMPLEXES for D in up}
    tables, expanded = [], [0]
    dtable, expand = homology._dtable, homology._expand

    def counted_dtable(scene, kind, key):
        tables.append(key[:3])
        return dtable(scene, kind, key)

    def counted_expand(table, m):
        expanded[0] += 1
        return expand(table, m)

    monkeypatch.setattr(homology, "_dtable", counted_dtable)
    monkeypatch.setattr(homology, "_expand", counted_expand)
    warm = builtin_scene(name)
    for kind in COMPLEXES:
        for D in up:
            assert homology_dims(warm, kind, D) == want[kind, D], (kind, D)
        assert len(warm._windows[kind]) == 5
        assert Counter(tables) == dict.fromkeys(_cells(warm, kind, 4), len(up)), kind
        tables.clear()
        expanded[0] = 0
        for D in down:
            assert homology_dims(warm, kind, D) == want[kind, D], (kind, D)
        assert tables == [] and expanded[0] == 0, kind


def _probes(scene, kind, D) -> list:
    """Cochains to test for boundaries in window D: d of the window's last
    key with a nonzero image (a boundary there), the basis cochains of the
    window's last key and of the next window's last key, and d of the
    latter."""
    keys = homology._window_keys(scene, kind, D)
    last = [homology._basis_cochain(scene, kind, keys[-1])]
    hit = [k for k in keys if homology._expand(homology._dtable(scene, kind, k), k[3])]
    if hit:
        last.append(cech_total_d(homology._basis_cochain(scene, kind, hit[-1]), kind))
    beyond = homology._basis_cochain(scene, kind, homology._window_keys(scene, kind, D + 1)[-1])
    return last + [beyond, cech_total_d(beyond, kind)]


@pytest.mark.parametrize("name", all_builtin_names())
def test_boundaries_below_the_kept_window_match_fresh_scene(name):
    """On a scene that kept the dims of window 4, each boundary verdict at
    windows 0..3 is a fresh scene's.  Each call assembles window D for
    itself, so neither scene's kept dims change and the fresh scene keeps
    none."""
    warm = builtin_scene(name)
    verdicts = set()
    for kind in COMPLEXES:
        homology_dims(warm, kind, 3)
        kept = warm._windows[kind]
        assert len(kept) == 5
        for D in range(4):
            fresh = builtin_scene(name)
            for c, c_fresh in zip(_probes(warm, kind, D), _probes(fresh, kind, D)):
                got = is_boundary_within_window(c, kind, D)
                assert got == is_boundary_within_window(c_fresh, kind, D), (kind, D)
                assert fresh._windows == {}
                verdicts.add(got)
        assert warm._windows[kind] is kept
    assert verdicts == {True, False}
