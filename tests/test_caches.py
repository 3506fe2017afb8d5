"""The tabulated structure gives the uncached answer, and dies with its owner.

`forms.map_form` keeps the pullback of dx_K on the restriction's RingMap,
and `hochschild` keeps the slot terms of restricted basis elements and of
the curvature, d and composition of basis symbols on the presheaf, and
those of the images of `can` on the morphism.  The scene keeps the
fixtures of the trace-vs-residue square (`diagrams.RouteCtx`) and, for
windowed homology, per complex the assembled window of the largest D
asked so far (`Scene._windows`), which serves every smaller window with
no cech_total_d run, no column expanded again and no elimination: a
window build makes the d(dx_K) table of each (tag, I, K) once, drops the
tables with its columns expanded, and eliminates each parity's matrix
once, keeping the echelon that homology calls and boundary tests read.  These tests compare each table and smaller-window
answer with the computation it replaces, and check that a table is never
served to an object other than its owner, also after the owner is freed
and its memory reused.
"""

import gc
import importlib
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
    OYAlgebra,
    SheafAlgebraA,
    build_P,
    can_map,
    end_algebra,
    restrict_elem,
)
from cechmf.cech import (
    CONE,
    FORM,
    OMEGA,
    OMEGA_Y,
    bar_wedge,
    cech_total_d,
    todd_inverse,
    unit_cochain,
)
from cechmf.diagrams import max_form_degree, residue_route, trace_route
from cechmf.forms import Form, d_of, map_form
from cechmf.hkr import hkr_A, hkr_xf
from cechmf.hochschild import HochChain, apply_morphism, hoch_d, map_slots, restrict_chain
from cechmf.homology import homology_dims, is_boundary_within_window
from cechmf.rand import rand_form, rand_hoch_chain
from cechmf.scenes_builtin import all_builtin_names, builtin_scene
from cechmf.ses import cone_delta
from cechmf.suites import basis_a_chains, oracle_homology_dims
from cechmf.trace import phi

SCENE_NAMES = ("SCENE-P1", "SCENE-P2", "SCENE-A2D")

PRESHEAVES = {
    "A": SheafAlgebraA,
    "O_f": lambda sc: CurvedLine(sc, 1),
    "O_-f": lambda sc: CurvedLine(sc, -1),
    "EndP": lambda sc: end_algebra(sc, build_P(sc)),
    "O_Y": OYAlgebra,
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
            # the first call fills m.dx_pullbacks, the second reads it
            assert map_form(w, m, scene.atlas.ring(J)) == want
            assert map_form(w, m, scene.atlas.ring(J)) == want
    assert any(scene.atlas.res(I, J).dx_pullbacks for I, J in _pairs(scene) if I != J)


@pytest.mark.parametrize("kind", sorted(PRESHEAVES))
@pytest.mark.parametrize("name", SCENE_NAMES)
def test_restrict_chain_matches_fresh_restrict_elem(name, kind):
    ph = PRESHEAVES[kind](builtin_scene(name))
    rng = random.Random(f"restrict:{name}:{kind}")
    chains = _chains(rng, ph)
    for _ in range(2):  # cold, then warm
        for ch in chains:
            for _, _, J in ph.scene.atlas.extensions(ch.I):
                got = restrict_chain(ch, J)
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


def _module_containers():
    """Every module-level dict, set and list of the package, with its size."""
    out = {}
    for info in pkgutil.iter_modules(cechmf.__path__):
        mod = importlib.import_module(f"cechmf.{info.name}")
        for attr, value in vars(mod).items():
            if isinstance(value, (dict, set, list)) and not attr.startswith("__"):
                out[info.name, attr] = len(value)
    return out


def _signature(ph, seed):
    """What the tables serve for ph on seeded chains: hoch_d, restrict_chain
    and map_form along every restriction the chains meet."""
    rng = random.Random(seed)
    scene = ph.scene
    out = []
    for ch in _chains(rng, ph, count=2):
        out.append(hoch_d(ch).terms)
        for _, _, J in scene.atlas.extensions(ch.I):
            out.append(restrict_chain(ch, J).terms)
            w = rand_form(rng, scene.atlas.ring(ch.I))
            out.append(map_form(w, scene.atlas.res(ch.I, J), scene.atlas.ring(J)).terms)
    return out


def test_tables_die_with_their_owner():
    before = _module_containers()
    # references from objects that stay alive for the whole test
    keep = {
        (name, kind): PRESHEAVES[kind](builtin_scene(name))
        for name in SCENE_NAMES
        for kind in PRESHEAVES
    }
    want = {key: _signature(ph, f"{key}") for key, ph in keep.items()}
    rng = random.Random("interleave")
    keys = sorted(keep)
    for _ in range(3):
        rng.shuffle(keys)
        scenes = {name: builtin_scene(name) for name in SCENE_NAMES}
        alive = []
        for key in keys:
            name, kind = key
            ph = PRESHEAVES[kind](scenes[name])
            assert _signature(ph, f"{key}") == want[key], key
            if rng.random() < 0.5:
                alive.append(ph)  # interleave: some stay alive a while
            else:
                dead = weakref.ref(ph)
                del ph
                gc.collect()
                assert dead() is None, f"{key}: a table outlives its presheaf"
            ph = None
        dead_scenes = [weakref.ref(sc) for sc in scenes.values()]
        del scenes, alive
        gc.collect()
        assert all(ref() is None for ref in dead_scenes), "a table outlives its scene"
    assert _module_containers() == before


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
    # the unit lies in window 1, so its differential is a boundary there
    assert is_boundary_within_window(fn(unit_cochain(scene, FORM), OMEGA), OMEGA, 1)
    assert calls[0] == 0


def test_homology_tables_die_with_their_scene():
    """The scene keeps one window per complex, the largest asked so far,
    and no d(dx_K) table; a window it replaces, and every window it keeps,
    dies with it."""
    before = _module_containers()
    for name in SCENE_NAMES:
        scene = builtin_scene(name)
        for kind in COMPLEXES:
            homology_dims(scene, kind, 0)
        replaced = [weakref.ref(wd) for wd in scene._windows.values()]
        for kind in COMPLEXES:
            homology_dims(scene, kind, 1)
            homology_dims(scene, kind, 0)
        assert set(scene._windows) == set(COMPLEXES)
        assert all(wd.D == 2 for wd in scene._windows.values())
        assert all(set(vars(wd)) == {"D", "basis", "ends", "ambient", "matrix", "echelon"} for wd in scene._windows.values())
        fresh = builtin_scene(name)
        assert not fresh._windows, "a window is served to another scene"
        kept = [weakref.ref(wd) for wd in scene._windows.values()]
        gc.collect()
        assert all(ref() is None for ref in replaced), f"{name}: a replaced window outlives its replacement"
        ref = weakref.ref(scene)
        del scene
        gc.collect()
        assert ref() is None, f"{name}: the homology tables outlive their scene"
        assert all(ref() is None for ref in kept), f"{name}: a kept window outlives its scene"
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
    table once; the way down reads the kept window 4 and builds no table
    and expands no column."""
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
        assert warm._windows[kind].D == 4
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
    """On a scene that kept window 4, each boundary verdict at windows 0..3
    is a fresh scene's, which assembles window D + 1 for a verdict at D."""
    warm = builtin_scene(name)
    verdicts = set()
    for kind in COMPLEXES:
        homology_dims(warm, kind, 3)
        kept = warm._windows[kind]
        assert kept.D == 4
        for D in range(4):
            fresh = builtin_scene(name)
            for c, c_fresh in zip(_probes(warm, kind, D), _probes(fresh, kind, D)):
                got = is_boundary_within_window(c, kind, D)
                assert got == is_boundary_within_window(c_fresh, kind, D), (kind, D)
                assert fresh._windows[kind].D == D + 1
                verdicts.add(got)
        assert warm._windows[kind] is kept
    assert verdicts == {True, False}
