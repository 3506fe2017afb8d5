"""The tabulated structure gives the uncached answer, and dies with its owner.

`forms.map_form` keeps the pullback of dx_K on the restriction's RingMap,
and `hochschild` keeps the slot terms of restricted basis elements and of
the curvature, d and composition of basis symbols on the presheaf.  These
tests compare each table with the computation it replaces, and check that
a table is never served to an object other than its owner, also after
the owner is freed and its memory reused.
"""

import gc
import importlib
import pkgutil
import random
import weakref

import pytest

import cechmf
from cechmf.cdg import CurvedLine, OYAlgebra, SheafAlgebraA, build_P, end_algebra, restrict_elem
from cechmf.forms import Form, d_of, map_form
from cechmf.hochschild import HochChain, hoch_d, map_slots, restrict_chain
from cechmf.rand import rand_form, rand_hoch_chain
from cechmf.scenes_builtin import builtin_scene

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
