import random
from fractions import Fraction

import pytest

from cechmf.cech import CONE, FORM, OMEGA, OMEGA_Y, Cochain, cech_total_d, unit_cochain
from cechmf.forms import Form
from cechmf.homology import (
    _window_keys,
    expand_cochain,
    homology_dims,
    is_boundary_within_window,
    _basis_cochain,
)
from cechmf.scenes_builtin import all_builtin_names, builtin_scene
from cechmf.suites import oracle_homology_dims

A1 = builtin_scene("SCENE-A1")
A2 = builtin_scene("SCENE-A2")
P1 = builtin_scene("SCENE-P1")

# frozen expected values, confirmed by the brute-force oracle in
# test_acceptance before freezing
GOLDEN = {"SCENE-A1": (0, 1), "SCENE-A2": (1, 0), "SCENE-P1": (2, 0)}


@pytest.mark.parametrize("scene,name", [(A1, "SCENE-A1"), (A2, "SCENE-A2"), (P1, "SCENE-P1")])
def test_omega_homology_dims(scene, name):
    out = homology_dims(scene, OMEGA, D=3)
    assert (out["even"], out["odd"]) == GOLDEN[name]
    assert out["stable"]


def test_homology_invariant_under_window_growth():
    for scene in (A1, A2, P1):
        a = homology_dims(scene, OMEGA, D=2)
        b = homology_dims(scene, OMEGA, D=3)
        if a["stable"]:
            assert (a["even"], a["odd"]) == (b["even"], b["odd"])


def test_y_homology_of_p1_is_point():
    out = homology_dims(P1, OMEGA_Y, D=3)
    # Y is one point: (1, 0)
    assert (out["even"], out["odd"]) == (1, 0)
    assert out["stable"]


def test_cone_homology_matches_y():
    # the cone complex is quasi-isomorphic to divisor forms
    for scene in (A2, P1):
        cone = homology_dims(scene, CONE, D=3)
        y = homology_dims(scene, OMEGA_Y, D=3)
        assert (cone["even"], cone["odd"]) == (y["even"], y["odd"])


def test_boundary_detection():
    ring = A2.atlas.ring((0,))
    # df ^ dx = -x dx^dy... a boundary of the OMEGA complex
    w = Cochain(A2, FORM, {(0,): Form(ring, {(0,): ring.one()})})
    b = cech_total_d(w, OMEGA)
    assert is_boundary_within_window(b, OMEGA, 3)
    # dx^dy generates H_even and is not a boundary
    nz = Cochain(A2, FORM, {(0,): Form(ring, {(0, 1): ring.one()})})
    assert not is_boundary_within_window(nz, OMEGA, 3)


def test_expand_roundtrip():
    keys = _window_keys(A2, OMEGA, 2)
    for key in keys[:10]:
        c = _basis_cochain(A2, OMEGA, key)
        assert expand_cochain(c, OMEGA) == {key: Fraction(1)}


@pytest.mark.parametrize("D", [0, 1])
@pytest.mark.parametrize("kind", [OMEGA, OMEGA_Y, CONE])
@pytest.mark.parametrize("name", all_builtin_names())
def test_engine_matches_oracle_at_both_windows(name, kind, D):
    scene = builtin_scene(name)
    out = homology_dims(scene, kind, D)
    here = oracle_homology_dims(scene, kind, D)
    there = oracle_homology_dims(scene, kind, D + 1)
    assert (out["even"], out["odd"]) == (here["even"], here["odd"])
    assert (out["even_next"], out["odd_next"]) == (there["even"], there["odd"])
    assert out["stable"] == (here == there)


def _top_form_on_every_chart(scene):
    entries = {}
    for i in scene.atlas.chart_ids:
        ring = scene.atlas.ring((i,))
        entries[(i,)] = Form(ring, {(0, 1): ring.one()})
    return Cochain(scene, FORM, entries)


@pytest.mark.parametrize(
    "name,D,generator",
    [
        # f = 0: the unit is a cocycle, the class of H^0(P^2, O)
        ("SCENE-P2", 1, lambda sc: unit_cochain(sc, FORM)),
        # X = A^2 on two charts, H_even spanned by dx^dy as on SCENE-A2
        ("SCENE-A2D", 2, _top_form_on_every_chart),
    ],
)
def test_boundary_detection_on_multi_chart_scenes(name, D, generator):
    scene = builtin_scene(name)
    keys = _window_keys(scene, OMEGA, D)
    rng = random.Random(7)
    for _ in range(4):
        v = _basis_cochain(scene, OMEGA, rng.choice(keys))
        v = v + _basis_cochain(scene, OMEGA, rng.choice(keys)).scale(Fraction(-3, 2))
        assert is_boundary_within_window(cech_total_d(v, OMEGA), OMEGA, D)
    g = generator(scene)
    assert cech_total_d(g, OMEGA).is_zero()
    assert not is_boundary_within_window(g, OMEGA, D)
    # a generator plus a boundary is still not a boundary
    assert not is_boundary_within_window(g + cech_total_d(v, OMEGA), OMEGA, D)
