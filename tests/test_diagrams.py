import itertools
import random

import pytest

from cechmf.cdg import SheafAlgebraA
from cechmf.cech import FORM, OMEGA, Cochain, bar_wedge, cech_total_d
from cechmf.diagrams import (
    pushforward_unit,
    trace_route,
    residue_route,
    unit_a_chain,
)
from cechmf.forms import Form
from cechmf.hkr import hkr_A
from cechmf.hochschild import CechHochChain, make_chain
from cechmf.homology import _basis_cochain, _window_keys, is_boundary_within_window
from cechmf.scenes_builtin import builtin_scene
from cechmf.ses import cone_delta
from cechmf.suites import basis_a_chains

SCENES = {n: builtin_scene(n) for n in ("SCENE-A1", "SCENE-A2", "SCENE-P1")}


@pytest.mark.parametrize("name", list(SCENES))
def test_diagram1_strict_on_short_basis_chains(name):
    # full length <= 3 coverage lives in the acceptance suite; here length <= 2
    scene = SCENES[name]
    works = {1: True, -1: True}
    seen = 0
    for eps_class, c in basis_a_chains(scene, max_len=2):
        seen += 1
        top = trace_route(scene, c)
        for sign in (1, -1):
            if works[sign] and top != residue_route(scene, c, sign):
                works[sign] = False
    assert seen > 0
    assert works[-1], "the minus Todd sign must make the square commute"
    assert not works[1], "the plus Todd sign must fail somewhere"


@pytest.mark.parametrize(
    "name", ["SCENE-A1", "SCENE-A2", "SCENE-P1", "SCENE-P2", "SCENE-A2C", "SCENE-A2D"]
)
def test_residue_route_is_odd_in_the_todd_sign(name):
    # residue_route applies the sign to its result; bar_wedge and
    # cone_delta are linear, so that is the route through the negated Todd
    # cochain on every basis chain
    scene = SCENES.get(name) or builtin_scene(name)
    minus_todd = scene.routes().todd.scale(-1)
    nonzero = 0
    for _, c in basis_a_chains(scene):
        plus = residue_route(scene, c, 1)
        assert residue_route(scene, c, -1) == -plus
        assert cone_delta(bar_wedge(hkr_A(c), minus_todd)) == -plus
        nonzero += not plus.is_zero()
    assert nonzero > 0


def test_diagram1_example_on_unit():
    scene = SCENES["SCENE-A2"]
    ring = scene.atlas.ring((0,))
    chain = unit_a_chain(scene)
    top, bottom = trace_route(scene, chain), residue_route(scene, chain, -1)
    expected = Form(ring, {(0, 1): ring.const(-1)})  # dy^dx
    assert top == bottom
    assert top.entries == {(0,): expected}


@pytest.mark.parametrize("name", [*SCENES, "SCENE-A2C", "SCENE-P2", "SCENE-A2D"])
def test_pushforward_routes(name):
    scene = SCENES.get(name) or builtin_scene(name)
    a, b = pushforward_unit(scene)
    assert a == b
    if name == "SCENE-A1":
        assert a.is_zero()
    else:
        assert not a.is_zero()
        # the pushforward of the unit is a nonzero class, not a boundary
        assert not is_boundary_within_window(a, OMEGA, scene.window)
    assert cech_total_d(a, OMEGA).is_zero()
    # the boundary test accepts the boundary of a random window cochain
    rng = random.Random(f"pushforward:{name}")
    keys = _window_keys(scene, OMEGA, scene.window)
    v = Cochain(scene, FORM, {})
    for key in rng.sample(keys, 6):
        v = v + _basis_cochain(scene, OMEGA, key).scale(rng.choice([1, -1, 2]))
    dv = cech_total_d(v, OMEGA)
    assert not dv.is_zero()
    assert is_boundary_within_window(dv, OMEGA, scene.window)


def test_pushforward_value_on_a2():
    scene = SCENES["SCENE-A2"]
    a, _ = pushforward_unit(scene)
    ring = scene.atlas.ring((0,))
    assert a.entries == {(0,): Form(ring, {(0, 1): ring.const(-1)})}
