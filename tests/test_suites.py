import pytest

from cechmf import diagrams, suites
from cechmf.cech import FORM, OMEGA, Cochain, cech_total_d
from cechmf.forms import Form
from cechmf.scene import scene_from_dict
from cechmf.scenes_builtin import all_builtin_names, builtin_scene, builtin_scene_dict
from cechmf.suites import SUITES, _global_divisor, _sampled, suite_lax, suite_phi
from conftest import sheared_a2c

A1 = builtin_scene("SCENE-A1")
A2 = builtin_scene("SCENE-A2")
HALF_SHEARED = sheared_a2c("1/2")


def test_sampled_counts_and_keeps_the_first_failure():
    check = _sampled("toy", [0, 1, 2, 3, 4, 5], lambda x: (x % 3, 0))
    assert not check.passed
    assert check.detail == "2/6 exact"
    assert check.payload == {"element": "1", "lhs": "1", "rhs": "0", "index": 1}


def test_sampled_passes_without_payload():
    check = _sampled("toy", [(1, 2), (3, 4)], lambda x: (sum(x), x[0] + x[1]))
    assert check.passed and check.detail == "2/2 exact" and check.payload is None


SAMPLED_ON_A1 = {
    "d2": [
        "d2:omega",
        "d2:omega_log",
        "d2:omega_y",
        "d2:cone",
        "d2:hoch:O_f",
        "d2:hoch:O_-f",
        "d2:hoch:A",
        "d2:hoch:EndP",
    ],
    "hkr-xf": ["hkr-xf:chain-map:sign-1", "hkr-xf:chain-map:sign+1"],
    "hkr-a": [
        "hkr-a:chain-map:eps0",
        "hkr-a:chain-map:eps1",
        "hkr-a:chain-map:eps2",
        "hkr-a:two-eps-vanishing",
    ],
    "hkr-a-square": ["hkr-a:square"],
    "hq": ["hq:exchange:q0", "hq:exchange:q1"],
    "lax": [
        "lax:cocycle",
        "lax:chain-map",
        "lax:strict-vs-lax",
        "lax:iso",
        "lax:restriction-homotopy",
    ],
    "todd": ["todd:commutes", "todd:series-presentations", "todd:c1-cocycle"],
}


@pytest.mark.parametrize("suite", SAMPLED_ON_A1)
def test_sampled_suites_pass_on_a1(suite):
    checks = SUITES[suite](A1)
    assert [c.id for c in checks] == SAMPLED_ON_A1[suite]
    assert all(c.passed for c in checks), [c.as_dict() for c in checks if not c.passed]


def test_phi_suite_on_a1():
    (check,) = suite_phi(A1)
    assert check.id == "phi:chain-map" and check.passed and check.detail == "50/50 exact"


@pytest.mark.parametrize("suite", ["hq", "phi", "diagram1", "pushforward"])
def test_trace_suites_pass_on_the_half_sheared_scene(suite):
    # chart 1 is glued by y -> y + x^2/2: every restricted monomial slot of
    # h^q, phi and the trace route has several terms, some non-integral
    checks = SUITES[suite](HALF_SHEARED)
    assert all(c.passed for c in checks), [c.as_dict() for c in checks if not c.passed]
    if suite == "diagram1":
        assert checks[0].id == "diagram1:unique-todd-sign"
        assert checks[0].detail.startswith("working signs: [-1];")


def test_restriction_homotopy_counts_the_chains_it_checks():
    (check,) = [c for c in suite_lax(A1) if c.id == "lax:restriction-homotopy"]
    # suite_lax draws 25 global chains, none of them zero
    assert check.detail == "25/25 exact"
    assert check.passed


GLOBAL_DIVISOR = {
    "SCENE-A1": "x",
    "SCENE-A2": "x",
    "SCENE-P1": None,
    "SCENE-A2C": "x",
    "SCENE-P2": None,
    "SCENE-A2D": "x",
}


@pytest.mark.parametrize("name", all_builtin_names())
def test_global_divisor_of_builtin_scenes(name):
    assert _global_divisor(builtin_scene(name)) == GLOBAL_DIVISOR[name]


def test_global_divisor_does_not_read_the_scene_name():
    spec = builtin_scene_dict("SCENE-A2")
    spec["name"] = "PLANE-COPY"
    scene = scene_from_dict(spec)
    assert _global_divisor(scene) == "x"
    assert all(c.passed for c in suite_lax(scene))


def test_global_divisor_needs_a_unit_quotient():
    # global x restricts to x*y: it is divisible by the divisor equation x,
    # but the quotient y is not a unit
    spec = builtin_scene_dict("SCENE-A2")
    spec["global"]["res"]["0"] = {"x": "x*y", "y": "y"}
    assert _global_divisor(scene_from_dict(spec)) is None


def _pushforward_with_route_b_shifted(monkeypatch, scene, shift) -> dict:
    """suite_pushforward's checks by id, with route B of the unit class
    replaced by route A + shift."""
    route_a, _ = diagrams.pushforward_unit(scene)
    monkeypatch.setattr(suites, "pushforward_unit", lambda sc: (route_a, route_a + shift))
    return {c.id: c for c in suites.suite_pushforward(scene)}


def _a2_form(*K) -> Cochain:
    """dx_K on the one chart of SCENE-A2."""
    ring = A2.atlas.ring((0,))
    return Cochain(A2, FORM, {(0,): Form(ring, {K: ring.one()})})


def test_routes_that_differ_by_a_boundary_pass_the_bounds_check(monkeypatch):
    """When the routes differ, the difference is tested for a boundary in
    the scene's window: d(dx) is one, so the check is present and passes."""
    checks = _pushforward_with_route_b_shifted(monkeypatch, A2, cech_total_d(_a2_form(0), OMEGA))
    assert not checks["pushforward:routes-equal"].passed
    bounds = checks["pushforward:difference-bounds"]
    assert bounds.passed and bounds.payload is not None


def test_routes_that_differ_by_a_cycle_fail_the_bounds_check(monkeypatch):
    """dx^dy is a cocycle that generates H_even of SCENE-A2, no boundary in
    any window, so routes that differ by it fail the check."""
    cycle = _a2_form(0, 1)
    assert cech_total_d(cycle, OMEGA).is_zero()
    checks = _pushforward_with_route_b_shifted(monkeypatch, A2, cycle)
    assert not checks["pushforward:routes-equal"].passed
    assert not checks["pushforward:difference-bounds"].passed
