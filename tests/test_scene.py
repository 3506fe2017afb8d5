import copy

import pytest

from cechmf.scene import Chart, SceneError, scene_from_dict, validate_scene
from cechmf.scenes_builtin import all_builtin_names, builtin_scene, builtin_scene_dict


@pytest.mark.parametrize("name", all_builtin_names())
def test_builtin_scenes_validate(name):
    scene = builtin_scene(name)
    rep = validate_scene(scene)
    assert rep.ok, rep.failures()


def test_a2_is_valid_by_construction():
    scene = builtin_scene("SCENE-A2")
    c = scene.chart(0)
    assert c.f == c.x * c.g


def test_p1_unit_check():
    scene = builtin_scene("SCENE-P1")
    atlas = scene.atlas
    u01 = atlas.unit(0, 1)
    x0 = atlas.res((0,), (0, 1))(scene.chart(0).x)
    x1 = atlas.res((1,), (0, 1))(scene.chart(1).x)
    # u_01 * x_0 = x_1, i.e. t^-1 * t = 1
    assert u01 * x0 == x1
    assert u01 == atlas.ring((0, 1)).monomial([-1])


def test_tampered_scene_rejected():
    spec = builtin_scene_dict("SCENE-A2")
    spec["charts"][0] = dict(spec["charts"][0], g="x")  # f != x*g now
    rep = validate_scene(scene_from_dict(spec))
    assert not rep.ok
    assert any("f=x*g" in name for name, _ in rep.failures())


def test_restrict_examples():
    scene = builtin_scene("SCENE-P1")
    atlas = scene.atlas
    r01 = atlas.ring((0, 1))
    t = scene.chart(0).ring.var("t")
    s = scene.chart(1).ring.var("s")
    assert atlas.restrict(t, (0,), (0, 1)) == r01.var("t")
    assert atlas.restrict(s, (1,), (0, 1)) == r01.monomial([-1])
    for I in [(0,), (1,)]:
        one = atlas.ring(I).one()
        assert atlas.restrict(one, I, (0, 1)) == r01.one()


def test_unit_cocycle_trivial_on_p1():
    # no triple overlaps on two charts: cocycle checks are vacuous but the
    # pair relations still hold in the report
    rep = validate_scene(builtin_scene("SCENE-P1"))
    assert rep.ok


def test_missing_tuple_raises():
    scene = builtin_scene("SCENE-A2")
    with pytest.raises(SceneError):
        scene.atlas.ring((0, 1))


def test_pole_var():
    scene = builtin_scene("SCENE-P1")
    atlas = scene.atlas
    assert atlas.pole_var((0,)) == 0          # t cuts Y
    assert atlas.pole_var((1,)) is None       # x = 1, Y misses the chart
    assert atlas.pole_var((0, 1)) is None     # t invertible on the overlap


def test_f_on_overlap_matches():
    scene = builtin_scene("SCENE-A2C")
    atlas = scene.atlas
    f0 = atlas.res((0,), (0, 1))(scene.chart(0).f)
    f1 = atlas.res((1,), (0, 1))(scene.chart(1).f)
    assert f0 == f1 == scene.f_on((0, 1))


def _p1_spec_without_f():
    spec = copy.deepcopy(builtin_scene_dict("SCENE-P1"))
    del spec["charts"][0]["f"]
    return spec


def _p1_spec_without_res_image():
    spec = copy.deepcopy(builtin_scene_dict("SCENE-P1"))
    del spec["overlaps"][0]["res"]["0"]["t"]
    return spec


@pytest.mark.parametrize(
    "make_spec, where, field",
    [
        (_p1_spec_without_f, "chart 0", "'f'"),
        (_p1_spec_without_res_image, "overlap [0, 1] res['0']", "'t'"),
    ],
    ids=["chart-f", "overlap-res-variable"],
)
def test_missing_field_raises_scene_error(make_spec, where, field):
    with pytest.raises(SceneError) as info:
        scene_from_dict(make_spec())
    assert where in str(info.value)
    assert field in str(info.value)


def _p1_spec_inverting(entry, where):
    spec = copy.deepcopy(builtin_scene_dict("SCENE-P1"))
    if where == "global":
        spec["global"]["inverted"] = [entry]
    elif where == "chart":
        spec["charts"][0]["inverted"] = [entry]
    else:
        spec["overlaps"][0]["inverted"] = [entry]
    return spec


@pytest.mark.parametrize(
    "entry, part, where",
    [
        ("t-1", "overlap", "overlap [0, 1]"),
        ("s", "chart", "chart 0"),
        ("t", "global", "global"),
    ],
    ids=["overlap-polynomial", "chart-foreign-variable", "global-missing-variable"],
)
def test_inverted_entry_not_a_variable_raises_scene_error(entry, part, where):
    with pytest.raises(SceneError) as info:
        scene_from_dict(_p1_spec_inverting(entry, part))
    assert where in str(info.value)
    assert repr(entry) in str(info.value)


def test_builtin_scene_dict_edit_leaves_builtin_intact():
    spec = builtin_scene_dict("SCENE-A2")
    spec["charts"][0] = dict(spec["charts"][0], g="x")  # f != x*g in the copy
    assert not validate_scene(scene_from_dict(spec)).ok
    assert validate_scene(builtin_scene("SCENE-A2")).ok
