import copy

import pytest

from cechmf.forms import d_of
from cechmf.scene import Chart, SceneError, UnsupportedScene, scene_from_dict, validate_scene
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
    assert atlas.res((0,), (0, 1))(t) == r01.var("t")
    assert atlas.res((1,), (0, 1))(s) == r01.monomial([-1])
    for I in [(0,), (1,)]:
        one = atlas.ring(I).one()
        assert atlas.res(I, (0, 1))(one) == r01.one()


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
    assert scene.ctx((0,)).pole == 0          # t cuts Y
    assert scene.ctx((1,)).pole is None       # x = 1, Y misses the chart
    assert scene.ctx((0, 1)).pole is None     # t invertible on the overlap


def test_f_on_overlap_matches():
    scene = builtin_scene("SCENE-A2C")
    atlas = scene.atlas
    f0 = atlas.res((0,), (0, 1))(scene.chart(0).f)
    f1 = atlas.res((1,), (0, 1))(scene.chart(1).f)
    assert f0 == f1 == scene.ctx((0, 1)).f


@pytest.mark.parametrize("name", all_builtin_names())
def test_tuple_context_is_the_lead_chart_data(name):
    scene = builtin_scene(name)
    atlas = scene.atlas
    for I in atlas.tuples:
        ctx = scene.ctx(I)
        assert scene.ctx(I) is ctx and scene.ctx(list(I)) is ctx
        lead = scene.chart(I[0])
        res = atlas.res((I[0],), I)
        assert (ctx.x, ctx.f, ctx.g) == (res(lead.x), res(lead.f), res(lead.g))
        assert ctx.df == d_of(ctx.f)
        if ctx.pole is None:
            assert ctx.dlog == ctx.dx.scale(ctx.x.inverse())


def test_divisor_neither_coordinate_nor_unit_is_unsupported():
    # on the overlap x = t + 1: not a coordinate, and not a unit of Q[t, 1/t]
    scene = scene_from_dict(_p1_spec_edited(
        lambda s: s["overlaps"][0]["res"]["0"].update(t="t + 1")
    ))
    assert scene.ctx((0,)).pole == 0
    with pytest.raises(UnsupportedScene, match="neither a coordinate nor a unit"):
        scene.ctx((0, 1))


def test_zero_divisor_is_unsupported():
    """A divisor equation 0 is neither a coordinate nor a unit; the tuple
    context names the tuple instead of failing on the inverse of zero."""
    spec = builtin_scene_dict("SCENE-A1")
    spec["charts"][0].update(x="0", f="0")
    scene = scene_from_dict(spec)
    with pytest.raises(UnsupportedScene, match=r"divisor over \(0,\) is neither a coordinate nor a unit"):
        scene.ctx((0,))


def _p1_spec_edited(edit):
    spec = copy.deepcopy(builtin_scene_dict("SCENE-P1"))
    edit(spec)
    return spec


def _set(d, key, value):
    d[key] = value


@pytest.mark.parametrize(
    "edit, where, field",
    [
        (lambda s: s["charts"][0].pop("f"), "chart 0", "'f'"),
        (lambda s: s["overlaps"][0]["res"]["0"].pop("t"), "overlap [0, 1] res['0']", "'t'"),
        (lambda s: _set(s["overlaps"][0]["res"], "7", {}), "overlap [0, 1] res", "chart 7"),
        (lambda s: _set(s["global"]["res"], "9", {}), "global res", "chart 9"),
        (
            lambda s: _set(s["overlaps"][0]["res"]["1"], "s", {"num": "1"}),
            "overlap [0, 1] res['1']['s']",
            "'den'",
        ),
        (lambda s: _set(s["charts"][0], "id", "zero"), "chart zero", "'zero'"),
        (lambda s: _set(s["overlaps"][0], "tuple", [0, 5]), "overlap [0, 5]", "member 5"),
        (lambda s: s["overlaps"][0]["res"].pop("1"), "overlap [0, 1] res", "member chart 1"),
        (lambda s: s["global"]["res"].pop("1"), "global res", "chart 1"),
        (lambda s: s["charts"].append(copy.deepcopy(s["charts"][1])), "chart 1", "duplicate"),
        (lambda s: _set(s["charts"][0], "f", "t+"), "chart 0", "'f'"),
        (
            lambda s: _set(s["overlaps"][0]["res"]["1"]["s"], "den", "t+1"),
            "overlap [0, 1] res['1']['s']",
            "'den'",
        ),
        (lambda s: _set(s, "charts", 5), "scene", "'charts'"),
        (
            lambda s: _set(s["overlaps"][0]["res"]["0"], "t", 1),
            "overlap [0, 1] res['0']['t']",
            "int",
        ),
        (lambda s: _set(s["charts"][0], "vars", ["t", "t"]), "chart 0", "distinct"),
        (
            lambda s: s["overlaps"].append(dict(s["overlaps"][0], tuple=[1, 0])),
            "overlap [1, 0]",
            "duplicate",
        ),
        (lambda s: _set(s, "window", 2.7), "scene", "window 2.7"),
        (lambda s: _set(s, "trunc", True), "scene", "trunc True"),
        (lambda s: _set(s["charts"][1], "id", 1.9), "chart 1.9", "chart id 1.9"),
        (lambda s: _set(s, "charts", []), "scene", "'charts'"),
        (lambda s: _set(s["overlaps"][0], "tuple", [0]), "overlap [0]", "two charts"),
        (lambda s: _set(s["overlaps"][0], "tuple", []), "overlap []", "two charts"),
        (lambda s: _set(s["overlaps"][0], "tuple", [0, 0, 1]), "overlap [0, 0, 1]", "repeated"),
        (lambda s: _set(s, "name", ["x"]), "scene", "'name'"),
        (
            lambda s: _set(s["overlaps"][0]["res"]["1"]["s"], "den", "0"),
            "overlap [0, 1] res['1']['s']",
            "'den': not a unit: 0",
        ),
    ],
    ids=[
        "chart-f",
        "overlap-res-variable",
        "overlap-res-foreign-chart",
        "global-res-foreign-chart",
        "image-without-den",
        "chart-id-not-integer",
        "overlap-tuple-not-charts",
        "overlap-res-missing-member",
        "global-res-missing-chart",
        "duplicate-chart-id",
        "unparsable-polynomial",
        "den-not-a-unit",
        "charts-not-a-list",
        "image-not-a-string-or-object",
        "vars-not-distinct",
        "duplicate-overlap",
        "window-not-an-integer",
        "trunc-a-boolean",
        "chart-id-a-float",
        "no-charts",
        "overlap-of-one-chart",
        "overlap-of-no-chart",
        "overlap-repeated-chart",
        "name-not-a-string",
        "den-zero",
    ],
)
def test_missing_field_raises_scene_error(edit, where, field):
    with pytest.raises(SceneError) as info:
        scene_from_dict(_p1_spec_edited(edit))
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
