import random

import pytest

from cechmf.forms import Form, LogForm, _merge_indices, d_of
from cechmf.rand import rand_form
from cechmf.rings import LocPoly, Ring
from cechmf.scene import scene_from_dict
from cechmf.scenes_builtin import all_builtin_names, builtin_scene, builtin_scene_dict
from conftest import sheared_a2c

QXY = Ring(["x", "y"])
QT_T = Ring(["t"], ["t"])


def test_d_of_variable():
    x = QXY.var("x")
    assert d_of(x) == Form(QXY, {(0,): QXY.one()})


def test_d_leibniz_example():
    x, y = QXY.var("x"), QXY.var("y")
    assert d_of(x * y) == Form(QXY, {(0,): y, (1,): x})


def test_d_quotient_rule():
    e = QT_T.monomial([-1])
    assert d_of(e) == Form(QT_T, {(0,): QT_T.monomial([-2], -1)})


def test_wedge_square_zero():
    dx = Form(QXY, {(0,): QXY.one()})
    assert dx.wedge(dx).is_zero()


def test_wedge_antisymmetry():
    dx = Form(QXY, {(0,): QXY.one()})
    dy = Form(QXY, {(1,): QXY.one()})
    assert dx.wedge(dy) == Form(QXY, {(0, 1): QXY.one()})
    assert dy.wedge(dx) == -dx.wedge(dy)


def _d(w: Form) -> Form:
    """Exterior derivative of a form."""
    terms: dict = {}
    for k, c in w.terms.items():
        for v in range(w.ring.nvars):
            dc = c.diff(v)
            if dc.is_zero() or v in k:
                continue
            key, sign = _merge_indices((v,), k)
            add = dc.scale(sign)
            terms[key] = terms[key] + add if key in terms else add
    return Form(w.ring, terms)


def test_d_squared_zero_random():
    rng = random.Random(3)
    for _ in range(25):
        w = rand_form(rng, QXY)
        assert _d(_d(w)).is_zero()
    for _ in range(25):
        w = rand_form(rng, QT_T)
        assert _d(_d(w)).is_zero()


def test_logform_normalization_drops_pole_dx():
    scene = builtin_scene("SCENE-A2")
    ctx = scene.ctx((0,))
    ring = ctx.ring
    dx = Form(ring, {(0,): ring.one()})
    # residue with a dx factor dies: (dx/x)^dx^... = 0
    lf = LogForm(ctx, Form.zero(ring), dx)
    assert lf.regular.is_zero() and lf.residue.is_zero()


def test_logform_normalization_folds_x_multiples():
    # (dx/x) ^ (x) = dx is regular
    scene = builtin_scene("SCENE-A2")
    ctx = scene.ctx((0,))
    ring = ctx.ring
    lf = LogForm(ctx, Form.zero(ring), Form.scalar(ring.var("x")))
    assert lf.residue.is_zero()
    assert lf.regular == Form(ring, {(0,): ring.one()})


def test_logform_trivial_pole_is_regular():
    # on the P1 overlap the divisor is invertible: dx/x = dt/t is regular
    scene = builtin_scene("SCENE-P1")
    ctx = scene.ctx((0, 1))
    ring = ctx.ring
    lf = LogForm(ctx, Form.zero(ring), Form.one(ring))
    assert lf.residue.is_zero()
    assert lf.regular == Form(ring, {(0,): ring.monomial([-1])})


def test_x_equals_one_chart_has_no_pole():
    scene = builtin_scene("SCENE-P1")
    ctx = scene.ctx((1,))
    assert ctx.pole is None
    lf = LogForm(ctx, Form.zero(ctx.ring), Form.one(ctx.ring))
    # dx/x with x = 1 is zero
    assert lf.is_zero()


def _fold_by_wedges(ctx, regular: Form, residue: Form):
    """The LogForm normal form written out: per residue term, split off
    the x-multiples x q and move (dx/x) ^ x q dx_K = dx ^ q dx_K to the
    regular part as the wedge of two Forms."""
    v = ctx.pole
    ring = ctx.ring
    reg, res = regular, {}
    for k, c in residue.terms.items():
        if v in k:
            continue
        low = {e: a for e, a in c.terms.items() if e[v] == 0}
        high = {e[:v] + (e[v] - 1,) + e[v + 1:]: a for e, a in c.terms.items() if e[v]}
        if high:
            dx_q = Form(ring, {(v,): LocPoly(ring, high)})
            reg = reg + dx_q.wedge(Form(ring, {k: ring.one()}))
        if low:
            res[k] = LocPoly(ring, low)
    return reg, Form(ring, res)


def _pole_last_a2():
    """SCENE-A2 with its variables listed as (y, x): the pole is at index
    1, so moving dx past dy in the fold changes the sign.  Every built-in
    scene has its pole at index 0."""
    spec = builtin_scene_dict("SCENE-A2")
    spec["charts"][0]["vars"] = spec["charts"][0]["vars"][::-1]
    return scene_from_dict(spec)


@pytest.mark.parametrize("name", [*all_builtin_names(), "sheared", "pole-last"])
def test_logform_fold_matches_wedge_definition(name):
    # the x-multiples of a residue fold into the regular part in one dict;
    # compare with the fold written as Form wedges, on every tuple with a
    # pole, over inputs that have x-multiples and dx_pole terms
    scene = {"sheared": sheared_a2c, "pole-last": _pole_last_a2}.get(name, lambda: builtin_scene(name))()
    rng = random.Random(f"fold:{name}")
    folded = 0
    for I in scene.atlas.tuples:
        ctx = scene.ctx(I)
        if ctx.pole is None:
            continue
        for _ in range(12):
            regular = rand_form(rng, ctx.ring)
            residue = rand_form(rng, ctx.ring) + rand_form(rng, ctx.ring) + rand_form(rng, ctx.ring)
            lf = LogForm(ctx, regular, residue)
            assert (lf.regular, lf.residue) == _fold_by_wedges(ctx, regular, residue), (I, residue)
            folded += lf.regular != regular
    assert folded
    if name == "pole-last":
        assert scene.ctx((0,)).pole == 1
