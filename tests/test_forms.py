import random

import pytest

from cechmf.forms import Form, LogForm, _merge_indices, d_of
from cechmf.rand import rand_form
from cechmf.rings import Ring
from cechmf.scenes_builtin import builtin_scene

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
