import random

import pytest

from cechmf.cdg import OYAlgebra, SheafAlgebraA
from cechmf.cech import (
    CONE,
    FORM,
    LOG,
    OMEGA,
    OMEGA_Y,
    YFORM,
    Cochain,
    bar_wedge,
    cech_total_d,
    unit_cochain,
)
from cechmf.forms import Form, LogForm, y_normalize
from cechmf.hkr import a_to_oy, hkr_A, hkr_y
from cechmf.rand import (
    rand_a_class_chain,
    rand_cone_cochain,
    rand_form_cochain,
    rand_log_cochain,
    rand_yform_cochain,
)
from cechmf.ses import (
    NotACocycle,
    cone_delta,
    cone_to_y,
    connecting_delta,
    forms_to_y,
    ses_lift,
    _to_y,
)
from cechmf.scenes_builtin import all_builtin_names, builtin_scene

A1 = builtin_scene("SCENE-A1")
A2 = builtin_scene("SCENE-A2")
P1 = builtin_scene("SCENE-P1")
P2 = builtin_scene("SCENE-P2")


def ses_project(beta: Cochain) -> Cochain:
    """Quotient map on log cochains: keep the residue, restrict to Y."""
    assert beta.kind == LOG
    return _to_y(beta, lambda s: s.residue)


def test_ses_lift_of_one():
    c = unit_cochain(A2, "yform")
    lifted = ses_lift(c)
    lf = lifted.entries[(0,)]
    assert lf.regular.is_zero()
    assert lf.residue == Form.one(A2.atlas.ring((0,)))


def test_section_property():
    # ses_project(ses_lift(y dy)) = y dy on the divisor {x = 0} of SCENE-A2
    ring = A2.atlas.ring((0,))
    ydy = Form(ring, {(1,): ring.var("y")})
    c = Cochain(A2, "yform", {(0,): ydy})
    assert ses_project(ses_lift(c)) == c


def test_section_property_random():
    rng = random.Random(23)
    for scene in (A2, P1, P2):
        for _ in range(10):
            c = rand_yform_cochain(scene, rng)
            assert ses_project(ses_lift(c)) == c


def test_divisor_forms_are_taken_modulo_x_and_dx():
    # on SCENE-A2 the divisor is {x = 0}: 1 + x and 1 are one divisor form,
    # x and y dx are zero on it, and so is the connecting map of x; on
    # SCENE-P2 the divisor of chart 1 is {y1 = 0}
    ring = A2.atlas.ring((0,))
    x, y = ring.var("x"), ring.var("y")
    one_plus_x = Cochain(A2, YFORM, {(0,): Form.scalar(ring.one() + x)})
    assert one_plus_x == Cochain(A2, YFORM, {(0,): Form.one(ring)})
    x_form = Cochain(A2, YFORM, {(0,): Form.scalar(x)})
    assert x_form.is_zero()
    assert Cochain(A2, YFORM, {(0,): Form(ring, {(0,): y})}).is_zero()
    assert connecting_delta(x_form).is_zero()
    ring1 = P2.atlas.ring((1,))
    y1_form = Cochain(P2, YFORM, {(1,): Form.scalar(ring1.var("y1"))})
    assert y1_form.is_zero()
    assert connecting_delta(y1_form).is_zero()


def _assert_normal(c: Cochain):
    assert c.kind == YFORM
    for I, s in c.entries.items():
        assert y_normalize(s, c.scene.ctx(I)) == s, (I, s)


@pytest.mark.parametrize("name", all_builtin_names())
def test_every_divisor_form_producer_returns_the_normal_form(name):
    scene = builtin_scene(name)
    rng = random.Random(f"normal-form:{name}")
    alg, oy = SheafAlgebraA(scene), OYAlgebra(scene)
    _assert_normal(unit_cochain(scene, YFORM))
    for i in range(6):
        y1, y2 = rand_yform_cochain(scene, rng), rand_yform_cochain(scene, rng)
        c = rand_a_class_chain(rng, alg, i % 3)
        produced = [
            y1,
            cone_to_y(hkr_A(c)),
            hkr_y(a_to_oy(c, oy)),
            forms_to_y(rand_form_cochain(scene, rng)),
            bar_wedge(y1, y2),
            cech_total_d(y1, OMEGA_Y),
        ]
        for out in produced:
            _assert_normal(out)


def test_chart_missing_divisor_lifts_to_zero():
    # on SCENE-P1 chart 1 the divisor is absent; Y-cochains have no entry there
    c = unit_cochain(P1, "yform")
    assert set(c.entries) == {(0,)}
    assert set(ses_lift(c).entries) == {(0,)}


def test_ses_exactness_elementwise():
    rng = random.Random(29)
    for scene in (A2, P1):
        for _ in range(10):
            lc = rand_log_cochain(scene, rng)
            # kernel of the projection = cochains with zero residue
            if ses_project(lc).is_zero():
                assert all(s.residue.is_zero() for s in lc.entries.values())
            # inclusion of regular forms followed by projection is zero
            fc = rand_form_cochain(scene, rng)
            incl = Cochain(
                scene,
                LOG,
                {
                    I: LogForm(scene.ctx(I), s, Form.zero(s.ring))
                    for I, s in fc.entries.items()
                },
            )
            assert ses_project(incl).is_zero()


def test_delta_on_a2_unit():
    out = connecting_delta(unit_cochain(A2, "yform"))
    ring = A2.atlas.ring((0,))
    # df ^ dx/x = (y dx + x dy) ^ dx/x = dy ^ dx = -dx^dy
    assert out.entries == {(0,): Form(ring, {(0, 1): ring.const(-1)})}


def test_delta_on_a1_unit_is_zero():
    assert connecting_delta(unit_cochain(A1, "yform")).is_zero()


def test_delta_of_zero():
    assert connecting_delta(Cochain(A2, "yform", {})).is_zero()


def test_delta_rejects_non_cocycle():
    # x-free nonconstant section on P1 chart 0 is not Cech-closed on Y...
    # actually Y is a single point there; build a non-cocycle on P2 instead,
    # where Y = P1 has real overlap data
    ring1 = P2.atlas.ring((1,))
    c = Cochain(P2, "yform", {(1,): Form.scalar(ring1.var("y2"))})
    with pytest.raises(NotACocycle):
        connecting_delta(c)


def test_delta_independent_of_lift_up_to_boundary_on_a2():
    rng = random.Random(31)
    alpha = unit_cochain(A2, "yform")
    delta = connecting_delta(alpha)
    # alternative lift: canonical one plus a residue-free log cochain
    eta = rand_form_cochain(A2, rng)
    lift2 = ses_lift(alpha) + Cochain(
        A2,
        LOG,
        {I: LogForm(A2.ctx(I), s, Form.zero(s.ring)) for I, s in eta.entries.items()},
    )
    d2 = cech_total_d(lift2, "omega_log_shifted")
    assert all(s.residue.is_zero() for s in d2.entries.values())
    delta2 = Cochain(A2, FORM, {I: s.regular for I, s in d2.entries.items()})
    diff = delta2 - delta
    # single chart: the difference is exactly d_OMEGA(-eta)
    assert diff == cech_total_d(-eta, OMEGA)


def test_cone_to_y_is_a_chain_map():
    rng = random.Random(37)
    for scene in (A2, P1, P2):
        for _ in range(8):
            c = rand_cone_cochain(scene, rng, max_deg=1)
            lhs = cone_to_y(cech_total_d(c, CONE))
            rhs = cech_total_d(cone_to_y(c), OMEGA_Y)
            assert lhs == rhs


def test_cone_delta_projection():
    rng = random.Random(41)
    c = rand_cone_cochain(A2, rng)
    out = cone_delta(c)
    for I, s in c.entries.items():
        assert out.entries.get(I, Form.zero(s.reg.ring)) == s.reg
