from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cechmf.rings import LocPoly, MalformedElement, Ring, RingMap, quotient_restrict
from cechmf.scene import _loc_divide
from cechmf.scenes_builtin import builtin_scene


QX = Ring(["x"])
QX_X = Ring(["x"], ["x"])
QXY = Ring(["x", "y"])
QT_T = Ring(["t"], ["t"])
QXY_X = Ring(["x", "y"], ["x"])


def test_unit_cancellation():
    x = QX_X.var("x")
    e = x * QX_X.monomial([-1])
    assert e == QX_X.one()


def test_zero_normal_form():
    x, y = QXY.var("x"), QXY.var("y")
    e = x * x * y - x * x * y
    assert e.is_zero()


def test_equal_normal_forms_after_expansion():
    # (x^2 - 1)/x vs (x - 1)(x + 1)/x, expanded via the product oracle
    x = QX_X.var("x")
    one = QX_X.one()
    inv = QX_X.monomial([-1])
    a = (x * x - one) * inv
    b = ((x - one) * (x + one)) * inv
    assert (x * x - one) == (x - one) * (x + one)  # multiplication oracle
    assert a == b


def test_normal_form_idempotent():
    # the term dict is the normal form: x^3 * x^-2 is stored as x, and
    # rebuilding an element from its own terms changes nothing
    x = QX_X.var("x")
    e = (x ** 3) * QX_X.monomial([-2])
    assert e.terms == x.terms == {(1,): 1}
    assert LocPoly(QX_X, e.terms).terms == e.terms


def test_malformed_monomial():
    with pytest.raises(MalformedElement):
        QXY.monomial([-1, 0])


def test_partial_derive_power_rule():
    x, y = QXY.var("x"), QXY.var("y")
    assert (x * x * y).diff("x") == x.scale(2) * y


def test_partial_derive_quotient_rule():
    inv = QX_X.monomial([-1])  # 1/x
    assert inv.diff("x") == QX_X.monomial([-2], -1)


def test_partial_derive_laurent():
    # d/dt (t^-2 (t^3 + 1)) = t - 2 t^-3, expanding to Laurent monomials first
    t3p1 = QT_T.var("t") ** 3 + QT_T.one()
    e = QT_T.monomial([-2]) * t3p1
    expanded = QT_T.var("t") + QT_T.monomial([-2])
    assert e == expanded
    assert e.diff("t") == QT_T.one() - QT_T.monomial([-3], 2)


def test_unknown_variable():
    with pytest.raises(MalformedElement):
        QX.var("x").diff("z")


def test_inverse():
    t = QT_T.var("t")
    assert (t ** 2).inverse() == QT_T.monomial([-2])
    assert QT_T.monomial([-3], Fraction(2)).inverse() == (t ** 3).scale(Fraction(1, 2))
    with pytest.raises(MalformedElement):
        (t + QT_T.one()).inverse()


def test_is_unit_is_the_rule_inverse_enforces():
    """A unit is one term whose nonzero exponents sit at inverted
    variables; inverse returns its inverse and raises on anything else:
    ZeroDivisionError on zero, MalformedElement on a non-unit."""
    x, y = QXY_X.var("x"), QXY_X.var("y")
    units = [QXY_X.one().scale(Fraction(-2, 3)), x, QXY_X.monomial([-2, 0], 5), QX_X.var("x")]
    others = [y, x * y, x + QXY_X.one(), QX.var("x"), QXY.var("x")]
    for u in units:
        assert u.is_unit()
        assert u * u.inverse() == u.ring.one()
    for e in others:
        assert not e.is_unit()
        with pytest.raises(MalformedElement):
            e.inverse()
    assert not QXY_X.zero().is_unit()
    with pytest.raises(ZeroDivisionError):
        QXY_X.zero().inverse()


def test_inverse_is_exact():
    # 1/2 exactly: a float 0.5 would compare equal, so check the type
    ((c, _),) = QX_X.var("x").scale(2).inverse().monomials()
    assert type(c) is Fraction and c == Fraction(1, 2)
    ((c, _),) = QX_X.var("x").scale(3).inverse().monomials()
    assert type(c) is Fraction and c == Fraction(1, 3)
    ((c, _),) = QX_X.monomial([1], Fraction(1, 3)).inverse().monomials()
    assert type(c) is int and c == 3


def test_float_coefficients_are_refused():
    with pytest.raises(TypeError):
        QX_X.const(0.5)
    with pytest.raises(TypeError):
        QX_X.var("x").scale(0.5)
    with pytest.raises(TypeError):
        LocPoly(QX_X, {(1,): 2.0})


def test_ring_map_restriction():
    # s -> 1/t gluing
    QS = Ring(["s"])
    res = RingMap(QS, QT_T, [QT_T.monomial([-1])])
    assert res(QS.var("s") ** 2) == QT_T.monomial([-2])
    assert res(QS.one()) == QT_T.one()


def test_quotient_restrict():
    x, y = QXY.var("x"), QXY.var("y")
    assert quotient_restrict(x * y + y ** 2, 0) == y ** 2
    with pytest.raises(MalformedElement):
        quotient_restrict(QT_T.monomial([-1]), 0)


def _rand_locpoly(draw, ring):
    nterms = draw(st.integers(0, 3))
    e = ring.zero()
    lau = ring.inverted
    for _ in range(nterms):
        exps = [
            draw(st.integers(-2 if i in lau else 0, 2))
            for i in range(ring.nvars)
        ]
        e = e + ring.monomial(exps, draw(st.integers(-3, 3)))
    return e


@st.composite
def loc_polys(draw, ring=QT_T):
    return _rand_locpoly(draw, ring)


def _assert_normal_form(e):
    for exp, c in e.terms.items():
        assert c != 0
        # an int when integral, else a Fraction that is not integral
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)
        assert all(k >= 0 or i in e.ring.inverted for i, k in enumerate(exp))


@given(loc_polys(QXY_X), loc_polys(QXY_X))
@settings(max_examples=60, deadline=None)
def test_normal_form_multiplicative(a, b):
    half = a.scale(Fraction(1, 2))
    # inverses of the units among a's terms: its monomials in x alone
    units = [QXY_X.monomial((exp[0], 0), c).inverse() for exp, c in a.terms.items()]
    for e in (a, b, a * b, a + b, a - b, a.diff("x"), a.diff("y"),
              half, a.scale(2), half.scale(2), half * b.scale(2), half + half, *units):
        _assert_normal_form(e)
    assert half.scale(2) == half + half == a
    assert a * b == b * a
    assert hash(a * b) == hash(b * a)
    assert a + b - b == a


@given(loc_polys(), loc_polys())
@settings(max_examples=60, deadline=None)
def test_leibniz(a, b):
    lhs = (a * b).diff("t")
    rhs = a.diff("t") * b + a * b.diff("t")
    assert lhs == rhs


def _restriction_maps():
    maps = []
    for name in ("SCENE-P1", "SCENE-P2", "SCENE-A2D"):
        atlas = builtin_scene(name).atlas
        for J in atlas.tuples:
            for I in atlas.tuples:
                if set(I) <= set(J):
                    maps.append(pytest.param(atlas.res(I, J), id=f"{name}:{I}->{J}"))
    return maps


@pytest.mark.parametrize("res", _restriction_maps())
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_restriction_is_ring_map(res, data):
    # negative exponents at inverted variables go through the cached powers
    # of the images, e.g. s -> t^-1 on SCENE-P1
    a = data.draw(loc_polys(res.src))
    b = data.draw(loc_polys(res.src))
    assert res(a * b) == res(a) * res(b)
    assert res(a + b) == res(a) + res(b)


def test_loc_divide():
    x, y = QXY_X.var("x"), QXY_X.var("y")
    assert _loc_divide(x * y + y ** 2, y) == x + y
    assert _loc_divide(y.scale(3), y.scale(2)) == QXY_X.const(Fraction(3, 2))
    assert _loc_divide(y, x) == y * QXY_X.monomial([-1, 0])  # x is inverted
    assert _loc_divide(x, y) is None  # would need y^-1
    assert _loc_divide(x * y + x, y) is None  # only one term divides
    assert _loc_divide(x, x + y) is None  # not a single term
    assert _loc_divide(x, QXY_X.zero()) is None


def test_loc_divide_is_exact():
    x = QXY_X.var("x")
    ((c, exp),) = _loc_divide(x, x.scale(3)).monomials()
    assert exp == (0, 0) and type(c) is Fraction and c == Fraction(1, 3)
    ((c, _),) = _loc_divide(x.scale(Fraction(3, 2)), x.scale(Fraction(1, 2))).monomials()
    assert type(c) is int and c == 3
