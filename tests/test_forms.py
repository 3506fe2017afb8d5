import random
from fractions import Fraction
from operator import add

import pytest

from cechmf.forms import (
    Form,
    LogForm,
    _basis_image,
    _merge_indices,
    d_of,
    index_sets,
    map_form_into,
    wedge_into,
    y_normalize,
)
from cechmf.rand import rand_form
from cechmf.rings import LocPoly, Ring, _fr, quotient_restrict
from cechmf.scene import load_scene, scene_from_dict
from cechmf.scenes_builtin import all_builtin_names, builtin_scene, builtin_scene_dict
from conftest import POLE1_FILE, SHEARED_FILE, sheared_a2c

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


# ---------------------------------------------------------------------------
# The flat layout against the nested one.  A Form used to store
# {K: LocPoly}; the definitions below are the kernels of that layout, kept
# as oracles.  Each reads and returns nested dicts {K: LocPoly}.


def _old_from_flat(ring, flat: dict) -> dict:
    """The regrouping from_flat: {(K, e): c} -> {K: LocPoly}."""
    terms: dict = {}
    for (k, e), c in flat.items():
        if c:
            t = terms.get(k)
            if t is None:
                t = terms[k] = {}
            t[e] = c if type(c) is int else _fr(c)
    return {k: LocPoly._new(ring, t) for k, t in terms.items()}


def _old_add(a: dict, b: dict) -> dict:
    terms = dict(a)
    for k, c in b.items():
        terms[k] = terms[k] + c if k in terms else c
    return {k: c for k, c in terms.items() if c.terms}


def _old_wedge(a: dict, b: dict) -> dict:
    terms: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            merged = _merge_indices(ka, kb)
            if merged is None:
                continue
            k, sign = merged
            c = ca * cb if sign > 0 else -(ca * cb)
            terms[k] = terms[k] + c if k in terms else c
    return {k: c for k, c in terms.items() if c.terms}


def _old_wedge_into(flat: dict, a: dict, b: dict, sign=1, graded=False) -> None:
    for ka, ca in a.items():
        sa = -sign if graded and len(ka) % 2 else sign
        for kb, cb in b.items():
            merged = _merge_indices(ka, kb)
            if merged is None:
                continue
            k, s = merged
            neg = s != sa
            for ea, xa in ca.terms.items():
                if neg:
                    xa = -xa
                for eb, xb in cb.terms.items():
                    key = (k, tuple(map(add, ea, eb)))
                    c = xa * xb
                    flat[key] = flat[key] + c if key in flat else c


def _old_basis_image(m, k, e) -> list:
    """m^*(x^e dx_k), derived afresh on every call."""
    zero = (0,) * len(e)
    if e != zero:
        mono = m._mono_image(e).terms.items()
        flat: dict = {}
        for (kk, ee), b in _old_basis_image(m, k, zero):
            for em, cm in mono:
                key = (kk, tuple(map(add, ee, em)))
                flat[key] = flat[key] + b * cm if key in flat else b * cm
    elif k:
        head = _old_from_flat(m.dst, dict(_old_basis_image(m, k[:-1], zero)))
        dx_k = _old_wedge(head, d_of(m.images[k[-1]]).terms)
        flat = {(kk, ee): c for kk, v in dx_k.items() for ee, c in v.terms.items()}
    else:
        flat = {((), (0,) * m.dst.nvars): 1}
    return [(key, c if type(c) is int else _fr(c)) for key, c in flat.items() if c]


def _old_map_form_into(flat: dict, w: dict, m, sign=1) -> None:
    for k, c in w.items():
        for e, a in c.terms.items():
            if sign < 0:
                a = -a
            for key, b in _old_basis_image(m, k, e):
                flat[key] = flat[key] + a * b if key in flat else a * b


def _old_logform(ctx, regular: dict, residue: dict) -> tuple:
    """LogForm.__init__'s normalization: (regular, residue), nested."""
    if ctx.pole is None:
        if residue:
            regular = _old_add(regular, _old_wedge(ctx.dlog.terms, residue))
        return regular, {}
    v = ctx.pole
    ring = ctx.ring
    extra: dict = {}
    res_terms: dict = {}
    for k, c in residue.items():
        if v in k:
            continue
        low = {}
        merged = None
        for exp, coef in c.terms.items():
            if not exp[v]:
                low[exp] = coef
                continue
            if merged is None:
                merged = _merge_indices((v,), k)
            kv, sign = merged
            extra[kv, exp[:v] + (exp[v] - 1,) + exp[v + 1:]] = coef if sign > 0 else -coef
        if low:
            res_terms[k] = LocPoly._new(ring, low)
    return (_old_add(regular, _old_from_flat(ring, extra)) if extra else regular), res_terms


def _old_y_normalize(w: dict, ctx) -> dict:
    if ctx.pole is None:
        return {}
    v = ctx.pole
    terms = {k: quotient_restrict(c, v) for k, c in w.items() if v not in k}
    return {k: c for k, c in terms.items() if c.terms}


ORACLE_SCENES = [*all_builtin_names(), "sheared-file", "pole1-file"]


def _oracle_scene(name):
    files = {"sheared-file": SHEARED_FILE, "pole1-file": POLE1_FILE}
    return load_scene(files[name]) if name in files else builtin_scene(name)


def _rand_flat(rng, ring) -> dict:
    """A flat accumulator with zeros, cancelling keys, Fraction(2, 1) and
    1/2 coefficients and negative exponents at the inverted variables."""
    flat: dict = {}
    keys = [
        (K, tuple(rng.randint(-2 if i in ring.inverted else 0, 2) for i in range(ring.nvars)))
        for K in rng.sample(index_sets(ring.nvars), 2)
        for _ in range(2)
    ]
    for _ in range(6):
        key = rng.choice(keys)
        c = rng.choice([0, 1, -1, 2, Fraction(4, 2), Fraction(1, 2), Fraction(-1, 2)])
        flat[key] = flat[key] + c if key in flat else c
    return flat


def _rand_big_form(rng, ring) -> Form:
    return rand_form(rng, ring) + rand_form(rng, ring) + rand_form(rng, ring)


@pytest.mark.parametrize("name", ORACLE_SCENES)
def test_flat_kernels_match_nested_definitions(name):
    # from_flat, wedge_into (plain and graded, both signs), y_normalize and
    # the LogForm fold on every tuple ring, map_form_into along every
    # restriction: each against the nested definition it replaces
    scene = _oracle_scene(name)
    rng = random.Random(f"flat-oracle:{name}")
    inverted = folded = images = 0
    atlas = scene.atlas
    for I in atlas.tuples:
        ctx = scene.ctx(I)
        ring = ctx.ring
        for _ in range(8):
            flat = _rand_flat(rng, ring)
            assert Form.from_flat(ring, flat).terms == _old_from_flat(ring, flat)
            a, b = _rand_big_form(rng, ring), _rand_big_form(rng, ring)
            inverted += any(min(e) < 0 for _, e in a.flat)
            for sign in (1, -1):
                for graded in (False, True):
                    got, want = {}, {}
                    wedge_into(got, a, b, sign, graded)
                    _old_wedge_into(want, a.terms, b.terms, sign, graded)
                    assert got == want, (I, sign, graded)
            assert a.wedge(b).terms == _old_wedge(a.terms, b.terms)
            assert y_normalize(a, ctx).terms == _old_y_normalize(a.terms, ctx)
            reg, res = _old_logform(ctx, a.terms, b.terms)
            lf = LogForm(ctx, a, b)
            assert (lf.regular.terms, lf.residue.terms) == (reg, res), I
            acc_reg, acc_res = dict(a.flat), dict(b.flat)
            built = LogForm.from_flats(ctx, acc_reg, acc_res)
            assert (built.regular.terms, built.residue.terms) == (reg, res), I
            folded += reg != a.terms
        for _, _, J in [(None, None, I), *atlas.extensions(I)]:
            m = atlas.res(I, J)
            for _ in range(4):
                w = _rand_big_form(rng, ring)
                for sign in (1, -1):
                    got, want = {}, {}
                    map_form_into(got, w, m, sign)
                    _old_map_form_into(want, w.terms, m, sign)
                    assert got == want, (I, J, sign)
            for (k, e), image in m.form_images.items():
                assert image == _old_basis_image(m, k, e), (I, J, k, e)
                images += 1
    assert folded and images
    if any(atlas.ring(I).inverted for I in atlas.tuples):
        assert inverted
    if name == "pole1-file":
        assert {scene.ctx(I).pole for I in atlas.tuples} >= {1}


def test_terms_view_regroups_flat_and_is_a_copy():
    # Form.terms is a nested view of Form.flat, built fresh on each read:
    # the printing, the tests and the benchmark's tracer read it
    rng = random.Random("terms-view")
    scene = _oracle_scene("pole1-file")
    seen = 0
    for I in scene.atlas.tuples:
        ring = scene.atlas.ring(I)
        for _ in range(20):
            f = _rand_big_form(rng, ring)
            before = dict(f.flat)
            view = f.terms
            assert view is not f.terms and view == f.terms
            assert all(isinstance(c, LocPoly) and c.ring == ring and c.terms for c in view.values())
            assert {(k, e): c for k, c in view.items() for e, c in c.terms.items()} == f.flat
            assert sum(len(c.num.terms) for c in f.terms.values()) == len(f.flat)
            assert Form(ring, view) == f
            again = f.terms
            for c in view.values():
                c.terms.clear()
            view.clear()
            view[()] = ring.one()
            assert f.flat == before and f.terms == again
            seen += len(f.terms) > 1
    assert seen
