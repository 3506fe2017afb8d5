import itertools
import random

import pytest

from cechmf.cdg import (
    CurvedLine,
    MFCategory,
    MFObject,
    SheafAlgebraA,
    TrivializedCategory,
    build_P,
    can_map,
    elem_scale,
    elem_sum,
    end_algebra,
)
from cechmf.scenes_builtin import all_builtin_names, builtin_scene

SCENES = {name: builtin_scene(name) for name in all_builtin_names()}


@pytest.mark.parametrize("name", all_builtin_names())
def test_P_is_a_matrix_factorization(name):
    scene = SCENES[name]
    cat = end_algebra(scene, build_P(scene))
    for I in scene.atlas.tuples:
        assert cat.curvature(I, "P") == {}


def test_P_delta_shape_on_p1():
    scene = SCENES["SCENE-P1"]
    P = build_P(scene)
    d0 = P.delta(scene, (0,))
    ring = scene.atlas.ring((0,))
    assert d0[0][1] == ring.var("t") and d0[1][0].is_zero()
    # transitions diag(1, u): restriction conjugates E_rc to g_r E_rc g_c^{-1}
    cat = end_algebra(scene, P)
    r01 = scene.atlas.ring((0, 1))
    g = [r01.one(), r01.monomial([-1])]
    for r, c in itertools.product(range(2), repeat=2):
        sym = ("E", "P", "P", r, c)
        assert cat.restrict_sym((1,), (0, 1), sym) == {sym: g[r] * g[c].inverse()}


def test_transition_conjugation_matches_delta():
    # g_{kl} (delta)_l g_{kl}^{-1} = (delta)_k, expressed through restrict_sym
    for name in ("SCENE-P1", "SCENE-P2"):
        scene = SCENES[name]
        cat = end_algebra(scene, build_P(scene))
        for I in scene.atlas.tuples:
            if len(I) != 2:
                continue
            i, j = I
            # delta stored over (j,) restricts to the delta stored over I
            for (src,) in [((j,),)]:
                elem = {}
                for sym, c in cat.delta_element(src, "P").items():
                    for sym2, c2 in cat.restrict_sym(src, I, sym).items():
                        add = {sym2: scene.atlas.res(src, I)(c) * c2}
                        elem = elem_sum((elem, add))
                assert elem == cat.delta_element(I, "P")


def test_end_algebra_d_squared_zero():
    for name in all_builtin_names():
        scene = SCENES[name]
        cat = end_algebra(scene, build_P(scene))
        for I in scene.atlas.tuples:
            assert cat.curvature(I, "P") == {}
            for sym in cat.hom_basis(I, "P", "P"):
                dd = {}
                for s2, c2 in cat.d(I, sym).items():
                    for s3, c3 in cat.d(I, s2).items():
                        dd = elem_sum((dd, {s3: c3 * c2}))
                assert dd == {}, (name, I, sym)


def test_d_of_identity_is_zero():
    scene = SCENES["SCENE-A2"]
    cat = end_algebra(scene, build_P(scene))
    out = {}
    for sym, c in cat.identity((0,), "P").items():
        for s2, c2 in cat.d((0,), sym).items():
            out = elem_sum((out, {s2: c2 * c}))
    assert out == {}


def test_trivial_line_curvature():
    scene = SCENES["SCENE-A2"]
    # (O_X, 0) inside the quasi matrix factorizations, curvature -f
    O = MFObject(name="O", parities=(0,), twists=(0,), delta_of=None)
    cat = MFCategory(scene, [build_P(scene), O])
    h = cat.curvature((0,), "O")
    ring = scene.atlas.ring((0,))
    assert h == {("E", "O", "O", 0, 0): -scene.ctx((0,)).f}


def _matmul(a, b, zero):
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), zero) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _as_elem(x, y, m):
    """The element of Hom(x, y) with matrix m, zero entries dropped."""
    return {
        ("E", y, x, r, c): v
        for r, row in enumerate(m)
        for c, v in enumerate(row)
        if not v.is_zero()
    }


@pytest.mark.parametrize("name", all_builtin_names())
def test_mf_d_and_curvature_match_the_matrix_formula(name):
    # d E = delta_y E - (-1)^|E| E delta_x and curvature delta^2 - f, with the
    # matrices of MFObject.delta; P and (O_X, 0) cover the symbols P->O, O->P
    scene = SCENES[name]
    O = MFObject(name="O", parities=(0,), twists=(0,), delta_of=None)
    cat = MFCategory(scene, [build_P(scene), O])
    triv = TrivializedCategory(scene, [build_P(scene), O])
    for I in scene.atlas.tuples:
        ring = scene.atlas.ring(I)
        zero, f = ring.zero(), scene.ctx(I).f
        delta = {x: m.delta(scene, I) for x, m in cat.mfs.items()}
        for x, y in itertools.product(cat.mfs, repeat=2):
            nx, ny = cat.mfs[x].rank, cat.mfs[y].rank
            for r, c in itertools.product(range(ny), range(nx)):
                sym = ("E", y, x, r, c)
                E = [[ring.one() if (i, j) == (r, c) else zero for j in range(nx)]
                     for i in range(ny)]
                sign = -1 if cat.parity(sym) else 1
                left, right = _matmul(delta[y], E, zero), _matmul(E, delta[x], zero)
                dE = [[a - b.scale(sign) for a, b in zip(ra, rb)]
                      for ra, rb in zip(left, right)]
                assert cat.d(I, sym) == _as_elem(x, y, dE), (name, I, sym)
                assert triv.d(I, sym) == {}
        for x, m in cat.mfs.items():
            h = _matmul(delta[x], delta[x], zero)
            h = [[v - f if r == c else v for c, v in enumerate(row)]
                 for r, row in enumerate(h)]
            assert cat.curvature(I, x) == _as_elem(x, x, h), (name, I, x)
            minus_f = [[-f if r == c else zero for c in range(m.rank)]
                       for r in range(m.rank)]
            assert triv.curvature(I, x) == _as_elem(x, x, minus_f), (name, I, x)
        for _, _, J in scene.atlas.extensions(I):
            for x, y in itertools.product(triv.mfs, repeat=2):
                for sym in triv.hom_basis(I, x, y):
                    assert triv.restrict_sym(I, J, sym) == {sym: scene.atlas.ring(J).one()}


def test_can_is_a_homomorphism():
    for name in all_builtin_names():
        scene = SCENES[name]
        alg = SheafAlgebraA(scene)
        cat = end_algebra(scene, build_P(scene))
        can = can_map(scene, cat)
        for I in scene.atlas.tuples:
            syms = alg.hom_basis(I, "*", "*")
            # multiplicative on all basis pairs
            for a, b in itertools.product(syms, repeat=2):
                lhs = {}
                for s, c in alg.compose(I, a, b).items():
                    lhs = elem_sum((lhs, elem_scale(can.apply_sym(I, s), c)))
                rhs = {}
                for sa, ca in can.apply_sym(I, a).items():
                    for sb, cb in can.apply_sym(I, b).items():
                        for s, c in cat.compose(I, sa, sb).items():
                            rhs = elem_sum((rhs, {s: c * ca * cb}))
                assert lhs == rhs, (name, I, a, b)
            # intertwines the differentials
            for a in syms:
                lhs = {}
                for s, c in alg.d(I, a).items():
                    lhs = elem_sum((lhs, elem_scale(can.apply_sym(I, s), c)))
                rhs = {}
                for s, c in can.apply_sym(I, a).items():
                    for s2, c2 in cat.d(I, s).items():
                        rhs = elem_sum((rhs, {s2: c2 * c}))
                assert lhs == rhs, (name, I, a)
            # unital
            assert can.apply_sym(I, "1") == cat.identity(I, "P")


def test_can_commutes_with_restrictions():
    # strictness: restriction then can equals can then restriction
    for name in ("SCENE-P1", "SCENE-P2"):
        scene = SCENES[name]
        alg = SheafAlgebraA(scene)
        cat = end_algebra(scene, build_P(scene))
        can = can_map(scene, cat)
        for I in scene.atlas.tuples:
            for _, _, J in scene.atlas.extensions(I):
                for a in alg.hom_basis(I, "*", "*"):
                    lhs = {}
                    for s, c in alg.restrict_sym(I, J, a).items():
                        lhs = elem_sum((lhs, elem_scale(can.apply_sym(J, s), c)))
                    rhs = {}
                    for s, c in can.apply_sym(I, a).items():
                        for s2, c2 in cat.restrict_sym(I, J, s).items():
                            rhs = elem_sum((rhs, {s2: c2 * scene.atlas.res(I, J)(c)}))
                    assert lhs == rhs, (name, I, J, a)


def test_sheaf_algebra_axioms():
    for name in all_builtin_names():
        scene = SCENES[name]
        alg = SheafAlgebraA(scene)
        for I in scene.atlas.tuples:
            # d is a derivation on the basis: d(e*e) = d(e)e - e d(e) ... e*e = 0
            # and d(e) = x, d(1) = 0, d(x*e) handled by linearity
            assert alg.d(I, "1") == {}
            de = alg.d(I, "e")
            x = scene.ctx(I).x
            assert de == ({} if x.is_zero() else {"1": x})
            # d^2 = [h, -] = 0 here: d(d(e)) = d(x * 1) = 0
            dd = {}
            for s, c in de.items():
                for s2, c2 in alg.d(I, s).items():
                    dd = elem_sum((dd, {s2: c2 * c}))
            assert dd == {}
