import random

import pytest

from cechmf.cdg import CurvedLine, SheafAlgebraA
from cechmf.hochschild import CechHochChain, cech_hoch_d, hoch_d, make_chain
from cechmf.lax import (
    GLOBAL,
    CocycleError,
    GlobalModel,
    OneObjectLax,
    apply_global_functor,
    cech_lax_map,
    cech_strict_map,
    global_to_cech,
    iso_homotopy,
    lax_hq,
    restriction_htilde,
    strict_vs_lax_homotopy,
)
from cechmf.rand import rand_a_class_chain, rand_mono
from cechmf.scene import _loc_divide
from cechmf.scenes_builtin import builtin_scene
from cechmf.suites import coboundary_lax, unit_family
from conftest import sheared_a2c

P1 = builtin_scene("SCENE-P1")
A2C = builtin_scene("SCENE-A2C")
A2D = builtin_scene("SCENE-A2D")
A2 = builtin_scene("SCENE-A2")
P2 = builtin_scene("SCENE-P2")
# several-term restriction images, so several-term slots in every descent
SHEARED = sheared_a2c()


def _fixture(scene):
    alg = SheafAlgebraA(scene)
    w = unit_family(scene)
    lax, lax_id, tau = coboundary_lax(scene, alg, w)
    return alg, w, lax, lax_id, tau


@pytest.mark.parametrize("scene", [P1, A2C, A2D, P2], ids=lambda s: s.name)
def test_cocycle_condition(scene):
    _, _, lax, lax_id, _ = _fixture(scene)
    assert lax.cocycle_ok()
    assert lax_id.cocycle_ok()


def test_cocycle_failure_detected():
    # alpha(V,W) = 2 from a single chart V to the triple W and 1 otherwise:
    # on every strict chain V < U < W of P2, alpha(V,W) = 2 while
    # res(alpha(V,U)) alpha(U,W) = 1
    alg = SheafAlgebraA(P2)

    def bad_alpha(V, W):
        ring = P2.atlas.ring(W)
        return {"1": ring.const(2 if len(V) == 1 and len(W) == 3 else 1)}

    lax = OneObjectLax(
        P2, alg, alg,
        lambda I, sym: {sym: P2.atlas.ring(I).one()},
        bad_alpha,
    )
    assert not lax.cocycle_ok()
    with pytest.raises(CocycleError):
        cech_lax_map(lax, CechHochChain(alg, {}))


@pytest.mark.parametrize("scene", [P1, A2C, A2D, P2], ids=lambda s: s.name)
def test_lax_map_is_chain_map(scene):
    alg, _, lax, _, _ = _fixture(scene)
    rng = random.Random(83)
    for i in range(10):
        c = rand_a_class_chain(rng, alg, i % 2, max_len=2)
        lhs = cech_hoch_d(cech_lax_map(lax, c, check=False))
        rhs = cech_lax_map(lax, cech_hoch_d(c), check=False)
        assert lhs == rhs


@pytest.mark.parametrize("scene", [P2, A2C, A2D], ids=lambda s: s.name)
def test_cech_lax_map_is_the_sum_of_lax_hq(scene):
    # cech_lax_map adds every q into one accumulator and builds once; the
    # definition sums the per-q cochains
    alg, _, lax, lax_id, _ = _fixture(scene)
    rng = random.Random(79)
    nonzero = 0
    for i in range(6):
        c = rand_a_class_chain(rng, alg, i % 2, max_len=2)
        for F in (lax, lax_id):
            want = CechHochChain(F.dst, {})
            for q in range(len(scene.atlas.chart_ids) + 1):
                want = want + lax_hq(F, q, c)
            assert cech_lax_map(F, c, check=False) == want
            nonzero += not want.is_zero()
    assert nonzero


@pytest.mark.parametrize("scene", [P1, A2C], ids=lambda s: s.name)
def test_higher_hq_vanish_for_identity_iso(scene):
    # with alpha = id the ordered-tuple sum cancels pairwise for q >= 2
    alg, _, _, lax_id, _ = _fixture(scene)
    rng = random.Random(89)
    for _ in range(5):
        c = rand_a_class_chain(rng, alg, 0, max_len=2)
        for q in (2, 3):
            assert lax_hq(lax_id, q, c).is_zero()


def test_q0_is_plain_functor_application():
    alg, _, lax, _, _ = _fixture(A2)
    rng = random.Random(97)
    c = rand_a_class_chain(rng, alg, 0, max_len=2)
    # identity functor: the strict map is the identity on single-chart scenes
    assert cech_strict_map(lax, c) == c


@pytest.mark.parametrize("scene", [P1, A2C, A2D, P2, SHEARED], ids=lambda s: s.name)
def test_strict_vs_lax_homotopy(scene):
    # dH + Hd = strict - lax (= -h^1)
    alg, _, _, lax_id, _ = _fixture(scene)
    rng = random.Random(101)
    for i in range(8):
        c = rand_a_class_chain(rng, alg, i % 2, max_len=2)
        H = strict_vs_lax_homotopy(lax_id, c)
        lhs = cech_hoch_d(H) + strict_vs_lax_homotopy(lax_id, cech_hoch_d(c))
        rhs = cech_strict_map(lax_id, c) - cech_lax_map(lax_id, c, check=False)
        assert lhs == rhs


def test_strict_vs_lax_homotopy_vanishes_on_single_chart():
    alg = SheafAlgebraA(A2)
    _, _, _, lax_id, _ = _fixture(A2)
    rng = random.Random(103)
    c = rand_a_class_chain(rng, alg, 0, max_len=2)
    assert strict_vs_lax_homotopy(lax_id, c).is_zero()


@pytest.mark.parametrize("scene", [P1, A2C, A2D, P2, SHEARED], ids=lambda s: s.name)
def test_iso_homotopy(scene):
    # dH + Hd = (phi, alpha)-map minus (phi, id)-map
    alg, _, lax, lax_id, tau = _fixture(scene)
    rng = random.Random(107)
    for i in range(8):
        c = rand_a_class_chain(rng, alg, i % 2, max_len=2)
        H = iso_homotopy(lax, lax_id, tau, c)
        lhs = cech_hoch_d(H) + iso_homotopy(lax, lax_id, tau, cech_hoch_d(c))
        rhs = cech_lax_map(lax, c, check=False) - cech_lax_map(lax_id, c, check=False)
        assert lhs == rhs


def test_iso_homotopy_with_identity_tau_telescopes():
    # tau = id between equal lax structures: the difference is zero and the
    # homotopy identity reads dH + Hd = 0
    alg, _, _, lax_id, _ = _fixture(P1)
    tau_id = lambda T: {"1": (P1.atlas.ring(T)).one()}
    rng = random.Random(109)
    for _ in range(5):
        c = rand_a_class_chain(rng, alg, 0, max_len=2)
        H = iso_homotopy(lax_id, lax_id, tau_id, c)
        lhs = cech_hoch_d(H) + iso_homotopy(lax_id, lax_id, tau_id, cech_hoch_d(c))
        assert lhs.is_zero()


def test_two_chart_k0_expansion():
    # k = 0 chain on a two-chart scene: both sides of the strict-vs-lax
    # identity expand to a handful of terms; fixed here after hand expansion
    alg = SheafAlgebraA(P1)
    _, _, _, lax_id, _ = _fixture(P1)
    ring0 = P1.atlas.ring((0,))
    c = CechHochChain(alg, {(0,): make_chain(alg, (0,), ("*",), [{"1": ring0.one()}])})
    H = strict_vs_lax_homotopy(lax_id, c)
    lhs = cech_hoch_d(H) + strict_vs_lax_homotopy(lax_id, cech_hoch_d(c))
    rhs = cech_strict_map(lax_id, c) - cech_lax_map(lax_id, c, check=False)
    assert lhs == rhs
    # the difference is exactly -h^1
    assert rhs == -lax_hq(lax_id, 1, c)


def test_restriction_homotopy_on_asymmetric_cover():
    scene = A2D
    alg = SheafAlgebraA(scene)
    gring = scene.global_ring
    w = unit_family(scene)
    lax, _, _ = coboundary_lax(scene, alg, w)

    def gd(sym):
        return {"1": gring.var("x")} if sym == "e" else {}

    def sym_image(i, sym):
        chart = scene.chart(i)
        if sym == "e":
            u = _loc_divide(scene.global_res[i](gring.var("x")), chart.x)
            return {"e": u}
        return {"1": chart.ring.one()}

    model = GlobalModel(scene, alg, ("1", "e"), gd, sym_image=sym_image)
    rng = random.Random(113)
    seen_nonzero = False
    for _ in range(8):
        k = rng.randint(0, 2)
        slots = []
        for _ in range(k + 1):
            sym = rng.choice(["1", "e", "1"])
            exps = tuple(rng.randint(0, 1) for _ in range(gring.nvars))
            slots.append({sym: gring.monomial(exps, rng.randint(-2, 2))})
        gchain = make_chain(model, GLOBAL, ("*",) * (k + 1), slots)
        if gchain.is_zero():
            continue
        Ht = restriction_htilde(lax, model, gchain)
        lhs = cech_hoch_d(Ht) + restriction_htilde(lax, model, hoch_d(gchain))
        r1 = cech_lax_map(lax, global_to_cech(model, gchain), check=False)
        r2 = global_to_cech(model, apply_global_functor(model, gchain, lax.functor_sym))
        assert lhs == r1 - r2
        seen_nonzero = seen_nonzero or not (r1 - r2).is_zero()
    assert seen_nonzero, "the comparison must be exercised non-vacuously"


def _lax_outputs(scene, fixture, line_fixture, c, g):
    """Every lax operator on c (and the restriction homotopy on the global
    chain g) from the given coboundary morphisms."""
    lax, lax_id, tau = fixture
    out = [
        cech_lax_map(lax, c),
        iso_homotopy(lax, lax_id, tau, c),
        strict_vs_lax_homotopy(lax_id, c),
    ]
    out += [lax_hq(F, q, c) for F in (lax, lax_id) for q in range(len(scene.atlas.chart_ids) + 1)]
    if g is not None:
        glax, model = line_fixture
        out.append(restriction_htilde(glax, model, g))
    return out


def _line_model(scene, w):
    """The curved-line global model and its coboundary morphism, as
    suite_lax builds them on a scene with no global divisor."""
    line = CurvedLine(scene, -1)
    return coboundary_lax(scene, line, w)[0], GlobalModel(scene, line, ("1",), lambda sym: {})


def _global_chain(rng, model):
    gring = model.scene.global_ring
    k = rng.randint(0, 1)
    slots = [
        {"1": gring.monomial(rand_mono(rng, gring, 1), rng.choice((-2, 1, 3)))}
        for _ in range(k + 1)
    ]
    return make_chain(model, GLOBAL, ("*",) * (k + 1), slots)


@pytest.mark.parametrize("scene", [P1, A2C, A2D, P2, SHEARED], ids=lambda s: s.name)
def test_lax_tables_serve_what_a_new_morphism_computes(scene):
    # a warm pair of coboundary morphisms against a new pair per chain: each
    # morphism keeps its alpha, inserted inverses and realizations on itself
    alg, w, lax, lax_id, tau = _fixture(scene)
    warm_line = _line_model(scene, w)
    rng = random.Random(127)
    chains = [rand_a_class_chain(rng, alg, i % 2, max_len=2) for i in range(4)]
    gchains = [_global_chain(rng, warm_line[1]) for _ in chains]
    want = []
    for c, g in zip(chains, gchains):
        fresh = coboundary_lax(scene, alg, w)
        fresh_line = (coboundary_lax(scene, warm_line[0].src, w)[0], warm_line[1])
        want.append(_lax_outputs(scene, fresh, fresh_line, c, g))
    for _ in range(2):  # cold, then warm
        for c, g, expected in zip(chains, gchains, want):
            assert _lax_outputs(scene, (lax, lax_id, tau), warm_line, c, g) == expected
    assert any(not x.is_zero() for out in want for x in out)
    # the two morphisms of one coboundary_lax call share no table and no entry
    shared = lax._tables.keys() & lax_id._tables.keys()
    assert {"alpha", "alpha_inv", "inserted"} <= {tag for tag, *_ in shared}
    for key in shared:
        mine, other = lax.table(*key), lax_id.table(*key)
        assert mine is not other
        assert all(mine[k] is not other[k] for k in mine.keys() & other.keys())
    for F in (lax, lax_id):
        assert all(a == F.alpha_elem(V, W) for (V, W), a in F.table("alpha").items())
    assert lax.table("alpha") != lax_id.table("alpha")
