import copy
import random
import re
from fractions import Fraction

import pytest

from cechmf import homology, linalg, suites
from cechmf.cech import (
    CONE,
    FORM,
    OMEGA,
    OMEGA_LOG,
    OMEGA_Y,
    YFORM,
    Cochain,
    cech_total_d,
    unit_cochain,
)
from cechmf.forms import Form, index_sets
from cechmf.homology import (
    _dtable,
    _expand,
    _parity,
    _window_keys,
    expand_cochain,
    homology_dims,
    is_boundary_within_window,
    _basis_cochain,
)
from cechmf.scene import scene_from_dict, validate_scene
from cechmf.scenes_builtin import all_builtin_names, builtin_scene, builtin_scene_dict
from cechmf.suites import oracle_homology_dims

A1 = builtin_scene("SCENE-A1")
A2 = builtin_scene("SCENE-A2")
P1 = builtin_scene("SCENE-P1")

# frozen expected values, confirmed by the brute-force oracle in
# test_acceptance before freezing
GOLDEN = {"SCENE-A1": (0, 1), "SCENE-A2": (1, 0), "SCENE-P1": (2, 0)}


def _columns(scene, kind, keys) -> dict:
    """{key: d of its basis cochain, expanded from the table of its
    (tag, I, K)}, each table built once, as a window build does."""
    tables, out = {}, {}
    for key in keys:
        table = tables.get(key[:3])
        if table is None:
            table = tables[key[:3]] = _dtable(scene, kind, key)
        out[key] = _expand(table, key[3])
    return out


@pytest.mark.parametrize("scene,name", [(A1, "SCENE-A1"), (A2, "SCENE-A2"), (P1, "SCENE-P1")])
def test_omega_homology_dims(scene, name):
    out = homology_dims(scene, OMEGA, D=3)
    assert (out["even"], out["odd"]) == GOLDEN[name]
    assert out["stable"]


def test_homology_invariant_under_window_growth():
    for scene in (A1, A2, P1):
        a = homology_dims(scene, OMEGA, D=2)
        b = homology_dims(scene, OMEGA, D=3)
        if a["stable"]:
            assert (a["even"], a["odd"]) == (b["even"], b["odd"])


def test_y_homology_of_p1_is_point():
    out = homology_dims(P1, OMEGA_Y, D=3)
    # Y is one point: (1, 0)
    assert (out["even"], out["odd"]) == (1, 0)
    assert out["stable"]


def test_cone_homology_matches_y():
    # the cone complex is quasi-isomorphic to divisor forms
    for scene in (A2, P1):
        cone = homology_dims(scene, CONE, D=3)
        y = homology_dims(scene, OMEGA_Y, D=3)
        assert (cone["even"], cone["odd"]) == (y["even"], y["odd"])


def test_boundary_detection():
    ring = A2.atlas.ring((0,))
    # df ^ dx = -x dx^dy... a boundary of the OMEGA complex
    w = Cochain(A2, FORM, {(0,): Form(ring, {(0,): ring.one()})})
    b = cech_total_d(w, OMEGA)
    assert is_boundary_within_window(b, OMEGA, 3)
    # dx^dy generates H_even and is not a boundary
    nz = Cochain(A2, FORM, {(0,): Form(ring, {(0, 1): ring.one()})})
    assert not is_boundary_within_window(nz, OMEGA, 3)


@pytest.mark.parametrize("kind", [OMEGA, OMEGA_Y, CONE])
@pytest.mark.parametrize("name", all_builtin_names())
def test_expand_roundtrip(name, kind):
    """Each basis key is its own basis cochain taken apart again, and d
    moves every key to the other parity."""
    scene = builtin_scene(name)
    for key, column in _columns(scene, kind, _window_keys(scene, kind, 2)).items():
        c = _basis_cochain(scene, kind, key)
        assert expand_cochain(c, kind) == {key: Fraction(1)}
        assert {_parity(k) for k in column} <= {1 - _parity(key)}, key


@pytest.mark.parametrize("kind", [OMEGA_LOG, "no-such-complex"])
def test_unsupported_complex_is_named(kind):
    with pytest.raises(ValueError, match=kind):
        homology_dims(A2, kind, 1)
    w = Cochain(A2, FORM, {(0,): Form.one(A2.atlas.ring((0,)))})
    with pytest.raises(ValueError, match=kind):
        is_boundary_within_window(w, kind, 1)


@pytest.mark.parametrize("kind", [OMEGA_Y, CONE])
def test_cochain_of_another_kind_is_rejected(kind):
    """A form cochain is not a section of omega_y or the cone; neither the
    expansion nor the boundary test gives it a verdict."""
    c = unit_cochain(A2, FORM)
    with pytest.raises(ValueError, match=f"'{FORM}'.*'{kind}'"):
        expand_cochain(c, kind)
    with pytest.raises(ValueError, match=f"'{FORM}'.*'{kind}'"):
        is_boundary_within_window(c, kind, 1)
    y = unit_cochain(A2, YFORM)
    with pytest.raises(ValueError, match=f"'{YFORM}'.*'{OMEGA}'"):
        is_boundary_within_window(y, OMEGA, 1)
    assert is_boundary_within_window(cech_total_d(y, OMEGA_Y), OMEGA_Y, 1)


@pytest.mark.parametrize("D", [-1, -3, True, False, 1.0, "1", None])
def test_invalid_window_is_rejected(D):
    """A window is a non-negative int; None is the scene's own window for
    homology_dims only."""
    w = Cochain(A1, FORM, {(0,): Form.one(A1.atlas.ring((0,)))})
    if D is not None:
        with pytest.raises(ValueError, match=re.escape(f"D={D!r}")):
            homology_dims(A1, OMEGA, D)
    with pytest.raises(ValueError, match=re.escape(f"D={D!r}")):
        is_boundary_within_window(w, OMEGA, D)
    with pytest.raises(ValueError, match=re.escape(f"D={D!r}")):
        is_boundary_within_window(Cochain(A1, FORM, {}), OMEGA, D)


def _size(key) -> int:
    return sum(map(abs, key[3]))


def _key_list(scene, kind, D):
    """The window keys as a list, written out: per tuple, the summands off
    the divisor, then those on it, each by K, then m, then tag."""
    keys = []
    for I in scene.atlas.tuples:
        ctx = scene.ctx(I)
        for on_y in (False, True):
            tags = [s[0] for s in homology._summands(kind) if s[2] == on_y]
            if not tags or (on_y and ctx.pole is None):
                continue
            pole = ctx.pole if on_y else None
            monos = homology._monomials(ctx.ring, D, forbid=pole)
            for K in index_sets(ctx.ring.nvars):
                if pole not in K:
                    keys += [(tag, I, K, m) for m in monos for tag in tags]
    return keys


@pytest.mark.parametrize("kind", [OMEGA, OMEGA_Y, CONE])
@pytest.mark.parametrize("name", all_builtin_names())
def test_basis_is_the_size_sort_of_the_window_keys(name, kind):
    """The generated basis is the stable sort by exponent size of the key
    list, split by parity: `_dims` counts the kept echelon's pivots below
    each window's end in this order, a boundary test reduces against the
    reduced columns of a window's prefix, and the traced distinct_ratio
    reads the order too."""
    scene = builtin_scene(name)
    for D in range(4):
        keys = _key_list(scene, kind, D)
        assert _window_keys(scene, kind, D) == keys
        keys = sorted(keys, key=_size)
        wd = homology._WindowedDifferential(scene, kind, D)
        for par in (0, 1):
            want = [k for k in keys if _parity(k) == par]
            assert wd.basis[par] == want, (D, par)
            assert wd.ends[par] == [sum(_size(k) <= s for k in want) for s in range(D + 1)]


def _assert_columns_are_d_of_the_basis(scene, kind, D=3):
    """Every table-built column equals cech_total_d of its basis cochain."""
    for key, column in _columns(scene, kind, _window_keys(scene, kind, D)).items():
        want = expand_cochain(cech_total_d(_basis_cochain(scene, kind, key), kind), kind)
        assert column == want, key


@pytest.mark.parametrize("kind", [OMEGA, OMEGA_Y, CONE])
@pytest.mark.parametrize("name", all_builtin_names())
def test_table_columns_equal_cech_total_d(name, kind):
    _assert_columns_are_d_of_the_basis(builtin_scene(name), kind)


def _sheared_a2c(c="1"):
    """SCENE-A2C with chart 1 glued by y -> y + c*x^2 on the overlap.  Its
    restriction images have several terms, so x^m dx_K restricts to a sum
    of monomials, some of which gain a power of the pole x.  With c = 1/2
    the differential has non-integral entries."""
    spec = builtin_scene_dict("SCENE-A2C")
    spec["name"] = "SCENE-A2C-SHEAR"
    spec["charts"][1].update(f=f"x*y - {c}*x^3", g=f"y - {c}*x^2")
    spec["overlaps"][0]["res"]["1"] = {"x": "x", "y": f"y + {c}*x^2"}
    spec["global"]["res"]["1"] = {"x": "x", "y": f"y - {c}*x^2"}
    return scene_from_dict(spec)


@pytest.mark.parametrize("kind", [OMEGA, OMEGA_Y, CONE])
def test_table_columns_equal_cech_total_d_on_a_sheared_scene(kind):
    scene = _sheared_a2c()
    assert validate_scene(scene).ok
    y_image = scene.atlas.res((1,), (0, 1)).images[1]
    assert len(y_image.terms) == 2
    _assert_columns_are_d_of_the_basis(scene, kind)


@pytest.mark.parametrize("D", [0, 1])
@pytest.mark.parametrize("kind", [OMEGA, OMEGA_Y, CONE])
@pytest.mark.parametrize("c", ["1", "1/2"])
def test_engine_matches_oracle_on_sheared_scenes(c, kind, D):
    """The elimination over Z against the oracle's sparse rank, on the
    sheared scenes.  The half-sheared one has entries like 1/2 in omega and
    the cone; on Y = {x = 0} the shear is the identity, so omega_y stays
    integral."""
    scene = _sheared_a2c(c)
    assert validate_scene(scene).ok
    if c == "1/2" and kind != OMEGA_Y:
        wd = homology._WindowedDifferential(scene, kind, D + 1)
        assert any(isinstance(v, Fraction) for par in (0, 1) for col in wd.matrix[par].entries for v in col.values())
    out = homology_dims(scene, kind, D)
    here = oracle_homology_dims(scene, kind, D)
    there = oracle_homology_dims(scene, kind, D + 1)
    assert (out["even"], out["odd"]) == (here["even"], here["odd"])
    assert (out["even_next"], out["odd_next"]) == (there["even"], there["odd"])


def test_oracle_does_not_build_table_columns(monkeypatch):
    """The oracle checks the table-built columns, so it assembles its own.
    The scene is fresh: a scene that kept a window reads it and does not
    reach `_dtable` again."""

    def reached(*args):
        raise AssertionError("reached homology._dtable")

    monkeypatch.setattr(homology, "_dtable", reached)
    scene = builtin_scene("SCENE-A2")
    with pytest.raises(AssertionError, match="_dtable"):
        homology_dims(scene, OMEGA, 2)
    assert not hasattr(suites, "_dtable") and not hasattr(suites, "_expand")
    out = oracle_homology_dims(scene, OMEGA, 2)
    assert (out["even"], out["odd"]) == GOLDEN["SCENE-A2"]


def test_oracle_rank_does_not_use_linalg(monkeypatch):
    """The oracle checks the engine's elimination, so it runs its own.
    The scene is fresh: a scene that kept a window reads its echelon and
    does not reach `rank_kernel` again."""

    def reached(*args):
        raise AssertionError("reached rank_kernel")

    monkeypatch.setattr(linalg, "rank_kernel", reached)
    monkeypatch.setattr(homology, "rank_kernel", reached)
    scene = builtin_scene("SCENE-A2")
    with pytest.raises(AssertionError, match="rank_kernel"):
        homology_dims(scene, OMEGA, 2)
    assert not hasattr(suites, "rank_kernel")
    out = oracle_homology_dims(scene, OMEGA, 2)
    assert (out["even"], out["odd"]) == GOLDEN["SCENE-A2"]


@pytest.mark.parametrize("D", [0, 1, 2])
@pytest.mark.parametrize("kind", [OMEGA, OMEGA_Y, CONE])
@pytest.mark.parametrize("name", all_builtin_names())
def test_engine_matches_oracle_at_both_windows(name, kind, D):
    scene = builtin_scene(name)
    out = homology_dims(scene, kind, D)
    here = oracle_homology_dims(scene, kind, D)
    there = oracle_homology_dims(scene, kind, D + 1)
    assert (out["even"], out["odd"]) == (here["even"], here["odd"])
    assert (out["even_next"], out["odd_next"]) == (there["even"], there["odd"])
    assert out["stable"] == (here == there)


def _top_form_on_every_chart(scene):
    entries = {}
    for i in scene.atlas.chart_ids:
        ring = scene.atlas.ring((i,))
        entries[(i,)] = Form(ring, {(0, 1): ring.one()})
    return Cochain(scene, FORM, entries)


@pytest.mark.parametrize(
    "name,D,generator",
    [
        # f = 0: the unit is a cocycle, the class of H^0(P^2, O)
        ("SCENE-P2", 1, lambda sc: unit_cochain(sc, FORM)),
        # X = A^2 on two charts, H_even spanned by dx^dy as on SCENE-A2
        ("SCENE-A2D", 2, _top_form_on_every_chart),
    ],
)
def test_boundary_detection_on_multi_chart_scenes(name, D, generator):
    scene = builtin_scene(name)
    keys = _window_keys(scene, OMEGA, D)
    rng = random.Random(7)
    for _ in range(4):
        v = _basis_cochain(scene, OMEGA, rng.choice(keys))
        v = v + _basis_cochain(scene, OMEGA, rng.choice(keys)).scale(Fraction(-3, 2))
        assert is_boundary_within_window(cech_total_d(v, OMEGA), OMEGA, D)
    g = generator(scene)
    assert cech_total_d(g, OMEGA).is_zero()
    assert not is_boundary_within_window(g, OMEGA, D)
    # a generator plus a boundary is still not a boundary
    assert not is_boundary_within_window(g + cech_total_d(v, OMEGA), OMEGA, D)


def _kept_window(wd) -> tuple:
    """A kept window's basis, row numbers, and per parity its rows, its
    row-numbered columns, their integral forms and its echelon."""
    matrices = {par: (m.rows, m.entries, m.integral) for par, m in wd.matrix.items()}
    return wd.D, wd.basis, wd.ambient, matrices, wd.echelon


@pytest.mark.parametrize("name", [*all_builtin_names(), "half-sheared"])
def test_kept_window_stays_unchanged(name):
    """Calls below, at and above the kept window leave every kept window
    as it was assembled, its echelon included, also after a larger window
    has replaced it: no boundary test writes a kept reduced column.  The half-sheared scene's columns hold
    Fraction entries, so their integral forms are dicts of their own."""
    scene = _sheared_a2c("1/2") if name == "half-sheared" else builtin_scene(name)
    kinds = (OMEGA, OMEGA_Y, CONE)
    probes = {}  # kind -> (a window-1 basis cochain, its boundary)
    for kind in kinds:
        homology._window(scene, kind, 2)
        last = _basis_cochain(scene, kind, _window_keys(scene, kind, 1)[-1])
        probes[kind] = last, cech_total_d(last, kind)
    windows = dict(scene._windows)
    assert {wd.D for wd in windows.values()} == {2}
    before = copy.deepcopy({kind: _kept_window(wd) for kind, wd in windows.items()})
    rational = any(
        m.integral[j] is not col for wd in windows.values() for m in wd.matrix.values() for j, col in enumerate(m.entries)
    )
    assert rational == (name == "half-sheared")

    def unchanged():
        assert {kind: _kept_window(wd) for kind, wd in windows.items()} == before

    for kind in kinds:  # below and at the kept window
        homology_dims(scene, kind, 0)
        homology_dims(scene, kind, 1)
        last, boundary = probes[kind]
        for D in (0, 1):  # both read window D + 1
            is_boundary_within_window(last, kind, D)
            verdict = is_boundary_within_window(boundary, kind, D)
            assert verdict or D == 0  # last, of window 1, is a preimage
        assert scene._windows[kind] is windows[kind]
    unchanged()
    for kind in kinds:  # above it: a larger window replaces it
        homology_dims(scene, kind, 2)
        assert scene._windows[kind].D == 3
        last, boundary = probes[kind]
        is_boundary_within_window(last, kind, 3)
        assert is_boundary_within_window(boundary, kind, 3)
        assert scene._windows[kind].D == 4
    unchanged()


@pytest.mark.parametrize("kind", [OMEGA, OMEGA_Y, CONE])
@pytest.mark.parametrize("name", [*all_builtin_names(), "half-sheared"])
def test_kept_window_is_d_of_its_basis(name, kind):
    """Each row-numbered column of the kept window, its rows read back as
    keys, is d of its basis cochain, and each parity's ambient rows number
    its basis 0..n-1 first."""
    scene = _sheared_a2c("1/2") if name == "half-sheared" else builtin_scene(name)
    homology_dims(scene, kind, 1)
    wd = scene._windows[kind]
    assert wd.D == 2
    for par in (0, 1):
        basis, amb = wd.basis[par], wd.ambient[par]
        assert [amb[k] for k in basis] == list(range(len(basis)))
        key_of = {i: k for k, i in wd.ambient[1 - par].items()}
        m = wd.matrix[par]
        assert (m.rows, m.cols) == (len(key_of), len(basis))
        for key, col in zip(basis, m.entries):
            want = expand_cochain(cech_total_d(_basis_cochain(scene, kind, key), kind), kind)
            assert {key_of[i]: v for i, v in col.items()} == want, key


@pytest.mark.parametrize("kind", [OMEGA, OMEGA_Y, CONE])
@pytest.mark.parametrize("name", ["SCENE-A2D", "SCENE-P2"])
def test_boundary_test_and_homology_share_one_window(name, kind):
    """A boundary test at window D reads the window homology_dims keeps for
    D, D + 1: after both calls the scene holds one window object, built by
    the first call and read by the second."""
    scene = builtin_scene(name)
    D = 1
    is_boundary_within_window(_basis_cochain(scene, kind, _window_keys(scene, kind, D)[-1]), kind, D)
    (wd,) = scene._windows.values()
    assert wd.D == D + 1
    homology_dims(scene, kind, D)
    assert list(scene._windows.values()) == [wd] and scene._windows[kind] is wd


@pytest.mark.parametrize("kind", [OMEGA, OMEGA_Y, CONE])
def test_key_outside_the_kept_rows_is_no_boundary_without_elimination(kind, monkeypatch):
    """No column of the kept window reaches a key outside its rows, so a
    target with such a key is no boundary, and no elimination runs."""
    scene = builtin_scene("SCENE-A2D")
    D = 1
    last = _basis_cochain(scene, kind, _window_keys(scene, kind, D)[-1])
    homology_dims(scene, kind, D)
    wd = scene._windows[kind]
    far = _window_keys(scene, kind, D + 4)[-1]
    assert far not in wd.ambient[_parity(far)]

    def reached(*args):
        raise AssertionError("reached rank_kernel")

    monkeypatch.setattr(linalg, "rank_kernel", reached)
    monkeypatch.setattr(homology, "rank_kernel", reached)
    outside = _basis_cochain(scene, kind, far)
    assert not is_boundary_within_window(outside, kind, D)
    assert not is_boundary_within_window(last + outside, kind, D)
    assert scene._windows[kind] is wd


def _warm_answers(scene, kind) -> tuple:
    """homology_dims at D = 2, 1, 0, then boundary tests at D = 2, 1, 0 of
    the first and last window-D basis cochains, their boundaries, and the
    sums of each with its boundary."""
    dims = [homology_dims(scene, kind, D) for D in (2, 1, 0)]
    verdicts = []
    for D in (2, 1, 0):
        keys = _window_keys(scene, kind, D)
        for key in (keys[0], keys[-1]):
            v = _basis_cochain(scene, kind, key)
            boundary = cech_total_d(v, kind)
            verdicts += [is_boundary_within_window(c, kind, D) for c in (v, boundary, v + boundary)]
    return dims, verdicts


@pytest.mark.parametrize("kind", [OMEGA, OMEGA_Y, CONE])
def test_warm_calls_read_the_kept_echelon(kind, monkeypatch):
    """After one cold homology_dims at D = 2, the kept window 3 answers
    homology at D = 2, 1, 0 and boundary tests at D <= 2 from the echelons
    built with it: no elimination runs, and the answers are a fresh
    scene's."""
    want = _warm_answers(builtin_scene("SCENE-A2D"), kind)
    assert {True, False} <= set(want[1])
    scene = builtin_scene("SCENE-A2D")
    homology_dims(scene, kind, 2)

    def reached(*args):
        raise AssertionError("reached rank_kernel")

    monkeypatch.setattr(linalg, "rank_kernel", reached)
    monkeypatch.setattr(homology, "rank_kernel", reached)
    assert _warm_answers(scene, kind) == want
    assert scene._windows[kind].D == 3
