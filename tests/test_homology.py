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
from cechmf.scene import load_scene, validate_scene
from cechmf.scenes_builtin import all_builtin_names, builtin_scene
from cechmf.suites import oracle_homology_dims
from conftest import POLE1_FILE, SHEARED_FILE, sheared_a2c

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
    """The assembled basis is the stable sort by exponent size of the key
    list, split by parity, and each parity's ambient rows number it
    0..n-1 first: `_dims` counts the echelon's pivots below each window's
    end in this order, and the traced distinct_ratio reads the order too."""
    scene = builtin_scene(name)
    for D in range(4):
        keys = _key_list(scene, kind, D)
        assert _window_keys(scene, kind, D) == keys
        keys = sorted(keys, key=_size)
        basis, ambient, _ = homology._assemble(scene, kind, D)
        for par in (0, 1):
            want = [k for k in keys if _parity(k) == par]
            assert basis[par] == want, (D, par)
            assert [ambient[par][k] for k in want] == list(range(len(want)))


def _assert_columns_are_d_of_the_basis(scene, kind, D=3):
    """Every table-built column equals cech_total_d of its basis cochain."""
    for key, column in _columns(scene, kind, _window_keys(scene, kind, D)).items():
        want = expand_cochain(cech_total_d(_basis_cochain(scene, kind, key), kind), kind)
        assert column == want, key


@pytest.mark.parametrize("kind", [OMEGA, OMEGA_Y, CONE])
@pytest.mark.parametrize("name", all_builtin_names())
def test_table_columns_equal_cech_total_d(name, kind):
    _assert_columns_are_d_of_the_basis(builtin_scene(name), kind)


@pytest.mark.parametrize("kind", [OMEGA, OMEGA_Y, CONE])
def test_table_columns_equal_cech_total_d_on_a_sheared_scene(kind):
    scene = sheared_a2c()
    assert validate_scene(scene).ok
    y_image = scene.atlas.res((1,), (0, 1)).images[1]
    assert len(y_image.terms) == 2
    _assert_columns_are_d_of_the_basis(scene, kind)


@pytest.mark.parametrize("kind", [OMEGA, OMEGA_Y, CONE])
@pytest.mark.parametrize("path", [SHEARED_FILE, POLE1_FILE], ids=lambda path: path.stem)
def test_table_columns_equal_cech_total_d_on_scene_files(path, kind):
    """The window-2 columns of both sheared scene files.  A residue term
    that gains a power of the pole becomes dx_pole ^ (its form), with the
    sign of moving dx_pole past the members of K below the pole: +1 when
    the pole is variable 0, as on every built-in scene, but not on the
    file whose pole is variable 1."""
    scene = load_scene(path)
    assert validate_scene(scene).ok
    _assert_columns_are_d_of_the_basis(scene, kind, D=2)


@pytest.mark.parametrize("D", [0, 1])
@pytest.mark.parametrize("kind", [OMEGA, OMEGA_Y, CONE])
@pytest.mark.parametrize("c", ["1", "1/2"])
def test_engine_matches_oracle_on_sheared_scenes(c, kind, D):
    """The elimination over Z against the oracle's sparse rank, on the
    sheared scenes.  The half-sheared one has entries like 1/2 in omega and
    the cone; on Y = {x = 0} the shear is the identity, so omega_y stays
    integral."""
    scene = sheared_a2c(c)
    assert validate_scene(scene).ok
    if c == "1/2" and kind != OMEGA_Y:
        _, _, matrix = homology._assemble(scene, kind, D + 1)
        assert any(isinstance(v, Fraction) for m in matrix.values() for col in m.entries for v in col.values())
    out = homology_dims(scene, kind, D)
    here = oracle_homology_dims(scene, kind, D)
    there = oracle_homology_dims(scene, kind, D + 1)
    assert (out["even"], out["odd"]) == (here["even"], here["odd"])
    assert (out["even_next"], out["odd_next"]) == (there["even"], there["odd"])


def test_oracle_does_not_build_table_columns(monkeypatch):
    """The oracle checks the table-built columns, so it assembles its own.
    The scene is fresh: a scene that kept the dims of a window reads them
    and does not reach `_dtable` again."""

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
    The scene is fresh: a scene that kept the dims of a window reads them
    and does not reach `rank_kernel` again."""

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


@pytest.mark.parametrize("kind", [OMEGA, OMEGA_Y, CONE])
@pytest.mark.parametrize("name", [*all_builtin_names(), "sheared"])
def test_kept_window_holds_the_dims_of_every_size(name, kind):
    """After one cold homology_dims at D = 2, the scene keeps for the
    complex only (H_even, H_odd) as int pairs for every window w <= 3,
    each the oracle's: a downward sweep reads this one table."""
    scene = sheared_a2c() if name == "sheared" else builtin_scene(name)
    homology_dims(scene, kind, 2)
    assert list(scene._windows) == [kind]
    table = scene._windows[kind]
    assert type(table) is list and len(table) == 4
    for w, dims in enumerate(table):
        assert type(dims) is tuple and [type(h) for h in dims] == [int, int]
        want = oracle_homology_dims(scene, kind, w)
        assert dims == (want["even"], want["odd"]), (w, dims, want)


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


@pytest.mark.parametrize("name", [*all_builtin_names(), "half-sheared"])
def test_kept_window_stays_unchanged(name):
    """Homology calls at or below the kept window leave its dims table as
    it was counted, the same object, and no boundary test, below, at or
    above it, changes `scene._windows`: each assembles its own window.  A
    larger homology window replaces the table with one that extends it.
    The half-sheared scene's columns hold Fraction entries, so their
    integral forms are dicts of their own."""
    scene = sheared_a2c("1/2") if name == "half-sheared" else builtin_scene(name)
    kinds = (OMEGA, OMEGA_Y, CONE)
    probes = {}  # kind -> (a window-1 basis cochain, its boundary)
    for kind in kinds:
        homology_dims(scene, kind, 1)
        last = _basis_cochain(scene, kind, _window_keys(scene, kind, 1)[-1])
        probes[kind] = last, cech_total_d(last, kind)
    windows = dict(scene._windows)
    assert {len(table) for table in windows.values()} == {3}
    before = copy.deepcopy(windows)
    rational = any(
        m.integral[j] is not col
        for kind in kinds
        for m in homology._assemble(scene, kind, 2)[2].values()
        for j, col in enumerate(m.entries)
    )
    assert rational == (name == "half-sheared")
    for kind in kinds:
        homology_dims(scene, kind, 0)
        homology_dims(scene, kind, 1)
        last, boundary = probes[kind]
        for D in (0, 1, 3):
            is_boundary_within_window(last, kind, D)
            verdict = is_boundary_within_window(boundary, kind, D)
            assert verdict or D == 0  # last, of window 1, is a preimage
        assert scene._windows == before
        assert all(scene._windows[k] is windows[k] for k in kinds)
    for kind in kinds:  # a larger window replaces the table
        homology_dims(scene, kind, 2)
        assert len(scene._windows[kind]) == 4 and scene._windows[kind][:3] == before[kind]


@pytest.mark.parametrize("kind", [OMEGA, OMEGA_Y, CONE])
@pytest.mark.parametrize("name", [*all_builtin_names(), "half-sheared"])
def test_kept_window_is_d_of_its_basis(name, kind):
    """Each row-numbered column of the window whose dims homology_dims
    keeps, its rows read back as keys, is d of its basis cochain, and each
    parity's ambient rows number its basis 0..n-1 first."""
    scene = sheared_a2c("1/2") if name == "half-sheared" else builtin_scene(name)
    homology_dims(scene, kind, 1)
    assert len(scene._windows[kind]) == 3
    basis, ambient, matrix = homology._assemble(scene, kind, 2)
    for par in (0, 1):
        amb = ambient[par]
        assert [amb[k] for k in basis[par]] == list(range(len(basis[par])))
        key_of = {i: k for k, i in ambient[1 - par].items()}
        m = matrix[par]
        assert (m.rows, m.cols) == (len(key_of), len(basis[par]))
        for key, col in zip(basis[par], m.entries):
            want = expand_cochain(cech_total_d(_basis_cochain(scene, kind, key), kind), kind)
            assert {key_of[i]: v for i, v in col.items()} == want, key


def _keyed_columns(window, par) -> list:
    """The parity-par columns of an assembled window, rows read back as
    keys."""
    _, ambient, matrix = window
    key_of = {i: k for k, i in ambient[1 - par].items()}
    return [{key_of[i]: v for i, v in col.items()} for col in matrix[par].entries]


@pytest.mark.parametrize("kind", [OMEGA, OMEGA_Y, CONE])
@pytest.mark.parametrize("name", ["SCENE-A2D", "SCENE-P2"])
def test_boundary_test_and_homology_share_one_window(name, kind):
    """A boundary test at window D and homology_dims at D read one window
    assembly (`_assemble`): window D, which the boundary test assembles,
    is the window-D prefix of window D + 1, which homology_dims assembles,
    in its basis and its columns.  The boundary test keeps nothing, and
    homology_dims keeps only its dims."""
    scene = builtin_scene(name)
    D = 1
    is_boundary_within_window(_basis_cochain(scene, kind, _window_keys(scene, kind, D)[-1]), kind, D)
    assert scene._windows == {}
    homology_dims(scene, kind, D)
    assert list(scene._windows) == [kind] and len(scene._windows[kind]) == D + 2
    small, big = homology._assemble(scene, kind, D), homology._assemble(scene, kind, D + 1)
    for par in (0, 1):
        n = len(small[0][par])
        assert big[0][par][:n] == small[0][par]
        assert _keyed_columns(big, par)[:n] == _keyed_columns(small, par)


@pytest.mark.parametrize("kind", [OMEGA, OMEGA_Y, CONE])
def test_key_outside_the_window_is_no_boundary(kind):
    """No column of window D reaches a key of a far larger window, so such
    a key gets a fresh row: a target with it is no boundary, also when the
    rest of it is one."""
    scene = builtin_scene("SCENE-A2D")
    D = 1
    last = _basis_cochain(scene, kind, _window_keys(scene, kind, D)[-1])
    boundary = cech_total_d(last, kind)
    _, ambient, _ = homology._assemble(scene, kind, D)
    far = _window_keys(scene, kind, D + 4)[-1]
    assert far not in ambient[_parity(far)]
    outside = _basis_cochain(scene, kind, far)
    assert is_boundary_within_window(boundary, kind, D)
    for c in (outside, last + outside, boundary + outside):
        assert not is_boundary_within_window(c, kind, D)
    assert scene._windows == {}


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
def test_warm_homology_reads_the_kept_dims(kind, monkeypatch):
    """After one cold homology_dims at D = 2, the kept dims of window 3
    answer homology at D = 2, 1, 0 with no elimination.  Boundary tests
    eliminate their own windows and leave the kept dims as they are, and
    every answer is a fresh scene's."""
    want = _warm_answers(builtin_scene("SCENE-A2D"), kind)
    assert {True, False} <= set(want[1])
    scene = builtin_scene("SCENE-A2D")
    homology_dims(scene, kind, 2)
    kept = scene._windows[kind]
    calls = []

    def counted(m):
        calls.append(m.cols)
        return linalg.rank_kernel(m)

    monkeypatch.setattr(homology, "rank_kernel", counted)
    assert [homology_dims(scene, kind, D) for D in (2, 1, 0)] == want[0]
    assert calls == []
    assert _warm_answers(scene, kind) == want
    assert calls
    assert scene._windows == {kind: kept} and scene._windows[kind] is kept


def _oracle_is_boundary(images: dict, target: dict) -> bool:
    """Is the expanded target a boundary, given the window's images
    {parity: [expanded d of each basis cochain]}?  Each parity-p part is
    one exactly when adding it leaves the `suites._sparse_rank` of the
    parity-(1-p) images unchanged."""
    parts: dict = {}
    for k, v in target.items():
        parts.setdefault(_parity(k), {})[k] = v
    return all(
        suites._sparse_rank(images[1 - p] + [part]) == suites._sparse_rank(images[1 - p])
        for p, part in parts.items()
    )


@pytest.mark.parametrize("D", [1, 2])
@pytest.mark.parametrize("kind", [OMEGA, OMEGA_Y, CONE])
@pytest.mark.parametrize("name", [*all_builtin_names(), "sheared"])
def test_boundary_test_matches_the_oracle(name, kind, D):
    """Boundary verdicts against an oracle with its own assembly (one
    cech_total_d per window basis key) and its own rank: on basis
    cochains, their boundaries, the sums of the two, two basis cochains
    together, and targets with a key outside the window.  No verdict
    changes the kept dims."""
    scene = sheared_a2c() if name == "sheared" else builtin_scene(name)
    homology_dims(scene, kind, D)
    kept = copy.deepcopy(scene._windows)
    keys = _window_keys(scene, kind, D)
    images = {0: [], 1: []}
    for k in keys:
        images[_parity(k)].append(expand_cochain(cech_total_d(_basis_cochain(scene, kind, k), kind), kind))
    rng = random.Random(f"boundary-oracle:{name}:{kind}:{D}")
    far = _basis_cochain(scene, kind, _window_keys(scene, kind, D + 2)[-1])
    basis = [_basis_cochain(scene, kind, k) for k in rng.sample(keys, min(5, len(keys)))]
    targets = [far, basis[0] + basis[-1].scale(Fraction(-2, 3))]
    for v in basis:
        boundary = cech_total_d(v, kind)
        targets += [v, boundary, v + boundary, boundary + far]
    verdicts = set()
    for c in targets:
        got = is_boundary_within_window(c, kind, D)
        assert got == _oracle_is_boundary(images, expand_cochain(c, kind)), c
        verdicts.add(got)
    assert verdicts == {True, False}
    assert scene._windows == kept
