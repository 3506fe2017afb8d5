import itertools
import random
from fractions import Fraction
from math import comb
from operator import add

import pytest

from cechmf.cdg import (
    CurvedLine,
    MFCategory,
    OYAlgebra,
    SheafAlgebraA,
    TrivializedCategory,
    build_P,
    end_algebra,
    restrict_elem,
)
from cechmf.cech import FORM, YFORM, Cochain
from cechmf.forms import Form
from cechmf.hochschild import (
    ALL_PARTS,
    CechHochChain,
    HochChain,
    TruncationOverflow,
    add_tensor,
    _layouts,
    cech_hoch_d,
    cech_part_d,
    descent_summands,
    hoch_d,
    insertion_layouts,
    interleave,
    make_chain,
    map_slots,
    restrict_chain_into,
    restrictor,
    slot_terms,
    twisted_hoch_d,
)
from cechmf.rand import rand_cech_hoch_chain, rand_hoch_chain
from cechmf.scene import load_scene, scene_from_dict
from cechmf.scenes_builtin import all_builtin_names, builtin_scene, builtin_scene_dict
from conftest import POLE1_FILE, PRESHEAVES, SHEARED_FILE, restrict_to, sheared_a2c

SCENES = {name: builtin_scene(name) for name in all_builtin_names()}


def _unit_mono(ring):
    return (0,) * ring.nvars


def test_d1_on_length_zero_dg():
    # dg case: d(a_0[]) is the single internal-differential term [d a_0]
    scene = SCENES["SCENE-A2"]
    alg = SheafAlgebraA(scene)
    ring = scene.atlas.ring((0,))
    c = make_chain(alg, (0,), ("*",), [{"e": ring.one()}])
    out = hoch_d(c)
    # d(e) = x: expect +1 * x[]
    expected = make_chain(alg, (0,), ("*",), [{"1": ring.var("x")}])
    assert out == expected


def test_d2_cancels_on_commutative_unit():
    # c = 1[1] over a commutative dg algebra with d = 0: the two d_2 terms cancel
    scene = SCENES["SCENE-A2"]
    line = CurvedLine(scene, sign=0)
    ring = scene.atlas.ring((0,))
    c = make_chain(line, (0,), ("*", "*"), [{"1": ring.one()}, {"1": ring.one()}])
    assert hoch_d(c).is_zero()


def test_d0_inserts_curvature():
    # curved line O_f: d(a_0[]) is proportional to a_0[f]
    scene = SCENES["SCENE-A2"]
    line = CurvedLine(scene, sign=1)
    ring = scene.atlas.ring((0,))
    a0 = ring.var("y")
    c = make_chain(line, (0,), ("*",), [{"1": a0}])
    out = hoch_d(c)
    expected = make_chain(line, (0,), ("*", "*"), [{"1": a0}, {"1": scene.ctx((0,)).f}])
    assert out == expected


def test_truncation_overflow_is_loud():
    scene = scene_from_dict({**builtin_scene_dict("SCENE-A2"), "trunc": 2})
    line = CurvedLine(scene, sign=1)
    ring = scene.atlas.ring((0,))
    slots = [{"1": ring.one()}] * 3  # length 2 = trunc
    c = make_chain(line, (0,), ("*",) * 3, slots)
    for _ in range(2):  # a failing plan is not kept, so it fails again
        with pytest.raises(TruncationOverflow):
            hoch_d(c)
    assert not line.table("hoch_d-plan", (0,), ALL_PARTS)
    # without d_0 nothing is inserted, so the same chain has a differential
    assert not hoch_d(c, ("d1", "d2")).is_zero()


def test_chains_compare_only_within_one_presheaf():
    # O_f and O_-f have the same chains but opposite curvature terms
    scene = SCENES["SCENE-A2"]
    one = scene.atlas.ring((0,)).one()
    plus, minus = (
        make_chain(CurvedLine(scene, sign), (0,), ("*",), [{"1": one}]) for sign in (1, -1)
    )
    assert plus.terms == minus.terms
    assert plus != minus
    assert plus == HochChain(plus.presheaf, plus.I, plus.terms)
    assert hoch_d(plus).terms == hoch_d(minus).scale(-1).terms != {}


def _hoch_d_by_terms(chain: HochChain, parts=ALL_PARTS) -> HochChain:
    """hoch_d term by term: per basis tensor, the structure maps of its
    symbols and the signs of its parities, with nothing kept."""
    ph = chain.presheaf
    I = chain.I
    trunc = ph.scene.trunc
    out: dict = {}

    def emit(path, syms, monos, c):
        key = (tuple(path), tuple(syms), tuple(monos))
        out[key] = out.get(key, 0) + c

    def shifted(element, mono):
        return [(s, tuple(map(add, m, mono)), c) for s, m, c in slot_terms(element)]

    for (path, syms, monos), coeff in chain.terms.items():
        k = len(syms) - 1
        par = [ph.parity(s) for s in syms]
        prefix = list(itertools.accumulate(par, initial=0))
        for i in range(k + 1) if "d0" in parts else ():
            obj = path[(i + 1) % (k + 1)]
            h = slot_terms(ph.curvature(I, obj))
            if h and k + 1 > trunc:
                raise TruncationOverflow("over the cap")
            sign = (-1) ** ((prefix[i + 1] + i) % 2)
            for hsym, hmono, hfrac in h:
                emit(
                    path[: i + 1] + (obj,) + path[i + 1 :],
                    syms[: i + 1] + (hsym,) + syms[i + 1 :],
                    monos[: i + 1] + (hmono,) + monos[i + 1 :],
                    coeff * sign * hfrac,
                )
        for i in range(k + 1) if "d1" in parts else ():
            sign = (-1) ** ((prefix[i] + i) % 2)
            for nsym, nmono, nfrac in shifted(ph.d(I, syms[i]), monos[i]):
                emit(
                    path,
                    syms[:i] + (nsym,) + syms[i + 1 :],
                    monos[:i] + (nmono,) + monos[i + 1 :],
                    coeff * sign * nfrac,
                )
        if k >= 1 and "d2" in parts:
            for i in range(k):
                sign = (-1) ** ((prefix[i + 1] + i) % 2)
                mono_prod = tuple(map(add, monos[i], monos[i + 1]))
                for nsym, nmono, nfrac in shifted(ph.compose(I, syms[i], syms[i + 1]), mono_prod):
                    emit(
                        path[: i + 1] + path[i + 2 :],
                        syms[:i] + (nsym,) + syms[i + 2 :],
                        monos[:i] + (nmono,) + monos[i + 2 :],
                        coeff * sign * nfrac,
                    )
            # wrap-around term a_k a_0 [a_1 | ... | a_{k-1}]
            sign = (-1) ** ((1 + (par[k] + 1) * (prefix[k] + k - 1)) % 2)
            mono_prod = tuple(map(add, monos[k], monos[0]))
            for nsym, nmono, nfrac in shifted(ph.compose(I, syms[k], syms[0]), mono_prod):
                emit(
                    (path[k],) + path[1:k],
                    (nsym,) + syms[1:k],
                    (nmono,) + monos[1:k],
                    coeff * sign * nfrac,
                )
    return HochChain(ph, I, out)


def _nonzero_chains(rng, ph, I, count, max_len):
    """Up to count nonzero random chains over I (none where ph has no object)."""
    out = []
    for _ in range(20 * count if ph.objects(I) else 0):
        ch = rand_hoch_chain(rng, ph, I, max_len=max_len, max_deg=2)
        if not ch.is_zero():
            out.append(ch)
            if len(out) == count:
                break
    return out


@pytest.mark.parametrize("kind", sorted(PRESHEAVES))
@pytest.mark.parametrize("scene", [*SCENES.values(), sheared_a2c()], ids=lambda sc: sc.name)
def test_hoch_d_matches_term_by_term_definition(scene, kind):
    # the three selections of parts on one presheaf, which keeps a plan per
    # selection
    ph = PRESHEAVES[kind](scene)
    rng = random.Random(f"hoch_d:{scene.name}:{kind}")
    chains = [
        ch for I in scene.atlas.tuples for ch in _nonzero_chains(rng, ph, I, 6, scene.trunc - 1)
    ]
    selections = (ALL_PARTS, ("d2",), ("d1",))
    want = {parts: [_hoch_d_by_terms(ch, parts) for ch in chains] for parts in selections}
    for _ in range(2):  # the plans are built, then read
        for parts in selections:
            assert [hoch_d(ch, parts) for ch in chains] == want[parts], parts
    # d_1 vanishes on the curved lines and O_Y, and d_2 may cancel on short chains
    assert any(not w.is_zero() for w in want[ALL_PARTS])


def _rand_chain(rng, presheaf, I, max_len, max_deg=1):
    ring = presheaf.ring(I)
    k = rng.randint(0, max_len)
    objs = list(presheaf.objects(I))
    if not objs:
        return HochChain(presheaf, I, {})
    # build a cyclic composable path
    path = [rng.choice(objs) for _ in range(k + 1)]
    slots = []
    for i in range(k + 1):
        tgt = path[i]
        src = path[(i + 1) % (k + 1)]
        syms = presheaf.hom_basis(I, src, tgt)
        sym = rng.choice(syms)
        lau = ring.inverted
        exps = [rng.randint(-max_deg if v in lau else 0, max_deg) for v in range(ring.nvars)]
        slots.append({sym: ring.monomial(exps, rng.randint(-2, 2))})
    return make_chain(presheaf, I, tuple(path), slots)


def _rand_cech_chain(rng, presheaf, max_len, max_deg=1):
    entries = {}
    for I in presheaf.scene.atlas.tuples:
        if not presheaf.objects(I):
            continue
        ch = _rand_chain(rng, presheaf, I, max_len, max_deg)
        if not ch.is_zero():
            entries[I] = ch
    return CechHochChain(presheaf, entries)


@pytest.mark.parametrize("name", all_builtin_names())
def test_hoch_d_squared_zero(name):
    scene = SCENES[name]
    rng = random.Random(43)
    presheaves = [
        CurvedLine(scene, 1),
        CurvedLine(scene, -1),
        SheafAlgebraA(scene),
        end_algebra(scene, build_P(scene)),
    ]
    N = scene.trunc
    for ph in presheaves:
        for _ in range(8):
            for I in scene.atlas.tuples:
                c = _rand_chain(rng, ph, I, N - 2)
                assert hoch_d(hoch_d(c)).is_zero(), (name, type(ph).__name__, I)


@pytest.mark.parametrize("name", all_builtin_names())
def test_cech_hoch_d_squared_zero(name):
    scene = SCENES[name]
    rng = random.Random(47)
    presheaves = [
        CurvedLine(scene, -1),
        SheafAlgebraA(scene),
        end_algebra(scene, build_P(scene)),
    ]
    for ph in presheaves:
        for _ in range(6):
            c = _rand_cech_chain(rng, ph, scene.trunc - 2)
            assert cech_hoch_d(cech_hoch_d(c)).is_zero(), (name, type(ph).__name__)


def test_cech_d_reduces_to_restriction():
    # over a single extension the Cech part is the signed restriction
    scene = SCENES["SCENE-P1"]
    alg = SheafAlgebraA(scene)
    ring0 = scene.atlas.ring((0,))
    c = make_chain(alg, (0,), ("*",), [{"e": ring0.var("t")}])
    cech = CechHochChain(alg, {(0,): c})
    out = cech_hoch_d(cech)
    # d_Cech part lands on (0,1) with sign (+1 for appending at position 1);
    # the sheaf part d(e) = t stays on (0,)
    assert set(out.entries) == {(0,), (0, 1)}
    assert out.entries[(0, 1)] == restrict_to(c, (0, 1)).scale(-1)


def test_cochains_compare_only_within_one_space():
    scene = builtin_scene("SCENE-P1")
    ring = scene.atlas.ring((0,))
    t = ring.var("t")
    form = Cochain(scene, FORM, {(0,): Form(ring, {(): t, (0,): t * t})})
    assert form == Cochain(scene, FORM, {(0,): Form(ring, {(): t, (0,): t * t})})
    assert form != Cochain(scene, YFORM, form.entries)
    assert form != Cochain(builtin_scene("SCENE-P1"), FORM, form.entries)
    assert Cochain(scene, FORM) != Cochain(scene, YFORM)
    line, other = CurvedLine(scene), CurvedLine(scene)
    chain = CechHochChain(line, {(0,): make_chain(line, (0,), ("*", "*"), [{"1": t}, {"1": t}])})
    assert chain == CechHochChain(line, chain.entries)
    assert chain != CechHochChain(other, chain.entries)
    assert CechHochChain(line, {}) != CechHochChain(other, {})
    assert CechHochChain(line, {}) != Cochain(scene, FORM)
    assert Cochain(scene, FORM) != CechHochChain(line, {})
    assert repr(form) == "Cochain[form]{(0,): (1*x^(1,))1 + (1*x^(2,))dt}"
    assert repr(Cochain(scene, YFORM)) == "Cochain[yform]{}"
    assert repr(chain) == "CechHochChain{(0,): 1*(1,)*1[(1,)*1]}"
    assert repr(CechHochChain(line, {})) == "CechHochChain{}"


def test_restriction_rescales_eps():
    # e_{lead 1} = u e_{lead 0} when restricting from (1,) into (0,1)
    scene = SCENES["SCENE-P1"]
    alg = SheafAlgebraA(scene)
    ring1 = scene.atlas.ring((1,))
    c = make_chain(alg, (1,), ("*",), [{"e": ring1.one()}])
    out = restrict_to(c, (0, 1))
    r01 = scene.atlas.ring((0, 1))
    # u_{01} = t^{-1}: e_1 = t^{-1} e_0
    expected = make_chain(alg, (0, 1), ("*",), [{"e": r01.monomial([-1])}])
    assert out == expected


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("q", range(4))
def test_insertion_layouts_match_definition(k, q):
    # every l_1 <= ... <= l_q in range(k+1) once, with
    # eps = sum_s(|a_0..a_{l_s}| + l_s) and depth[i] = #{s : l_s < i}
    for parities in itertools.product((0, 1), repeat=k + 1):
        layouts = list(insertion_layouts(list(parities), q))
        assert len(layouts) == comb(k + q, q)
        assert len({ls for ls, _, _ in layouts}) == len(layouts)
        for ls, eps, depth in layouts:
            assert len(ls) == q
            assert all(0 <= l <= k for l in ls)
            assert list(ls) == sorted(ls)
            assert eps == sum(sum(parities[: l + 1]) + l for l in ls)
            assert depth == [sum(1 for l in ls if l < i) for i in range(k + 1)]


def _symbolic_slots(path, ls, depth):
    """The slots of one layout as the names of their cells: the head, slot
    i realized at depth[i], and insertion s into the gap object after slot
    ls[s]."""
    gap_objs = path[1:] + path[:1]
    slots = ["head"] + [f"a{i}@{depth[i]}" for i in range(1, len(path))]
    return interleave(slots, ls, lambda s: f"g{s}:{gap_objs[ls[s]]}")


@pytest.mark.parametrize("q", range(4))
def test_kept_layouts_match_insertion_layouts(q):
    # every parity tuple up to length trunc + 1, on paths through two
    # objects, so the gap objects differ from gap to gap
    trunc = max(sc.trunc for sc in SCENES.values())
    for k1 in range(1, trunc + 2):
        path = tuple("PQ"[i * i % 3 % 2] for i in range(k1))
        for parities in itertools.product((0, 1), repeat=k1):
            layouts, slot_cells, ins_cells = _layouts(path, parities, q)
            want = list(insertion_layouts(list(parities), q))
            assert len(layouts) == len(want) == comb(k1 - 1 + q, q)
            gap_objs = path[1:] + path[:1]
            cells = {0: "head"}
            cells.update({(i, d): f"a{i}@{d}" for i, d in slot_cells})
            cells.update({(~s, obj): f"g{s}:{obj}" for s, obj in ins_cells})
            for layout, (ls0, eps0, depth0) in zip(layouts, want):
                ls, eps, depth, out_path, objs, keys = layout
                assert (ls, eps, list(depth)) == (ls0, eps0, depth0)
                assert objs == tuple(gap_objs[l] for l in ls)
                assert list(out_path) == interleave(path, ls, objs.__getitem__)
                assert len(out_path) == k1 + q
                assert [cells[key] for key in keys] == _symbolic_slots(path, ls, depth0)
            assert set(slot_cells) == {
                (i, depth[i]) for _, _, depth, *_ in layouts for i in range(1, k1)
            }
            assert set(ins_cells) == {
                (s, objs[s]) for _, _, _, _, objs, _ in layouts for s in range(q)
            }


def _walk_by_term(chain, q, realize, head, insert):
    """descent_summands as first written: each term derives its layouts
    from insertion_layouts and interleaves its slots and path on the spot."""
    parity = chain.presheaf.parity
    inserted = {}
    for (path, syms, monos), coeff in chain.terms.items():
        parities = [parity(s) for s in syms]
        gap_objs = path[1:] + path[:1]
        first = head(syms[0], monos[0])
        realized = {}
        for ls, eps, depth in insertion_layouts(parities, q):
            slots = [first]
            for i in range(1, len(syms)):
                if (i, depth[i]) not in realized:
                    realized[i, depth[i]] = realize(syms[i], monos[i], depth[i])
                slots.append(realized[i, depth[i]])
            objs = [gap_objs[l] for l in ls]
            for s, obj in enumerate(objs):
                if (s, obj) not in inserted:
                    inserted[s, obj] = insert(s, obj)
            ins = lambda s: inserted[s, objs[s]]
            out_path = interleave(path, ls, objs.__getitem__)
            yield coeff, parities, ls, eps, out_path, interleave(slots, ls, ins)


WALK_SCENES = [*all_builtin_names(), "sheared-file", "pole-last"]


@pytest.mark.parametrize("name", WALK_SCENES)
def test_descent_summands_matches_per_term_walk(name):
    # realizations that name their arguments, so a slot read from a wrong
    # cell shows; the walk's layouts are kept on the presheaf only for
    # q >= 1, and its realizations are asked for once per (term, i, depth)
    files = {"sheared-file": SHEARED_FILE, "pole-last": POLE1_FILE}
    scene = load_scene(files[name]) if name in files else builtin_scene(name)
    rng = random.Random(f"walk:{name}")
    realize = lambda sym, mono, d: [(sym, mono, d + 2), (("depth", d), mono, -1)]
    head = lambda sym, mono: [(sym, mono, Fraction(1, 3))]
    insert = lambda s, obj: [(("ins", s, obj), (s,), 5)]
    walked, layouts = 0, 0
    for kind, make in sorted(PRESHEAVES.items()):
        ph = make(scene)
        chains = [
            rand_hoch_chain(rng, ph, I, max_len=scene.trunc)
            for I in scene.atlas.tuples
            for _ in range(3)
        ]
        for q in range(4):
            for ch in chains:
                summands = descent_summands(ch, q, realize, head, insert)
                got = [
                    (c, list(par), ls, eps, list(path), slots)
                    for c, par, ls, eps, path, slots in summands
                ]
                assert got == list(_walk_by_term(ch, q, realize, head, insert)), (kind, q)
                walked += len(got)
        kept = ph.table("layouts")
        assert all(key[2] >= 1 for key in kept), kind
        for (path, parities, q), entry in kept.items():
            assert entry == _layouts(path, parities, q)
        layouts += len(kept)
    assert walked and layouts


def _restrict_by_map_slots(out, chain, J, sign):
    """restrict_chain_into by its definition: map_slots with the
    restriction functor, its set-up made anew on every call, added into
    out with the sign."""
    ph, I = chain.presheaf, chain.I
    if not ph.live(J):
        return
    ring = ph.ring(I)
    image = map_slots(chain, ph, J, lambda s, m: restrict_elem(ph, {s: ring.monomial(m)}, I, J))
    for key, c in image.terms.items():
        out[key] = out.get(key, 0) + sign * c


@pytest.mark.parametrize("name", WALK_SCENES)
def test_restrict_chain_into_matches_map_slots_definition(name):
    # every presheaf kind, sign and extension (and the identity), on a
    # fresh scene: the first round builds each restrictor (cold), the
    # second reads it (warm); the accumulator holds a term of its own,
    # which both must add to.  O_Y is dead on the tuples the divisor
    # misses, so a restriction into one of them adds nothing.
    files = {"sheared-file": SHEARED_FILE, "pole-last": POLE1_FILE}
    scene = load_scene(files[name]) if name in files else builtin_scene(name)
    rng = random.Random(f"restrictor:{name}")
    seen = {"nonzero": 0, "dead": 0}
    for kind, make in sorted(PRESHEAVES.items()):
        ph = make(scene)
        chains = [
            rand_hoch_chain(rng, ph, I, max_len=2)
            for I in scene.atlas.tuples
            if ph.objects(I)
            for _ in range(3)
        ]
        for _ in ("cold", "warm"):
            for ch in chains:
                for J in [ch.I] + [J for _, _, J in scene.atlas.extensions(ch.I)]:
                    for sign in (1, -1):
                        own = {(("*",), ("own",), ((0,),)): Fraction(1, 3)}
                        got, want = dict(own), dict(own)
                        restrict_chain_into(got, ch, J, restrictor(ph, ch.I, J), sign)
                        _restrict_by_map_slots(want, ch, J, sign)
                        assert got == want, (kind, ch.I, J, sign)
                        seen["nonzero"] += got != own
                        seen["dead"] += not ph.live(J)
    assert seen["nonzero"]
    oy = OYAlgebra(scene)
    assert bool(seen["dead"]) == any(not oy.live(I) for I in scene.atlas.tuples)


def _per_entry_d(c: CechHochChain, cech: bool, parts) -> CechHochChain:
    """The Cech-Hochschild differentials by their per-entry definition:
    each entry's restriction to each extension, signed by the
    position of the new index, when cech, and (-1)^p hoch_d of the entry
    with the parts on Cech degree p unless parts is None, each piece
    added into its target's terms."""
    ph = c.presheaf
    terms: dict = {}

    def add_piece(piece, sign):
        out = terms.setdefault(piece.I, {})
        for key, v in piece.terms.items():
            out[key] = out.get(key, 0) + sign * v

    for I, ch in c.entries.items():
        if cech:
            for _, pos, J in c.scene.atlas.extensions(I):
                add_piece(restrict_to(ch, J), (-1) ** pos)
        if parts is not None:
            add_piece(hoch_d(ch, parts), (-1) ** (len(I) - 1))
    return CechHochChain(ph, {J: HochChain(ph, J, t) for J, t in terms.items()})


# every presheaf kind, and the trivialized category of P that h^q maps into
DIFFERENTIAL_PRESHEAVES = {
    **PRESHEAVES,
    "triv": lambda sc: TrivializedCategory(sc, [build_P(sc)]),
}


@pytest.mark.parametrize("name", WALK_SCENES)
def test_cech_differentials_match_per_entry_definition(name):
    # cech_hoch_d, cech_part_d and twisted_hoch_d (all parts, d1 alone and
    # d2 alone) against the per-entry definition, on a fresh scene: the
    # first round builds every tuple plan (cold), the second reads them
    # (warm).  On the two scene files a restricted monomial slot has
    # several terms, which no slot of the built-in scenes has.
    files = {"sheared-file": SHEARED_FILE, "pole-last": POLE1_FILE}
    scene = load_scene(files[name]) if name in files else builtin_scene(name)
    rng = random.Random(f"per-entry:{name}")
    presheaves = {kind: make(scene) for kind, make in sorted(DIFFERENTIAL_PRESHEAVES.items())}
    chains = {}
    for kind, ph in presheaves.items():
        draws = [rand_cech_hoch_chain(rng, ph, max_len=2) for _ in range(9)]
        chains[kind] = [a + b + c for a, b, c in zip(draws[::3], draws[1::3], draws[2::3])]
    nonzero = set()
    for _ in ("cold", "warm"):
        for kind, cs in chains.items():
            for c in cs:
                cases = [(cech_hoch_d(c), True, ALL_PARTS), (cech_part_d(c), True, None)]
                cases += [(twisted_hoch_d(c, parts), False, parts)
                          for parts in (ALL_PARTS, ("d1",), ("d2",))]
                for got, cech, parts in cases:
                    assert got == _per_entry_d(c, cech, parts), (kind, cech, parts)
                    if not got.is_zero():
                        nonzero.add((kind, cech, parts))
    # every differential is nonzero on some presheaf, the Cech part alone
    # wherever the atlas has an overlap
    want = {(True, ALL_PARTS), (False, ALL_PARTS), (False, ("d1",)), (False, ("d2",))}
    if len(scene.atlas.tuples) > len(scene.atlas.chart_ids):
        want.add((True, None))
    assert {(cech, parts) for _, cech, parts in nonzero} == want
    slots = [
        terms
        for ph in presheaves.values()
        for key, table in ph._tables.items()
        if key[0] == "restrict"
        for terms in table.values()
    ]
    multi = any(len(terms) > 1 or any(abs(c) != 1 for *_, c in terms) for terms in slots)
    assert multi == (name in files), name


def _add_tensor_by_partials(out, path, slots, coeff):
    """add_tensor as first written: the partial (syms, monos, coefficient)
    tuples grown one slot at a time."""
    partial = [((), (), coeff)]
    for slot in slots:
        partial = [
            (syms + (sym,), monos + (mono,), c * frac)
            for syms, monos, c in partial
            for sym, mono, frac in slot
        ]
    for syms, monos, c in partial:
        key = (tuple(path), syms, monos)
        out[key] = out.get(key, 0) + c


def test_add_tensor_matches_partial_expansion():
    # slots of zero to three terms, repeated (sym, mono) pairs whose
    # products collide on one key, and non-integral coefficients
    rng = random.Random(41)
    syms, monos = ("a", "b"), ((0,), (1,), (2,))
    fracs = (1, -1, 2, Fraction(1, 2), Fraction(-3, 4))
    tested = 0
    for _ in range(300):
        k = rng.randint(0, 3)
        term = lambda: (rng.choice(syms), rng.choice(monos), rng.choice(fracs))
        slots = [[term() for _ in range(rng.randint(0, 3))] for _ in range(k + 1)]
        coeff = rng.choice(fracs)
        got, want = {(("*",), ("a",), ((0,),)): 5}, {(("*",), ("a",), ((0,),)): 5}
        add_tensor(got, ["*"] * (k + 1), slots, coeff)
        _add_tensor_by_partials(want, ["*"] * (k + 1), slots, coeff)
        assert got == want
        tested += len(want) > 1
    assert tested > 100
