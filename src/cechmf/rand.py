"""Seeded random elements with small integer coefficients.

Exact identities need no large samples, but sign branches need coverage:
generators spread terms over tuples, degrees and parities.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .cech import CONEF, FORM, LOG, YFORM, Cochain, _ctx
from .forms import ConeForm, Form, LogForm, y_normalize
from .scene import Scene


def rand_locpoly(rng: random.Random, ring, max_deg=2, n_terms=2, coeff=2):
    out = ring.zero()
    lau = ring.inverted
    for _ in range(rng.randint(0, n_terms)):
        exps = []
        for i in range(ring.nvars):
            lo = -max_deg if i in lau else 0
            exps.append(rng.randint(lo, max_deg))
        out = out + ring.monomial(exps, rng.randint(-coeff, coeff))
    return out


def rand_form(rng: random.Random, ring, max_deg=2, density=2):
    terms = {}
    subsets = list(
        itertools.chain.from_iterable(
            itertools.combinations(range(ring.nvars), k) for k in range(ring.nvars + 1)
        )
    )
    for _ in range(density):
        k = rng.choice(subsets)
        c = rand_locpoly(rng, ring, max_deg=max_deg, n_terms=1)
        if not c.is_zero():
            terms[k] = terms[k] + c if k in terms else c
    return Form(ring, terms)


def rand_form_cochain(scene: Scene, rng: random.Random, max_deg=2) -> Cochain:
    entries = {}
    for I in scene.atlas.tuples:
        w = rand_form(rng, scene.atlas.ring(I), max_deg=max_deg)
        if not w.is_zero():
            entries[I] = w
    return Cochain(scene, FORM, entries)


def rand_log_cochain(scene: Scene, rng: random.Random, max_deg=2) -> Cochain:
    entries = {}
    for I in scene.atlas.tuples:
        ctx = _ctx(scene, I)
        s = LogForm(
            ctx,
            rand_form(rng, ctx.ring, max_deg=max_deg),
            rand_form(rng, ctx.ring, max_deg=max_deg),
        )
        if not s.is_zero():
            entries[I] = s
    return Cochain(scene, LOG, entries)


def rand_cone_cochain(scene: Scene, rng: random.Random, max_deg=2) -> Cochain:
    entries = {}
    for I in scene.atlas.tuples:
        ctx = _ctx(scene, I)
        s = ConeForm(
            rand_form(rng, ctx.ring, max_deg=max_deg),
            LogForm(
                ctx,
                rand_form(rng, ctx.ring, max_deg=max_deg),
                rand_form(rng, ctx.ring, max_deg=max_deg),
            ),
        )
        if not s.is_zero():
            entries[I] = s
    return Cochain(scene, CONEF, entries)


def rand_yform_cochain(scene: Scene, rng: random.Random, max_deg=2) -> Cochain:
    entries = {}
    for I in scene.atlas.tuples:
        ctx = _ctx(scene, I)
        w = y_normalize(rand_form(rng, ctx.ring, max_deg=max_deg), ctx)
        if not w.is_zero():
            entries[I] = w
    return Cochain(scene, YFORM, entries)


def rand_mono(rng: random.Random, ring, max_deg=1):
    lau = ring.inverted
    return tuple(
        rng.randint(-max_deg if v in lau else 0, max_deg) for v in range(ring.nvars)
    )


def rand_hoch_chain(rng: random.Random, presheaf, I, max_len=2, max_deg=1,
                    sym_pick=None, coeff=2):
    """Random basis-tensor chain over one tuple with a cyclic composable path."""
    from .hochschild import HochChain, make_chain

    ring = presheaf.ring(I)
    objs = list(presheaf.objects(I))
    if not objs:
        return HochChain(presheaf, I, {})
    k = rng.randint(0, max_len)
    path = [rng.choice(objs) for _ in range(k + 1)]
    slots = []
    for i in range(k + 1):
        tgt = path[i]
        src = path[(i + 1) % (k + 1)]
        syms = presheaf.hom_basis(I, src, tgt)
        sym = sym_pick(rng, syms) if sym_pick else rng.choice(syms)
        slots.append({sym: ring.monomial(rand_mono(rng, ring, max_deg), rng.randint(-coeff, coeff))})
    return make_chain(presheaf, I, tuple(path), slots)


def rand_cech_hoch_chain(rng: random.Random, presheaf, max_len=2, max_deg=1,
                         sym_pick=None):
    from .hochschild import CechHochChain

    entries = {}
    for I in presheaf.scene.atlas.tuples:
        if not presheaf.objects(I):
            continue
        ch = rand_hoch_chain(rng, presheaf, I, max_len, max_deg, sym_pick)
        if not ch.is_zero():
            entries[I] = ch
    return CechHochChain(presheaf, entries)


def rand_a_class_chain(rng: random.Random, alg, eps_count, max_len=3, max_deg=1):
    """Random two-term-algebra cochain with a prescribed number of odd slots."""
    from .hochschild import CechHochChain, make_chain

    scene = alg.scene
    entries = {}
    for I in scene.atlas.tuples:
        ring = alg.ring(I)
        k = rng.randint(max(0, eps_count - 1), max_len)
        positions = list(range(k + 1))
        rng.shuffle(positions)
        eps_at = set(positions[:eps_count])
        slots = []
        for i in range(k + 1):
            sym = "e" if i in eps_at else "1"
            slots.append({sym: ring.monomial(rand_mono(rng, ring, max_deg), rng.randint(-2, 2))})
        ch = make_chain(alg, I, ("*",) * (k + 1), slots)
        if not ch.is_zero():
            entries[I] = ch
    return CechHochChain(alg, entries)
