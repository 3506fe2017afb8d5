"""Seeded random elements with small integer coefficients.

Exact identities need no large samples, but sign branches need coverage:
generators spread terms over tuples, degrees and parities.
"""

from __future__ import annotations

import random

from .cech import CONEF, FORM, LOG, YFORM, Cochain
from .forms import ConeForm, Form, LogForm, index_sets
from .hochschild import CechHochChain, HochChain, make_chain
from .scene import Scene


def rand_locpoly(rng: random.Random, ring, max_deg=2):
    out = ring.zero()
    lau = ring.inverted
    for _ in range(rng.randint(0, 1)):
        exps = []
        for i in range(ring.nvars):
            lo = -max_deg if i in lau else 0
            exps.append(rng.randint(lo, max_deg))
        out = out + ring.monomial(exps, rng.randint(-2, 2))
    return out


def rand_form(rng: random.Random, ring, max_deg=2):
    terms = {}
    subsets = index_sets(ring.nvars)
    for _ in range(2):
        k = rng.choice(subsets)
        c = rand_locpoly(rng, ring, max_deg=max_deg)
        terms[k] = terms[k] + c if k in terms else c
    return Form(ring, terms)


def rand_form_cochain(scene: Scene, rng: random.Random, max_deg=2) -> Cochain:
    entries = {
        I: rand_form(rng, scene.atlas.ring(I), max_deg=max_deg) for I in scene.atlas.tuples
    }
    return Cochain(scene, FORM, entries)


def rand_log_cochain(scene: Scene, rng: random.Random, max_deg=2) -> Cochain:
    entries = {}
    for I in scene.atlas.tuples:
        ctx = scene.ctx(I)
        entries[I] = LogForm(
            ctx,
            rand_form(rng, ctx.ring, max_deg=max_deg),
            rand_form(rng, ctx.ring, max_deg=max_deg),
        )
    return Cochain(scene, LOG, entries)


def rand_cone_cochain(scene: Scene, rng: random.Random, max_deg=2) -> Cochain:
    entries = {}
    for I in scene.atlas.tuples:
        ctx = scene.ctx(I)
        entries[I] = ConeForm(
            rand_form(rng, ctx.ring, max_deg=max_deg),
            LogForm(
                ctx,
                rand_form(rng, ctx.ring, max_deg=max_deg),
                rand_form(rng, ctx.ring, max_deg=max_deg),
            ),
        )
    return Cochain(scene, CONEF, entries)


def rand_yform_cochain(scene: Scene, rng: random.Random, max_deg=2) -> Cochain:
    """A random form cochain, projected to the divisor."""
    return Cochain(scene, YFORM, rand_form_cochain(scene, rng, max_deg).entries)


def rand_mono(rng: random.Random, ring, max_deg=1):
    lau = ring.inverted
    return tuple(
        rng.randint(-max_deg if v in lau else 0, max_deg) for v in range(ring.nvars)
    )


def rand_hoch_chain(rng: random.Random, presheaf, I, max_len=2, max_deg=1):
    """Random basis-tensor chain over one tuple with a cyclic composable path."""
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
        sym = rng.choice(syms)
        slots.append({sym: ring.monomial(rand_mono(rng, ring, max_deg), rng.randint(-2, 2))})
    return make_chain(presheaf, I, tuple(path), slots)


def rand_cech_hoch_chain(rng: random.Random, presheaf, max_len=2, max_deg=1):
    entries = {}
    for I in presheaf.scene.atlas.tuples:
        if not presheaf.objects(I):
            continue
        entries[I] = rand_hoch_chain(rng, presheaf, I, max_len, max_deg)
    return CechHochChain(presheaf, entries)


def rand_a_class_chain(rng: random.Random, alg, eps_count, max_len=3, max_deg=1):
    """Random two-term-algebra cochain with a prescribed number of odd slots."""
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
        entries[I] = make_chain(alg, I, ("*",) * (k + 1), slots)
    return CechHochChain(alg, entries)
