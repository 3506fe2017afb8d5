"""The benchmark's workloads: fixtures, seeded items and the check of each item.

A workload has three parts.  `setup()` builds everything the items share
(scenes from their spec dicts, validation, algebras, lax fixtures); it is
timed and reported as set-up.  `make_items(fixtures, seed)` builds one
pass of items from the seed; it runs before timing starts.  `run_item` calls
the package's public entry points on one item and returns whether the
item's result is correct.

Every call into the package goes through a module attribute
(`diagrams.trace_route`, not a name imported into this file), so the traced
run sees it when it rebinds those attributes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from cechmf import (
    cdg,
    cech,
    diagrams,
    hkr,
    hochschild,
    homology,
    lax,
    rand,
    scene,
    scenes_builtin,
    ses,
    signs,
    suites,
    trace,
)


@dataclass
class Item:
    family: str
    payload: tuple
    key: tuple = field(default=())  # stratum for the seeded order


def _build_scene(name: str):
    """As scenes_builtin.builtin_scene, plus validation."""
    spec = scenes_builtin.builtin_scene_dict(name)
    spec["trunc"] = 6
    spec["window"] = 4
    sc = scene.scene_from_dict(spec)
    rep = scene.validate_scene(sc)
    failed = [name for name, ok, _ in rep.checks if not ok]
    if failed:
        raise RuntimeError(f"{sc.name} fails validation: {failed}")
    return sc


def spread_order(items: list, rng: random.Random) -> list:
    """Seeded order in which every prefix holds each stratum in proportion.

    Item i of a stratum of size n gets the key (i + u) / n with u uniform
    in [0, 1), after shuffling within the stratum; sorting by the key
    interleaves the strata evenly.
    """
    strata: dict = {}
    for it in items:
        strata.setdefault(it.key, []).append(it)
    keyed = []
    for key in sorted(strata, key=repr):
        group = strata[key]
        rng.shuffle(group)
        n = len(group)
        keyed.extend(((i + rng.random()) / n, it) for i, it in enumerate(group))
    keyed.sort(key=lambda pair: pair[0])
    return [it for _, it in keyed]


# --- trace-square ----------------------------------------------------------


class TraceSquare:
    """Every basis chain of SCENE-P1 through both routes of the square."""

    name = "trace-square"
    scene_name = "SCENE-P1"
    known_defects: frozenset = frozenset()
    bypassed = ("linalg.rank_kernel",)  # the traced run asserts these never run

    def __init__(self):
        self.todd_sign = signs.sign("todd-factor")

    def setup(self):
        return {"scene": _build_scene(self.scene_name)}

    def make_items(self, fx, seed: int) -> list:
        sc = fx["scene"]
        items = []
        for eps, chain in suites.basis_a_chains(sc):
            (I, ch), = chain.entries.items()
            k = len(next(iter(ch.terms))[1]) - 1
            items.append(Item(f"eps{eps}", (chain,), key=(I, k)))
        return spread_order(items, random.Random(f"{seed}:{self.name}"))

    def run_item(self, fx, item: Item) -> bool:
        sc = fx["scene"]
        (chain,) = item.payload
        top = diagrams.trace_route(sc, chain)
        bottom = diagrams.residue_route(sc, chain, self.todd_sign)
        return top == bottom


# --- homology-window -------------------------------------------------------

# (scene, complex, window) -> (even, odd, even at window+1, odd at window+1),
# each pair equal to suites.oracle_homology_dims at that window; the self-test
# recomputes them with the oracle.
HOMOLOGY_EXPECTED = {
    ("SCENE-P2", "omega", 1): (2, 0, 4, 0),
    ("SCENE-P2", "cone", 0): (0, 0, 1, 0),
    ("SCENE-A2D", "omega", 3): (1, 0, 1, 0),
    ("SCENE-A2D", "cone", 1): (2, 2, 3, 3),
}


class HomologyWindow:
    """Windowed homology of the omega and cone complexes on SCENE-P2 and
    SCENE-A2D, at windows where the matrices have a few hundred columns."""

    name = "homology-window"
    known_defects: frozenset = frozenset()
    bypassed = ("trace.phi",)

    def setup(self):
        return {name: _build_scene(name) for name in ("SCENE-P2", "SCENE-A2D")}

    def make_items(self, fx, seed: int) -> list:
        items = [Item(f"{s}:{c}", (s, c, D, want)) for (s, c, D), want in HOMOLOGY_EXPECTED.items()]
        random.Random(f"{seed}:{self.name}").shuffle(items)
        return items

    def run_item(self, fx, item: Item) -> bool:
        scene_name, kind, D, want = item.payload
        got = homology.homology_dims(fx[scene_name], kind, D)
        dims = (got["even"], got["odd"], got["even_next"], got["odd_next"])
        return dims == want and got["stable"] == (dims[:2] == dims[2:])


# --- chain-identities ------------------------------------------------------


class ChainIdentities:
    """Seeded random elements on SCENE-P2, each checked against one of the
    chain-level identities the suites check."""

    name = "chain-identities"
    scene_name = "SCENE-P2"
    # iso-homotopy fails on SCENE-P2 at the seed commit (see README.md)
    known_defects = frozenset({"lax:iso"})
    bypassed = ("linalg.rank_kernel", "trace.phi")

    # family -> items per pass
    COUNTS = {
        "d2:omega": 80,
        "d2:omega_log": 80,
        "d2:omega_y": 80,
        "d2:cone": 40,
        "d2:hoch:O_f": 40,
        "d2:hoch:O_-f": 40,
        "d2:hoch:A": 40,
        "d2:hoch:EndP": 20,
        "hkr-xf:sign-1": 40,
        "hkr-xf:sign+1": 40,
        "hkr-a:eps0": 40,
        "hkr-a:eps1": 40,
        "hkr-a:eps2": 80,
        "hkr-a:two-eps-vanishing": 80,
        "hkr-a:square": 80,
        "hq:exchange:q0": 80,
        "hq:exchange:q1": 40,
        "hq:exchange:q2": 40,
        "hq:exchange:q3": 80,
        "todd:commutes": 20,
        "lax:chain-map": 4,
        "lax:strict-vs-lax": 4,
        "lax:iso": 2,
        "lax:restriction-homotopy": 4,
    }

    def setup(self):
        sc = _build_scene(self.scene_name)
        alg = cdg.SheafAlgebraA(sc)
        P = cdg.build_P(sc)
        w = suites.unit_family(sc)
        lax_a, lax_id, tau = suites.coboundary_lax(sc, alg, w)
        # SCENE-P2 has no global divisor: the restriction homotopy runs on
        # the curved line, as in suites.suite_lax
        line_m = cdg.CurvedLine(sc, -1)
        model = lax.GlobalModel(sc, line_m, ("1",), lambda sym: {})
        lax_line, _, _ = suites.coboundary_lax(sc, line_m, w)
        return {
            "scene": sc,
            "A": alg,
            "O_f": cdg.CurvedLine(sc, 1),
            "O_-f": line_m,
            "EndP": cdg.end_algebra(sc, P),
            "triv": cdg.TrivializedCategory(sc, [P]),
            "oy": cdg.OYAlgebra(sc),
            "td": cech.todd_inverse(sc),
            "lax": lax_a,
            "lax_id": lax_id,
            "tau": tau,
            "model": model,
            "lax_line": lax_line,
        }

    def make_items(self, fx, seed: int) -> list:
        sc = fx["scene"]
        items = []
        for family, count in self.COUNTS.items():
            # the known-defect family gets the same elements for every seed,
            # so that `failed` does not change with the seed
            drawn = "fixed" if family in self.known_defects else seed
            rng = random.Random(f"{drawn}:{self.name}:{family}")
            for i in range(count):
                items.append(Item(family, (self._element(fx, sc, family, rng, i),), key=(family,)))
        return spread_order(items, random.Random(f"{seed}:{self.name}"))

    @staticmethod
    def _element(fx, sc, family: str, rng: random.Random, i: int):
        head, _, tail = family.rpartition(":")
        if head == "d2":
            gen = {
                "omega": rand.rand_form_cochain,
                "omega_log": rand.rand_log_cochain,
                "omega_y": rand.rand_yform_cochain,
                "cone": rand.rand_cone_cochain,
            }[tail]
            return gen(sc, rng, max_deg=1)
        if head == "d2:hoch":
            return rand.rand_cech_hoch_chain(rng, fx[tail], max_len=min(3, sc.trunc - 2))
        if head == "hkr-xf":
            line = fx["O_-f"] if tail == "sign-1" else fx["O_f"]
            return rand.rand_cech_hoch_chain(rng, line, max_len=4, max_deg=2)
        if family.startswith("hkr-a:eps"):
            return rand.rand_a_class_chain(rng, fx["A"], int(family[-1]))
        if family == "hkr-a:two-eps-vanishing":
            return rand.rand_a_class_chain(rng, fx["A"], 2)
        if family == "hkr-a:square":
            return rand.rand_a_class_chain(rng, fx["A"], i % 3)
        if head == "hq:exchange":
            return rand.rand_cech_hoch_chain(rng, fx["EndP"], max_len=2)
        if family == "todd:commutes":
            return rand.rand_cone_cochain(sc, rng, max_deg=1)
        if family == "lax:restriction-homotopy":
            return _global_chain(fx, rng)
        if head == "lax":
            # length <= 1 (suite_lax draws <= 2): the lax maps grow fast with
            # length; at length 2 an iso-homotopy item took 262 ms on average
            # with a standard deviation of 219 ms, so the seed set throughput
            return rand.rand_a_class_chain(rng, fx["A"], i % 2, max_len=1)
        raise KeyError(family)

    def run_item(self, fx, item: Item) -> bool:
        (c,) = item.payload
        family = item.family
        head, _, tail = family.rpartition(":")
        d = hochschild.cech_hoch_d
        if head == "d2":
            return cech.cech_total_d(cech.cech_total_d(c, tail), tail).is_zero()
        if head == "d2:hoch":
            return d(d(c)).is_zero()
        if head == "hkr-xf":
            kind = cech.OMEGA if tail == "sign-1" else cech.OMEGA_PLUS
            return hkr.hkr_xf(d(c)) == cech.cech_total_d(hkr.hkr_xf(c), kind)
        if family.startswith("hkr-a:eps"):
            return hkr.hkr_A(d(c)) == cech.cech_total_d(hkr.hkr_A(c), cech.CONE)
        if family == "hkr-a:two-eps-vanishing":
            d1 = hochschild.twisted_hoch_d(c, parts=("d1",))
            return hkr.hkr_A(c).is_zero() and hkr.hkr_A(d1).is_zero()
        if family == "hkr-a:square":
            return ses.cone_to_y(hkr.hkr_A(c)) == hkr.hkr_y(hkr.a_to_oy(c, fx["oy"]))
        if head == "hq:exchange":
            return _hq_exchange(fx, int(tail[1:]), c)
        if family == "todd:commutes":
            td = fx["td"]
            lhs = cech.cech_total_d(cech.bar_wedge(c, td), cech.CONE)
            return lhs == cech.bar_wedge(cech.cech_total_d(c, cech.CONE), td)
        if family == "lax:chain-map":
            lx = fx["lax"]
            return d(lax.cech_lax_map(lx, c, check=False)) == lax.cech_lax_map(lx, d(c), check=False)
        if family == "lax:strict-vs-lax":
            lx = fx["lax_id"]
            hom = d(lax.strict_vs_lax_homotopy(lx, c)) + lax.strict_vs_lax_homotopy(lx, d(c))
            return hom == lax.cech_strict_map(lx, c) - lax.cech_lax_map(lx, c, check=False)
        if family == "lax:iso":
            la, lb, tau = fx["lax"], fx["lax_id"], fx["tau"]
            hom = d(lax.iso_homotopy(la, lb, tau, c)) + lax.iso_homotopy(la, lb, tau, d(c))
            return hom == lax.cech_lax_map(la, c, check=False) - lax.cech_lax_map(lb, c, check=False)
        if family == "lax:restriction-homotopy":
            lx, model = fx["lax_line"], fx["model"]
            lhs = d(lax.restriction_htilde(lx, model, c)) + lax.restriction_htilde(
                lx, model, hochschild.hoch_d(c)
            )
            r1 = lax.cech_lax_map(lx, lax.global_to_cech(model, c), check=False)
            r2 = lax.global_to_cech(model, lax.apply_global_functor(model, c, lx.functor_sym))
            return lhs == r1 - r2
        raise KeyError(family)


def _global_chain(fx, rng: random.Random):
    """A nonzero global-level chain of length <= 1 on the curved-line model
    (suite_lax draws length <= 2)."""
    gring = fx["scene"].global_ring
    while True:
        k = rng.randint(0, 1)
        slots = [
            {"1": gring.monomial(rand.rand_mono(rng, gring, 1), rng.randint(-2, 2))}
            for _ in range(k + 1)
        ]
        chain = hochschild.make_chain(fx["model"], lax.GLOBAL, ("*",) * (k + 1), slots)
        if not chain.is_zero():
            return chain


def _hq_exchange(fx, q: int, c) -> bool:
    """d2 h^q + d_Cech h^{q-1} = h^{q-1} d_Cech + h^q d2 (suites.suite_hq)."""
    triv = fx["triv"]

    def hq(qq, x):
        return trace.hq_basis(qq, x, triv) if qq >= 0 else hochschild.CechHochChain(triv, {})

    d2 = hochschild.twisted_hoch_d
    cd = hochschild.cech_part_d
    lhs = d2(hq(q, c), parts=("d2",)) + cd(hq(q - 1, c))
    rhs = hq(q - 1, cd(c)) + hq(q, d2(c, parts=("d2",)))
    return lhs == rhs


WORKLOADS = {w.name: w for w in (TraceSquare, HomologyWindow, ChainIdentities)}
