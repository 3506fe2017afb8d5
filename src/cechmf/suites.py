"""Property suites driving every verified identity, one per acceptance area.

Each suite returns a list of Check results.  Randomized elements are drawn
from a generator seeded per (seed, suite, scene), so reports are
byte-identical across runs with the same inputs.  A sampled identity is one
`_sampled` call: the suite draws its element list first, in a fixed order,
and `_sampled` compares the two sides on each element, counts the exact
ones ("k/n exact") and keeps the first failure, with the offending element
and both sides, as the payload.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from . import signs
from .cdg import (
    CurvedLine,
    OYAlgebra,
    SheafAlgebraA,
    TrivializedCategory,
    build_P,
    end_algebra,
)
from .cech import (
    CONE,
    CONEF,
    FORM,
    OMEGA,
    OMEGA_LOG,
    OMEGA_PLUS,
    OMEGA_Y,
    Cochain,
    bar_wedge,
    bar_power,
    c1_minus_Y,
    cech_total_d,
    cech_wedge,
    unit_cochain,
)
from .diagrams import pushforward_unit, trace_route, residue_route
from .hkr import a_to_oy, hkr_A, hkr_xf, hkr_y
from .hochschild import (
    CechHochChain,
    cech_hoch_d,
    cech_part_d,
    hoch_d,
    make_chain,
    twisted_hoch_d,
)
from .homology import (
    _basis_cochain,
    _parity,
    _window_keys,
    expand_cochain,
    homology_dims,
    is_boundary_within_window,
)
from .lax import (
    GLOBAL,
    GlobalModel,
    OneObjectLax,
    apply_global_functor,
    cech_lax_map,
    cech_strict_map,
    global_to_cech,
    iso_homotopy,
    restriction_htilde,
    strict_vs_lax_homotopy,
)
from .rand import (
    rand_a_class_chain,
    rand_cech_hoch_chain,
    rand_cone_cochain,
    rand_form_cochain,
    rand_log_cochain,
    rand_mono,
    rand_yform_cochain,
)
from .report import Check
from .scene import Scene, _loc_divide, validate_scene
from .ses import cone_to_y
from .trace import hq_basis, phi


def _rng(seed: int, suite: str, scene_name: str) -> random.Random:
    return random.Random(f"{seed}:{suite}:{scene_name}")


def _payload(element, lhs, rhs, **extra):
    out = {"element": repr(element), "lhs": repr(lhs), "rhs": repr(rhs)}
    out.update(extra)
    return out


def _sampled(check_id: str, elements: list, sides) -> Check:
    """Check lhs == rhs on every element, with (lhs, rhs) = sides(x)."""
    bad = 0
    first = None
    for i, x in enumerate(elements):
        lhs, rhs = sides(x)
        if lhs != rhs:
            bad += 1
            if first is None:
                first = _payload(x, lhs, rhs, index=i)
    n = len(elements)
    return Check(check_id, bad == 0, f"{n - bad}/{n} exact", first)


# ---------------------------------------------------------------------------


def suite_scene(scene: Scene, seed: int = 0) -> list:
    rep = validate_scene(scene)
    checks = [Check(f"scene:{name}", ok, detail) for name, ok, detail in rep.checks]
    return checks


def suite_d2(scene: Scene, seed: int = 0) -> list:
    """Criterion 1: differentials square to zero on every complex."""
    rng = _rng(seed, "d2", scene.name)
    checks = []
    gens = {
        OMEGA: rand_form_cochain,
        OMEGA_LOG: rand_log_cochain,
        OMEGA_Y: rand_yform_cochain,
        CONE: rand_cone_cochain,
    }
    per = 100 // len(gens)
    for kind, gen in gens.items():
        cochains = [gen(scene, rng, max_deg=1) for _ in range(per)]
        dd = lambda c: (cech_total_d(cech_total_d(c, kind), kind), Cochain(scene, c.kind))
        checks.append(_sampled(f"d2:{kind}", cochains, dd))
    presheaves = {
        "O_f": CurvedLine(scene, 1),
        "O_-f": CurvedLine(scene, -1),
        "A": SheafAlgebraA(scene),
        "EndP": end_algebra(scene, build_P(scene)),
    }
    per = 100 // len(presheaves)
    max_len = min(3, scene.trunc - 2)
    for name, ph in presheaves.items():
        chains = [rand_cech_hoch_chain(rng, ph, max_len=max_len) for _ in range(per)]
        dd = lambda c: (cech_hoch_d(cech_hoch_d(c)), CechHochChain(ph))
        checks.append(_sampled(f"d2:hoch:{name}", chains, dd))
    return checks


def suite_hkr_xf(scene: Scene, seed: int = 0) -> list:
    """Criterion 2: the curved-line HKR map is a chain map."""
    rng = _rng(seed, "hkr-xf", scene.name)
    checks = []
    for sign, kind in ((-1, OMEGA), (1, OMEGA_PLUS)):
        line = CurvedLine(scene, sign)
        chains = [rand_cech_hoch_chain(rng, line, max_len=4, max_deg=2) for _ in range(50)]
        sides = lambda c: (hkr_xf(cech_hoch_d(c)), cech_total_d(hkr_xf(c), kind))
        checks.append(_sampled(f"hkr-xf:chain-map:sign{sign:+d}", chains, sides))
    return checks


def suite_hkr_a(scene: Scene, seed: int = 0) -> list:
    """Criterion 3: the cone-valued HKR map is a chain map on all three
    element classes, with the two-odd-factor vanishing."""
    rng = _rng(seed, "hkr-a", scene.name)
    alg = SheafAlgebraA(scene)
    checks = []
    sides = lambda c: (hkr_A(cech_hoch_d(c)), cech_total_d(hkr_A(c), CONE))
    for eps in (0, 1, 2):
        chains = [rand_a_class_chain(rng, alg, eps) for _ in range(100)]
        checks.append(_sampled(f"hkr-a:chain-map:eps{eps}", chains, sides))
    chains = [rand_a_class_chain(rng, alg, 2) for _ in range(100)]
    zero = Cochain(scene, CONEF)
    vanish = lambda c: ((hkr_A(c), hkr_A(twisted_hoch_d(c, parts=("d1",)))), (zero, zero))
    checks.append(_sampled("hkr-a:two-eps-vanishing", chains, vanish))
    return checks


def suite_hkr_a_square(scene: Scene, seed: int = 0) -> list:
    """Criterion 4: projection-to-divisor of the cone map equals classical
    HKR after the quotient chain map."""
    rng = _rng(seed, "hkr-a-square", scene.name)
    alg = SheafAlgebraA(scene)
    oy = OYAlgebra(scene)
    chains = [rand_a_class_chain(rng, alg, i % 3) for i in range(100)]
    square = lambda c: (cone_to_y(hkr_A(c)), hkr_y(a_to_oy(c, oy)))
    return [_sampled("hkr-a:square", chains, square)]


def suite_hq(scene: Scene, seed: int = 0) -> list:
    """Criterion 5: the exchange identity of the insertion operators."""
    rng = _rng(seed, "hq", scene.name)
    P = build_P(scene)
    cat = end_algebra(scene, P)
    triv = TrivializedCategory(scene, [P])
    qmax = len(scene.atlas.chart_ids)
    per = max(1, 100 // (qmax + 1))

    def hq(q, x):
        return hq_basis(q, x, triv) if q >= 0 else CechHochChain(triv, {})

    def exchange(q, c):
        lhs = twisted_hoch_d(hq(q, c), parts=("d2",)) + cech_part_d(hq(q - 1, c))
        rhs = hq(q - 1, cech_part_d(c)) + hq(q, twisted_hoch_d(c, parts=("d2",)))
        return lhs, rhs

    checks = []
    for q in range(qmax + 1):
        chains = [rand_cech_hoch_chain(rng, cat, max_len=2) for _ in range(per)]
        checks.append(_sampled(f"hq:exchange:q{q}", chains, lambda c: exchange(q, c)))
    return checks


# --- lax fixtures -----------------------------------------------------------


def unit_family(scene: Scene) -> dict:
    """An invertible even element per tuple (and the global level), chosen to
    exercise nonconstant isomorphism components where the rings allow."""
    w = {GLOBAL: scene.global_ring.one() if scene.global_ring else None}
    consts = itertools.cycle([2, 3, 5, 7])
    for I in scene.atlas.tuples:
        ring = scene.atlas.ring(I)
        lau = sorted(ring.inverted)
        if lau:
            exps = [0] * ring.nvars
            exps[lau[0]] = 1 if len(I) % 2 else 2
            w[I] = ring.monomial(exps, next(consts))
        else:
            w[I] = ring.const(next(consts))
    return w


def coboundary_lax(scene: Scene, alg, w: dict):
    """The identity functor with the coboundary isomorphism family of w."""

    def functor(I, sym):
        ring = scene.global_ring if I == GLOBAL else scene.atlas.ring(I)
        return {sym: ring.one()}

    def alpha(V, W):
        if V == GLOBAL:
            rv = scene.atlas.res((W[0],), W)(scene.global_res[W[0]](w[GLOBAL]))
        else:
            rv = scene.atlas.res(V, W)(w[V])
        return {"1": w[W] * rv.inverse()}

    def id_alpha(V, W):
        return {"1": scene.atlas.ring(W).one()}

    lax = OneObjectLax(scene, alg, alg, functor, alpha)
    lax_id = OneObjectLax(scene, alg, alg, functor, id_alpha)
    tau = lambda T: {"1": w[T]}
    return lax, lax_id, tau


def _over_divisor(scene: Scene, i, v: str):
    """The global variable v divided by the divisor equation x on chart i,
    or None when the quotient leaves the chart ring."""
    return _loc_divide(scene.global_res[i](scene.global_ring.var(v)), scene.chart(i).x)


def _global_divisor(scene: Scene) -> str | None:
    """The first global variable v that is a unit times x on every chart."""
    for v in scene.global_ring.variables:
        quotients = [_over_divisor(scene, i, v) for i in scene.atlas.chart_ids]
        if all(u is not None and u.is_unit() for u in quotients):
            return v
    return None


def suite_lax(scene: Scene, seed: int = 0) -> list:
    """Criterion 6: chain map, strict-vs-lax homotopy, isomorphism homotopy,
    and the restriction homotopy, each against its defining identity."""
    rng = _rng(seed, "lax", scene.name)
    alg = SheafAlgebraA(scene)
    w = unit_family(scene)
    lax, lax_id, tau = coboundary_lax(scene, alg, w)
    checks = [Check("lax:cocycle", lax.cocycle_ok(), "isomorphism components")]

    def lax_map(F, c):
        return cech_lax_map(F, c, check=False)

    def chain_map(c):
        return cech_hoch_d(lax_map(lax, c)), lax_map(lax, cech_hoch_d(c))

    def strict_vs_lax(c):
        H = strict_vs_lax_homotopy(lax_id, c)
        hom = cech_hoch_d(H) + strict_vs_lax_homotopy(lax_id, cech_hoch_d(c))
        return hom, cech_strict_map(lax_id, c) - lax_map(lax_id, c)

    def iso(c):
        H = iso_homotopy(lax, lax_id, tau, c)
        hom = cech_hoch_d(H) + iso_homotopy(lax, lax_id, tau, cech_hoch_d(c))
        return hom, lax_map(lax, c) - lax_map(lax_id, c)

    chains = [rand_a_class_chain(rng, alg, i % 2, max_len=2) for i in range(50)]
    for key, sides in (("chain-map", chain_map), ("strict-vs-lax", strict_vs_lax), ("iso", iso)):
        checks.append(_sampled(f"lax:{key}", chains, sides))

    # restriction homotopy at the global level
    if scene.global_ring is None:
        return checks
    gring = scene.global_ring
    v = _global_divisor(scene)
    if v is not None:

        def gd(sym):
            return {"1": gring.var(v)} if sym == "e" else {}

        def sym_image(i, sym):
            if sym == "e":
                return {"e": _over_divisor(scene, i, v)}
            return {"1": scene.chart(i).ring.one()}

        model = GlobalModel(scene, alg, ("1", "e"), gd, sym_image=sym_image)
        glax = lax
        basis = ("1", "e")
    else:
        line = CurvedLine(scene, -1)
        model = GlobalModel(scene, line, ("1",), lambda sym: {})
        glax = coboundary_lax(scene, line, w)[0]
        basis = ("1",)
    gchains = []
    for _ in range(25):
        k = rng.randint(0, 2)
        slots = []
        for _ in range(k + 1):
            sym = rng.choice(basis)
            coeff = rng.choice((-2, -1, 1, 2))
            slots.append({sym: gring.monomial(rand_mono(rng, gring, 1), coeff)})
        gchains.append(make_chain(model, GLOBAL, ("*",) * (k + 1), slots))

    def restriction(g):
        Ht = restriction_htilde(glax, model, g)
        lhs = cech_hoch_d(Ht) + restriction_htilde(glax, model, hoch_d(g))
        r1 = lax_map(glax, global_to_cech(model, g))
        r2 = global_to_cech(model, apply_global_functor(model, g, glax.functor_sym))
        return lhs, r1 - r2

    gchains = [g for g in gchains if not g.is_zero()]
    checks.append(_sampled("lax:restriction-homotopy", gchains, restriction))
    return checks


def suite_phi(scene: Scene, seed: int = 0) -> list:
    """Criterion 7: the trace map is a chain map, degreewise."""
    rng = _rng(seed, "phi", scene.name)
    routes = scene.routes()
    cat, line = routes.endp, routes.line
    L = scene.trunc - 2

    def chain_map(c):
        lhs = cech_hoch_d(phi(c, L + 1, line)).truncate(L)
        return lhs, phi(cech_hoch_d(c), L, line).truncate(L)

    chains = [rand_cech_hoch_chain(rng, cat, max_len=2) for _ in range(50)]
    return [_sampled("phi:chain-map", chains, chain_map)]


def suite_todd(scene: Scene, seed: int = 0) -> list:
    """Criterion 8: the inverse Todd action commutes with the differentials,
    and the two series presentations agree termwise."""
    rng = _rng(seed, "todd", scene.name)
    td = scene.routes().todd

    def commutes(a):
        return cech_total_d(bar_wedge(a, td), CONE), bar_wedge(cech_total_d(a, CONE), td)

    cochains = [rand_cone_cochain(scene, rng, max_deg=1) for _ in range(100)]
    checks = [_sampled("todd:commutes", cochains, commutes)]

    c1 = c1_minus_Y(scene)
    ok = True
    power_plain = unit_cochain(scene, FORM)
    for q in range(len(scene.atlas.chart_ids) + 1):
        lhs = bar_power(c1, q)
        rhs = power_plain.scale(Fraction((-1) ** math.comb(q, 2)))
        if lhs != rhs:
            ok = False
            break
        power_plain = cech_wedge(power_plain, c1)
    checks.append(Check("todd:series-presentations", ok, "termwise equality"))
    checks.append(
        Check("todd:c1-cocycle", cech_total_d(c1, OMEGA).is_zero(), "d c1 = 0")
    )
    return checks


def basis_a_chains(scene: Scene, max_len: int = 3):
    """All basis chains with slots from the module basis times monomials of
    degree <= 1 (constant coefficients at the top length, to stay small)."""
    alg = SheafAlgebraA(scene)
    for I in scene.atlas.tuples:
        ring = alg.ring(I)
        lau = ring.inverted
        monos = [(0,) * ring.nvars]
        for v in range(ring.nvars):
            e = [0] * ring.nvars
            e[v] = 1
            monos.append(tuple(e))
            if v in lau:
                e2 = [0] * ring.nvars
                e2[v] = -1
                monos.append(tuple(e2))
        for k in range(max_len + 1):
            pool = (
                [(s, m) for s in ("1", "e") for m in monos]
                if k < max_len
                else [(s, (0,) * ring.nvars) for s in ("1", "e")]
            )
            for combo in itertools.product(pool, repeat=k + 1):
                slots = [{s: ring.monomial(m)} for s, m in combo]
                ch = make_chain(alg, I, ("*",) * (k + 1), slots)
                if not ch.is_zero():
                    eps = sum(1 for s, _ in combo if s == "e")
                    yield min(eps, 2), CechHochChain(alg, {I: ch})


def suite_diagram1(scene: Scene, seed: int = 0) -> list:
    """Criterion 9: strict equality of the two composites on all basis
    chains, under exactly one setting of the Todd sign switch.

    The residue route is linear in the Todd cochain, which the sign scales,
    so it is computed once per chain and negated for the minus sign."""
    results = {1: [0, 0, None], -1: [0, 0, None]}  # sign -> [ok, bad, first-payload]
    class_counts = {0: 0, 1: 0, 2: 0}
    for eps_class, c in basis_a_chains(scene):
        class_counts[eps_class] += 1
        top = trace_route(scene, c)
        plus = residue_route(scene, c, 1)
        for sign, bottom in ((1, plus), (-1, -plus)):
            if top == bottom:
                results[sign][0] += 1
            else:
                results[sign][1] += 1
                if results[sign][2] is None:
                    results[sign][2] = _payload(c, top, bottom, todd_sign=sign)
    works = [s for s in (1, -1) if results[s][1] == 0 and results[s][0] > 0]
    checks = [
        Check(
            "diagram1:unique-todd-sign",
            len(works) == 1,
            f"working signs: {works}; classes covered {class_counts}",
            None if len(works) == 1 else {"plus": results[1][1], "minus": results[-1][1]},
        )
    ]
    for s in (1, -1):
        name = "minus" if s == -1 else "plus"
        expected_ok = s == signs.sign("todd-factor")
        holds = results[s][1] == 0
        checks.append(
            Check(
                f"diagram1:sign-{name}",
                holds == expected_ok,
                f"{results[s][0]} equal, {results[s][1]} different",
                results[s][2] if holds != expected_ok else None,
            )
        )
    return checks


def suite_pushforward(scene: Scene, seed: int = 0) -> list:
    """Criterion 10: the two routes of the main-theorem instance."""
    route_a, route_b = pushforward_unit(scene)
    checks = []
    equal = route_a == route_b
    payload = {
        "route_a": repr(route_a),
        "route_b": repr(route_b),
    }
    checks.append(
        Check(
            "pushforward:routes-equal",
            equal,
            "strict equality of the two routes on the unit class",
            None if equal else payload,
        )
    )
    if not equal:
        boundary = is_boundary_within_window(route_a - route_b, OMEGA, scene.window)
        checks.append(
            Check("pushforward:difference-bounds", boundary, "within the window", payload)
        )
    dims = homology_dims(scene, OMEGA)
    checks.append(
        Check(
            "pushforward:homology-context",
            dims["stable"],
            f"even {dims['even']}, odd {dims['odd']}, stable {dims['stable']}",
            {"dims": dims, "route_value": repr(route_a)},
        )
    )
    return checks


# --- homology oracle (separate assembly and rank path) ----------------------


def _sparse_rank(vectors) -> int:
    """Rank of sparse vectors {key: int | Fraction} by fraction-free
    reduction, independent of linalg.

    Each vector becomes a primitive integer row; a row is reduced against
    the kept pivot row of its least key, row <- a*row - b*pivot, until it
    vanishes or its least key has no pivot yet.  linalg.rank_kernel clears
    the lowest row index of a column instead, so the two never run the same
    elimination."""
    pivots: dict = {}
    for vec in vectors:
        den = math.lcm(*(v.denominator for v in vec.values()))
        row = {k: int(v * den) for k, v in vec.items() if v}
        while row:
            g = math.gcd(*row.values())
            row = {k: v // g for k, v in row.items()}
            lead = min(row)
            pivot = pivots.setdefault(lead, row)
            if pivot is row:
                break
            g = math.gcd(pivot[lead], row[lead])
            a, b = pivot[lead] // g, row[lead] // g
            out = {k: a * v for k, v in row.items()}
            for k, v in pivot.items():
                out[k] = out.get(k, 0) - b * v
            row = {k: v for k, v in out.items() if v}
            assert lead not in row, "the pivot did not clear its key"
    return len(pivots)


def oracle_homology_dims(scene: Scene, complex_kind: str, D: int) -> dict:
    """Windowed homology with an independent sparse fraction-free rank.

    The assembly is its own too: one cech_total_d per window basis key,
    not the table-built columns of homology._WindowedDifferential."""
    basis: dict = {0: [], 1: []}
    images: dict = {0: [], 1: []}
    for k in _window_keys(scene, complex_kind, D):
        d = cech_total_d(_basis_cochain(scene, complex_kind, k), complex_kind)
        basis[_parity(k)].append(k)
        images[_parity(k)].append(expand_cochain(d, complex_kind))
    rank_d = {par: _sparse_rank(images[par]) for par in (0, 1)}
    out = {}
    for par in (0, 1):
        # ker d|par minus (im d|opp meet the window), whose dimension is
        # rank_d[opp] + n - rank of the two spanning sets together
        n = len(basis[par])
        rank_w = _sparse_rank(images[1 - par] + [{k: 1} for k in basis[par]])
        out[par] = (n - rank_d[par]) - (rank_d[1 - par] + n - rank_w)
    return {"even": out[0], "odd": out[1]}


GOLDEN_DIMS = {
    "SCENE-A1": (0, 1),
    "SCENE-A2": (1, 0),
    "SCENE-P1": (2, 0),
}


def suite_homology(scene: Scene, seed: int = 0) -> list:
    """Criterion 11: windowed homology at the scene's window equals the
    independent oracle, and the frozen golden values for the built-in scenes."""
    D = scene.window
    dims = homology_dims(scene, OMEGA, D)
    oracle = oracle_homology_dims(scene, OMEGA, D)
    checks = [
        Check(
            "homology:oracle-match",
            dims["even"] == oracle["even"] and dims["odd"] == oracle["odd"],
            f"engine ({dims['even']},{dims['odd']}) vs oracle ({oracle['even']},{oracle['odd']})",
        ),
        Check("homology:stable", dims["stable"], f"window {D} vs {D + 1}"),
    ]
    if scene.name in GOLDEN_DIMS:
        want = GOLDEN_DIMS[scene.name]
        checks.append(
            Check(
                "homology:golden",
                (dims["even"], dims["odd"]) == want,
                f"expected {want}, got ({dims['even']},{dims['odd']})",
            )
        )
    return checks


REQUIRED_SIGNS = (
    "cech-sheaf-twist",
    "cone-reg",
    "cone-log",
    "cone-L",
    "delta-lift",
    "delta-cone",
    "delta-diagram-twist",
    "ses-degree",
    "hkr-target",
    "hkr-a-eps-head",
    "todd-factor",
    "mf-basis-order",
    "sh-insertion",
    "phi-term",
    "strict-vs-lax-homotopy",
    "iso-homotopy",
    "restriction-homotopy",
)


def suite_signs(scene: Scene | None = None, seed: int = 0) -> list:
    """Criterion 12: every referenced sign constant is documented."""
    checks = []
    for name in REQUIRED_SIGNS:
        try:
            value = signs.sign(name)
            note = signs.note(name)
            checks.append(Check(f"signs:{name}", bool(note), f"value {value:+d}"))
        except signs.UndocumentedSign:
            checks.append(Check(f"signs:{name}", False, "undocumented"))
    documented = set(signs.entries())
    extra = documented - set(REQUIRED_SIGNS)
    checks.append(
        Check(
            "signs:coverage",
            not (set(REQUIRED_SIGNS) - documented),
            f"documented {len(documented)}, referenced {len(REQUIRED_SIGNS)}, unreferenced {sorted(extra)}",
        )
    )
    return checks


SUITES = {
    "scene": suite_scene,
    "d2": suite_d2,
    "hkr-xf": suite_hkr_xf,
    "hkr-a": suite_hkr_a,
    "hkr-a-square": suite_hkr_a_square,
    "hq": suite_hq,
    "lax": suite_lax,
    "phi": suite_phi,
    "todd": suite_todd,
    "diagram1": suite_diagram1,
    "pushforward": suite_pushforward,
    "homology": suite_homology,
    "signs": suite_signs,
}
