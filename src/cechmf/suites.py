"""Property suites driving every verified identity, one per acceptance area.

Each suite returns a list of Check results; randomized elements are drawn
from a generator seeded per (seed, suite, scene), so reports are
byte-identical across runs with the same inputs.  Failure payloads carry the
offending element and both sides.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import signs
from .cdg import (
    CurvedLine,
    MFCategory,
    OYAlgebra,
    SheafAlgebraA,
    TrivializedCategory,
    build_P,
    end_algebra,
    mf_delta_squared_is_f,
    trivial_line,
)
from .cech import (
    CONE,
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
    todd_inverse,
    unit_cochain,
)
from .diagrams import pushforward_unit, trace_route, residue_route, unit_a_chain
from .hkr import a_to_oy, hkr_A, hkr_xf, hkr_y
from .hochschild import (
    CechHochChain,
    cech_hoch_d,
    cech_part_d,
    hoch_d,
    make_chain,
    twisted_hoch_d,
)
from .homology import homology_dims, is_boundary_within_window, _WindowedDifferential
from .lax import (
    GLOBAL,
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
from .linalg import QMatrix, rank_kernel
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
from .scene import Scene, validate_scene
from .ses import cone_to_y, ses_lift, ses_project
from .trace import hq_basis, phi, sh_shuffle_cech, supertrace, yoneda


def _rng(seed: int, suite: str, scene_name: str) -> random.Random:
    return random.Random(f"{seed}:{suite}:{scene_name}")


def _payload(element, lhs, rhs, **extra):
    out = {"element": repr(element), "lhs": repr(lhs), "rhs": repr(rhs)}
    out.update(extra)
    return out


# ---------------------------------------------------------------------------


def suite_scene(scene: Scene, seed: int = 0) -> list:
    rep = validate_scene(scene)
    checks = [Check(f"scene:{name}", ok, detail) for name, ok, detail in rep.checks]
    return checks


def suite_d2(scene: Scene, seed: int = 0, n: int = 100) -> list:
    """Criterion 1: differentials square to zero on every complex."""
    rng = _rng(seed, "d2", scene.name)
    checks = []
    gens = {
        OMEGA: rand_form_cochain,
        OMEGA_LOG: rand_log_cochain,
        OMEGA_Y: rand_yform_cochain,
        CONE: rand_cone_cochain,
    }
    per = max(1, n // len(gens))
    for kind, gen in gens.items():
        bad = 0
        first = None
        for i in range(per):
            c = gen(scene, rng, max_deg=1)
            dd = cech_total_d(cech_total_d(c, kind), kind)
            if not dd.is_zero():
                bad += 1
                if first is None:
                    first = _payload(c, dd, "0", index=i)
        checks.append(
            Check(f"d2:{kind}", bad == 0, f"{per - bad}/{per} exact", first)
        )
    presheaves = {
        "O_f": CurvedLine(scene, 1),
        "O_-f": CurvedLine(scene, -1),
        "A": SheafAlgebraA(scene),
        "EndP": end_algebra(scene, build_P(scene)),
    }
    per = max(1, n // len(presheaves))
    max_len = scene.trunc - 2
    for name, ph in presheaves.items():
        bad = 0
        first = None
        for i in range(per):
            c = rand_cech_hoch_chain(rng, ph, max_len=min(3, max_len))
            dd = cech_hoch_d(cech_hoch_d(c))
            if not dd.is_zero():
                bad += 1
                if first is None:
                    first = _payload(c, dd, "0", index=i)
        checks.append(
            Check(f"d2:hoch:{name}", bad == 0, f"{per - bad}/{per} exact", first)
        )
    return checks


def suite_hkr_xf(scene: Scene, seed: int = 0, n: int = 100) -> list:
    """Criterion 2: the curved-line HKR map is a chain map."""
    rng = _rng(seed, "hkr-xf", scene.name)
    checks = []
    for sign, kind in ((-1, OMEGA), (1, OMEGA_PLUS)):
        line = CurvedLine(scene, sign)
        bad = 0
        first = None
        for i in range(n // 2):
            c = rand_cech_hoch_chain(rng, line, max_len=4, max_deg=2)
            lhs = hkr_xf(cech_hoch_d(c))
            rhs = cech_total_d(hkr_xf(c), kind)
            if lhs != rhs:
                bad += 1
                if first is None:
                    first = _payload(c, lhs, rhs, index=i)
        checks.append(
            Check(
                f"hkr-xf:chain-map:sign{sign:+d}",
                bad == 0,
                f"{n // 2 - bad}/{n // 2} exact",
                first,
            )
        )
    return checks


def suite_hkr_a(scene: Scene, seed: int = 0, n: int = 100) -> list:
    """Criterion 3: the cone-valued HKR map is a chain map on all three
    element classes, with the two-odd-factor vanishing."""
    rng = _rng(seed, "hkr-a", scene.name)
    alg = SheafAlgebraA(scene)
    checks = []
    for eps in (0, 1, 2):
        bad = 0
        first = None
        for i in range(n):
            c = rand_a_class_chain(rng, alg, eps)
            lhs = hkr_A(cech_hoch_d(c))
            rhs = cech_total_d(hkr_A(c), CONE)
            if lhs != rhs:
                bad += 1
                if first is None:
                    first = _payload(c, lhs, rhs, index=i)
        checks.append(
            Check(f"hkr-a:chain-map:eps{eps}", bad == 0, f"{n - bad}/{n} exact", first)
        )
    bad = 0
    first = None
    for i in range(n):
        c = rand_a_class_chain(rng, alg, 2)
        img = hkr_A(c)
        d1 = hkr_A(twisted_hoch_d(c, parts=("d1",)))
        if not img.is_zero() or not d1.is_zero():
            bad += 1
            if first is None:
                first = _payload(c, img, d1, index=i)
    checks.append(
        Check("hkr-a:two-eps-vanishing", bad == 0, f"{n - bad}/{n} exact", first)
    )
    return checks


def suite_hkr_a_square(scene: Scene, seed: int = 0, n: int = 100) -> list:
    """Criterion 4: projection-to-divisor of the cone map equals classical
    HKR after the quotient chain map."""
    rng = _rng(seed, "hkr-a-square", scene.name)
    alg = SheafAlgebraA(scene)
    oy = OYAlgebra(scene)
    checks = []
    bad = 0
    first = None
    for i in range(n):
        c = rand_a_class_chain(rng, alg, i % 3)
        lhs = cone_to_y(hkr_A(c))
        rhs = hkr_y(a_to_oy(c, oy))
        if lhs != rhs:
            bad += 1
            if first is None:
                first = _payload(c, lhs, rhs, index=i)
    checks.append(Check("hkr-a:square", bad == 0, f"{n - bad}/{n} exact", first))
    return checks


def suite_hq(scene: Scene, seed: int = 0, n: int = 100) -> list:
    """Criterion 5: the exchange identity of the insertion operators."""
    rng = _rng(seed, "hq", scene.name)
    P = build_P(scene)
    cat = end_algebra(scene, P)
    triv = TrivializedCategory(scene, [P])
    checks = []
    qmax = len(scene.atlas.chart_ids)
    for q in range(qmax + 1):
        bad = 0
        first = None
        for i in range(max(1, n // (qmax + 1))):
            c = rand_cech_hoch_chain(rng, cat, max_len=2)

            def hq(qq, x):
                return hq_basis(qq, x, triv) if qq >= 0 else CechHochChain(triv, {})

            lhs = twisted_hoch_d(hq(q, c), parts=("d2",)) + cech_part_d(hq(q - 1, c))
            rhs = hq(q - 1, cech_part_d(c)) + hq(q, twisted_hoch_d(c, parts=("d2",)))
            if lhs != rhs:
                bad += 1
                if first is None:
                    first = _payload(c, lhs, rhs, index=i, q=q)
        total = max(1, n // (qmax + 1))
        checks.append(
            Check(f"hq:exchange:q{q}", bad == 0, f"{total - bad}/{total} exact", first)
        )
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


def suite_lax(scene: Scene, seed: int = 0, n: int = 50) -> list:
    """Criterion 6: chain map, strict-vs-lax homotopy, isomorphism homotopy,
    and the restriction homotopy, each against its defining identity."""
    rng = _rng(seed, "lax", scene.name)
    alg = SheafAlgebraA(scene)
    w = unit_family(scene)
    lax, lax_id, tau = coboundary_lax(scene, alg, w)
    checks = []
    checks.append(Check("lax:cocycle", lax.cocycle_ok(), "isomorphism components"))

    bad = {"chain-map": 0, "strict-vs-lax": 0, "iso": 0}
    first = {}
    for i in range(n):
        c = rand_a_class_chain(rng, alg, i % 2, max_len=2)
        lhs = cech_hoch_d(cech_lax_map(lax, c, check=False))
        rhs = cech_lax_map(lax, cech_hoch_d(c), check=False)
        if lhs != rhs:
            bad["chain-map"] += 1
            first.setdefault("chain-map", _payload(c, lhs, rhs, index=i))

        H = strict_vs_lax_homotopy(lax_id, c)
        hom = cech_hoch_d(H) + strict_vs_lax_homotopy(lax_id, cech_hoch_d(c))
        diff = cech_strict_map(lax_id, c) - cech_lax_map(lax_id, c, check=False)
        if hom != diff:
            bad["strict-vs-lax"] += 1
            first.setdefault("strict-vs-lax", _payload(c, hom, diff, index=i))

        Hi = iso_homotopy(lax, lax_id, tau, c)
        homi = cech_hoch_d(Hi) + iso_homotopy(lax, lax_id, tau, cech_hoch_d(c))
        diffi = cech_lax_map(lax, c, check=False) - cech_lax_map(lax_id, c, check=False)
        if homi != diffi:
            bad["iso"] += 1
            first.setdefault("iso", _payload(c, homi, diffi, index=i))
    for key in ("chain-map", "strict-vs-lax", "iso"):
        checks.append(
            Check(f"lax:{key}", bad[key] == 0, f"{n - bad[key]}/{n} exact", first.get(key))
        )

    # restriction homotopy at the global level
    if scene.global_ring is not None:
        from .scene import _loc_divide

        gring = scene.global_ring
        has_global_divisor = scene.name in ("SCENE-A2D", "SCENE-A2C", "SCENE-A1", "SCENE-A2")

        def gd(sym):
            if sym == "e" and has_global_divisor:
                name = scene.chart(scene.atlas.chart_ids[0]).ring.variables[0]
                return {"1": gring.var(name)} if name in gring.variables else {}
            return {}

        def sym_image(i, sym):
            chart = scene.chart(i)
            if sym == "e":
                xg = scene.global_res[i](gring.var("x"))
                u = _loc_divide(xg, chart.x)
                return {"e": u}
            return {"1": chart.ring.one()}

        if has_global_divisor and "x" in gring.variables:
            model = GlobalModel(scene, alg, ("1", "e"), gd, sym_image=sym_image)
            basis = ("1", "e")
        else:
            line = CurvedLine(scene, -1)
            model = GlobalModel(scene, line, ("1",), lambda sym: {})
            lax, lax_id, tau = coboundary_lax(scene, line, w)
            basis = ("1",)
        bad_r = 0
        first_r = None
        for i in range(max(1, n // 2)):
            k = rng.randint(0, 2)
            slots = []
            for _ in range(k + 1):
                sym = rng.choice(basis)
                slots.append(
                    {sym: gring.monomial(rand_mono(rng, gring, 1), rng.randint(-2, 2))}
                )
            gchain = make_chain(model, GLOBAL, ("*",) * (k + 1), slots)
            if gchain.is_zero():
                continue
            Ht = restriction_htilde(lax, model, gchain)
            lhs = cech_hoch_d(Ht) + restriction_htilde(lax, model, hoch_d(gchain))
            r1 = cech_lax_map(lax, global_to_cech(model, gchain), check=False)
            r2 = global_to_cech(model, apply_global_functor(model, gchain, lax.functor_sym))
            if lhs != r1 - r2:
                bad_r += 1
                if first_r is None:
                    first_r = _payload(gchain, lhs, r1 - r2, index=i)
        checks.append(
            Check("lax:restriction-homotopy", bad_r == 0, f"global level, {bad_r} failures", first_r)
        )
    return checks


def suite_phi(scene: Scene, seed: int = 0, n: int = 50) -> list:
    """Criterion 7: the trace map is a chain map, degreewise."""
    rng = _rng(seed, "phi", scene.name)
    cat = end_algebra(scene, build_P(scene))
    line = CurvedLine(scene, -1)
    L = scene.trunc - 2
    bad = 0
    first = None
    for i in range(n):
        c = rand_cech_hoch_chain(rng, cat, max_len=2)
        lhs = cech_hoch_d(phi(c, L + 1, line)).truncate(L)
        rhs = phi(cech_hoch_d(c), L, line).truncate(L)
        if lhs != rhs:
            bad += 1
            if first is None:
                first = _payload(c, lhs, rhs, index=i)
    return [Check("phi:chain-map", bad == 0, f"{n - bad}/{n} exact", first)]


def suite_todd(scene: Scene, seed: int = 0, n: int = 100) -> list:
    """Criterion 8: the inverse Todd action commutes with the differentials,
    and the two series presentations agree termwise."""
    rng = _rng(seed, "todd", scene.name)
    checks = []
    td = todd_inverse(scene)
    bad = 0
    first = None
    for i in range(n):
        a = rand_cone_cochain(scene, rng, max_deg=1)
        lhs = cech_total_d(bar_wedge(a, td), CONE)
        rhs = bar_wedge(cech_total_d(a, CONE), td)
        if lhs != rhs:
            bad += 1
            if first is None:
                first = _payload(a, lhs, rhs, index=i)
    checks.append(Check("todd:commutes", bad == 0, f"{n - bad}/{n} exact", first))

    c1 = c1_minus_Y(scene)
    ok = True
    from math import comb

    power_plain = unit_cochain(scene, FORM)
    for q in range(len(scene.atlas.chart_ids) + 1):
        lhs = bar_power(c1, q)
        rhs = power_plain.scale(Fraction((-1) ** comb(q, 2)))
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


def suite_diagram1(scene: Scene, seed: int = 0, todd_sign: int | None = None) -> list:
    """Criterion 9: strict equality of the two composites on all basis
    chains, under exactly one setting of the Todd sign switch."""
    results = {1: [0, 0, None], -1: [0, 0, None]}  # sign -> [ok, bad, first-payload]
    class_counts = {0: 0, 1: 0, 2: 0}
    signs_to_try = (1, -1) if todd_sign is None else (todd_sign,)
    for eps_class, c in basis_a_chains(scene):
        class_counts[eps_class] += 1
        top = trace_route(scene, c)
        for sign in signs_to_try:
            bottom = residue_route(scene, c, sign)
            if top == bottom:
                results[sign][0] += 1
            else:
                results[sign][1] += 1
                if results[sign][2] is None:
                    results[sign][2] = _payload(c, top, bottom, todd_sign=sign)
    checks = []
    if todd_sign is None:
        works = [s for s in (1, -1) if results[s][1] == 0 and results[s][0] > 0]
        checks.append(
            Check(
                "diagram1:unique-todd-sign",
                len(works) == 1,
                f"working signs: {works}; classes covered {class_counts}",
                None if len(works) == 1 else {"plus": results[1][1], "minus": results[-1][1]},
            )
        )
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
    else:
        s = todd_sign
        checks.append(
            Check(
                f"diagram1:todd-sign{s:+d}",
                results[s][1] == 0,
                f"{results[s][0]} equal, {results[s][1]} different",
                results[s][2],
            )
        )
    return checks


def suite_pushforward(scene: Scene, seed: int = 0) -> list:
    """Criterion 10: the two routes of the main-theorem instance."""
    route_a, route_b = pushforward_unit(scene, signs.sign("todd-factor"))
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


def _bareiss_rank(rows) -> int:
    """Fraction-free integer Gaussian elimination (independent of linalg)."""
    if not rows:
        return 0
    # clear denominators per row
    m = []
    for row in rows:
        den = 1
        for x in row:
            den = den * x.denominator // _gcd(den, x.denominator)
        m.append([int(x * den) for x in row])
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        for r in range(row + 1, nrows):
            for cc in range(col + 1, ncols):
                m[r][cc] = (m[r][cc] * m[row][col] - m[r][col] * m[row][cc]) // prev
            m[r][col] = 0
        prev = m[row][col]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def oracle_homology_dims(scene: Scene, complex_kind: str, D: int) -> dict:
    """Dense assembly of the windowed differential with an independent
    fraction-free rank computation."""
    wd = _WindowedDifferential(scene, complex_kind, D)
    out = {}
    for par in (0, 1):
        amb_opp = wd.ambient[1 - par]
        amb_own = wd.ambient[par]
        # dense matrix of d on parity par, rows = ambient coordinates
        dense = []
        for r in range(len(amb_opp)):
            dense.append([Fraction(0)] * len(wd.basis[par]))
        for j, img in enumerate(wd.images[par]):
            for kk, v in img.items():
                dense[amb_opp[kk]][j] = v
        rank_d = _bareiss_rank(dense)
        dense_opp = []
        for r in range(len(amb_own)):
            dense_opp.append([Fraction(0)] * len(wd.basis[1 - par]))
        for j, img in enumerate(wd.images[1 - par]):
            for kk, v in img.items():
                dense_opp[amb_own[kk]][j] = v
        rank_opp = _bareiss_rank(dense_opp)
        with_window = [row[:] for row in dense_opp]
        for j, k in enumerate(wd.basis[par]):
            for r in range(len(amb_own)):
                with_window[r].append(Fraction(0))
            with_window[amb_own[k]][len(wd.basis[1 - par]) + j] = Fraction(1)
        rank_w = _bareiss_rank(with_window)
        out[par] = (len(wd.basis[par]) - rank_d) - (
            rank_opp + len(wd.basis[par]) - rank_w
        )
    return {"even": out[0], "odd": out[1]}


GOLDEN_DIMS = {
    "SCENE-A1": (0, 1),
    "SCENE-A2": (1, 0),
    "SCENE-P1": (2, 0),
}


def suite_homology(scene: Scene, seed: int = 0, D: int | None = None) -> list:
    """Criterion 11: windowed homology equals the dense oracle, and the
    frozen golden values for the built-in scenes."""
    if D is None:
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
