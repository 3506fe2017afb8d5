"""Cech cochains of forms and the total differentials of the complexes.

Conventions (see signs.py):
  * total differential = d_Cech + (-1)^p d_sheaf on Cech degree p,
  * cone differential d(a, b) = (d_Cech a - (-1)^p df^a,
                                 (-1)^p L(a) + d_Cech b + (-1)^p df^b),
  * products multiply front face times back face:
    (a.b)_{i_0..i_{p+q}} = a_{i_0..i_p} b_{i_p..i_{p+q}},
  * bar product (a ~^ b) = (-1)^{pq} (b ^ a) in Cech degrees p, q.

The Cech layer makes one pass per entry and accumulates once.  A
cochain's value at a target tuple K is a sum of many terms: restricted
pieces of the Cech differential, sheaf differentials of the entries,
products of a cup product.  Each target gets one accumulator, a list of
flat dicts {(index set, exponent): coefficient} (one for a form, two for
a log form's regular part and residue, three for a cone section), every
term is added into it with its sign, and the value at K is built once at
the end (`_build`).  A total differential visits each entry once
(`Cochain._entry_into`): the entry is restricted to every extension J of
its tuple I along the plan that the scene keeps per I (`_tuple_plan`,
`Scene._cech_plans`: J, the sign of J's new index and atlas.res(I, J)),
and its sheaf differential goes into I's accumulator, so nothing per
(entry, J) looks up a restriction map or dispatches on the kind.  A Form
stores that flat layout, so building is one normalizing pass over each
dict, with no regrouping: a log form is folded to the LogForm normal form
straight from its two dicts (`LogForm.from_flats`), a divisor form is
projected by forms.y_normalize.  Both normal forms are linear
projections, so the normal form of the sum is the sum of the normal
forms of its terms, and normalizing once at K is exact.

Three tables define the complexes: `_FLATS` holds the accumulator size of
each section kind, `_RESTRICT_INTO` its restriction from U_I to U_J along
a given restriction map into an accumulator, which the Cech differential
and the cup product use, and `_COMPLEXES` holds each complex's section
kind and its sheaf differential, which adds into the accumulator of its
own tuple.  `cech_total_d` reads
them alike for every complex, the cone included: one pass of
`AtlasCochain.cech_d` with the sheaf differential as its sheaf part.

The cup product multiplies restricted entries, not accumulators: each
factor restricts its entry at I to K once and keeps it on itself
(`Cochain.restricted`), so a factor that enters many products, as the
inverse Todd cochain does on the residue route and in the Todd checks,
restricts each entry once per K for its whole life.  The memo is a slot
of the cochain and dies with it.

A divisor form (kind YFORM) is a form on X taken modulo x and dx, x the
divisor's coordinate; its normal form is forms.y_normalize.  Divisor forms
are projected where they are built (`Cochain.__init__` and `_build`), so
every other producer passes plain forms and the linear operations of
AtlasCochain keep the normal form.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .forms import (
    ConeForm,
    Form,
    LogForm,
    add_into,
    dlog_of,
    map_form_into,
    restrict_logform_into,
    wedge_into,
    y_normalize,
)
from .scene import AtlasCochain, Scene, SceneError

OMEGA = "omega"                # (Omega, -df^)
OMEGA_PLUS = "omega_plus"      # (Omega, +df^): the (X, -f) twist
OMEGA_LOG = "omega_log"        # (Omega(log Y), -df^)
OMEGA_LOG_SHIFTED = "omega_log_shifted"  # (Omega(log Y), -df^)[1]
OMEGA_Y = "omega_y"            # (Omega_Y, 0)
CONE = "cone"

FORM, LOG, CONEF, YFORM = "form", "log", "cone", "yform"

# The flats of each section kind's accumulator: a form, a log form's
# (regular, residue), a cone section's (regular, log regular, log residue).
_FLATS = {FORM: 1, YFORM: 1, LOG: 2, CONEF: 3}


def _empty(kind: str) -> list:
    """An empty accumulator of the section kind."""
    return [{} for _ in range(_FLATS[kind])]


def _form_into(scene, acc, w, I, J, m, sign):
    map_form_into(acc[0], w, m, sign)


def _log_into(scene, acc, lf, I, J, m, sign):
    restrict_logform_into(scene, acc[0], acc[1], lf, I, J, m, sign)


def _cone_into(scene, acc, s, I, J, m, sign):
    map_form_into(acc[0], s.reg, m, sign)
    restrict_logform_into(scene, acc[1], acc[2], s.log, I, J, m, sign)


# acc += sign * the restriction of a section from U_I to U_J along
# m = atlas.res(I, J), per section kind; a divisor form restricts as a
# form and is projected at the build.
_RESTRICT_INTO = {FORM: _form_into, YFORM: _form_into, LOG: _log_into, CONEF: _cone_into}


def _build(scene: Scene, kind: str, J, acc):
    """The section of the kind over U_J whose terms acc holds, normalized."""
    if kind == FORM:
        return Form.from_flat(scene.atlas.ring(J), acc[0])
    ctx = scene.ctx(J)
    if kind == YFORM:
        return y_normalize(Form.from_flat(ctx.ring, acc[0]), ctx)
    if kind == LOG:
        return LogForm.from_flats(ctx, *acc)
    return ConeForm(Form.from_flat(ctx.ring, acc[0]), LogForm.from_flats(ctx, acc[1], acc[2]))


def _restricted(scene: Scene, kind: str, s, I, J):
    """The restriction of the section s of the kind from U_I to U_J."""
    acc = _empty(kind)
    _RESTRICT_INTO[kind](scene, acc, s, I, J, scene.atlas.res(I, J), 1)
    return _build(scene, kind, J, acc)


def _tuple_plan(scene: Scene, I) -> tuple:
    """The plan of a Cech pass over an entry at I: (J, position sign,
    atlas.res(I, J)) per extension J of I, derived once per tuple and
    kept in `scene._cech_plans`, for every section kind."""
    plan = scene._cech_plans.get(I)
    if plan is None:
        atlas = scene.atlas
        plan = scene._cech_plans[I] = tuple(
            (J, -1 if pos % 2 else 1, atlas.res(I, J)) for _, pos, J in atlas.extensions(I)
        )
    return plan


class Cochain(AtlasCochain):
    """Assignment of a section of one kind to each atlas tuple; missing
    entries are zero.  Divisor-form entries are projected to Y.

    No code changes a cochain's entries after construction, so the
    cochain keeps the restrictions of its entries that the cup product
    asks for (`restricted`), in a slot of its own filled on first use: the
    memo dies with the cochain, and a cochain derived from it (`_new`)
    starts with none."""

    __slots__ = ("scene", "kind", "_restrictions")

    def __init__(self, scene: Scene, kind: str, entries: dict | None = None):
        assert kind in _FLATS
        self.scene = scene
        self.kind = kind
        self._restrictions = None
        super().__init__(entries)
        if kind == YFORM:
            normal = {I: y_normalize(s, scene.ctx(I)) for I, s in self.entries.items()}
            self.entries = {I: s for I, s in normal.items() if not s.is_zero()}

    def _blank(self) -> "Cochain":
        out = object.__new__(Cochain)
        out.scene = self.scene
        out.kind = self.kind
        out._restrictions = None
        return out

    def restricted(self, I, K):
        """The restriction of the entry at I from U_I to U_K
        (`_restricted`), computed once per (I, K) and kept on the
        cochain."""
        memo = self._restrictions
        if memo is None:
            memo = self._restrictions = {}
        got = memo.get((I, K))
        if got is None:
            got = memo[I, K] = _restricted(self.scene, self.kind, self.entries[I], I, K)
        return got

    def _same_space(self, other) -> bool:
        return self.scene is other.scene and self.kind == other.kind

    def _entry_into(self, cech: bool, sheaf_into):
        """The hook of a pass (`AtlasCochain._pass`): each entry's
        restriction along the tuple plan of its I (`_tuple_plan`) into the
        accumulator of each extension when cech, and
        sheaf_into(acc, I, s, sign), which adds sign times the sheaf part
        of s into the accumulator of I with sign = (-1)^p, unless
        sheaf_into is None."""
        scene = self.scene
        kind = self.kind
        restrict = _RESTRICT_INTO[kind]
        plans = scene._cech_plans

        def into(accs, I, s):
            if cech:
                plan = plans.get(I)
                if plan is None:
                    plan = _tuple_plan(scene, I)
                for J, sign, m in plan:
                    acc = accs.get(J)
                    if acc is None:
                        acc = accs[J] = _empty(kind)
                    restrict(scene, acc, s, I, J, m, sign)
            if sheaf_into is not None:
                acc = accs.get(I)
                if acc is None:
                    acc = accs[I] = _empty(kind)
                sheaf_into(acc, I, s, -1 if (len(I) - 1) % 2 else 1)

        return into

    def _build(self, J, acc):
        return _build(self.scene, self.kind, J, acc)

    def _label(self) -> str:
        return f"Cochain[{self.kind}]"


def unit_cochain(scene: Scene, kind: str = FORM) -> Cochain:
    """The Cech-degree-0 unit: constant 1 over every chart."""
    if kind not in (FORM, YFORM):
        raise ValueError(kind)
    ids = scene.atlas.chart_ids
    return Cochain(scene, kind, {(i,): Form.one(scene.atlas.ring((i,))) for i in ids})


def _df_into(acc, ctx, s: Form, sign) -> None:
    """acc += sign * df ^ s on a form."""
    wedge_into(acc[0], ctx.df, s, sign)


def _df_log_into(acc, ctx, s: LogForm, sign) -> None:
    """acc += sign * df ^ s on a log form: df passes dx/x on its way to the
    residue."""
    wedge_into(acc[0], ctx.df, s.regular, sign)
    wedge_into(acc[1], ctx.df, s.residue, sign, graded=True)


def _cone_d_into(acc, ctx, s: ConeForm, sign) -> None:
    """acc += sign * (-df^a, L(a) + df^b) on the cone section (a, b)."""
    wedge_into(acc[0], ctx.df, s.reg, -sign)
    add_into(acc[1], s.reg, sign)
    _df_log_into(acc[1:], ctx, s.log, sign)


# Each complex: its section kind and its sheaf differential
# sheaf_into(acc, ctx, s, sign), which adds sign * d_sheaf(s) on one section
# over the tuple of ctx into that tuple's accumulator (None: d_sheaf = 0).
_COMPLEXES = {
    OMEGA: (FORM, lambda acc, ctx, s, sign: _df_into(acc, ctx, s, -sign)),
    OMEGA_PLUS: (FORM, _df_into),
    OMEGA_LOG: (LOG, lambda acc, ctx, s, sign: _df_log_into(acc, ctx, s, -sign)),
    OMEGA_LOG_SHIFTED: (LOG, _df_log_into),
    OMEGA_Y: (YFORM, None),
    CONE: (CONEF, _cone_d_into),
}


def cech_total_d(c: Cochain, complex_kind: str) -> Cochain:
    """Total differential d_Cech + (-1)^p d_sheaf of the named complex, in
    one accumulating pass."""
    kind, sheaf_into = _COMPLEXES[complex_kind]
    assert c.kind == kind
    if sheaf_into is None:
        return c.cech_d()
    ctx = c.scene.ctx
    return c.cech_d(lambda acc, I, s, sign: sheaf_into(acc, ctx(I), s, sign))


# ---------------------------------------------------------------------------
# products


def _cup(a: Cochain, b: Cochain, product_into) -> Cochain:
    """Front-face/back-face pairing: the sum of product(a_I|K, b_J|K, p, q)
    over I ending where J starts, K = I + J[1:] strictly increasing, with
    p, q the Cech degrees of I, J, as a cochain of b's kind.  Each factor
    reads its restriction to K from its own memo (`Cochain.restricted`),
    so a fixed factor such as the inverse Todd cochain restricts each
    entry once for all the products it enters; a factor whose tuple
    already is K is used as it stands, since a cochain's entries are in
    normal form.  product_into(acc, a_I|K, b_J|K, p, q) adds the product
    into K's accumulator; each value is built once, from an accumulator
    that received a term, and the result is built from them through
    `_new`, with no second check of its tuples or projection to Y."""
    assert a.scene is b.scene
    scene = a.scene
    kind = b.kind
    accs: dict = {}
    for I, sa in a.entries.items():
        for J, sb in b.entries.items():
            if I[-1] != J[0]:
                continue
            K = I + J[1:]
            if list(K) != sorted(set(K)):
                continue
            acc = accs.get(K)
            if acc is None:
                if not scene.atlas.has_tuple(K):
                    raise SceneError(f"product tuple {K} missing from atlas")
                acc = accs[K] = _empty(kind)
            ra = sa if I == K else a.restricted(I, K)
            rb = sb if J == K else b.restricted(J, K)
            product_into(acc, ra, rb, len(I) - 1, len(J) - 1)
    return b._new({K: _build(scene, kind, K, acc) for K, acc in accs.items() if any(acc)})


def cech_wedge(a: Cochain, b: Cochain) -> Cochain:
    """Front-face/back-face product on form-valued cochains."""
    assert a.kind == FORM and b.kind in (FORM, YFORM)
    return _cup(a, b, lambda acc, ra, rb, p, q: wedge_into(acc[0], ra, rb))


def bar_wedge(alpha: Cochain, gamma: Cochain) -> Cochain:
    """Right module action a ~^ g.

    Forms:   (a ~^ g) = (-1)^{pq} (g ^ a).
    Cone:    (a + b) ~^ g = (-1)^{pq} g^a + (-1)^{(p+1)q} g^b
    with p, q the Cech degrees of the cochain entries.
    """
    assert gamma.kind == FORM or (alpha.kind == YFORM and gamma.kind == YFORM)
    if alpha.kind in (FORM, YFORM):

        def product_into(acc, rg, ra, q, p):
            wedge_into(acc[0], rg, ra, (-1) ** (p * q))

    else:
        assert alpha.kind == CONEF

        def product_into(acc, rg, s, q, p):
            wedge_into(acc[0], rg, s.reg, (-1) ** (p * q))
            sign = (-1) ** ((p + 1) * q)
            wedge_into(acc[1], rg, s.log.regular, sign)
            wedge_into(acc[2], rg, s.log.residue, sign, graded=True)

    return _cup(gamma, alpha, product_into)


# ---------------------------------------------------------------------------
# Chern data


def c1_minus_Y(scene: Scene) -> Cochain:
    """(u_ij du_ij^{-1})_{j<i}: the Cech 1-cocycle of O_X(-Y)."""
    entries: dict = {}
    for I in scene.atlas.tuples:
        if len(I) != 2:
            continue
        j, i = I  # j < i
        u = scene.atlas.unit(i, j, I)
        # u du^{-1} = d(u^{-1}) / u^{-1}
        entries[I] = dlog_of(u.inverse())
    return Cochain(scene, FORM, entries)


def todd_inverse(scene: Scene) -> Cochain:
    """sum_q (-1)^{binom(q,2)} c1^{^q} / (q+1)!.

    The series truncates because Cech degrees are bounded by the cover size.
    """
    c1 = c1_minus_Y(scene)
    out = unit_cochain(scene, FORM)
    power = unit_cochain(scene, FORM)
    q = 1
    while True:
        power = cech_wedge(power, c1)
        if power.is_zero():
            break
        coeff = Fraction((-1) ** comb(q, 2), factorial(q + 1))
        out = out + power.scale(coeff)
        q += 1
    return out


def bar_power(c: Cochain, q: int) -> Cochain:
    """q-fold bar-wedge power of a form cochain (right-nested)."""
    if q == 0:
        return unit_cochain(c.scene, FORM)
    out = c
    for _ in range(q - 1):
        out = bar_wedge(out, c)
    return out
