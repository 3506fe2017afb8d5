"""Cech cochains of forms and the total differentials of the complexes.

Conventions (see signs.py):
  * total differential = d_Cech + (-1)^p d_sheaf on Cech degree p,
  * cone differential d(a, b) = (d_Cech a - (-1)^p df^a,
                                 (-1)^p L(a) + d_Cech b + (-1)^p df^b),
  * products multiply front face times back face:
    (a.b)_{i_0..i_{p+q}} = a_{i_0..i_p} b_{i_p..i_{p+q}},
  * bar product (a ~^ b) = (-1)^{pq} (b ^ a) in Cech degrees p, q.

Two tables define the complexes: `_RESTRICT` holds the restriction from
U_I to U_J of each section kind, which the Cech differential and the cup
product use, and `_COMPLEXES` holds each complex's section kind and sheaf
differential.  `cech_total_d` reads them alike for every complex, the
cone included.

A divisor form (kind YFORM) is a form on X taken modulo x and dx, x the
divisor's coordinate; its normal form is forms.y_normalize.  Divisor forms
are projected where they are built (`Cochain.__init__`) and where they are
restricted (`_RESTRICT`), so every other producer passes plain forms and
the linear operations of AtlasCochain keep the normal form.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .forms import (
    ConeForm,
    Form,
    LogForm,
    dlog_of,
    restrict_form,
    restrict_logform,
    y_normalize,
)
from .scene import AtlasCochain, Scene, SceneError, add_piece

OMEGA = "omega"                # (Omega, -df^)
OMEGA_PLUS = "omega_plus"      # (Omega, +df^): the (X, -f) twist
OMEGA_LOG = "omega_log"        # (Omega(log Y), -df^)
OMEGA_LOG_SHIFTED = "omega_log_shifted"  # (Omega(log Y), -df^)[1]
OMEGA_Y = "omega_y"            # (Omega_Y, 0)
CONE = "cone"

FORM, LOG, CONEF, YFORM = "form", "log", "cone", "yform"

# The restriction of a section from U_I to U_J, per section kind.
_RESTRICT = {
    FORM: restrict_form,
    LOG: restrict_logform,
    YFORM: lambda scene, s, I, J: y_normalize(restrict_form(scene, s, I, J), scene.ctx(J)),
    CONEF: lambda scene, s, I, J: ConeForm(
        restrict_form(scene, s.reg, I, J), restrict_logform(scene, s.log, I, J)
    ),
}


class Cochain(AtlasCochain):
    """Assignment of a section of one kind to each atlas tuple; missing
    entries are zero.  Divisor-form entries are projected to Y."""

    __slots__ = ("scene", "kind")

    def __init__(self, scene: Scene, kind: str, entries: dict | None = None):
        assert kind in _RESTRICT
        self.scene = scene
        self.kind = kind
        super().__init__(entries)
        if kind == YFORM:
            normal = {I: y_normalize(s, scene.ctx(I)) for I, s in self.entries.items()}
            self.entries = {I: s for I, s in normal.items() if not s.is_zero()}

    def _same_space(self, other) -> bool:
        return self.scene is other.scene and self.kind == other.kind

    def _restrict(self, s, I, J):
        return _RESTRICT[self.kind](self.scene, s, I, J)

    def _label(self) -> str:
        return f"Cochain[{self.kind}]"


def unit_cochain(scene: Scene, kind: str = FORM) -> Cochain:
    """The Cech-degree-0 unit: constant 1 over every chart."""
    if kind not in (FORM, YFORM):
        raise ValueError(kind)
    ids = scene.atlas.chart_ids
    return Cochain(scene, kind, {(i,): Form.one(scene.atlas.ring((i,))) for i in ids})


def _cone_d(ctx, s: ConeForm) -> ConeForm:
    """(-df^a, L(a) + df^b) on the cone section (a, b)."""
    w = s.log.wedge_left(ctx.df)
    return ConeForm(-ctx.df.wedge(s.reg), LogForm(ctx, w.regular + s.reg, w.residue))


# Each complex: its section kind and its sheaf differential sheaf_d(ctx, s)
# on one section over the tuple of ctx, before the (-1)^p twist.
_COMPLEXES = {
    OMEGA: (FORM, lambda ctx, s: -ctx.df.wedge(s)),
    OMEGA_PLUS: (FORM, lambda ctx, s: ctx.df.wedge(s)),
    OMEGA_LOG: (LOG, lambda ctx, s: -s.wedge_left(ctx.df)),
    OMEGA_LOG_SHIFTED: (LOG, lambda ctx, s: s.wedge_left(ctx.df)),
    OMEGA_Y: (YFORM, lambda ctx, s: Form.zero(s.ring)),
    CONE: (CONEF, _cone_d),
}


def cech_total_d(c: Cochain, complex_kind: str) -> Cochain:
    """Total differential d_Cech + (-1)^p d_sheaf of the named complex."""
    kind, sheaf_d = _COMPLEXES[complex_kind]
    assert c.kind == kind
    return c.cech_d() + c.twisted(lambda I, s: sheaf_d(c.scene.ctx(I), s))


def cone_cochain(scene: Scene, reg: Cochain, log: Cochain) -> Cochain:
    """Pair a form cochain and a log cochain into a cone cochain."""
    entries: dict = {}
    for I in set(reg.entries) | set(log.entries):
        ctx = scene.ctx(I)
        entries[I] = ConeForm(
            reg.entries.get(I, Form.zero(ctx.ring)), log.entries.get(I, LogForm.zero(ctx))
        )
    return Cochain(scene, CONEF, entries)


# ---------------------------------------------------------------------------
# products


def _cup(a: Cochain, b: Cochain, kind: str, product) -> Cochain:
    """Front-face/back-face pairing: the sum of product(a_I|K, b_J|K, p, q)
    over I ending where J starts, K = I + J[1:] strictly increasing, with
    p, q the Cech degrees of I, J.  Each factor restricts to K by its own
    kind."""
    assert a.scene is b.scene
    scene = a.scene
    acc: dict = {}
    for I, sa in a.entries.items():
        for J, sb in b.entries.items():
            if I[-1] != J[0]:
                continue
            K = I + J[1:]
            if list(K) != sorted(set(K)):
                continue
            if not scene.atlas.has_tuple(K):
                raise SceneError(f"product tuple {K} missing from atlas")
            ra = _RESTRICT[a.kind](scene, sa, I, K)
            rb = _RESTRICT[b.kind](scene, sb, J, K)
            add_piece(acc, K, product(ra, rb, len(I) - 1, len(J) - 1))
    return Cochain(scene, kind, acc)


def cech_wedge(a: Cochain, b: Cochain) -> Cochain:
    """Front-face/back-face product on form-valued cochains."""
    assert a.kind == FORM and b.kind in (FORM, YFORM)
    return _cup(a, b, b.kind, lambda ra, rb, p, q: ra.wedge(rb))


def bar_wedge(alpha: Cochain, gamma: Cochain) -> Cochain:
    """Right module action a ~^ g.

    Forms:   (a ~^ g) = (-1)^{pq} (g ^ a).
    Cone:    (a + b) ~^ g = (-1)^{pq} g^a + (-1)^{(p+1)q} g^b
    with p, q the Cech degrees of the cochain entries.
    """
    assert gamma.kind == FORM or (alpha.kind == YFORM and gamma.kind == YFORM)
    if alpha.kind in (FORM, YFORM):

        def product(rg, ra, q, p):
            piece = rg.wedge(ra)
            return -piece if (p * q) % 2 else piece

    else:
        assert alpha.kind == CONEF

        def product(rg, s, q, p):
            return ConeForm(
                rg.wedge(s.reg).scale(Fraction((-1) ** (p * q))),
                s.log.wedge_left(rg).scale(Fraction((-1) ** ((p + 1) * q))),
            )

    return _cup(gamma, alpha, alpha.kind, product)


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
