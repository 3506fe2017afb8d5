"""Differential forms on chart rings: regular, logarithmic, cone pairs.

A TupleCtx holds one tuple's lead-chart data (divisor equation, f, g, the
pole variable and their differentials); Scene.ctx builds each once.

`map_form` pulls a form back along a ring map as the sum over K of
ringmap(c_K) * ringmap^*(dx_K).  Each pullback of dx_K is computed once and
kept on the RingMap (`RingMap.dx_pullbacks`); the restriction maps are
kept by `Atlas.res`, so these pullbacks live and die with their scene.

A Form is a finite sum c_K dx_K over strictly increasing index sets K;
possibly inhomogeneous in degree.  A LogForm over a tuple with divisor x
represents w + (dx/x) ^ w' with the canonical normal form: the residue w'
carries no dx factor and no x-multiples in its coefficients (those fold
into the regular part, since (dx/x) ^ x q = dx ^ q).  When the divisor is
a unit or 1 on the tuple the pole is spurious and everything is regular.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .rings import LocPoly, MalformedElement, Ring, quotient_restrict
from .scene import Scene, UnsupportedScene, _loc_divide, divisor_pole


class Form:
    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict | None = None):
        self.ring = ring
        clean = {}
        for k, c in (terms or {}).items():
            k = tuple(k)
            assert all(0 <= i < ring.nvars for i in k)
            assert list(k) == sorted(set(k)), f"index set not increasing: {k}"
            if not c.is_zero():
                clean[k] = c
        self.terms = clean

    @staticmethod
    def _new(ring: Ring, terms: dict) -> "Form":
        """Wrap a dict {increasing index set: nonzero coefficient} as it is."""
        out = object.__new__(Form)
        out.ring = ring
        out.terms = terms
        return out

    @staticmethod
    def zero(ring: Ring) -> "Form":
        return Form._new(ring, {})

    @staticmethod
    def scalar(c: LocPoly) -> "Form":
        return Form._new(c.ring, {(): c} if c.terms else {})

    @staticmethod
    def one(ring: Ring) -> "Form":
        return Form.scalar(ring.one())

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, Form) and self.ring == other.ring and self.terms == other.terms

    def __add__(self, other: "Form") -> "Form":
        assert self.ring == other.ring
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms[k] + c if k in terms else c
        return Form._new(self.ring, _nonzero(terms))

    def __neg__(self) -> "Form":
        return Form._new(self.ring, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def scale(self, c) -> "Form":
        if isinstance(c, LocPoly):
            terms = {k: v * c for k, v in self.terms.items()}
        else:
            terms = {k: v.scale(c) for k, v in self.terms.items()}
        return Form._new(self.ring, _nonzero(terms))

    def wedge(self, other: "Form") -> "Form":
        assert self.ring == other.ring
        terms: dict = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                merged = _merge_indices(ka, kb)
                if merged is None:
                    continue
                k, sign = merged
                c = ca * cb if sign > 0 else -(ca * cb)
                terms[k] = terms[k] + c if k in terms else c
        return Form._new(self.ring, _nonzero(terms))

    def __repr__(self):
        if self.is_zero():
            return "0"
        names = self.ring.variables
        bits = []
        for k in sorted(self.terms, key=lambda kk: (len(kk), kk)):
            dx = "^".join(f"d{names[i]}" for i in k) or "1"
            bits.append(f"({self.terms[k]!r}){dx}")
        return " + ".join(bits)


def index_sets(n: int) -> list:
    """The dx index sets of a ring in n variables, in increasing size."""
    return [K for k in range(n + 1) for K in itertools.combinations(range(n), k)]


def _nonzero(terms: dict) -> dict:
    """terms without its zero coefficients."""
    return {k: c for k, c in terms.items() if c.terms}


def _merge_indices(ka, kb):
    """Sort the concatenation of two disjoint increasing index sets.

    Returns (merged tuple, permutation sign) or None if they intersect.
    """
    if set(ka) & set(kb):
        return None
    out = list(ka)
    sign = 1
    for b in kb:
        pos = len(out)
        while pos > 0 and out[pos - 1] > b:
            pos -= 1
        sign *= (-1) ** (len(out) - pos)
        out.insert(pos, b)
    return tuple(out), sign


class TupleCtx:
    """Lead-chart data of one atlas tuple I; build it through Scene.ctx(I).

    x, f and g are the lead chart's divisor equation, function and cofactor
    restricted to U_I, and dx, df their differentials.  pole is
    `scene.divisor_pole(x, I)`: the index of x in R_I when x is a coordinate
    that is not inverted, None when x is a unit (Y misses U_I); any other x
    raises UnsupportedScene.  dlog is the regular form dx/x when pole is
    None, else None.
    """

    __slots__ = ("I", "ring", "x", "f", "g", "pole", "dx", "df", "dlog")

    def __init__(self, scene: Scene, I):
        atlas = scene.atlas
        self.I = I = tuple(I)
        self.ring = atlas.ring(I)
        lead = atlas.charts[I[0]]
        res = atlas.res((lead.id,), I)
        self.x, self.f, self.g = res(lead.x), res(lead.f), res(lead.g)
        self.pole = divisor_pole(self.x, I)
        self.dx = d_of(self.x)
        self.df = d_of(self.f)
        if self.pole is not None:
            self.dlog = None
        elif self.x.is_one() or self.dx.is_zero():
            self.dlog = Form.zero(self.ring)
        else:
            self.dlog = self.dx.scale(self.x.inverse())


def d_of(e: LocPoly) -> Form:
    """de Rham differential of a ring element."""
    terms = {}
    for v in range(e.ring.nvars):
        de = e.diff(v)
        if not de.is_zero():
            terms[(v,)] = de
    return Form._new(e.ring, terms)


def dlog_of(u: LocPoly) -> Form:
    """du/u for a unit u."""
    return d_of(u).scale(u.inverse())


class LogForm:
    """Normalized logarithmic form over one tuple: regular + (dx/x)^residue."""

    __slots__ = ("ctx", "regular", "residue")

    def __init__(self, ctx: TupleCtx, regular: Form, residue: Form):
        # normalization happens here, so any (regular, residue) pair is legal input
        self.ctx = ctx
        if ctx.pole is None:
            if not residue.is_zero():
                regular = regular + ctx.dlog.wedge(residue)
            self.regular = regular
            self.residue = Form.zero(ctx.ring)
            return
        v = ctx.pole
        reg_extra = Form.zero(ctx.ring)
        res_terms: dict = {}
        for k, c in residue.terms.items():
            if v in k:
                continue  # dx ^ dx = 0 under the pole
            low, high = _split_by_var(c, v)
            if not high.is_zero():
                # (dx/x) ^ (x q dx_K) = dx ^ q dx_K
                reg_extra = reg_extra + Form(ctx.ring, {(v,): high}).wedge(
                    Form(ctx.ring, {k: ctx.ring.one()})
                )
            if not low.is_zero():
                res_terms[k] = res_terms[k] + low if k in res_terms else low
        self.regular = regular + reg_extra
        self.residue = Form(ctx.ring, res_terms)

    @staticmethod
    def zero(ctx: TupleCtx) -> "LogForm":
        z = Form.zero(ctx.ring)
        return LogForm(ctx, z, z)

    def is_zero(self) -> bool:
        return self.regular.is_zero() and self.residue.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, LogForm)
            and self.ctx.I == other.ctx.I
            and self.regular == other.regular
            and self.residue == other.residue
        )

    def __add__(self, other: "LogForm") -> "LogForm":
        assert self.ctx.I == other.ctx.I
        return LogForm(self.ctx, self.regular + other.regular, self.residue + other.residue)

    def __neg__(self):
        return LogForm(self.ctx, -self.regular, -self.residue)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "LogForm":
        return LogForm(self.ctx, self.regular.scale(c), self.residue.scale(c))

    def wedge_left(self, gamma: Form) -> "LogForm":
        """gamma ^ self, commuting gamma past dx/x termwise."""
        signed = Form(
            gamma.ring, {k: c.scale((-1) ** len(k)) for k, c in gamma.terms.items()}
        )
        return LogForm(self.ctx, gamma.wedge(self.regular), signed.wedge(self.residue))

    def __repr__(self):
        return f"LogForm(reg={self.regular!r}, res={self.residue!r})"


def _split_by_var(c: LocPoly, v: int):
    """c = low + x_v * q with low free of x_v; returns (low, q).  x_v must
    not be inverted."""
    low_terms, high_terms = {}, {}
    for exp, coef in c.terms.items():
        if exp[v] == 0:
            low_terms[exp] = coef
        else:
            high_terms[exp[:v] + (exp[v] - 1,) + exp[v + 1:]] = coef
    return LocPoly(c.ring, low_terms), LocPoly(c.ring, high_terms)


@dataclass
class ConeForm:
    """Section of the cone complex over one tuple: (regular summand, log summand)."""

    reg: Form
    log: LogForm

    @staticmethod
    def zero(ctx: TupleCtx) -> "ConeForm":
        return ConeForm(Form.zero(ctx.ring), LogForm.zero(ctx))

    def is_zero(self) -> bool:
        return self.reg.is_zero() and self.log.is_zero()

    def __add__(self, other: "ConeForm") -> "ConeForm":
        return ConeForm(self.reg + other.reg, self.log + other.log)

    def __neg__(self):
        return ConeForm(-self.reg, -self.log)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "ConeForm":
        return ConeForm(self.reg.scale(c), self.log.scale(c))

    def __eq__(self, other):
        return isinstance(other, ConeForm) and self.reg == other.reg and self.log == other.log


def map_form(w: Form, ringmap, dst_ring: Ring) -> Form:
    """Pullback of a form along a ring map: the sum over K of
    ringmap(c_K) * ringmap^*(dx_K), each pullback of dx_K kept on the map."""
    terms: dict = {}
    for k, c in w.terms.items():
        dx_k = _pullback_dx(ringmap, k)
        if not dx_k.terms:
            continue
        mc = ringmap(c)
        for kk, v in dx_k.terms.items():
            p = v * mc if kk else mc
            terms[kk] = terms[kk] + p if kk in terms else p
    return Form._new(dst_ring, _nonzero(terms))


def _pullback_dx(ringmap, k) -> Form:
    """ringmap^*(dx_k) = d(ringmap(x_k1)) ^ ... ^ d(ringmap(x_kp)), computed
    once per index set and kept in ringmap.dx_pullbacks."""
    out = ringmap.dx_pullbacks.get(k)
    if out is None:
        if k:
            out = _pullback_dx(ringmap, k[:-1]).wedge(d_of(ringmap.images[k[-1]]))
        else:
            out = Form.one(ringmap.dst)
        ringmap.dx_pullbacks[k] = out
    return out


def restrict_form(scene: Scene, w: Form, I, J) -> Form:
    m = scene.atlas.res(I, J)
    return map_form(w, m, scene.atlas.ring(J))


def restrict_logform(scene: Scene, lf: LogForm, I, J) -> LogForm:
    """Restrict w + (dx_I/x_I)^w' rewriting the pole:
    dx_I/x_I = du/u + dx_J/x_J with u = x_I|_J / x_J a unit."""
    ctx_J = scene.ctx(J)
    reg = restrict_form(scene, lf.regular, I, J)
    if lf.residue.is_zero():
        return LogForm(ctx_J, reg, Form.zero(ctx_J.ring))
    res = restrict_form(scene, lf.residue, I, J)
    x_old = scene.atlas.res(I, J)(lf.ctx.x)
    if ctx_J.pole is None:
        try:
            dl = dlog_of(x_old)
        except MalformedElement:
            raise UnsupportedScene(
                f"cannot restrict log pole from {I} to {J}"
            ) from None
        return LogForm(ctx_J, reg + dl.wedge(res), Form.zero(ctx_J.ring))
    u = _loc_divide(x_old, ctx_J.x)
    if u is None:
        raise UnsupportedScene(f"divisors over {I} and {J} are incompatible")
    if u.is_one():
        return LogForm(ctx_J, reg, res)
    return LogForm(ctx_J, reg + dlog_of(u).wedge(res), res)


def y_normalize(w: Form, ctx: TupleCtx) -> Form:
    """Project a form to the divisor: kill dx terms and reduce coefficients mod x."""
    if ctx.pole is None:
        return Form.zero(ctx.ring)
    v = ctx.pole
    terms = {k: quotient_restrict(c, v) for k, c in w.terms.items() if v not in k}
    return Form._new(ctx.ring, _nonzero(terms))
