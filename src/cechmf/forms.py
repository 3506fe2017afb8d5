"""Differential forms on chart rings: regular, logarithmic, cone pairs.

A TupleCtx holds one tuple's lead-chart data (divisor equation, f, g, the
pole variable and their differentials); Scene.ctx builds each once.

The Cech layer sums its terms in flat accumulators {(K, exponent):
coefficient} and builds each Form once with `Form.from_flat`.
`map_form_into` adds a pullback along a ring map to one, a basis form
x^e dx_K at a time: the pullback of each is computed once, as a list of
target basis forms, and kept on the RingMap (`RingMap.form_images`), so a
pullback is one scale-and-accumulate pass over that table.  The
restriction maps are kept by `Atlas.res`, so these tables live and die
with their scene.  `wedge_into` adds a product, `add_into` a form, and
`restrict_logform_into` the restriction of a log form as a (regular,
residue) pair of flats; `hkr` builds its forms from flats too.  How the
pole dx_I/x_I reads on U_J depends on (I, J) alone, so each restriction
derives it once (`_pole_rewrite`) and the scene keeps it
(`Scene._pole_rewrites`).

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
from operator import add

from .rings import LocPoly, Ring, _fr, quotient_restrict
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
    def from_flat(ring: Ring, flat: dict) -> "Form":
        """The form sum c x^e dx_K over flat = {(K, e): c}, with K an
        increasing index set and e an exponent of ring; zero c are dropped."""
        terms: dict = {}
        for (k, e), c in flat.items():
            if c:
                t = terms.get(k)
                if t is None:
                    t = terms[k] = {}
                t[e] = c if type(c) is int else _fr(c)
        return Form._new(ring, {k: LocPoly._new(ring, t) for k, t in terms.items()})

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
    restricted to U_I, and dx, df, dg their differentials.  pole is
    `scene.divisor_pole(x, I)`: the index of x in R_I when x is a coordinate
    that is not inverted, None when x is a unit (Y misses U_I); any other x
    raises UnsupportedScene.  dlog is the regular form dx/x when pole is
    None, else None.
    """

    __slots__ = ("I", "ring", "x", "f", "g", "pole", "dx", "df", "dg", "dlog")

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
        self.dg = d_of(self.g)
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
        ring = ctx.ring
        extra: dict = {}  # (dx/x) ^ (x q dx_K) = dx ^ q dx_K, as {(K', e): c}
        res_terms: dict = {}
        for k, c in residue.terms.items():
            if v in k:
                continue  # dx ^ dx = 0 under the pole
            low = {}
            merged = None
            for exp, coef in c.terms.items():
                if not exp[v]:
                    low[exp] = coef
                    continue
                if merged is None:
                    merged = _merge_indices((v,), k)
                kv, sign = merged
                extra[kv, exp[:v] + (exp[v] - 1,) + exp[v + 1:]] = coef if sign > 0 else -coef
            if low:
                res_terms[k] = LocPoly._new(ring, low)
        self.regular = regular + Form.from_flat(ring, extra) if extra else regular
        self.residue = Form._new(ring, res_terms)

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

    def __repr__(self):
        return f"LogForm(reg={self.regular!r}, res={self.residue!r})"


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
    """Pullback of a form along a ring map."""
    flat: dict = {}
    map_form_into(flat, w, ringmap)
    return Form.from_flat(dst_ring, flat)


def map_form_into(flat: dict, w: Form, ringmap, sign: int = 1) -> None:
    """flat += sign * the pullback of w along ringmap, as {(K, e): c}: each
    term a x^e dx_K of w adds a times the pullback of x^e dx_K, read from
    the map's table."""
    for k, c in w.terms.items():
        for e, a in c.terms.items():
            if sign < 0:
                a = -a
            for key, b in _basis_image(ringmap, k, e):
                flat[key] = flat[key] + a * b if key in flat else a * b


def add_into(flat: dict, w: Form, sign: int = 1) -> None:
    """flat += sign * w, as {(K, e): c}."""
    for k, c in w.terms.items():
        for e, a in c.terms.items():
            key = (k, e)
            if sign < 0:
                a = -a
            flat[key] = flat[key] + a if key in flat else a


def wedge_into(flat: dict, a: Form, b: Form, sign: int = 1, graded: bool = False) -> None:
    """flat += sign * a ^ b, as {(K, e): c}, monomial by monomial.  With
    graded, each term c dx_K of a is signed by (-1)^|K|: the residue part
    of a ^ (w + (dx/x) ^ b) is that signed a ^ b, since c dx_K passes
    dx/x."""
    for ka, ca in a.terms.items():
        sa = -sign if graded and len(ka) % 2 else sign
        for kb, cb in b.terms.items():
            merged = _merge_indices(ka, kb)
            if merged is None:
                continue
            k, s = merged
            neg = s != sa
            for ea, xa in ca.terms.items():
                if neg:
                    xa = -xa
                for eb, xb in cb.terms.items():
                    key = (k, tuple(map(add, ea, eb)))
                    c = xa * xb
                    flat[key] = flat[key] + c if key in flat else c


def _basis_image(ringmap, k, e) -> list:
    """ringmap^*(x^e dx_k) as [((K', e'), c')], computed once per (k, e)
    and kept in ringmap.form_images.  The e = 0 entry is the pullback of
    dx_k, d(ringmap(x_k1)) ^ ... ^ d(ringmap(x_kp)); any other is the
    image of x^e times it."""
    out = ringmap.form_images.get((k, e))
    if out is None:
        zero = (0,) * len(e)
        if e != zero:
            mono = ringmap._mono_image(e).terms.items()
            flat: dict = {}
            for (kk, ee), b in _basis_image(ringmap, k, zero):
                for em, cm in mono:
                    key = (kk, tuple(map(add, ee, em)))
                    flat[key] = flat[key] + b * cm if key in flat else b * cm
        elif k:
            head = Form.from_flat(ringmap.dst, dict(_basis_image(ringmap, k[:-1], zero)))
            dx_k = head.wedge(d_of(ringmap.images[k[-1]]))
            flat = {(kk, ee): c for kk, v in dx_k.terms.items() for ee, c in v.terms.items()}
        else:
            flat = {((), (0,) * ringmap.dst.nvars): 1}
        out = [(key, c if type(c) is int else _fr(c)) for key, c in flat.items() if c]
        ringmap.form_images[(k, e)] = out
    return out


def restrict_logform_into(scene: Scene, reg: dict, res: dict, lf: LogForm, I, J, sign) -> None:
    """(reg, res) += sign * the restriction of w + (dx_I/x_I)^w' to U_J,
    rewriting the pole: dx_I/x_I = du/u + dx_J/x_J with u = x_I|_J / x_J
    a unit, or dx_I/x_I = d(x_I|_J)/x_I|_J, a regular form, when the
    divisor misses U_J.  The rewrite is derived once per (I, J) and kept
    on the scene (`_pole_rewrite`).  The pair is normalized where it is
    built."""
    m = scene.atlas.res(I, J)
    map_form_into(reg, lf.regular, m, sign)
    if lf.residue.is_zero():
        return
    dlog, keep = _pole_rewrite(scene, I, J)
    if dlog is None:
        map_form_into(res, lf.residue, m, sign)
        return
    flat: dict = {}
    map_form_into(flat, lf.residue, m, sign)
    w = Form.from_flat(m.dst, flat)
    wedge_into(reg, dlog, w)
    if keep:
        add_into(res, w)


def _pole_rewrite(scene: Scene, I, J) -> tuple:
    """How dx_I/x_I reads on U_J, as (dlog, keep): the restricted residue
    is wedged with dlog into the regular part unless dlog is None, and
    stays a residue when keep.  (d(x_I|_J)/x_I|_J, False) when the
    divisor misses U_J; else (None, True) when u = x_I|_J / x_J is 1 and
    (du/u, True) otherwise.  Derived once per (I, J) and kept in
    `scene._pole_rewrites`; a derivation that raises UnsupportedScene
    keeps nothing."""
    got = scene._pole_rewrites.get((I, J))
    if got is None:
        x_old = scene.atlas.res(I, J)(scene.ctx(I).x)
        ctx_J = scene.ctx(J)
        if ctx_J.pole is None:
            if not x_old.is_unit():
                raise UnsupportedScene(f"cannot restrict log pole from {I} to {J}")
            got = (dlog_of(x_old), False)
        else:
            u = _loc_divide(x_old, ctx_J.x)
            if u is None:
                raise UnsupportedScene(f"divisors over {I} and {J} are incompatible")
            got = (None if u.is_one() else dlog_of(u), True)
        scene._pole_rewrites[I, J] = got
    return got


def y_normalize(w: Form, ctx: TupleCtx) -> Form:
    """Project a form to the divisor: kill dx terms and reduce coefficients mod x."""
    if ctx.pole is None:
        return Form.zero(ctx.ring)
    v = ctx.pole
    terms = {k: quotient_restrict(c, v) for k, c in w.terms.items() if v not in k}
    return Form._new(ctx.ring, _nonzero(terms))
