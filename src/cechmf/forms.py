"""Differential forms on chart rings: regular, logarithmic, cone pairs.

A TupleCtx holds one tuple's lead-chart data (divisor equation, f, g, the
pole variable and their differentials); Scene.ctx builds each once.

A Form stores its terms flat, {(K, exponent): coefficient} (`Form.flat`),
the layout in which the Cech layer accumulates, so a value is its
accumulator with zeros dropped and coefficients normalized
(`Form.from_flat`, one pass).  `Form.terms` is a nested {K: LocPoly} view
of it, built on each read, for printing and tests.  The kernels read and
fill flat dicts in one loop each: `map_form_into` adds a pullback along a
ring map to one, a basis form x^e dx_K at a time: the pullback of each is
computed once, as a list of target basis forms, and kept on the RingMap
(`RingMap.form_images`), so a pullback is one scale-and-accumulate pass
over that table.  The restriction maps are kept by `Atlas.res`, so these
tables live and die with their scene.  `wedge_into` adds a product,
`add_into` a form, and `restrict_logform_into` the restriction of a log
form as a (regular, residue) pair of flats, which `LogForm.from_flats`
normalizes; `hkr` builds its forms from flats too.  How the pole dx_I/x_I
reads on U_J depends on (I, J) alone, so each restriction derives it once
(`_pole_rewrite`) and the scene keeps it (`Scene._pole_rewrites`).

A Form is a finite sum c x^e dx_K over strictly increasing index sets K;
possibly inhomogeneous in degree.  A LogForm over a tuple with divisor x
represents w + (dx/x) ^ w' with the canonical normal form: the residue w'
carries no dx factor and no x-multiples in its coefficients (those fold
into the regular part, since (dx/x) ^ x q = dx ^ q).  When the divisor is
a unit or 1 on the tuple the pole is spurious and everything is regular.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .rings import LocPoly, Ring, _fr, _normal_terms
from .scene import Scene, UnsupportedScene, _loc_divide, divisor_pole


class Form:
    """The form sum c x^e dx_K over flat = {(K, e): c}: K increasing, c
    nonzero and in the normal form of `rings`."""

    __slots__ = ("ring", "flat")

    def __init__(self, ring: Ring, terms: dict | None = None):
        """The form sum c_K dx_K over terms = {K: LocPoly}."""
        self.ring = ring
        flat = {}
        for k, c in (terms or {}).items():
            k = tuple(k)
            assert all(0 <= i < ring.nvars for i in k)
            assert list(k) == sorted(set(k)), f"index set not increasing: {k}"
            for e, a in c.terms.items():
                flat[k, e] = a
        self.flat = flat

    @staticmethod
    def _new(ring: Ring, flat: dict) -> "Form":
        """Wrap a flat dict as it is: in normal form, or an accumulator
        that only a kernel reads, which zeros do not disturb."""
        out = object.__new__(Form)
        out.ring = ring
        out.flat = flat
        return out

    @staticmethod
    def from_flat(ring: Ring, flat: dict) -> "Form":
        """The form sum c x^e dx_K over an accumulator flat = {(K, e): c};
        zero c are dropped."""
        return Form._new(ring, _normal_terms(flat))

    @property
    def terms(self) -> dict:
        """The nested view {K: LocPoly} of `flat`, built on each read."""
        nested: dict = {}
        for (k, e), c in self.flat.items():
            nested.setdefault(k, {})[e] = c
        return {k: LocPoly._new(self.ring, t) for k, t in nested.items()}

    @staticmethod
    def zero(ring: Ring) -> "Form":
        return Form._new(ring, {})

    @staticmethod
    def scalar(c: LocPoly) -> "Form":
        return Form._new(c.ring, {((), e): a for e, a in c.terms.items()})

    @staticmethod
    def one(ring: Ring) -> "Form":
        return Form.scalar(ring.one())

    def is_zero(self) -> bool:
        return not self.flat

    def __eq__(self, other):
        return isinstance(other, Form) and self.ring == other.ring and self.flat == other.flat

    def __add__(self, other: "Form") -> "Form":
        assert self.ring == other.ring
        flat = dict(self.flat)
        add_into(flat, other)
        return Form.from_flat(self.ring, flat)

    def __neg__(self) -> "Form":
        return Form._new(self.ring, {k: -c for k, c in self.flat.items()})

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def scale(self, c) -> "Form":
        if isinstance(c, LocPoly):
            return self.wedge(Form.scalar(c))
        c = _fr(c)
        return Form.from_flat(self.ring, {k: v * c for k, v in self.flat.items()})

    def wedge(self, other: "Form") -> "Form":
        assert self.ring == other.ring
        flat: dict = {}
        wedge_into(flat, self, other)
        return Form.from_flat(self.ring, flat)

    def __repr__(self):
        if self.is_zero():
            return "0"
        names = self.ring.variables
        terms = self.terms
        bits = []
        for k in sorted(terms, key=lambda kk: (len(kk), kk)):
            dx = "^".join(f"d{names[i]}" for i in k) or "1"
            bits.append(f"({terms[k]!r}){dx}")
        return " + ".join(bits)


def index_sets(n: int) -> list:
    """The dx index sets of a ring in n variables, in increasing size."""
    return [K for k in range(n + 1) for K in itertools.combinations(range(n), k)]


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
    flat = {}
    for v in range(e.ring.nvars):
        for exp, c in e.diff(v).terms.items():
            flat[(v,), exp] = c
    return Form._new(e.ring, flat)


def dlog_of(u: LocPoly) -> Form:
    """du/u for a unit u."""
    return d_of(u).scale(u.inverse())


class LogForm:
    """Normalized logarithmic form over one tuple: regular + (dx/x)^residue."""

    __slots__ = ("ctx", "regular", "residue")

    def __init__(self, ctx: TupleCtx, regular: Form, residue: Form):
        # normalization happens here, so any (regular, residue) pair is legal input
        self._fold(ctx, dict(regular.flat), residue.flat)

    @staticmethod
    def from_flats(ctx: TupleCtx, reg: dict, res: dict) -> "LogForm":
        """The normalized log form over the accumulators reg + (dx/x) ^ res,
        each {(K, e): c}; reg receives the folded terms."""
        out = object.__new__(LogForm)
        out._fold(ctx, reg, res)
        return out

    def _fold(self, ctx: TupleCtx, reg: dict, res: dict) -> None:
        self.ctx = ctx
        ring = ctx.ring
        v = ctx.pole
        if v is None:
            wedge_into(reg, ctx.dlog, Form._new(ring, res))
            self.regular = Form.from_flat(ring, reg)
            self.residue = Form.zero(ring)
            return
        low: dict = {}
        for (k, e), c in res.items():
            if not c or v in k:
                continue  # dx ^ dx = 0 under the pole
            if not e[v]:
                low[k, e] = c
                continue
            # (dx/x) ^ (x q dx_K) = dx ^ q dx_K
            kv, sign = _merge_indices((v,), k)
            key = (kv, e[:v] + (e[v] - 1,) + e[v + 1:])
            if sign < 0:
                c = -c
            reg[key] = reg[key] + c if key in reg else c
        self.regular = Form.from_flat(ring, reg)
        self.residue = Form.from_flat(ring, low)

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


def map_form_into(flat: dict, w: Form, ringmap, sign: int = 1) -> None:
    """flat += sign * the pullback of w along ringmap, as {(K, e): c}: each
    term a x^e dx_K of w adds a times the pullback of x^e dx_K, read from
    the map's table."""
    for (k, e), a in w.flat.items():
        if sign < 0:
            a = -a
        for key, b in _basis_image(ringmap, k, e):
            flat[key] = flat[key] + a * b if key in flat else a * b


def add_into(flat: dict, w: Form, sign: int = 1) -> None:
    """flat += sign * w, as {(K, e): c}."""
    for key, a in w.flat.items():
        if sign < 0:
            a = -a
        flat[key] = flat[key] + a if key in flat else a


def wedge_into(flat: dict, a: Form, b: Form, sign: int = 1, graded: bool = False) -> None:
    """flat += sign * a ^ b, as {(K, e): c}, term by term; each pair of
    index sets is merged once.  With graded, each term c dx_K of a is
    signed by (-1)^|K|: the residue part of a ^ (w + (dx/x) ^ b) is that
    signed a ^ b, since c dx_K passes dx/x."""
    merged: dict = {}
    terms_b = b.flat.items()
    add_exp = a.ring.add_exp
    for (ka, ea), xa in a.flat.items():
        if (sign < 0) != (graded and len(ka) % 2 == 1):
            xa = -xa
        for (kb, eb), xb in terms_b:
            m = merged.get((ka, kb), False)
            if m is False:
                m = merged[ka, kb] = _merge_indices(ka, kb)
            if m is None:
                continue
            key = (m[0], add_exp(ea, eb))
            c = xa * xb if m[1] > 0 else -(xa * xb)
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
            add_exp = ringmap.dst.add_exp
            flat: dict = {}
            for (kk, ee), b in _basis_image(ringmap, k, zero):
                for em, cm in mono:
                    key = (kk, add_exp(ee, em))
                    flat[key] = flat[key] + b * cm if key in flat else b * cm
        elif k:
            head = Form._new(ringmap.dst, dict(_basis_image(ringmap, k[:-1], zero)))
            flat = {}
            wedge_into(flat, head, d_of(ringmap.images[k[-1]]))
        else:
            flat = {((), (0,) * ringmap.dst.nvars): 1}
        out = list(_normal_terms(flat).items())
        ringmap.form_images[(k, e)] = out
    return out


def restrict_logform_into(scene: Scene, reg: dict, res: dict, lf: LogForm, I, J, m, sign) -> None:
    """(reg, res) += sign * the restriction of w + (dx_I/x_I)^w' to U_J
    along m = scene.atlas.res(I, J), rewriting the pole: dx_I/x_I =
    du/u + dx_J/x_J with u = x_I|_J / x_J a unit, or dx_I/x_I =
    d(x_I|_J)/x_I|_J, a regular form, when the divisor misses U_J.  The
    rewrite is derived once per (I, J) and kept on the scene
    (`_pole_rewrite`).  The pair is normalized where it is built."""
    map_form_into(reg, lf.regular, m, sign)
    if lf.residue.is_zero():
        return
    dlog, keep = _pole_rewrite(scene, I, J)
    if dlog is None:
        map_form_into(res, lf.residue, m, sign)
        return
    flat: dict = {}
    map_form_into(flat, lf.residue, m, sign)
    w = Form._new(m.dst, flat)
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
    v = ctx.pole
    if v is None:
        return Form.zero(ctx.ring)
    return Form._new(ctx.ring, {(k, e): c for (k, e), c in w.flat.items() if not (v in k or e[v])})
