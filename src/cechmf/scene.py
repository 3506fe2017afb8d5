"""Scenes: a finite affine atlas with divisor, function and gluing data.

A scene models (X, U, f, Y): chart rings are Laurent rings (polynomial
rings with some variables inverted), Y is cut out per chart by a
coordinate variable (or misses the chart, x=1), f = x*g per chart, and
overlap rings carry explicit restriction maps.

The Cech layer over the atlas lives here too: `Scene.ctx(I)` keeps each
tuple's lead-chart data (a `forms.TupleCtx`), `Scene._pole_rewrites` and
`Scene._unit_dlogs` the logarithmic forms that restriction and `hkr_A`
wedge in per pair of tuples, `Scene._cech_plans` the restriction plan of
a form cochain's Cech pass per tuple, `Scene.routes()` keeps the
fixtures of the trace-vs-residue square (a `diagrams.RouteCtx`),
`Scene._windows` keeps per complex the dimensions of windowed homology
at every window size up to D + 1, D the largest window asked so far, and
`AtlasCochain` is the one cochain base of `cech.Cochain` and
`hochschild.CechHochChain`.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .parsing import parse_poly
from .rings import LocPoly, Ring, RingMap


class SceneError(ValueError):
    pass


class UnsupportedScene(SceneError):
    """Operation needs structure this scene does not provide (e.g. a divisor
    that is not a coordinate on some chart)."""


@dataclass(frozen=True)
class Chart:
    id: int
    ring: Ring
    x: LocPoly       # divisor equation: a chart variable or 1
    f: LocPoly
    g: LocPoly


class Atlas:
    """Charts plus overlap rings, restriction maps and transition units."""

    def __init__(self, charts, overlap_rings, chart_maps):
        # overlap_rings: {tuple I (len>=2): Ring}
        # chart_maps: {(chart_id, I): RingMap chart_ring -> R_I}
        self.charts = {c.id: c for c in charts}
        self.chart_ids = tuple(sorted(self.charts))
        self._rings = {(i,): self.charts[i].ring for i in self.chart_ids}
        self._rings.update(overlap_rings)
        self._chart_maps = chart_maps
        self.tuples = tuple(sorted(self._rings, key=lambda t: (len(t), t)))
        self._res_cache: dict = {}
        self._unit_cache: dict = {}
        self._ext_cache: dict = {}
        # the descents of the lax operators per (I, q) (`lax._descents`)
        self._descents: dict = {}

    def ring(self, I) -> Ring:
        try:
            return self._rings[tuple(I)]
        except KeyError:
            raise SceneError(f"tuple {I} not in atlas") from None

    def has_tuple(self, I) -> bool:
        return tuple(I) in self._rings

    def res(self, I, J) -> RingMap:
        """Restriction R_I -> R_J for I a subset of J.

        Non-singleton source rings use the variables of their lead chart, so
        the map is inherited from the lead chart's declared images.
        """
        I, J = tuple(I), tuple(J)
        key = (I, J)
        if key in self._res_cache:
            return self._res_cache[key]
        if I == J:
            out = RingMap.identity(self.ring(I))
        else:
            assert set(I) <= set(J), f"{I} not a subset of {J}"
            lead = I[0]
            lead_map = self._chart_maps[(lead, J)]
            src = self.ring(I)
            images = [lead_map(self.charts[lead].ring.var(v)) for v in src.variables]
            out = RingMap(src, self.ring(J), images)
        self._res_cache[key] = out
        return out

    def extensions(self, I):
        """All (j, position, I+{j}) with the extended tuple in the atlas."""
        I = tuple(I)
        if I in self._ext_cache:
            return self._ext_cache[I]
        out = []
        for j in self.chart_ids:
            if j in I:
                continue
            J = tuple(sorted(I + (j,)))
            if self.has_tuple(J):
                out.append((j, J.index(j), J))
        self._ext_cache[I] = out
        return out

    def unit(self, i, j, I=None) -> LocPoly:
        """u_ij = x_j * x_i^{-1} over U_I (default U_{ij})."""
        I = tuple(I) if I is not None else tuple(sorted((i, j)))
        key = (i, j, I)
        if key in self._unit_cache:
            return self._unit_cache[key]
        if i == j:
            u = self.ring(I).one()
        else:
            xi = self.res((i,), I)(self.charts[i].x)
            xj = self.res((j,), I)(self.charts[j].x)
            u = _loc_divide(xj, xi)
            if u is None:
                raise SceneError(f"unit u_{i}{j} does not exist over {I}")
        self._unit_cache[key] = u
        return u


def _coordinate(x: LocPoly):
    """Exponent tuple of x when x is 1 or a single variable, else None."""
    if len(x.terms) == 1:
        (exp, c), = x.terms.items()
        if c == 1 and set(exp) <= {0, 1} and sum(exp) <= 1:
            return exp
    return None


def divisor_pole(x: LocPoly, I):
    """The pole of the divisor equation x over U_I: the index of x in its
    ring when x is a coordinate that is not inverted, None when x is a unit
    (Y misses U_I).  Any other x raises UnsupportedScene."""
    exp = _coordinate(x)
    if exp is not None and 1 in exp:
        v = exp.index(1)
        if v not in x.ring.inverted:
            return v
    if not x.is_unit():
        raise UnsupportedScene(f"divisor over {tuple(I)} is neither a coordinate nor a unit: {x!r}")
    return None


def _loc_divide(a: LocPoly, b: LocPoly):
    """a / b for a single Laurent term b, or None when the quotient would
    need a negative exponent at a non-inverted variable (or b has more than
    one term)."""
    if len(b.terms) != 1:
        return None
    ring = a.ring
    (eb, cb), = b.terms.items()
    terms = {}
    for ea, ca in a.terms.items():
        exp = tuple(x - y for x, y in zip(ea, eb))
        if any(e < 0 and i not in ring.inverted for i, e in enumerate(exp)):
            return None
        terms[exp] = Fraction(ca, cb)
    return LocPoly(ring, terms)


@dataclass
class Scene:
    name: str
    atlas: Atlas
    # the one default of each size, for scene_from_dict and builtin_scene
    trunc: int = 6       # Hochschild length cap N
    window: int = 4      # homology window D
    global_ring: Ring | None = None
    global_res: dict = field(default_factory=dict)  # chart_id -> RingMap
    _ctxs: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # (I, J) -> the rewrite of the pole dx_I/x_I on U_J, and (I, K) -> the
    # dlog of the transition unit that hkr_A wedges into U_K: derived once
    # by forms._pole_rewrite and hkr._unit_dlog
    _pole_rewrites: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _unit_dlogs: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # I -> the tuple plan of a form cochain's Cech pass over an entry at I:
    # (J, position sign, atlas.res(I, J)) per extension, from cech._tuple_plan
    _cech_plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _routes: object = field(default=None, init=False, repr=False, compare=False)
    # complex kind -> [(H_even, H_odd) at window w for w <= D + 1], D the
    # largest window asked so far (homology._dims), the scene's one
    # homology state: no basis, matrix or echelon is kept
    _windows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def chart(self, i) -> Chart:
        return self.atlas.charts[i]

    def ctx(self, I):
        """The forms.TupleCtx of tuple I, built on first use."""
        I = tuple(I)
        ctx = self._ctxs.get(I)
        if ctx is None:
            from .forms import TupleCtx

            ctx = self._ctxs[I] = TupleCtx(self, I)
        return ctx

    def routes(self):
        """The diagrams.RouteCtx of this scene, built on first use."""
        if self._routes is None:
            from .diagrams import RouteCtx

            self._routes = RouteCtx(self)
        return self._routes


class AtlasCochain:
    """A Cech cochain over the atlas: {tuple: value}, zero values dropped.

    Subclasses supply what must match for two cochains to be added or
    compared (`_same_space`), a copy of their space with no entries
    (`_blank`, which `_new` fills), and the two halves of a pass of
    `cech_d` and `twisted`: `_entry_into(cech, sheaf)`, the hook that a
    pass calls once per entry, as into(accs, I, s), and `_build(J, acc)`,
    the value over U_J whose terms the accumulator acc holds, built once.
    The hook adds the entry's restriction, with its position sign, into
    the accumulator of each extension of I when cech, and (-1)^p times
    its sheaf part into that of I unless sheaf is None, creating the
    accumulators it meets in accs.  It reads what depends on I alone
    (the extensions, their signs and the restriction to each) from a plan
    kept once per tuple on the subclass's owner: the scene for form
    cochains (`cech._tuple_plan`), the presheaf for Hochschild chains
    (`hochschild._tuple_plan`).  What sheaf names is the subclass's: a
    callback for form cochains, the selected parts of hoch_d for
    Hochschild chains.  `any(acc)` is false on an accumulator that
    received no term (a list of empty flats, or an empty term dict),
    which builds nothing.  Their own `__slots__` name the space, they
    keep the scene as `scene`, and `_label` names them in the repr.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: dict | None):
        atlas = self.scene.atlas
        self.entries = {}
        for I, s in (entries or {}).items():
            I = tuple(I)
            if not atlas.has_tuple(I):
                raise SceneError(f"tuple {I} not in atlas")
            if not s.is_zero():
                self.entries[I] = s

    def _new(self, entries: dict):
        """A cochain of the same space from entries keyed by atlas tuples,
        valid by construction: only the zero values are dropped."""
        out = self._blank()
        out.entries = {I: s for I, s in entries.items() if not s.is_zero()}
        return out

    def _label(self) -> str:
        return type(self).__name__

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self._same_space(other)
            and self.entries == other.entries
        )

    def __add__(self, other):
        assert type(other) is type(self) and self._same_space(other)
        entries = dict(self.entries)
        for I, s in other.entries.items():
            entries[I] = entries[I] + s if I in entries else s
        return self._new(entries)

    def __neg__(self):
        return self._new({I: -s for I, s in self.entries.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return self._new({I: s.scale(c) for I, s in self.entries.items()})

    def cech_d(self, sheaf=None):
        """The alternating Cech differential, over single-index extensions,
        plus (-1)^p times the sheaf part that sheaf names at each entry of
        Cech degree p unless sheaf is None, in one pass (`_pass`)."""
        return self._pass(True, sheaf)

    def twisted(self, sheaf):
        """The cochain (-1)^p (sheaf part) at each entry of Cech degree p:
        the pass of `cech_d` without its Cech part."""
        return self._pass(False, sheaf)

    def _pass(self, cech: bool, sheaf):
        """One call of the hook per entry, then each value built once and
        kept unless it is zero."""
        accs: dict = {}
        into = self._entry_into(cech, sheaf)
        for I, s in self.entries.items():
            into(accs, I, s)
        build = self._build
        entries = {}
        for J, acc in accs.items():
            if any(acc):
                s = build(J, acc)
                if not s.is_zero():
                    entries[J] = s
        out = self._blank()
        out.entries = entries
        return out

    def __repr__(self):
        inner = ", ".join(f"{I}: {s!r}" for I, s in sorted(self.entries.items()))
        return f"{self._label()}{{{inner}}}"


@dataclass
class ValidationReport:
    checks: list = field(default_factory=list)  # (name, ok, detail)

    def add(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self):
        return [(n, d) for n, ok, d in self.checks if not ok]


def validate_scene(scene: Scene) -> ValidationReport:
    """Check every Chart/Atlas invariant exactly; report each failure."""
    rep = ValidationReport()
    atlas = scene.atlas
    rep.add("trunc", scene.trunc >= 2, f"N={scene.trunc}")
    rep.add("window", scene.window >= 1, f"D={scene.window}")

    for cid in atlas.chart_ids:
        c = atlas.charts[cid]
        rep.add(f"divisor-shape chart {cid}", _coordinate(c.x) is not None, f"x={c.x!r}")
        rep.add(
            f"f=x*g chart {cid}",
            c.f == c.x * c.g,
            f"f={c.f!r}, x*g={(c.x * c.g)!r}",
        )

    # downward closure of the tuple set
    for I in atlas.tuples:
        if len(I) < 3:
            continue
        for sub in itertools.combinations(I, len(I) - 1):
            rep.add(f"closure {I}>{sub}", atlas.has_tuple(sub), "")

    # lead-chart variable convention and functoriality of restrictions;
    # restriction out of a tuple whose variables are not its lead chart's
    # is undefined, so the checks below skip such a source
    foreign = set()
    for I in atlas.tuples:
        if len(I) == 1:
            continue
        ring = atlas.ring(I)
        lead_ring = atlas.charts[I[0]].ring
        ok = set(ring.variables) <= set(lead_ring.variables)
        rep.add(f"lead-vars {I}", ok, "overlap ring vars must come from lead chart")
        if not ok:
            foreign.add(I)
            continue
        m = atlas._chart_maps[(I[0], I)]
        ident = all(
            m(lead_ring.var(v)) == ring.var(v) for v in ring.variables
        )
        rep.add(f"lead-identity {I}", ident, "res(lead) must fix overlap variables")

    for J in atlas.tuples:
        for I in atlas.tuples:
            if len(I) >= len(J) or not set(I) <= set(J) or I in foreign:
                continue
            for j in I:
                lhs = atlas.res(I, J).compose(atlas.res((j,), I))
                rhs = atlas.res((j,), J)
                rep.add(
                    f"functorial {j}->{I}->{J}",
                    lhs.images == rhs.images,
                    "res composition mismatch",
                )

    # units: existence, u_ii = 1, u_ij x_i = x_j, cocycle,
    # and the lead chart's divisor restricted to I, a coordinate or a unit
    for I in atlas.tuples:
        if len(I) < 2:
            continue
        lead_x = None
        for i, j in itertools.permutations(I, 2):
            try:
                u = atlas.unit(i, j, I)
            except SceneError as e:
                rep.add(f"unit u_{i}{j} on {I}", False, str(e))
                continue
            xi = atlas.res((i,), I)(atlas.charts[i].x)
            xj = atlas.res((j,), I)(atlas.charts[j].x)
            rep.add(f"unit-eq u_{i}{j} on {I}", u * xi == xj, f"u={u!r}")
            if i == I[0]:
                lead_x = xi
        if lead_x is not None:
            try:
                divisor_pole(lead_x, I)
            except UnsupportedScene as e:
                rep.add(f"divisor-shape {I}", False, str(e))
        if len(I) >= 3:
            for i, j, k in itertools.permutations(I, 3):
                lhs = atlas.unit(i, j, I) * atlas.unit(j, k, I)
                rep.add(
                    f"cocycle u_{i}{j}*u_{j}{k}=u_{i}{k} on {I}",
                    lhs == atlas.unit(i, k, I),
                    "",
                )

    # f agrees on overlaps, and x_i g_i glues to the same section
    for I in atlas.tuples:
        if len(I) < 2:
            continue
        for i, j in itertools.combinations(I, 2):
            fi = atlas.res((i,), I)(atlas.charts[i].f)
            fj = atlas.res((j,), I)(atlas.charts[j].f)
            rep.add(f"f-match {i},{j} on {I}", fi == fj, f"{fi!r} vs {fj!r}")
            xgi = atlas.res((i,), I)(atlas.charts[i].x * atlas.charts[i].g)
            xgj = atlas.res((j,), I)(atlas.charts[j].x * atlas.charts[j].g)
            rep.add(f"xg-match {i},{j} on {I}", xgi == xgj, "")

    # inverted variables of source rings must restrict to units
    for J in atlas.tuples:
        for I in atlas.tuples:
            if len(I) >= len(J) or not set(I) <= set(J) or I in foreign:
                continue
            m = atlas.res(I, J)
            for v in sorted(atlas.ring(I).inverted):
                unit = m.images[v].is_unit()
                name = atlas.ring(I).variables[v]
                rep.add(f"unit-res {I}->{J}", unit, "" if unit else f"{name} not a unit downstream")
    return rep


# ---------------------------------------------------------------------------
# scene files


_REQUIRED = object()


def _field(spec, key, where: str, kind: type = object, default=_REQUIRED):
    """spec[key], which must be a kind; a missing key gives default, or a
    SceneError when there is none."""
    if not isinstance(spec, dict):
        raise SceneError(f"{where}: expected an object, got {type(spec).__name__}")
    if key not in spec:
        if default is _REQUIRED:
            raise SceneError(f"{where}: missing field {key!r}")
        return default
    value = spec[key]
    if not isinstance(value, kind):
        raise SceneError(
            f"{where}: field {key!r} must be a {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _build_ring(spec, where: str) -> Ring:
    variables = _field(spec, "vars", where, list)
    if not all(isinstance(v, str) for v in variables) or len(set(variables)) < len(variables):
        raise SceneError(f"{where}: vars {variables!r} are not distinct names")
    inverted = _field(spec, "inverted", where, list, [])
    for name in inverted:
        if name not in variables:
            raise SceneError(f"{where}: inverted entry {name!r} is not a variable of the ring")
    return Ring(variables, inverted)


def _int(value, where: str, what: str = "chart id") -> int:
    """value as an int: an int that is not a bool, or a string spelling one
    (the chart keys of `res` objects are JSON strings)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        return int(value)
    raise SceneError(f"{where}: {what} {value!r} is not an integer")


def _poly(spec, key, ring: Ring, where: str) -> LocPoly:
    text = _field(spec, key, where, str)
    try:
        return parse_poly(text, ring)
    except ValueError as e:
        raise SceneError(f"{where}: field {key!r}: {e}") from None


def _image(images, ring: Ring, where: str, var: str) -> LocPoly:
    """The image of var: an expression string, or {num, den} with den a unit
    of the Laurent ring, a single term in its inverted variables (inverses
    are not expressible in the grammar)."""
    spec = _field(images, var, where)
    if isinstance(spec, str):
        return _poly(images, var, ring, where)
    where = f"{where}[{var!r}]"
    num = _poly(spec, "num", ring, where)
    den = _poly(spec, "den", ring, where)
    if not den.is_unit():
        raise SceneError(f"{where}: field 'den': not a unit: {den!r}")
    return num * den.inverse()


def _images(images, variables, ring: Ring, where: str) -> list:
    return [_image(images, ring, where, v) for v in variables]


def scene_from_dict(data: dict) -> Scene:
    chart_by_id = {}
    charts = _field(data, "charts", "scene", list)
    if not charts:
        raise SceneError("scene: field 'charts' lists no chart")
    for n, cs in enumerate(charts):
        raw_id = _field(cs, "id", f"chart #{n}")
        where = f"chart {raw_id}"
        cid = _int(raw_id, where)
        if cid in chart_by_id:
            raise SceneError(f"{where}: duplicate chart id {cid}")
        ring = _build_ring(cs, where)
        chart_by_id[cid] = Chart(
            id=cid,
            ring=ring,
            x=_poly(cs, "x", ring, where),
            f=_poly(cs, "f", ring, where),
            g=_poly(cs, "g", ring, where),
        )
    overlap_rings = {}
    chart_maps = {}
    for n, os in enumerate(_field(data, "overlaps", "scene", list, [])):
        tup = _field(os, "tuple", f"overlap #{n}", list)
        where = f"overlap {tup}"
        I = tuple(sorted(_int(x, where) for x in tup))
        if len(I) < 2:
            raise SceneError(f"{where}: an overlap needs at least two charts")
        if len(set(I)) < len(I):
            raise SceneError(f"{where}: repeated chart in the tuple")
        if I in overlap_rings:
            raise SceneError(f"{where}: duplicate overlap {I}")
        for i in I:
            if i not in chart_by_id:
                raise SceneError(f"{where}: tuple member {i} is not a chart")
        ring = _build_ring(os, where)
        overlap_rings[I] = ring
        for cid_s, images in _field(os, "res", where, dict).items():
            cid = _int(cid_s, f"{where} res")
            if cid not in I:
                raise SceneError(f"{where} res: chart {cid} is not in the tuple")
            chart = chart_by_id[cid]
            imgs = _images(images, chart.ring.variables, ring, f"{where} res[{cid_s!r}]")
            chart_maps[(cid, I)] = RingMap(chart.ring, ring, imgs)
        for i in I:
            if (i, I) not in chart_maps:
                raise SceneError(f"{where} res: no entry for member chart {i}")
    atlas = Atlas(list(chart_by_id.values()), overlap_rings, chart_maps)

    global_ring = None
    global_res = {}
    gs = _field(data, "global", "scene", dict, None)
    if gs is not None:
        global_ring = _build_ring(gs, "global")
        for cid_s, images in _field(gs, "res", "global", dict).items():
            cid = _int(cid_s, "global res")
            if cid not in chart_by_id:
                raise SceneError(f"global res: chart {cid} is not a chart")
            ring = chart_by_id[cid].ring
            imgs = _images(images, global_ring.variables, ring, f"global res[{cid_s!r}]")
            global_res[cid] = RingMap(global_ring, ring, imgs)
        for i in chart_by_id:
            if i not in global_res:
                raise SceneError(f"global res: no entry for chart {i}")
    sizes = {what: _int(data[what], "scene", what) for what in ("trunc", "window") if what in data}
    return Scene(
        name=_field(data, "name", "scene", str, "scene"),
        atlas=atlas,
        global_ring=global_ring,
        global_res=global_res,
        **sizes,
    )


def load_scene(path) -> Scene:
    with open(path) as fh:
        return scene_from_dict(json.load(fh))
