"""Scenes: a finite affine atlas with divisor, function and gluing data.

A scene models (X, U, f, Y): chart rings are Laurent rings (polynomial
rings with some variables inverted), Y is cut out per chart by a
coordinate variable (or misses the chart, x=1), f = x*g per chart, and
overlap rings carry explicit restriction maps.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

from .parsing import parse_image, parse_poly
from .rings import LocPoly, MalformedElement, Ring, RingMap


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
        self._pole_cache: dict = {}
        self._div_cache: dict = {}
        self._ctx_cache: dict = {}  # tuple -> forms.TupleCtx, filled by cech._ctx

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

    def restrict(self, section: LocPoly, I, J) -> LocPoly:
        return self.res(I, J)(section)

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

    def divisor_on(self, I) -> LocPoly:
        """Lead-chart divisor equation restricted to U_I."""
        I = tuple(I)
        if I in self._div_cache:
            return self._div_cache[I]
        lead = I[0]
        out = self.res((lead,), I)(self.charts[lead].x)
        self._div_cache[I] = out
        return out

    def pole_var(self, I):
        """Index of the divisor variable in R_I, or None when Y misses U_I
        (x restricts to 1 or to a unit).  Raises UnsupportedScene otherwise."""
        I = tuple(I)
        if I in self._pole_cache:
            return self._pole_cache[I]
        x = self.divisor_on(I)
        ring = self.ring(I)
        out = None
        found = False
        exp = _coordinate(x)
        if exp is not None and 1 in exp:
            v = exp.index(1)
            if v not in ring.inverted:
                out, found = v, True
        if not found:
            try:
                x.inverse()
                out = None
            except MalformedElement:
                raise UnsupportedScene(
                    f"divisor over {I} is neither a coordinate nor a unit: {x!r}"
                ) from None
        self._pole_cache[I] = out
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
        terms[exp] = ca / cb
    return LocPoly(ring, terms)


@dataclass
class Scene:
    name: str
    atlas: Atlas
    trunc: int = 6       # Hochschild length cap N
    window: int = 4      # homology window D
    global_ring: Ring | None = None
    global_res: dict = field(default_factory=dict)  # chart_id -> RingMap

    def chart(self, i) -> Chart:
        return self.atlas.charts[i]

    def f_on(self, I) -> LocPoly:
        I = tuple(I)
        return self.atlas.res((I[0],), I)(self.chart(I[0]).f)

    def g_on(self, I) -> LocPoly:
        I = tuple(I)
        return self.atlas.res((I[0],), I)(self.chart(I[0]).g)


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

    # lead-chart variable convention and functoriality of restrictions
    for I in atlas.tuples:
        if len(I) == 1:
            continue
        ring = atlas.ring(I)
        lead_ring = atlas.charts[I[0]].ring
        ok = set(ring.variables) <= set(lead_ring.variables)
        rep.add(f"lead-vars {I}", ok, "overlap ring vars must come from lead chart")
        if not ok:
            continue
        m = atlas._chart_maps[(I[0], I)]
        ident = all(
            m(lead_ring.var(v)) == ring.var(v) for v in ring.variables
        )
        rep.add(f"lead-identity {I}", ident, "res(lead) must fix overlap variables")

    for J in atlas.tuples:
        for I in atlas.tuples:
            if len(I) >= len(J) or not set(I) <= set(J):
                continue
            for j in I:
                lhs = atlas.res(I, J).compose(atlas.res((j,), I))
                rhs = atlas.res((j,), J)
                rep.add(
                    f"functorial {j}->{I}->{J}",
                    lhs.images == rhs.images,
                    "res composition mismatch",
                )

    # units: existence, u_ii = 1, u_ij x_i = x_j, cocycle
    for I in atlas.tuples:
        if len(I) < 2:
            continue
        for i, j in itertools.permutations(I, 2):
            try:
                u = atlas.unit(i, j, I)
            except SceneError as e:
                rep.add(f"unit u_{i}{j} on {I}", False, str(e))
                continue
            xi = atlas.res((i,), I)(atlas.charts[i].x)
            xj = atlas.res((j,), I)(atlas.charts[j].x)
            rep.add(f"unit-eq u_{i}{j} on {I}", u * xi == xj, f"u={u!r}")
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
            if len(I) >= len(J) or not set(I) <= set(J):
                continue
            m = atlas.res(I, J)
            for v in sorted(atlas.ring(I).inverted):
                try:
                    m.images[v].inverse()
                    rep.add(f"unit-res {I}->{J}", True, "")
                except MalformedElement:
                    name = atlas.ring(I).variables[v]
                    rep.add(f"unit-res {I}->{J}", False, f"{name} not a unit downstream")
    return rep


# ---------------------------------------------------------------------------
# scene files


def _field(spec: dict, key, where: str):
    try:
        return spec[key]
    except KeyError:
        raise SceneError(f"{where}: missing field {key!r}") from None


def _build_ring(spec, where: str) -> Ring:
    variables = list(_field(spec, "vars", where))
    inverted = list(spec.get("inverted", []))
    for name in inverted:
        if name not in variables:
            raise SceneError(f"{where}: inverted entry {name!r} is not a variable of the ring")
    return Ring(variables, inverted)


def _images(images: dict, variables, ring: Ring, where: str) -> list:
    return [parse_image(_field(images, v, where), ring) for v in variables]


def scene_from_dict(data: dict) -> Scene:
    charts = []
    for n, cs in enumerate(_field(data, "charts", "scene")):
        where = f"chart {cs.get('id', f'#{n}')}"
        ring = _build_ring(cs, where)
        charts.append(
            Chart(
                id=int(_field(cs, "id", where)),
                ring=ring,
                x=parse_poly(_field(cs, "x", where), ring),
                f=parse_poly(_field(cs, "f", where), ring),
                g=parse_poly(_field(cs, "g", where), ring),
            )
        )
    chart_by_id = {c.id: c for c in charts}
    overlap_rings = {}
    chart_maps = {}
    for os in data.get("overlaps", []):
        where = f"overlap {os.get('tuple')}"
        I = tuple(sorted(int(x) for x in _field(os, "tuple", where)))
        ring = _build_ring(os, where)
        overlap_rings[I] = ring
        for cid_s, images in _field(os, "res", where).items():
            cid = int(cid_s)
            chart = chart_by_id[cid]
            imgs = _images(images, chart.ring.variables, ring, f"{where} res[{cid_s!r}]")
            chart_maps[(cid, I)] = RingMap(chart.ring, ring, imgs)
    atlas = Atlas(charts, overlap_rings, chart_maps)

    global_ring = None
    global_res = {}
    if "global" in data:
        gs = data["global"]
        global_ring = _build_ring(gs, "global")
        for cid_s, images in _field(gs, "res", "global").items():
            cid = int(cid_s)
            ring = chart_by_id[cid].ring
            imgs = _images(images, global_ring.variables, ring, f"global res[{cid_s!r}]")
            global_res[cid] = RingMap(global_ring, ring, imgs)
    return Scene(
        name=data.get("name", "scene"),
        atlas=atlas,
        trunc=int(data.get("trunc", 6)),
        window=int(data.get("window", 4)),
        global_ring=global_ring,
        global_res=global_res,
    )


def load_scene(path) -> Scene:
    with open(path) as fh:
        return scene_from_dict(json.load(fh))
