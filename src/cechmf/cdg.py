"""Presentations of the small curved/dg actors over a scene.

All presheaves expose the same per-tuple interface: a finite object list,
free hom modules with homogeneous bases, composition, differential and
curvature on basis symbols, and restriction of basis symbols along tuple
extensions.  Elements are {symbol: LocPoly} dictionaries; their algebra
(`elem_sum`, `elem_scale`, the product `elem_mul` by `compose` on symbols,
and `restrict_elem`, the restriction of an element along a tuple
extension) lives here and nowhere else.  The base class `CdgPresheaf` is
the trivial one-object algebra with basis {1}; each subclass overrides
only what differs from it.

Structure maps depend only on the presheaf and their arguments, so
`hochschild` tabulates their slot terms, the plans of `hoch_d`, the
tuple plans of the Cech-Hochschild passes and the gap layouts of the
descent walk, and `trace` the walks of h^q with their
slot realizations, once, in dicts the presheaf owns
(`CdgPresheaf.table`); a presheaf's tables are freed with it.  The
morphism `can` keeps the slot terms of its images the same way
(`CanMorphism.table`), and so does a lax morphism its components and
realizations (`lax.OneObjectLax.table`).

Matrix-factorization morphisms are stored as matrices in the trivialization
of the lead (minimum) chart of each tuple.  Their d and curvature come from
δ (`MFCategory.delta_element`) and `compose` through `elem_mul`.  Restricting
to a tuple with a smaller lead conjugates by diag(u^twist), which scales a
matrix unit by u^`twist_shift`, the one conjugation rule; this makes every
structure map strictly compatible with restrictions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rings import LocPoly, quotient_restrict
from .scene import Scene


def elem_sum(elems) -> dict:
    """Sum of elements, collected into one dict; zero coefficients dropped."""
    out: dict = {}
    for e in elems:
        for s, c in e.items():
            out[s] = out[s] + c if s in out else c
    return {s: c for s, c in out.items() if not c.is_zero()}


def elem_scale(a: dict, c) -> dict:
    if isinstance(c, LocPoly):
        out = {s: v * c for s, v in a.items()}
    else:
        out = {s: v.scale(c) for s, v in a.items()}
    return {s: v for s, v in out.items() if not v.is_zero()}


def elem_mul(ph: CdgPresheaf, I, a: dict, b: dict) -> dict:
    """The product a b of two elements of ph over I, by `compose` on symbols."""
    return elem_sum(
        {s: c * ca * cb}
        for sa, ca in a.items()
        for sb, cb in b.items()
        for s, c in ph.compose(I, sa, sb).items()
    )


def restrict_elem(ph: CdgPresheaf, elem: dict, I, J) -> dict:
    """Restriction of an element of ph from the tuple I to J (the identity
    for J = I): each coefficient and each symbol restrict separately."""
    if tuple(I) == tuple(J):
        return {sym: c for sym, c in elem.items() if not c.is_zero()}
    out: dict = {}
    for sym, c in elem.items():
        rc = ph.restrict_coeff(I, J, c)
        for sym2, c2 in ph.restrict_sym(I, J, sym).items():
            v = c2 * rc
            out[sym2] = out[sym2] + v if sym2 in out else v
    return {s: v for s, v in out.items() if not v.is_zero()}


class CdgPresheaf:
    """The trivial one-object algebra: basis {1}, even, d = 0, no curvature,
    symbols unchanged by restriction.  Subclasses override what differs."""

    def __init__(self, scene: Scene):
        self.scene = scene
        self._tables: dict = {}

    def table(self, *key) -> dict:
        """The dict this presheaf keeps under key, empty when first asked for.

        The structure maps of a presheaf never change, so `hochschild`
        and `trace` tabulate what they derive from them here once; the
        tables live and die with the presheaf."""
        out = self._tables.get(key)
        if out is None:
            out = self._tables[key] = {}
        return out

    def ring(self, I):
        return self.scene.atlas.ring(tuple(I))

    # overridden where coefficients do not restrict by the plain atlas map
    def restrict_coeff(self, I, J, c: LocPoly) -> LocPoly:
        return self.scene.atlas.res(tuple(I), tuple(J))(c)

    def live(self, I) -> bool:
        return True

    def objects(self, I):
        return ("*",)

    def hom_basis(self, I, x, y):
        return ("1",)

    def parity(self, sym) -> int:
        return 0

    def identity(self, I, x) -> dict:
        return {"1": self.ring(I).one()}

    def compose(self, I, a, b) -> dict:
        """a after b, on basis symbols."""
        return {"1": self.ring(I).one()}

    def d(self, I, sym) -> dict:
        return {}

    def curvature(self, I, x) -> dict:
        return {}

    def restrict_sym(self, I, J, sym) -> dict:
        return {sym: self.ring(J).one()}


class CurvedLine(CdgPresheaf):
    """One object, hom = chart ring, d = 0, curvature = sign * f."""

    def __init__(self, scene: Scene, sign: int = 1):
        super().__init__(scene)
        self.sign = sign

    def curvature(self, I, x):
        f = self.scene.ctx(I).f
        return {} if f.is_zero() else {"1": f.scale(self.sign)}


class SheafAlgebraA(CdgPresheaf):
    """The two-term dg algebra [O(-Y) -> O]: basis 1 (even), e (odd),
    e*e = 0, d(e) = x_lead, restriction rescales e by the transition unit."""

    def hom_basis(self, I, x, y):
        return ("1", "e")

    def parity(self, sym):
        return 0 if sym == "1" else 1

    def compose(self, I, a, b):
        if a == "1" and b == "1":
            return {"1": self.ring(I).one()}
        if a == "e" and b == "e":
            return {}
        return {"e": self.ring(I).one()}

    def d(self, I, sym):
        if sym == "e":
            x = self.scene.ctx(I).x
            return {} if x.is_zero() else {"1": x}
        return {}

    def restrict_sym(self, I, J, sym):
        J = tuple(J)
        if sym == "1":
            return {"1": self.ring(J).one()}
        i0, j0 = tuple(I)[0], J[0]
        # e_{i0} = u_{j0 i0} e_{j0}, and u_{ii} = 1
        u = self.scene.atlas.unit(j0, i0, J)
        return {"e": u}


class OYAlgebra(CdgPresheaf):
    """Structure algebra of the divisor: lives on tuples the divisor meets,
    coefficients are x-free representatives of the quotient ring."""

    def live(self, I) -> bool:
        return self.scene.ctx(I).pole is not None

    # restrict_coeff and objects are the presheaf interface that
    # `restrict_elem` and `rand` read
    def restrict_coeff(self, I, J, c):
        out = self.scene.atlas.res(tuple(I), tuple(J))(c)
        pole = self.scene.ctx(J).pole
        assert pole is not None
        return quotient_restrict(out, pole)

    def objects(self, I):
        return ("*",) if self.live(I) else ()


@dataclass(frozen=True)
class MFObject:
    """Free Z/2-graded module with a per-tuple odd endomorphism.

    parities: basis parities, even generators first.
    twists: O(-Y)-twist of each basis vector; transitions are diag(u^twist).
    delta_of: callable (scene, I) -> matrix (list of rows of LocPoly), or
    None for zero; `delta(scene, I)` reads it.
    """

    name: str
    parities: tuple
    twists: tuple
    delta_of: object  # callable

    @property
    def rank(self):
        return len(self.parities)

    def delta(self, scene: Scene, I):
        I = tuple(I)
        ring = scene.atlas.ring(I)
        if self.delta_of is None:
            n = self.rank
            return [[ring.zero()] * n for _ in range(n)]
        return self.delta_of(scene, I)


def build_P(scene: Scene) -> MFObject:
    """The matrix factorization [O(-Y) <-> O] with forward map x, back map g.

    Basis order (1, eps): delta(1) = g*eps, delta(eps) = x*1, i.e. columns
    [[0, x], [g, 0]]; transitions diag(1, u).
    """

    def delta(sc, I):
        ctx = sc.ctx(I)
        z = ctx.ring.zero()
        return [[z, ctx.x], [ctx.g, z]]

    return MFObject(name="P", parities=(0, 1), twists=(0, 1), delta_of=delta)


class MFCategory(CdgPresheaf):
    """Full subcategory of quasi matrix factorizations on the given objects,
    with hom spaces realized as matrices in the lead-chart trivializations."""

    def __init__(self, scene: Scene, mfs):
        super().__init__(scene)
        self.mfs = {m.name: m for m in mfs}

    def objects(self, I):
        return tuple(self.mfs)

    def hom_basis(self, I, x, y):
        src, tgt = self.mfs[x], self.mfs[y]
        return tuple(
            ("E", y, x, r, c) for r in range(tgt.rank) for c in range(src.rank)
        )

    def parity(self, sym):
        _, y, x, r, c = sym
        return (self.mfs[y].parities[r] + self.mfs[x].parities[c]) % 2

    def identity(self, I, x):
        ring = self.ring(I)
        return {("E", x, x, r, r): ring.one() for r in range(self.mfs[x].rank)}

    def compose(self, I, a, b):
        # a: y -> z, b: x -> y as matrices; (a b)[r][c] = sum_k a[r][k] b[k][c]
        _, za, ya, ra, ca = a
        _, yb, xb, rb, cb = b
        assert ya == yb, "objects do not match"
        if ca != rb:
            return {}
        return {("E", za, xb, ra, cb): self.ring(I).one()}

    def delta_element(self, I, x) -> dict:
        mf = self.mfs[x]
        d = mf.delta(self.scene, I)
        out = {}
        for r in range(mf.rank):
            for c in range(mf.rank):
                if not d[r][c].is_zero():
                    out[("E", x, x, r, c)] = d[r][c]
        return out

    def d(self, I, sym):
        # d(F) = delta_y F - (-1)^{|F|} F delta_x
        _, y, x, _, _ = sym
        F = {sym: self.ring(I).one()}
        sign = -1 if self.parity(sym) else 1
        return elem_sum((
            elem_mul(self, I, self.delta_element(I, y), F),
            elem_scale(elem_mul(self, I, F, self.delta_element(I, x)), -sign),
        ))

    def curvature(self, I, x):
        delta = self.delta_element(I, x)
        f = self.scene.ctx(I).f
        return elem_sum((
            elem_mul(self, I, delta, delta), elem_scale(self.identity(I, x), -f)
        ))

    def twist_shift(self, sym) -> int:
        """n with G_y E_rc G_x^{-1} = u^n E_rc for transitions G = diag(u^twist)."""
        _, y, x, r, c = sym
        return self.mfs[y].twists[r] - self.mfs[x].twists[c]

    def restrict_sym(self, I, J, sym):
        # change of trivialization from lead(I) to lead(J); u_ii = 1
        u = self.scene.atlas.unit(J[0], I[0], tuple(J))
        return {sym: u ** self.twist_shift(sym)}


class TrivializedCategory(MFCategory):
    """Same objects with zero differential: morphisms are plain matrices that
    do not transform under restriction; curvature is -f."""

    def delta_element(self, I, x) -> dict:
        """δ = 0: the inherited `d` and `curvature` read it, so d is zero
        and the curvature is -f."""
        return {}

    restrict_sym = CdgPresheaf.restrict_sym


def end_algebra(scene: Scene, mf: MFObject) -> MFCategory:
    """The dg algebra of endomorphisms of one matrix factorization."""
    return MFCategory(scene, [mf])


# ---------------------------------------------------------------------------
# the chart-level algebra morphism can: A -> End(P)


class CanMorphism:
    """Left multiplication of the two-term algebra on P via A^# = P^#.

    Strict morphism of presheaves: matrices are taken in the lead-chart
    basis, which absorbs the transition conjugations.
    """

    def __init__(self, scene: Scene, src: SheafAlgebraA, dst: MFCategory):
        assert "P" in dst.mfs and dst.mfs["P"].rank == 2
        self.scene = scene
        self.src = src
        self.dst = dst
        self._tables: dict = {}

    # `hochschild.apply_morphism` keeps the slot terms of the images over
    # each tuple I under table(I), as the presheaves keep theirs
    table = CdgPresheaf.table

    def object(self, x):
        return "P"

    def apply_sym(self, I, sym) -> dict:
        ring = self.scene.atlas.ring(tuple(I))
        if sym == "1":
            return self.dst.identity(I, "P")
        # eps * 1 = eps, eps * eps = 0: the odd matrix unit E_{10}
        return {("E", "P", "P", 1, 0): ring.one()}


def can_map(scene: Scene, endp: MFCategory):
    return CanMorphism(scene, SheafAlgebraA(scene), endp)
