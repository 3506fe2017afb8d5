"""The two routes of the trace-vs-residue square and the pushforward check.

Top route: chains over the two-term algebra, realized as endomorphisms of
the standard factorization, traced to curved-line chains, then mapped to
twisted forms.  Bottom route: the cone-valued HKR map, the module action by
(a sign times) the inverse Todd cochain, then the projection to the regular
summand.  The main-theorem instance replaces the bottom projection by the
honest lift-then-differentiate connecting morphism on divisor forms.

The fixtures of the square depend on the scene alone; `RouteCtx` builds
each of them once, on first use, and the scene keeps it (`Scene.routes()`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .cdg import CurvedLine, SheafAlgebraA, build_P, can_map, end_algebra
from .cech import Cochain, bar_wedge, todd_inverse, unit_cochain
from .hkr import hkr_A, hkr_xf
from .hochschild import CechHochChain, apply_morphism, make_chain
from .scene import Scene
from .ses import cone_delta, connecting_delta, forms_to_y
from .trace import phi


class RouteCtx:
    """The fixtures of the square over one scene: End(P), the morphism
    `can` into it, the curved line O_{-f} and the inverse Todd cochain.

    Each is built on first use and kept for the life of the scene, so the
    presheaf tables and the `can` table fill once.  Nothing here depends
    on the scene's `trunc` or `window`.
    """

    def __init__(self, scene: Scene):
        self.scene = scene

    @cached_property
    def endp(self):
        return end_algebra(self.scene, build_P(self.scene))

    @cached_property
    def can(self):
        return can_map(self.scene, self.endp)

    @cached_property
    def line(self) -> CurvedLine:
        return CurvedLine(self.scene, -1)

    @cached_property
    def todd(self) -> Cochain:
        return todd_inverse(self.scene)


def max_form_degree(scene: Scene) -> int:
    return max(scene.atlas.ring(I).nvars for I in scene.atlas.tuples)


def unit_a_chain(scene: Scene) -> CechHochChain:
    """The unit chain 1[] over every chart."""
    alg = SheafAlgebraA(scene)
    entries = {}
    for i in scene.atlas.chart_ids:
        I = (i,)
        entries[I] = make_chain(alg, I, ("*",), [alg.identity(I, "*")])
    return CechHochChain(alg, entries)


def trace_route(scene: Scene, chain: CechHochChain) -> Cochain:
    """hkr o phi o (entrywise realization of the algebra on P)."""
    routes = scene.routes()
    realized = apply_morphism(chain, routes.can, routes.endp)
    out_len = min(scene.trunc, max_form_degree(scene) + 1)
    return hkr_xf(phi(realized, out_len, routes.line))


def residue_route(scene: Scene, chain: CechHochChain, todd_sign: int) -> Cochain:
    """cone projection o (~^ sign * Td^{-1}) o hkr_A; the route is linear in
    the Todd cochain, so the sign scales its result."""
    out = cone_delta(bar_wedge(hkr_A(chain), scene.routes().todd))
    return out.scale(Fraction(todd_sign))


def pushforward_routes(scene: Scene, y_class: Cochain):
    """Route A of the main-theorem instance for a divisor cohomology class:
    the connecting morphism after multiplying by the inverse Todd cochain
    (sign +1) restricted to the divisor.  The trace route, which needs a
    Hochschild representative, is compared only on the unit class
    (`pushforward_unit`)."""
    td_y = forms_to_y(scene.routes().todd)
    return connecting_delta(bar_wedge(y_class, td_y))


def pushforward_unit(scene: Scene):
    """Both routes for the unit divisor class; returns (route_a, route_b),
    route B being the trace route on the unit chain."""
    one_y = unit_cochain(scene, "yform")
    route_a = pushforward_routes(scene, one_y)
    route_b = trace_route(scene, unit_a_chain(scene))
    return route_a, route_b
