"""The two routes of the trace-vs-residue square and the pushforward check.

Top route: chains over the two-term algebra, realized as endomorphisms of
the standard factorization, traced to curved-line chains, then mapped to
twisted forms.  Bottom route: the cone-valued HKR map, the module action by
(a sign times) the inverse Todd cochain, then the projection to the regular
summand.  The main-theorem instance replaces the bottom projection by the
honest lift-then-differentiate connecting morphism on divisor forms.
"""

from __future__ import annotations

from .cdg import CurvedLine, SheafAlgebraA, build_P, can_map, end_algebra
from .cech import Cochain, bar_wedge, todd_inverse, unit_cochain
from .hkr import hkr_A, hkr_xf
from .hochschild import CechHochChain, apply_morphism, make_chain
from .scene import Scene
from .ses import cone_delta, connecting_delta, forms_to_y
from .trace import phi


def max_form_degree(scene: Scene) -> int:
    return max(scene.atlas.ring(I).nvars for I in scene.atlas.tuples)


def unit_a_chain(scene: Scene, alg: SheafAlgebraA | None = None) -> CechHochChain:
    """The unit chain 1[] over every chart."""
    if alg is None:
        alg = SheafAlgebraA(scene)
    entries = {}
    for i in scene.atlas.chart_ids:
        I = (i,)
        entries[I] = make_chain(alg, I, ("*",), [alg.identity(I, "*")])
    return CechHochChain(alg, entries)


def trace_route(scene: Scene, chain: CechHochChain, out_len: int | None = None) -> Cochain:
    """hkr o phi o (entrywise realization of the algebra on P)."""
    endp = end_algebra(scene, build_P(scene))
    can = can_map(scene, endp)
    line = CurvedLine(scene, -1)
    realized = apply_morphism(chain, can, endp)
    if out_len is None:
        out_len = min(scene.trunc, max_form_degree(scene) + 1)
    return hkr_xf(phi(realized, out_len, line))


def residue_route(scene: Scene, chain: CechHochChain, todd_sign: int) -> Cochain:
    """cone projection o (~^ sign * Td^{-1}) o hkr_A."""
    td = todd_inverse(scene, todd_sign)
    return cone_delta(bar_wedge(hkr_A(chain), td))


def pushforward_routes(scene: Scene, y_class: Cochain, todd_sign_main: int = 1):
    """Main-theorem instance for a divisor cohomology class.

    Route A: connecting morphism after multiplying by the inverse Todd
    cochain restricted to the divisor.  Route B: the trace route on the
    built-in Hochschild representative (the unit chain scaled entrywise is
    only available for the unit class; other classes use route A alone).
    """
    td_y = forms_to_y(todd_inverse(scene, todd_sign_main))
    return connecting_delta(bar_wedge(y_class, td_y))


def pushforward_unit(scene: Scene, todd_sign_diagram: int):
    """Both routes for the unit divisor class; returns (route_a, route_b)."""
    one_y = unit_cochain(scene, "yform")
    route_a = pushforward_routes(scene, one_y)
    route_b = trace_route(scene, unit_a_chain(scene))
    return route_a, route_b
