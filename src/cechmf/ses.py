"""The log-forms short exact sequence: section, lift, connecting morphism.

Over each tuple the quotient map sends w + (dx/x)^a to a restricted to the
divisor; the canonical lift of a divisor form is the pure-residue log form
with the x-free polynomial representative.
"""

from __future__ import annotations

from .cech import (
    CONEF,
    FORM,
    LOG,
    OMEGA,
    OMEGA_LOG_SHIFTED,
    OMEGA_Y,
    YFORM,
    Cochain,
    _ctx,
    cech_total_d,
)
from .forms import Form, LogForm, y_normalize
from .signs import sign


class NotACocycle(ValueError):
    pass


class InternalConsistencyError(AssertionError):
    pass


def _to_y(c: Cochain, part) -> Cochain:
    """Restrict part(section) to the divisor on every tuple."""
    return Cochain(c.scene, YFORM, {
        I: y_normalize(part(s), _ctx(c.scene, I)) for I, s in c.entries.items()
    })


def ses_project(beta: Cochain) -> Cochain:
    """Quotient map on log cochains: keep the residue, restrict to Y."""
    assert beta.kind == LOG
    return _to_y(beta, lambda s: s.residue)


def ses_lift(alpha: Cochain) -> Cochain:
    """Canonical lift: zero regular part, residue the x-free representative.

    Charts the divisor misses contribute zero; a divisor that is not cut by
    a coordinate raises UnsupportedScene (via the tuple context).
    """
    assert alpha.kind == YFORM
    entries = {}
    for I, s in alpha.entries.items():
        ctx = _ctx(alpha.scene, I)
        if ctx.pole is None:
            continue
        entries[I] = LogForm(ctx, Form.zero(ctx.ring), s)
    return Cochain(alpha.scene, LOG, entries)


def connecting_delta(alpha: Cochain) -> Cochain:
    """Lift-then-differentiate boundary map into the twisted de Rham complex.

    Computed with the canonical lift in the shifted log complex; the result
    must be residue-free (it lies in the subcomplex).  Its Cech-degree-p
    component is scaled by sign("delta-diagram-twist")^p, which aligns the
    quotient-complex degree bookkeeping with the cone projection, and the
    twisted result must be a cocycle.
    """
    assert alpha.kind == YFORM
    if not cech_total_d(alpha, OMEGA_Y).is_zero():
        raise NotACocycle("input is not a total cocycle on the divisor")
    lifted = ses_lift(alpha)
    d_lift = cech_total_d(lifted, OMEGA_LOG_SHIFTED)
    twist = sign("delta-diagram-twist")
    entries = {}
    for I, s in d_lift.entries.items():
        if not s.residue.is_zero():
            raise InternalConsistencyError(
                f"connecting morphism produced a residue over {I}: {s.residue!r}"
            )
        entries[I] = s.regular if twist ** (len(I) - 1) == 1 else -s.regular
    out = Cochain(alpha.scene, FORM, entries)
    if not cech_total_d(out, OMEGA).is_zero():
        raise InternalConsistencyError("connecting morphism output is not a cocycle")
    return out


def cone_delta(c: Cochain) -> Cochain:
    """Connecting morphism realized on the cone: project to the regular summand."""
    assert c.kind == CONEF
    return Cochain(c.scene, FORM, {I: s.reg for I, s in c.entries.items()})


def cone_to_y(c: Cochain) -> Cochain:
    """The quasi-isomorphism from the cone to divisor forms: residue of the
    log summand, restricted to the divisor."""
    assert c.kind == CONEF
    return _to_y(c, lambda s: s.log.residue)


def forms_to_y(c: Cochain) -> Cochain:
    """Plain restriction of regular forms to the divisor."""
    assert c.kind == FORM
    return _to_y(c, lambda s: s)
