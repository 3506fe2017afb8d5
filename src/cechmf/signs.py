"""Machine-readable sign ledger.

Every orientation/shift choice the engine makes is recorded here, and tests
resolve sign constants through `sign()` so an undocumented choice fails loudly.
"""

from __future__ import annotations

LEDGER_VERSION = "1"


class UndocumentedSign(KeyError):
    pass


_LEDGER = {
    "cech-sheaf-twist": {
        "value": +1,
        "note": "total differential is d_Cech + (-1)^p d_sheaf on Cech degree p",
    },
    "cone-reg": {
        "value": -1,
        "note": "regular summand of the cone carries -(-1)^p df^(-): the"
        " unshifted (Omega, -df^) differential with the Cech twist",
    },
    "cone-log": {
        "value": +1,
        "note": "log summand carries +(-1)^p df^(-): the [1]-shift negates"
        " the sheaf differential of (Omega(log), -df^)",
    },
    "cone-L": {
        "value": +1,
        "note": "connecting component of the cone differential is +(-1)^p L",
    },
    "delta-lift": {
        "value": +1,
        "note": "connecting morphism: lift to log residue, then apply"
        " d_Cech + (-1)^p df^(-) (the shifted log complex)",
    },
    "delta-cone": {
        "value": +1,
        "note": "on cone cochains the connecting morphism is the plain"
        " projection to the regular summand, no extra sign",
    },
    "ses-degree": {
        "value": -1,
        "note": "the residue projection lowers total degree by one: a log"
        " k-form maps to the (k-1)-form residue restricted to the divisor",
    },
    "delta-diagram-twist": {
        "value": -1,
        "note": "the lift-then-differentiate connecting morphism matches the"
        " cone projection only after scaling its Cech-degree-p component"
        " by (-1)^p; ses.connecting_delta applies it and checks that the"
        " twisted output is a cocycle",
    },
    "hkr-target": {
        "value": +1,
        "note": "chains over the curved line with curvature c map into"
        " (Omega, dc^(-)); curvature -f gives the ambient (Omega, -df^)",
    },
    "hkr-a-eps-head": {
        "value": +1,
        "note": "the one-odd-factor formula extends to the odd factor in"
        " position 0 with sign (-1)^0 = +1, coefficient not differentiated",
    },
    "todd-factor": {
        "value": -1,
        "note": "the strict square trace-vs-residue identity holds with the"
        " module action by minus the inverse Todd cochain; the opposite"
        " sign fails (checked by the acceptance suite both ways)",
    },
    "mf-basis-order": {
        "value": +1,
        "note": "trivializations order the even generator first, the odd"
        " generator second; transitions are diag(1, u_ij) acting by"
        " g_ij (F)_j g_ij^{-1} = (F)_i",
    },
    "sh-insertion": {
        "value": +1,
        "note": "the shuffle operator inserts n separate odd slots, each"
        " holding one copy of the twisted differential",
    },
    "phi-term": {
        "value": -1,
        "note": "the n-insertion term of the trace map carries (-1)^n",
    },
    "strict-vs-lax-homotopy": {
        "value": -1,
        "note": "dH + Hd = strict map minus lax map (= -h^1) for the"
        " two-slot homotopy of the strict/lax comparison",
    },
    "iso-homotopy": {
        "value": -1,
        "note": "dH + Hd = (first lax map) minus (second lax map) for the"
        " natural-isomorphism homotopy; the inserted inverse carries the"
        " component of the level the descent has reached; its term carries"
        " this constant times (-1)^(eps + |a_0..a_r| + r + n + p + q): each"
        " of the n alpha^-1 bars before it adds 1 although the insertion is"
        " even, and (-1)^(p+q) cancels the Cech twist of the target degree",
    },
    "restriction-homotopy": {
        "value": -1,
        "note": "dH + Hd = (Cech lax map after restriction) minus"
        " (restriction after global map), with p = -1 in the h^q sum",
    },
}


def sign(name: str) -> int:
    try:
        return _LEDGER[name]["value"]
    except KeyError:
        raise UndocumentedSign(
            f"sign constant {name!r} is not documented in the ledger"
        ) from None


def note(name: str) -> str:
    if name not in _LEDGER:
        raise UndocumentedSign(name)
    return _LEDGER[name]["note"]


def entries() -> dict:
    return {k: dict(v) for k, v in _LEDGER.items()}
