"""Helpers shared by the test modules."""

from pathlib import Path

from cechmf.cdg import CurvedLine, OYAlgebra, SheafAlgebraA, build_P, end_algebra
from cechmf.cech import CONEF, Cochain
from cechmf.forms import ConeForm, Form, LogForm, map_form_into
from cechmf.hochschild import HochChain, restrict_chain_into, restrictor
from cechmf.scene import scene_from_dict
from cechmf.scenes_builtin import builtin_scene_dict

# every kind of presheaf the package builds, each from a scene
PRESHEAVES = {
    "A": SheafAlgebraA,
    "O_f": lambda sc: CurvedLine(sc, 1),
    "O_-f": lambda sc: CurvedLine(sc, -1),
    "EndP": lambda sc: end_algebra(sc, build_P(sc)),
    "O_Y": OYAlgebra,
}

# SCENE-A2C sheared with c = 1: the scene file that tests/test_cli.py and
# the CI verify job run the command line on
SHEARED_FILE = Path(__file__).parent / "scenes" / "SCENE-A2C-SHEAR.json"
# the same scene with every vars list reversed: the divisor's coordinate x
# is variable 1 on every tuple, where every built-in scene has it at 0
POLE1_FILE = Path(__file__).parent / "scenes" / "SCENE-A2C-SHEAR-POLE1.json"


def sheared_a2c_spec(c="1") -> dict:
    """SCENE-A2C with chart 1 glued by y -> y + c*x^2 on the overlap.  Its
    restriction images have several terms, so x^m dx_K restricts to a sum
    of monomials, some of which gain a power of the pole x, and a
    restricted monomial slot of a Hochschild chain has several terms.
    With c = 1/2 the differential has non-integral entries."""
    spec = builtin_scene_dict("SCENE-A2C")
    spec["name"] = "SCENE-A2C-SHEAR"
    spec["charts"][1].update(f=f"x*y - {c}*x^3", g=f"y - {c}*x^2")
    spec["overlaps"][0]["res"]["1"] = {"x": "x", "y": f"y + {c}*x^2"}
    spec["global"]["res"]["1"] = {"x": "x", "y": f"y - {c}*x^2"}
    return spec


def sheared_a2c(c="1"):
    return scene_from_dict(sheared_a2c_spec(c))


def pull_back(w: Form, ringmap, dst_ring) -> Form:
    """The pullback of w along ringmap, as a Form of dst_ring."""
    flat: dict = {}
    map_form_into(flat, w, ringmap)
    return Form.from_flat(dst_ring, flat)


def restrict_to(chain: HochChain, J) -> HochChain:
    """The image of chain under the restriction functor to the tuple J."""
    out: dict = {}
    J = tuple(J)
    restrict_chain_into(out, chain, J, restrictor(chain.presheaf, chain.I, J))
    return HochChain(chain.presheaf, J, out)


def cone_of(scene, reg: Cochain, log: Cochain) -> Cochain:
    """The cone cochain of a form cochain and a log cochain."""
    entries = {}
    for I in set(reg.entries) | set(log.entries):
        ctx = scene.ctx(I)
        entries[I] = ConeForm(reg.entries.get(I, Form.zero(ctx.ring)), log.entries.get(I, LogForm.zero(ctx)))
    return Cochain(scene, CONEF, entries)
