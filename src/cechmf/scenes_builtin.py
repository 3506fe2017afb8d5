"""Built-in scenes used by the verification suites.

SCENE-A1   affine line, f = x^2, Y = {x=0}, g = x: curvature on a curve.
SCENE-A2   affine plane, f = x*y, Y = {x=0}, g = y: nontrivial g.
SCENE-P1   projective line, f = 0, Y = one point: multi-chart Cech, Todd,
           transitions.
SCENE-A2C  affine plane covered by two copies of itself: two-chart Cech
           combinatorics with rich global sections (for homotopy suites).
SCENE-P2   projective plane, f = 0, Y = a coordinate line: triple overlaps,
           nontrivial unit cocycles and a quadratic Todd term.
SCENE-A2D  affine plane covered by itself and the divisor complement D(x):
           asymmetric two-chart cover with rich global sections.
"""

from __future__ import annotations

import copy

from .scene import Scene, scene_from_dict

_SPECS = {
    "SCENE-A1": {
        "name": "SCENE-A1",
        "charts": [
            {"id": 0, "vars": ["x"], "inverted": [], "x": "x", "f": "x^2", "g": "x"},
        ],
        "overlaps": [],
        "global": {"vars": ["x"], "inverted": [], "res": {"0": {"x": "x"}}},
    },
    "SCENE-A2": {
        "name": "SCENE-A2",
        "charts": [
            {"id": 0, "vars": ["x", "y"], "inverted": [], "x": "x", "f": "x*y", "g": "y"},
        ],
        "overlaps": [],
        "global": {
            "vars": ["x", "y"],
            "inverted": [],
            "res": {"0": {"x": "x", "y": "y"}},
        },
    },
    "SCENE-P1": {
        "name": "SCENE-P1",
        "charts": [
            {"id": 0, "vars": ["t"], "inverted": [], "x": "t", "f": "0", "g": "0"},
            {"id": 1, "vars": ["s"], "inverted": [], "x": "1", "f": "0", "g": "0"},
        ],
        "overlaps": [
            {
                "tuple": [0, 1],
                "vars": ["t"],
                "inverted": ["t"],
                "res": {"0": {"t": "t"}, "1": {"s": {"num": "1", "den": "t"}}},
            }
        ],
        "global": {"vars": [], "inverted": [], "res": {"0": {}, "1": {}}},
    },
    "SCENE-A2C": {
        "name": "SCENE-A2C",
        "charts": [
            {"id": 0, "vars": ["x", "y"], "inverted": [], "x": "x", "f": "x*y", "g": "y"},
            {"id": 1, "vars": ["x", "y"], "inverted": [], "x": "x", "f": "x*y", "g": "y"},
        ],
        "overlaps": [
            {
                "tuple": [0, 1],
                "vars": ["x", "y"],
                "inverted": [],
                "res": {
                    "0": {"x": "x", "y": "y"},
                    "1": {"x": "x", "y": "y"},
                },
            }
        ],
        "global": {
            "vars": ["x", "y"],
            "inverted": [],
            "res": {"0": {"x": "x", "y": "y"}, "1": {"x": "x", "y": "y"}},
        },
    },
    "SCENE-P2": {
        "name": "SCENE-P2",
        # homogeneous coordinates (X0:X1:X2), Y = {X0 = 0}, chart i = {Xi != 0};
        # chart 0: x1 = X1/X0, x2 = X2/X0; chart 1: y1 = X0/X1, y2 = X2/X1;
        # chart 2: z1 = X0/X2, z2 = X1/X2
        "charts": [
            {"id": 0, "vars": ["x1", "x2"], "inverted": [], "x": "1", "f": "0", "g": "0"},
            {"id": 1, "vars": ["y1", "y2"], "inverted": [], "x": "y1", "f": "0", "g": "0"},
            {"id": 2, "vars": ["z1", "z2"], "inverted": [], "x": "z1", "f": "0", "g": "0"},
        ],
        "overlaps": [
            {
                "tuple": [0, 1],
                "vars": ["x1", "x2"],
                "inverted": ["x1"],
                "res": {
                    "0": {"x1": "x1", "x2": "x2"},
                    "1": {"y1": {"num": "1", "den": "x1"}, "y2": {"num": "x2", "den": "x1"}},
                },
            },
            {
                "tuple": [0, 2],
                "vars": ["x1", "x2"],
                "inverted": ["x2"],
                "res": {
                    "0": {"x1": "x1", "x2": "x2"},
                    "2": {"z1": {"num": "1", "den": "x2"}, "z2": {"num": "x1", "den": "x2"}},
                },
            },
            {
                "tuple": [1, 2],
                "vars": ["y1", "y2"],
                "inverted": ["y2"],
                "res": {
                    "1": {"y1": "y1", "y2": "y2"},
                    "2": {"z1": {"num": "y1", "den": "y2"}, "z2": {"num": "1", "den": "y2"}},
                },
            },
            {
                "tuple": [0, 1, 2],
                "vars": ["x1", "x2"],
                "inverted": ["x1", "x2"],
                "res": {
                    "0": {"x1": "x1", "x2": "x2"},
                    "1": {"y1": {"num": "1", "den": "x1"}, "y2": {"num": "x2", "den": "x1"}},
                    "2": {"z1": {"num": "1", "den": "x2"}, "z2": {"num": "x1", "den": "x2"}},
                },
            },
        ],
        "global": {"vars": [], "inverted": [], "res": {"0": {}, "1": {}, "2": {}}},
    },
    "SCENE-A2D": {
        "name": "SCENE-A2D",
        "charts": [
            {"id": 0, "vars": ["x", "y"], "inverted": [], "x": "x", "f": "x*y", "g": "y"},
            {"id": 1, "vars": ["x", "y"], "inverted": ["x"], "x": "1", "f": "x*y", "g": "x*y"},
        ],
        "overlaps": [
            {
                "tuple": [0, 1],
                "vars": ["x", "y"],
                "inverted": ["x"],
                "res": {
                    "0": {"x": "x", "y": "y"},
                    "1": {"x": "x", "y": "y"},
                },
            }
        ],
        "global": {
            "vars": ["x", "y"],
            "inverted": [],
            "res": {"0": {"x": "x", "y": "y"}, "1": {"x": "x", "y": "y"}},
        },
    },
}

MAIN_SCENES = ("SCENE-A1", "SCENE-A2", "SCENE-P1")
TWO_CHART_SCENES = ("SCENE-P1", "SCENE-A2C")


def builtin_scene(name: str, trunc: int = 6, window: int = 4) -> Scene:
    if name not in _SPECS:
        raise KeyError(f"unknown built-in scene {name!r}")
    spec = dict(_SPECS[name])
    spec["trunc"] = trunc
    spec["window"] = window
    return scene_from_dict(spec)


def builtin_scene_dict(name: str) -> dict:
    """A deep copy of the spec, so editing it leaves the built-in scene intact."""
    return copy.deepcopy(_SPECS[name])


def all_builtin_names():
    return tuple(_SPECS)
