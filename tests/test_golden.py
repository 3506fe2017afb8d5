"""Printed reports, byte for byte, against the files in tests/golden.

A change to how the engine computes (the type of its exact coefficients,
say) must not change what it prints.  A change that alters a report on
purpose rewrites its file and says why.
"""

from pathlib import Path

import pytest

from cechmf import cli
from cechmf.scenes_builtin import all_builtin_names
from conftest import SHEARED_FILE

GOLDEN = Path(__file__).parent / "golden"

# SCENE-P2 fails pushforward:homology-context (windowed homology of its
# omega complex does not settle), so its pushforward report exits 1
PUSHFORWARD_EXIT = {"SCENE-P2": 1}

CASES = [
    ("verify_SCENE-A1_all.json", ["verify", "--scene", "SCENE-A1", "--suite", "all"], 0),
    # a two-chart scene, so the Cech restriction of chains runs too
    ("verify_SCENE-P1_all.json", ["verify", "--scene", "SCENE-P1", "--suite", "all"], 0),
    # every suite on the plane with a nontrivial g, on one chart and on two
    ("verify_SCENE-A2_all.json", ["verify", "--scene", "SCENE-A2", "--suite", "all"], 0),
    ("verify_SCENE-A2C_all.json", ["verify", "--scene", "SCENE-A2C", "--suite", "all"], 0),
    # the engine against the oracle on the largest scene; it exits 1 because
    # homology:stable fails (window 4 vs 5: omega homology does not settle)
    ("verify_SCENE-P2_homology.json", ["verify", "--scene", "SCENE-P2", "--suite", "homology"], 1),
] + [
    # the scene file whose gluing is not monomial: a restricted monomial
    # slot of the trace's h^q has several terms
    (f"verify_SCENE-A2C-SHEAR_{suite}.json", ["verify", "--scene", str(SHEARED_FILE), "--suite", suite], 0)
    for suite in ("phi", "hq")
] + [
    (f"homology_{name}.json", ["homology", "--scene", name], 0)
    for name in all_builtin_names()
] + [
    (f"pushforward_{name}.json", ["pushforward", "--scene", name], PUSHFORWARD_EXIT.get(name, 0))
    for name in all_builtin_names()
]


@pytest.mark.parametrize("filename, argv, code", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(capsys, filename, argv, code):
    assert cli.main(argv + ["--format", "json"]) == code
    assert capsys.readouterr().out == (GOLDEN / filename).read_text()
