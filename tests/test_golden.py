"""Printed reports, byte for byte, against the files in tests/golden.

A change to how the engine computes (the type of its exact coefficients,
say) must not change what it prints.  A change that alters a report on
purpose rewrites its file and says why.
"""

from pathlib import Path

import pytest

from cechmf import cli
from cechmf.scenes_builtin import all_builtin_names

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("verify_SCENE-A1_all.json", ["verify", "--scene", "SCENE-A1", "--suite", "all"]),
    # a two-chart scene, so the Cech restriction of chains runs too
    ("verify_SCENE-P1_all.json", ["verify", "--scene", "SCENE-P1", "--suite", "all"]),
] + [
    (f"homology_{name}.json", ["homology", "--scene", name])
    for name in all_builtin_names()
]


@pytest.mark.parametrize("filename, argv", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(capsys, filename, argv):
    assert cli.main(argv + ["--format", "json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / filename).read_text()
