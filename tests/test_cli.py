"""The command-line driver, run in-process through `cli.main`."""

import json

from cechmf import cli
from cechmf.scenes_builtin import builtin_scene_dict


def test_verify_reports_invalid_scene(tmp_path, capsys):
    spec = builtin_scene_dict("SCENE-A2")
    spec["charts"][0]["f"] = "x"
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["verify", "--scene", str(path), "--suite", "d2", "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert not report["ok"]
    failed = [c["id"] for s in report["suites"] for c in s["checks"] if not c["passed"]]
    assert failed == ["scene:f=x*g chart 0"]


def test_verify_unknown_suite(capsys):
    assert cli.main(["verify", "--scene", "SCENE-A1", "--suite", "nosuch"]) == 2
    assert "unknown suite 'nosuch'" in capsys.readouterr().err


def test_homology_reports_dims(capsys):
    assert cli.main(["homology", "--scene", "SCENE-A1", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    (suite,) = report["suites"]
    assert suite["suite"] == "homology"
    dims = {c["id"]: c["payload"]["dims"] for c in suite["checks"]}
    assert set(dims) == {"homology:omega", "homology:omega_y", "homology:cone"}
    for d in dims.values():
        assert {"even", "odd", "stable", "window"} <= set(d)
